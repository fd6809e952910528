"""Bundled verification suites; exact checks only, at desk scale.

Each suite replays one family of claims: leaf counts against the Tribonacci
numbers, agreement of the breadth-first oracle with the leaf-product
embedding, the two-sided annihilation identities, the semigroup identity
inherited from the bicyclic monoid, centrality modulo the first-level
congruences, pairwise incomparability of leaf congruences, and the component
arithmetic of the leaf schemas.  Suites are deterministic given their
parameters; the sampled suite takes an explicit seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import core, representation as rep_mod
from .bicyclic import Bicyclic
from .core import congruence_class, eq_oracle, first_level_pairs, verify_boxplus, words_up_to
from .representation import (arc_unit_tuple, arc_element_image, image,
                             incomparability_witness, leaf_representations)
from .tree import enumerate_leaves, tribonacci


class UnknownSuite(Exception):
    pass


class BoundsExceeded(Exception):
    """Requested parameters are beyond the documented desk-scale bounds."""


@dataclass
class SuiteReport:
    suite: str
    params: dict
    instances: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_json_dict(self) -> dict:
        # elapsed is deliberately left out: report lines stay byte-stable
        # across runs for identical inputs and seeds.
        return {
            "format": 1,
            "suite": self.suite,
            "params": self.params,
            "instances": self.instances,
            "pass": self.passed,
            "failures": self.failures,
        }


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BoundsExceeded(message)


def _class_partition(n: int, max_len: int) -> dict[core.Word, int]:
    """Class id per word, all words of length <= max_len, via the oracle."""
    class_id: dict[core.Word, int] = {}
    next_id = 0
    for word in words_up_to(n, max_len):
        if word in class_id:
            continue
        for member in congruence_class(word):
            class_id[member] = next_id
        next_id += 1
    return class_id


def _corrupt_one(reps, rng: random.Random):
    """Replace one arc endpoint image by p^2 in its own bicyclic component.

    The tampered table is no longer a homomorphism: the relation class
    {y x y, y y x} of the arc's endpoints gets two different images, so the
    faithfulness comparison must report discrepancies.
    """
    reps = list(reps)
    idx = rng.randrange(len(reps))
    rep = reps[idx]
    x, y = rep.leaf.arcs[0]
    comp_idx = rep.schema.index(rep_mod.Component("B", ("arc", x, y)))
    images = list(rep.images)
    bad = list(images[x - 1])
    bad[comp_idx] = Bicyclic(2, 0)
    images[x - 1] = tuple(bad)
    reps[idx] = rep_mod.LeafRepresentation(rep.leaf, rep.schema, tuple(images))
    return tuple(reps), rep.leaf.id


def _run_counts(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    max_n = params.setdefault("max_n", 12)
    _require(3 <= max_n <= 16, f"counts needs 3 <= max_n <= 16, got {max_n}")
    failures = []
    instances = 0
    table = {}
    for n in range(3, max_n + 1):
        instances += 1
        got = len(enumerate_leaves(n))
        want = tribonacci(n)
        table[n] = got
        if got != want:
            failures.append(f"n={n}: {got} leaves, expected T_{n}={want}")
    params["leaf_counts"] = table
    return instances, failures


def _run_faithfulness(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    n = params.setdefault("n", 3)
    max_len = params.setdefault("max_len", 5 if n == 3 else 4)
    corrupt = params.setdefault("corrupt", False)
    _require(n in (3, 4), f"faithfulness needs n in (3, 4), got {n}")
    _require(1 <= max_len <= (6 if n == 3 else 4),
             f"faithfulness bound exceeded: n={n}, max_len={max_len}")
    class_id = _class_partition(n, max_len)
    reps = leaf_representations(n)
    corrupted_leaf = None
    if corrupt:
        reps, corrupted_leaf = _corrupt_one(reps, rng)
        params["corrupted_leaf"] = corrupted_leaf
    words = list(words_up_to(n, max_len))
    signature = {w: tuple(image(rep, w) for rep in reps) for w in words}
    failures = []
    instances = 0
    for a in range(len(words)):
        wa = words[a]
        for b in range(a + 1, len(words)):
            wb = words[b]
            instances += 1
            oracle_eq = class_id[wa] == class_id[wb]
            embed_eq = signature[wa] == signature[wb]
            if oracle_eq != embed_eq:
                failures.append(
                    f"({core.format_word(wa)!r}, {core.format_word(wb)!r}): "
                    f"oracle={oracle_eq}, embedding={embed_eq}")
                if len(failures) >= 20:
                    failures.append("... further discrepancies suppressed")
                    return instances, failures
    return instances, failures


def _run_boxplus(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    max_n = params.setdefault("max_n", 5)
    max_word_len = params.setdefault("max_word_len", 3)
    _require(3 <= max_n <= 6, f"boxplus needs 3 <= max_n <= 6, got {max_n}")
    _require(0 <= max_word_len <= 4,
             f"boxplus needs max_word_len <= 4, got {max_word_len}")
    failures = []
    instances = 0
    for n in range(3, max_n + 1):
        words = list(words_up_to(n, max_word_len))
        for variant in (22, 23, 32):
            for indices in core.boxplus_tuples(n, variant):
                for w in words:
                    instances += 1
                    if not verify_boxplus(n, variant, w, **indices):
                        failures.append(
                            f"n={n} variant={variant} {indices} w={core.format_word(w)!r}")
    return instances, failures


def _adjan_words(x: core.Word, y: core.Word) -> tuple[core.Word, core.Word]:
    outer = x + y + y + x
    return outer + x + y + outer, outer + y + x + outer


def _run_identity(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    samples = params.setdefault("samples", 200)
    max_n = params.setdefault("max_n", 5)
    max_len = params.setdefault("max_len", 4)
    _require(1 <= samples <= 10_000, f"identity needs samples <= 10000, got {samples}")
    _require(3 <= max_n <= 6 and 1 <= max_len <= 6,
             f"identity bound exceeded: max_n={max_n}, max_len={max_len}")
    failures = []
    cross_checked = 0
    for index in range(samples):
        n = rng.randint(3, max_n)
        x = tuple(rng.randint(1, n) for _ in range(rng.randint(1, max_len)))
        y = tuple(rng.randint(1, n) for _ in range(rng.randint(1, max_len)))
        lhs, rhs = _adjan_words(x, y)
        if not rep_mod.eq_via_embedding(n, lhs, rhs):
            failures.append(f"sample {index}: n={n} x={x} y={y} (embedding)")
            continue
        if len(lhs) <= 10:
            try:
                if not eq_oracle(lhs, rhs):
                    failures.append(f"sample {index}: n={n} x={x} y={y} (oracle)")
                else:
                    cross_checked += 1
            except core.ClassCapExceeded:
                pass
    params["oracle_cross_checks"] = cross_checked
    return samples, failures


def _run_centrality(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    max_n = params.setdefault("max_n", 4)
    max_len = params.setdefault("max_len", 4)
    _require(3 <= max_n <= 5 and 0 <= max_len <= 5,
             f"centrality bound exceeded: max_n={max_n}, max_len={max_len}")
    failures = []
    instances = 0
    for n in range(3, max_n + 1):
        words = list(words_up_to(n, max_len))
        for s in range(2, n):
            pairs = first_level_pairs("dot", s, n)
            for w in words:
                instances += 1
                if not eq_oracle((s,) + w, w + (s,), pairs):
                    failures.append(f"dot n={n} s={s} w={core.format_word(w)!r}")
        for s in range(2, n + 1):
            pairs = first_level_pairs("arc", s, n)
            head = (s, s - 1)
            for w in words:
                instances += 1
                if not eq_oracle(head + w, w + head, pairs):
                    failures.append(f"arc n={n} s={s} w={core.format_word(w)!r}")
    return instances, failures


def _run_incomparability(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    n = params.setdefault("n", 4)
    max_len = params.setdefault("max_len", 6)
    _require(3 <= n <= 5 and 1 <= max_len <= 8,
             f"incomparability bound exceeded: n={n}, max_len={max_len}")
    reps = leaf_representations(n)
    failures = []
    instances = 0
    for r1 in reps:
        for r2 in reps:
            if r1 == r2:
                continue
            instances += 1
            witness = incomparability_witness(r1, r2, max_len)
            if witness is None:
                failures.append(
                    f"({r1.leaf.id!r}, {r2.leaf.id!r}): inconclusive at max_len={max_len}")
                continue
            w, v = witness
            if image(r1, w) != image(r1, v) or image(r2, w) == image(r2, v):
                failures.append(f"({r1.leaf.id!r}, {r2.leaf.id!r}): bogus witness {witness}")
    return instances, failures


def _run_schema(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    max_n = params.setdefault("max_n", 10)
    _require(3 <= max_n <= 12, f"schema needs 3 <= max_n <= 12, got {max_n}")
    failures = []
    instances = 0
    for n in range(3, max_n + 1):
        total = 0
        for rep in leaf_representations(n):
            instances += 1
            combined = rep.c + 2 * rep.d
            total += combined
            if combined != n:
                failures.append(f"n={n} leaf {rep.leaf.id!r}: c+2d = {combined} != {n}")
            for arc in rep.leaf.arcs:
                instances += 1
                if arc_element_image(rep, arc) != arc_unit_tuple(rep, arc):
                    failures.append(f"n={n} leaf {rep.leaf.id!r}: arc {arc} image not a unit")
        want = n * tribonacci(n)
        instances += 1
        if total != want:
            failures.append(f"n={n}: sum of c+2d over leaves is {total}, expected {want}")
    return instances, failures


_SUITES = {
    "counts": _run_counts,
    "faithfulness": _run_faithfulness,
    "boxplus": _run_boxplus,
    "identity": _run_identity,
    "centrality": _run_centrality,
    "incomparability": _run_incomparability,
    "schema": _run_schema,
}

SUITE_NAMES = tuple(_SUITES)

#: The default battery run by `chinese-monoid verify all`.
DEFAULT_BATTERY = (
    ("counts", {}),
    ("faithfulness", {"n": 3, "max_len": 5}),
    ("faithfulness", {"n": 4, "max_len": 4}),
    ("boxplus", {}),
    ("identity", {}),
    ("centrality", {}),
    ("incomparability", {}),
    ("schema", {}),
)


def run_suite(name: str, seed: int = 0, **params) -> SuiteReport:
    """Run one suite and return its report; unknown names raise UnknownSuite."""
    runner = _SUITES.get(name)
    if runner is None:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    rng = random.Random(seed)
    params = dict(params)
    params["seed"] = seed
    start = time.perf_counter()
    instances, failures = runner(params, rng)
    elapsed = time.perf_counter() - start
    return SuiteReport(suite=name, params=params, instances=instances,
                       failures=failures, elapsed=elapsed)
