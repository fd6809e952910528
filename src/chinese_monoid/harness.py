"""Bundled verification suites; exact checks only, at desk scale.

Each suite replays one family of claims: leaf counts against the Tribonacci
numbers, agreement of the breadth-first oracle with the leaf-product
embedding, the two-sided annihilation identities, the semigroup identity
inherited from the bicyclic monoid, centrality modulo the first-level
congruences, pairwise incomparability of leaf congruences, and the component
arithmetic of the leaf schemas.  Suites are deterministic given their
parameters; the sampled suite takes an explicit seed.  `import chinese_monoid`
leaves this module unloaded until one of its names is read from the package.

Faithfulness compares the oracle's partition of the words (`_class_partition`)
with the embedding's (`column_values`, one fold per distinct column and word
prefix); only if they differ does it scan every pair of words to list failures.
Centrality asks the oracle whether each element commutes with the n letters,
which proves it for every word, and labels words only to list failures.
Boxplus decides each projection's distinct images, not each word.  Schema
reads each leaf's table as generator rows once and checks each arc (x, y) by
multiplying rows y and x against the expected unit tuple.

`SUITES` is the one registry: each suite's runner and its parameters in
report order, name -> (default, low, high).  `run_suite` refuses a parameter
the suite does not read or a value that is not an int, fills in the defaults
and checks every range before the runner starts, so no suite body sets a
default or checks a bound.  The one exception is faithfulness's floor of 3 on
`max_len` with `corrupt`: the tampered class has length 3, so a shorter run
could not fail.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterable

from . import core, representation as rep_mod
from .bicyclic import IDENTITY
from .core import congruence_class, eq_oracle, first_level_pairs, words_up_to
from .representation import (column_values, image, incomparability_witness,
                             leaf_representations)
from .tree import MAX_TREE_RANK, enumerate_leaves, tribonacci


class UnknownSuite(Exception):
    pass


class BoundsExceeded(Exception):
    """Requested parameters are unread by the suite or beyond its desk-scale bounds."""


class SuiteReport:
    def __init__(self, suite: str, params: dict, instances: int,
                 failures: list[str] | None = None, elapsed: float = 0.0) -> None:
        self.suite = suite
        self.params = params
        self.instances = instances
        self.failures: list[str] = [] if failures is None else failures
        self.elapsed = elapsed

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


def _class_partition(words: Iterable[core.Word],
                     extra: core.CongruencePairs = core.NO_EXTRA) -> dict[core.Word, int]:
    """Class id per member of every class that meets `words`, via the oracle.

    Modulo the relations and `extra`, each class is closed once, the first
    time one of `words` falls in it, and all its members get its id; a word
    of no such class gets none.
    """
    class_id: dict[core.Word, int] = {}
    next_id = 0
    for word in words:
        if word in class_id:
            continue
        for member in congruence_class(word, extra):
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
    bad = list(rep.columns[comp_idx])  # a copy: the leaves of a rank share the column
    bad[x - 1] = (2, 0)  # p^2
    columns = rep.columns[:comp_idx] + (tuple(bad),) + rep.columns[comp_idx + 1:]
    reps[idx] = rep_mod.LeafRepresentation(rep.leaf, rep.schema, columns)
    return tuple(reps), rep.leaf.id


def _run_counts(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    failures = []
    instances = 0
    table = {}
    for n in range(3, params["max_n"] + 1):
        instances += 1
        got = len(enumerate_leaves(n))
        want = tribonacci(n)
        table[n] = got
        if got != want:
            failures.append(f"n={n}: {got} leaves, expected T_{n}={want}")
    params["leaf_counts"] = table
    return instances, failures


def _run_faithfulness(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    n, max_len = params["n"], params["max_len"]
    if params["corrupt"] and max_len < 3:
        raise BoundsExceeded(f"faithfulness with corrupt needs max_len >= 3, the length of "
                             f"the tampered relation class, got {max_len}")
    words = list(words_up_to(n, max_len))
    class_id = _class_partition(words)
    reps = leaf_representations(n)
    if params["corrupt"]:
        reps, params["corrupted_leaf"] = _corrupt_one(reps, rng)
    signature = column_values(reps, words)
    # The verdicts agree on every pair iff the two partitions coincide, that
    # is iff the joint labels are no more than the labels of either side.
    labels = {(class_id[w], signature[w]) for w in words}
    if len(labels) == len({class_id[w] for w in words}) == len(set(signature.values())):
        return len(words) * (len(words) - 1) // 2, []
    failures = []
    for instances, (wa, wb) in enumerate(itertools.combinations(words, 2), 1):
        oracle_eq = class_id[wa] == class_id[wb]
        if oracle_eq != (signature[wa] == signature[wb]):
            failures.append(f"({core.format_word(wa)!r}, {core.format_word(wb)!r}): "
                            f"oracle={oracle_eq}, embedding={not oracle_eq}")
            if len(failures) >= 20:
                return instances, failures + ["... further discrepancies suppressed"]
    return instances, failures  # the partitions differ, so there was a pair


def _run_boxplus(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    failures = []
    instances = 0
    for n in range(3, params["max_n"] + 1):
        words = list(words_up_to(n, params["max_word_len"]))
        tuples = [(v, indices) for v in (22, 23, 32) for indices in core.boxplus_tuples(n, v)]
        instances += len(tuples) * len(words)
        failures += (f"n={n} variant={variant} {indices} w={core.format_word(w)!r}"
                     for variant, indices, w in core.boxplus_failures(n, words, tuples))
    return instances, failures


def _adjan_words(x: core.Word, y: core.Word) -> tuple[core.Word, core.Word]:
    outer = x + y + y + x
    return outer + x + y + outer, outer + y + x + outer


def _run_identity(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    samples, max_n, max_len = params["samples"], params["max_n"], params["max_len"]
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
        # |lhs| = 5(|x| + |y|) <= 10 only for one letter each: 10 letters over
        # at most 2 generators, a class of at most C(10, 5) = 252 words.
        if len(lhs) <= 10:
            if not eq_oracle(lhs, rhs):
                failures.append(f"sample {index}: n={n} x={x} y={y} (oracle)")
            else:
                cross_checked += 1
    params["oracle_cross_checks"] = cross_checked
    return samples, failures


def _run_centrality(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    # a_s (dot) or a_s a_{s-1} (arc) is central modulo its congruence iff it
    # commutes with each letter: a congruence is compatible with products, so
    # head + w and w + head then share a class for every w, by induction on
    # |w|.  Only if a letter fails are the words head + w labelled, to list w.
    failures = []
    instances = 0
    for n in range(3, params["max_n"] + 1):
        words = list(words_up_to(n, params["max_len"]))
        checks = [("dot", s, (s,)) for s in range(2, n)]
        checks += [("arc", s, (s, s - 1)) for s in range(2, n + 1)]
        for kind, s, head in checks:
            pairs = first_level_pairs(kind, s, n)
            instances += len(words)
            if all(eq_oracle(head + (g,), (g,) + head, pairs) for g in range(1, n + 1)):
                continue
            class_id = _class_partition((head + w for w in words), pairs)
            failures += (f"{kind} n={n} s={s} w={core.format_word(w)!r}"
                         for w in words if class_id.get(w + head) != class_id[head + w])
    return instances, failures


def _run_incomparability(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    reps = leaf_representations(params["n"])
    failures = []
    for r1, r2 in itertools.permutations(reps, 2):
        w, v = incomparability_witness(r1, r2)
        if image(r1, w) != image(r1, v) or image(r2, w) == image(r2, v):
            failures.append(f"({r1.leaf.id!r}, {r2.leaf.id!r}): bogus witness {w, v}")
    return len(reps) * (len(reps) - 1), failures


def _run_schema(params: dict, rng: random.Random) -> tuple[int, list[str]]:
    failures = []
    instances = 0
    for n in range(3, params["max_n"] + 1):
        total = 0
        for rep in leaf_representations(n):
            kinds, arcs = [comp.kind for comp in rep.schema], rep.leaf.arcs
            instances += 1 + len(arcs)
            combined = kinds.count("N") + 2 * kinds.count("B")
            total += combined
            if combined != n:
                failures.append(f"n={n} leaf {rep.leaf.id!r}: c+2d = {combined} != {n}")
            # a_y a_x, rows[y-1] times rows[x-1], must be the neutral tuple but
            # for 1 at each component equal to Component("Z", ("arc", x, y)).
            rows = list(zip(*rep.columns))
            neutral, z_at = [IDENTITY if kind == "B" else 0 for kind in kinds], {}
            for index in [index for index, kind in enumerate(kinds) if kind == "Z"]:
                z_at.setdefault(rep.schema[index].origin, []).append(index)
            for x, y in arcs:
                unit = neutral.copy()
                for index in z_at.get(("arc", x, y), ()):
                    unit[index] = 1
                if unit != [((a[0], a[1] - e[0] + e[1]) if a[1] >= e[0] else
                             (a[0] + e[0] - a[1], e[1])) if kind == "B" else a + e
                            for kind, a, e in zip(kinds, rows[y - 1], rows[x - 1])]:
                    failures.append(f"n={n} leaf {rep.leaf.id!r}: arc {(x, y)} image not a unit")
        want = n * tribonacci(n)
        instances += 1
        if total != want:
            failures.append(f"n={n}: sum of c+2d over leaves is {total}, expected {want}")
    return instances, failures


#: Each suite's runner and parameters in report order: name -> (default, low, high).
SUITES = {
    "counts": (_run_counts, {"max_n": (12, 3, MAX_TREE_RANK)}),
    "faithfulness": (_run_faithfulness, {"n": (3, 3, 4), "max_len": (5, 1, 6),
                                         "corrupt": (False, False, True)}),
    "boxplus": (_run_boxplus, {"max_n": (5, 3, 6), "max_word_len": (3, 0, 4)}),
    "identity": (_run_identity, {"samples": (200, 1, 10_000), "max_n": (5, 3, 6),
                                 "max_len": (4, 1, 6)}),
    "centrality": (_run_centrality, {"max_n": (4, 3, 5), "max_len": (4, 0, 5)}),
    "incomparability": (_run_incomparability, {"n": (4, 3, 10)}),
    "schema": (_run_schema, {"max_n": (10, 3, 12)}),
}

SUITE_NAMES = tuple(SUITES)

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
    """Run one suite and return its report.

    An unknown name raises UnknownSuite.  Before the runner starts, a seed
    that is not an int, a parameter the suite does not read, or a value that
    is not an int in its range (a bool counts as one), raises
    BoundsExceeded; missing parameters take their defaults.
    """
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if not isinstance(seed, int):
        raise BoundsExceeded(f"{name} needs an int seed, got {seed!r}")
    runner, table = SUITES[name]
    unread = [key for key in params if key not in table]
    if unread:
        raise BoundsExceeded(f"{name} does not read {', '.join(unread)}; "
                             f"it reads {', '.join(table)}")
    params = dict(params, seed=seed)
    for key, (default, low, high) in table.items():
        value = params.setdefault(key, default)
        if not isinstance(value, int) or not low <= value <= high:
            raise BoundsExceeded(f"{name} needs {low} <= {key} <= {high}, got {value!r}")
    rng = random.Random(seed)
    start = time.perf_counter()
    instances, failures = runner(params, rng)
    elapsed = time.perf_counter() - start
    return SuiteReport(suite=name, params=params, instances=instances,
                       failures=failures, elapsed=elapsed)
