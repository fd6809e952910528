"""Explicit homomorphisms attached to the leaves of the diagram tree.

Every leaf diagram determines a quotient of the monoid that embeds into a
direct product of copies of the naturals and of (bicyclic x integers)
blocks.  Replaying the leaf's steps builds the generator images directly:

  * a dot on s appends one natural component; a_s maps to exponent 1 there,
    everything else to 0, and s retires;
  * an arc joining (x, y) appends a bicyclic component and an integer
    component; a_x maps to (p, 1), a_y to (q, 0), still-active generators
    below x to (p, 0), above y to (q, 0), retired ones to the identity,
    and x, y retire;
  * generators never used get a trailing natural component of their own
    (they generate a free commutative factor).

The product of the images over all leaves decides word equality exactly,
which is the fast counterpart of the breadth-first oracle in `core`.  Each
component of an image depends only on that component's column of the
generator-image table: N and Z columns add ints along the word, B columns
fold bicyclic pairs.  Across the T_n leaves of rank n there are only
n(n-1)/2 distinct B columns and n distinct N/Z columns (pinned by
`test_distinct_columns_are_quadratic`), so `eq_via_embedding` evaluates each
distinct column once: O((n^2 + n)|w|) instead of O(T_n n |w|).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .bicyclic import IDENTITY, P, Q, Bicyclic
from .core import Word
from .tree import Diagram, enumerate_leaves


class NotALeaf(Exception):
    """Representations exist only for leaves of the diagram tree."""


class NotAnArcStep(Exception):
    """The requested pair is not an arc of this leaf."""


class BadLeafPair(ValueError):
    """A witness needs two different leaf representations of the same rank."""


class Component(NamedTuple):
    kind: str            # "N" | "B" | "Z"
    origin: tuple        # ("dot", s) | ("arc", x, y) | ("free", g)

    def origin_str(self) -> str:
        return " ".join(str(part) for part in self.origin)


ImageTuple = tuple  # entries: int for N/Z components, Bicyclic for B


@dataclass(frozen=True)
class LeafRepresentation:
    leaf: Diagram
    schema: tuple[Component, ...]
    images: tuple[ImageTuple, ...]  # index g-1 holds the image of generator g

    @property
    def n(self) -> int:
        return self.leaf.n

    @property
    def c(self) -> int:
        """Number of natural components."""
        return sum(1 for comp in self.schema if comp.kind == "N")

    @property
    def d(self) -> int:
        """Number of (bicyclic, integer) component pairs."""
        return sum(1 for comp in self.schema if comp.kind == "B")

    def image_of(self, g: int) -> ImageTuple:
        return self.images[g - 1]


def identity_tuple(schema: tuple[Component, ...]) -> ImageTuple:
    return tuple(IDENTITY if comp.kind == "B" else 0 for comp in schema)


def tuple_mul(schema: tuple[Component, ...], a: ImageTuple, b: ImageTuple) -> ImageTuple:
    """Componentwise product of two images; the tests fold it as `image`'s reference."""
    return tuple(
        x * y if comp.kind == "B" else x + y
        for comp, x, y in zip(schema, a, b)
    )


def build_representation(leaf: Diagram) -> LeafRepresentation:
    """Generator-image table of the leaf's quotient, per the module rules."""
    if not leaf.is_leaf:
        raise NotALeaf(f"{leaf.id!r} is not a leaf")
    n = leaf.n
    schema: list[Component] = []
    vectors: list[list] = [[] for _ in range(n)]
    active = set(range(1, n + 1))
    dots = iter(leaf.dots)
    arcs = iter(leaf.arcs)
    for step in leaf.steps:
        kind = step[0] if isinstance(step, tuple) else step
        if kind in ("d", "L", "R"):
            s = next(dots)
            schema.append(Component("N", ("dot", s)))
            for g in range(1, n + 1):
                vectors[g - 1].append(1 if g == s else 0)
            active.discard(s)
        else:
            x, y = next(arcs)
            schema.append(Component("B", ("arc", x, y)))
            schema.append(Component("Z", ("arc", x, y)))
            for g in range(1, n + 1):
                if g == x:
                    vectors[g - 1] += [P, 1]
                elif g == y:
                    vectors[g - 1] += [Q, 0]
                elif g in active:
                    vectors[g - 1] += [P if g < x else Q, 0]
                else:
                    vectors[g - 1] += [IDENTITY, 0]
            active.discard(x)
            active.discard(y)
    for g in sorted(active):
        schema.append(Component("N", ("free", g)))
        for h in range(1, n + 1):
            vectors[h - 1].append(1 if h == g else 0)
    return LeafRepresentation(
        leaf=leaf,
        schema=tuple(schema),
        images=tuple(tuple(vec) for vec in vectors),
    )


def _column_value(kind: str, entries: list) -> int | Bicyclic:
    """Value of one component on a word, given its table entries along the word.

    N and Z entries add.  B entries multiply in order, folded on the
    exponents by the rule of `bicyclic.bmul`: any p^k q^l entry is allowed.
    """
    if kind != "B":
        return sum(entries)
    i = j = 0
    for entry in entries:
        k, l = entry.i, entry.j
        if j >= k:
            j += l - k
        else:
            i += k - j
            j = l
    return Bicyclic(i, j)


def image(rep: LeafRepresentation, word: Word) -> ImageTuple:
    """Componentwise product of the generator images along the word."""
    rows = [rep.images[letter - 1] for letter in word]
    return tuple(_column_value(comp.kind, [row[c] for row in rows])
                 for c, comp in enumerate(rep.schema))


@lru_cache(maxsize=None)
def leaf_representations(n: int) -> tuple[LeafRepresentation, ...]:
    """All leaf representations of rank n, in leaf enumeration order."""
    return tuple(build_representation(leaf) for leaf in enumerate_leaves(n))


@lru_cache(maxsize=None)
def _distinct_columns(n: int) -> tuple[tuple[str, tuple], ...]:
    """Every distinct (kind, column) of the rank-n leaf tables, N/Z ones first.

    A column holds one component's entries for generators 1..n.  N and Z
    columns share the kind "N", since both add their entries.  They come
    first because they are the cheaper ones and already separate words whose
    letter counts differ.
    """
    columns: dict[tuple[str, tuple], None] = {}
    for rep in leaf_representations(n):
        for comp, column in zip(rep.schema, zip(*rep.images)):
            columns["B" if comp.kind == "B" else "N", column] = None
    return tuple(sorted(columns, key=lambda key: key[0] == "B"))


def eq_via_embedding(n: int, w: Word, v: Word) -> bool:
    """Decide w = v by comparing images under every leaf representation.

    Each distinct table column is compared once, stopping at the first that
    separates w and v.
    """
    w_index = [letter - 1 for letter in w]
    v_index = [letter - 1 for letter in v]
    return all(_column_value(kind, [column[g] for g in w_index])
               == _column_value(kind, [column[g] for g in v_index])
               for kind, column in _distinct_columns(n))


def arc_element_image(rep: LeafRepresentation, arc: tuple[int, int]) -> ImageTuple:
    """Image of the product a_y a_x for an arc (x, y) of this leaf.

    This value is the identity everywhere except for exponent 1 in the
    integer component created by the arc itself, hence central.
    """
    if arc not in rep.leaf.arcs:
        raise NotAnArcStep(f"{arc} is not an arc of leaf {rep.leaf.id!r}")
    x, y = arc
    return image(rep, (y, x))


def arc_unit_tuple(rep: LeafRepresentation, arc: tuple[int, int]) -> ImageTuple:
    """The expected arc-element image: 1 in the arc's own integer component."""
    return tuple(
        1 if comp.kind == "Z" and comp.origin == ("arc",) + arc else entry
        for comp, entry in zip(rep.schema, identity_tuple(rep.schema))
    )


def incomparability_witness(r1: LeafRepresentation, r2: LeafRepresentation,
                            max_len: int) -> tuple[Word, Word] | None:
    """A pair (w, v) identified by r1 but separated by r2, or None.

    Searches words of length 1..max_len; among admissible pairs of each
    length the lexicographically least (w, v) is returned, making the output
    reproducible.
    """
    if r1 == r2:
        raise BadLeafPair("the leaf representations must differ")
    if r1.n != r2.n:
        raise BadLeafPair("the leaf representations must have equal rank")
    n = r1.n
    for length in range(1, max_len + 1):
        buckets: dict[ImageTuple, list[Word]] = {}
        for word in itertools.product(range(1, n + 1), repeat=length):
            buckets.setdefault(image(r1, word), []).append(word)
        best: tuple[Word, Word] | None = None
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            seconds = [image(r2, word) for word in bucket]
            found = None
            for a in range(len(bucket)):
                for b in range(a + 1, len(bucket)):
                    if seconds[a] != seconds[b]:
                        found = (bucket[a], bucket[b])
                        break
                if found:
                    break
            if found and (best is None or found < best):
                best = found
        if best is not None:
            return best
    return None


def image_str(rep: LeafRepresentation, value: ImageTuple) -> str:
    """Text form like "(N:1, B:p^1q^0, Z:1)"."""
    parts = []
    for comp, entry in zip(rep.schema, value):
        if comp.kind == "B":
            parts.append(f"B:p^{entry.i}q^{entry.j}")
        else:
            parts.append(f"{comp.kind}:{entry}")
    return "(" + ", ".join(parts) + ")"


def image_json(rep: LeafRepresentation, value: ImageTuple) -> list:
    return [entry.as_dict() if isinstance(entry, Bicyclic) else entry for entry in value]


def representation_json(rep: LeafRepresentation) -> dict:
    return {
        "leaf": rep.leaf.id,
        "n": rep.n,
        "schema": [{"kind": comp.kind, "origin": comp.origin_str()} for comp in rep.schema],
        "images": {str(g): image_json(rep, rep.image_of(g)) for g in range(1, rep.n + 1)},
    }
