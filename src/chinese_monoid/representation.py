"""Explicit homomorphisms attached to the leaves of the diagram tree.

Every leaf diagram determines a quotient of the monoid that embeds into a
direct product of copies of the naturals and of (bicyclic x integers)
blocks.  The leaf's marks, in step order, give the columns of its
generator-image table, one column per component:

  * a dot on s: a natural component, the unit column (a_s -> 1, else 0);
  * an arc (x, y): a bicyclic component with a_g -> p for g <= x, 1 for
    x < g < y and q for g >= y, which is the rule of `core.projection`
    by definition (the generators under an arc are the ones already used),
    then an integer component, the unit column at x;
  * each generator no mark uses, that is each outside the leaf's used
    interval [u, v] (its marks use exactly u..v): a trailing natural unit
    column (it generates a free commutative factor).

A table is stored by its columns, with a bicyclic entry p^i q^j as the int
pair (i, j).  A leaf's marks and free block are read from a table of one
rank, so the T_n leaves of rank n share their components and columns.  Their
distinct columns are the n letter counts and the projections (x, y) for
1 <= x < y <= n (pinned by `test_leaf_table_columns_are_the_projections`).
The product of the images over all leaves decides word equality exactly, and
each component depends only on its column: N and Z columns add ints along
the word, B columns multiply pairs by `bicyclic.product`.  So
`eq_via_embedding`, the fast counterpart of the breadth-first oracle in
`core`, compares those columns alone, in O(n |w| log |w|) with no per-rank
set-up; `column_values` folds them once per word prefix of a word list.  For
any two distinct leaves, a word pair built from their arcs, in two or three
letters, shows the first's congruence is not in the second's.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .bicyclic import IDENTITY, P, Q, product
from .core import Frozen, Word, check_letters, fold_prefixes, pending
from .tree import Diagram, enumerate_leaves


class NotALeaf(Exception):
    """Representations exist only for leaves of the diagram tree."""


class NotAnArcStep(Exception):
    """The requested pair is not an arc of this leaf."""


class BadLeafPair(ValueError):
    """A witness needs the representations of two different leaves of one rank."""


class Component(NamedTuple):
    kind: str            # "N" | "B" | "Z"
    origin: tuple        # ("dot", s) | ("arc", x, y) | ("free", g)

    def origin_str(self) -> str:
        return " ".join(str(part) for part in self.origin)


ImageTuple = tuple  # entries: int for N/Z components, (p, q) pair for B


class LeafRepresentation(Frozen):
    __slots__ = __match_args__ = ("leaf", "schema", "columns")
    leaf: Diagram
    schema: tuple[Component, ...]
    columns: tuple[tuple, ...]  # one per component; entry g-1 is generator g's

    def __new__(cls, leaf: Diagram, schema: Iterable[Component],
                columns: Iterable[Iterable]) -> "LeafRepresentation":
        schema, columns = tuple(schema), tuple(map(tuple, columns))
        if len(schema) != len(columns) or any(len(column) != leaf.n for column in columns):
            raise ValueError(f"a table needs one column of {leaf.n} entries per component")
        return cls._built(leaf, schema, columns)

    @classmethod
    def _built(cls, leaf: Diagram, schema: tuple, columns: tuple) -> "LeafRepresentation":
        rep = object.__new__(cls)  # unchecked: the mark table's entries fit the checks above
        object.__setattr__(rep, "leaf", leaf)
        object.__setattr__(rep, "schema", schema)
        object.__setattr__(rep, "columns", columns)
        return rep

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
        return tuple(column[g - 1] for column in self.columns)


class _RankTable(dict):
    """Components and columns of one rank's ("dot", s), ("arc", x, y) and free
    blocks ("free", u, v), made on first use.  Unit column g is ("dot", g)'s."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __missing__(self, mark: tuple) -> tuple[tuple[Component, ...], tuple[tuple, ...]]:
        if len(self) >= 256:  # a sweep of rank 16 needs 165 entries
            self.clear()
        n, kind, x, y = self.n, mark[0], mark[1], mark[-1]
        if kind == "dot":
            entry = (Component("N", mark),), ((0,) * (x - 1) + (1,) + (0,) * (n - x),)
        elif kind == "arc":
            column = (P,) * x + (IDENTITY,) * (y - x - 1) + (Q,) * (n + 1 - y)
            entry = (Component("B", mark), Component("Z", mark)), (column,) + self["dot", x][1]
        else:
            free = (*range(1, x), *range(y + 1, n + 1))
            entry = (tuple(Component("N", ("free", g)) for g in free),
                     tuple(self["dot", g][1][0] for g in free))
        self[mark] = entry
        return entry


_table = _RankTable(0)  # the last rank built; `build_representation` replaces it for another


def build_representation(leaf: Diagram) -> LeafRepresentation:
    """Generator-image table of the leaf's quotient, per the module rules."""
    global _table
    if not leaf.is_leaf:
        raise NotALeaf(f"{leaf.id!r} is not a leaf")
    if (table := _table).n != leaf.n:  # a local, so another thread's rank cannot swap it
        table = _table = _RankTable(leaf.n)
    u, v, _, marks = leaf._state
    schema, columns = [], []
    for mark_schema, mark_columns in map(table.__getitem__, (*marks, ("free", u, v))):
        schema += mark_schema
        columns += mark_columns
    return LeafRepresentation._built(leaf, tuple(schema), tuple(columns))


def image(rep: LeafRepresentation, word: Word) -> ImageTuple:
    """Componentwise product of the generator images along the word: each B
    column's entries by `bicyclic.product`, each N or Z column's by `sum`."""
    check_letters(word, rep.n)
    at = [letter - 1 for letter in word]
    return tuple((product if comp.kind == "B" else sum)(map(column.__getitem__, at))
                 for comp, column in zip(rep.schema, rep.columns))


def column_values(reps: Sequence[LeafRepresentation], words: Sequence[Word]) -> dict[Word, tuple]:
    """Each word's values on the distinct columns of one rank's `reps`, keyed by
    value, so a tampered copy stays a column of its own; each rep's image is a
    sub-tuple.  `core.fold_prefixes` extends each word's longest prefix
    already folded, a letter per step."""
    if len({rep.n for rep in reps}) != 1:
        raise ValueError("column values need the representations of one rank")
    for word in words:
        check_letters(word, reps[0].n)
    return fold_prefixes(dict.fromkeys((comp.kind == "B", column) for rep in reps
                                       for comp, column in zip(rep.schema, rep.columns)), words)


def leaf_representations(n: int) -> tuple[LeafRepresentation, ...]:
    """All leaf representations of rank n, in leaf enumeration order."""
    return tuple(build_representation(leaf) for leaf in enumerate_leaves(n))


def eq_via_embedding(n: int, w: Word, v: Word) -> bool:
    """Decide w = v by comparing images under every leaf representation.

    Only the distinct table columns are compared: the letter counts, then
    each projection (x, y), all y at once by `core.pending(·, x)`, O(log |w|)
    per letter, from x = n - 1 (the cheapest fold) down to the first x that
    separates w and v.
    This decides equality at every rank, below 3 too, where no leaf exists:
    these numbers fix the staircase exponents, which `core.to_staircase`
    builds by letter insertion instead, so each method checks the other.
    """
    check_letters(w + v, n)
    if sorted(w) != sorted(v):
        return False
    return all(pending(w, x) == pending(v, x) for x in range(n - 1, 0, -1))


def arc_element_image(rep: LeafRepresentation, arc: tuple[int, int]) -> ImageTuple:
    """Image of the product a_y a_x for an arc (x, y) of this leaf.

    This value is the identity everywhere except for exponent 1 in the
    integer component created by the arc itself, hence central.
    """
    if arc not in rep.leaf.arcs:
        raise NotAnArcStep(f"{arc} is not an arc of leaf {rep.leaf.id!r}")
    x, y = arc
    return image(rep, (y, x))


def incomparability_witness(r1: LeafRepresentation, r2: LeafRepresentation,
                            max_len: int | None = None) -> tuple[Word, Word] | None:
    """A pair (w, v) identified by r1 but separated by r2, in 2 or 3 letters;
    None only if max_len, by default no bound, is shorter.

    Built from the leaves' arcs.  An arc (x, y) of r2 separates a_x a_y from
    a_y a_x; r1's other columns add, and its arc (p, q) tells the two apart
    only if x <= p and q <= y.  So an arc of r2 with no arc of r1 inside
    [x, y] gives the pair (x y, y x).  Otherwise an arc of r2 that r1 lacks,
    with (p, q) the outermost arc of r1 inside [x, y], gives (x y p, p y x)
    if p > x and (q x y, q y x) if p = x.  Such an arc exists at every rank:
    a leaf is fixed by its arcs, which nest, the first holds at most one
    point, dots between two consecutive arcs lie on one side only, and the
    last arc is extreme, so no arc of another leaf fits inside, between or
    around them.  Of the pairs so built, the shortest is returned, the least
    of them if several are.
    """
    if r1.leaf == r2.leaf:
        raise BadLeafPair("the leaf representations must differ")
    if r1.n != r2.n:
        raise BadLeafPair("the leaf representations must have equal rank")
    pairs = []
    for x, y in r2.leaf.arcs:
        inside = [(p, q) for p, q in r1.leaf.arcs if x <= p and q <= y]
        if not inside:
            pairs.append(((x, y), (y, x)))
        elif (x, y) not in inside:
            p, q = min(inside)  # arcs nest, so the least is the outermost
            pairs.append(((x, y, p), (p, y, x)) if p > x else ((q, x, y), (q, y, x)))
    pair = min(pairs, key=lambda pair: (len(pair[0]), pair))
    return pair if max_len is None or len(pair[0]) <= max_len else None


def image_str(rep: LeafRepresentation, value: ImageTuple) -> str:
    """Text form like "(N:1, B:p^1q^0, Z:1)"."""
    parts = []
    for comp, entry in zip(rep.schema, value):
        if comp.kind == "B":
            parts.append(f"B:p^{entry[0]}q^{entry[1]}")
        else:
            parts.append(f"{comp.kind}:{entry}")
    return "(" + ", ".join(parts) + ")"


def image_json(rep: LeafRepresentation, value: ImageTuple) -> list:
    """JSON form: {"p": i, "q": j} for a bicyclic entry, the int otherwise."""
    return [{"p": entry[0], "q": entry[1]} if comp.kind == "B" else entry
            for comp, entry in zip(rep.schema, value)]


def representation_json(rep: LeafRepresentation) -> dict:
    return {
        "leaf": rep.leaf.id,
        "n": rep.n,
        "schema": [{"kind": comp.kind, "origin": comp.origin_str()} for comp in rep.schema],
        "images": {str(g): image_json(rep, rep.image_of(g)) for g in range(1, rep.n + 1)},
    }
