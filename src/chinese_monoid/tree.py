"""The tree of dot/arc diagrams over n generators.

A diagram is built step by step on the row of generators 1..n: the first
step places a dot on a single generator s (2 <= s <= n-1) or an arc over the
adjacent pair (s-1, s) (2 <= s <= n).  Every later step either closes an arc
above everything used so far (joining the two neighbors u-1 and v+1 of the
used interval [u, v]) or extends the interval with a dot next to it, subject
to: after a dot only same-side dots or an arc may follow, after an initial
dot only an arc, and dots never sit on generator 1 or n.  An arc touching
generator 1 or n is extreme and terminates the branch; vertices ending in an
extreme arc are the leaves.

One function, `_moves(n, u, v, last)`, states these rules: the legal steps
below a vertex in the fixed child order, each with the mark it adds and the
child's (u, v, last).  The rules stay in one function so that the walk,
`children`, the check of `Diagram`'s steps and `is_leaf` (no moves) cannot
drift apart.

One walk, `_walk`, visits a subtree in pre-order on one list of steps and one
of marks, truncated to each vertex's depth.  It owns a table of moves by
(u, v, last), which do not depend on the marks, and yields the shared lists,
so `enumerate_leaves` copies them at the leaves alone, and the renderings
build each id once and no `Diagram`.

Vertices are written as ids like "d2 A L": initial token d<s> or a<s>, then
A (arc above), L (dot left), R (dot right).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import Frozen

Step = tuple | str  # ("d", s) | ("a", s) as first step, then "A" | "L" | "R"

MAX_TREE_RANK = 16  # counts, tree and leaves walk the whole tree: T_16 = 7,473 leaves


class RankTooSmall(Exception):
    """Diagram trees are only defined for rank n >= 3."""


class MalformedDiagram(Exception):
    """The step sequence violates the construction rules."""


def tribonacci(k: int) -> int:
    """T_0 = T_1 = T_2 = 1, then each term is the sum of the previous three."""
    if k < 0:
        raise ValueError("index must be >= 0")
    a, b, c = 1, 1, 1
    for _ in range(max(0, k - 2)):
        a, b, c = b, c, a + b + c
    return c if k >= 2 else 1


def u_sequence(k: int) -> int:
    """Number of ways to fill k generators under an arc.

    Defined by U_0 = U_1 = U_2 = 1 and, for k >= 3,
    U_k = U_{k-2} + 2 * sum(U_0..U_{k-3}): either another arc sits directly
    under the outer one, or i > 0 dots on one side plus an inner arc.
    Coincides with the Tribonacci numbers.
    """
    if k < 0:
        raise ValueError("index must be >= 0")
    values = [1, 1, 1]
    for t in range(3, k + 1):
        values.append(values[t - 2] + 2 * sum(values[: t - 2]))
    return values[k] if k >= 3 else 1


_ROOT = (None, None, "root", ())


def _moves(n: int, u: int | None, v: int | None, last: str) -> tuple:
    """The legal steps below a vertex as (step, mark, (u', v', last')), in the
    fixed child order: d2..d(n-1), a2..an at the root, then A, L, R elsewhere.

    A vertex's state is (u, v, last, marks): the used interval [u, v] (None,
    None at the root), the last move ("root", "dot0", "dotL", "dotR" or "arc")
    and the marks ("dot", s) and ("arc", x, y) in step order.  An arc above
    always fits: only an extreme arc reaches generator 1 or n, and nothing
    follows it.
    """
    if last == "root":
        return (tuple((("d", s), ("dot", s), (s, s, "dot0")) for s in range(2, n))
                + tuple((("a", s), ("arc", s - 1, s), (s - 1, s, "arc")) for s in range(2, n + 1)))
    if last == "arc" and (u == 1 or v == n):
        return ()
    moves = (("A", ("arc", u - 1, v + 1), (u - 1, v + 1, "arc")),)
    if last in ("arc", "dotL") and u > 2:
        moves += (("L", ("dot", u - 1), (u - 1, v, "dotL")),)
    if last in ("arc", "dotR") and v < n - 1:
        moves += (("R", ("dot", v + 1), (u, v + 1, "dotR")),)
    return moves


def _follow(n: int, state: tuple, step: Step) -> tuple:
    """The child's state after one step; a step not among the moves raises."""
    u, v, last, marks = state
    moves = _moves(n, u, v, last)
    for move, mark, kid in moves:
        if move == step:
            return kid + (marks + (mark,),)
    legal = (f"('d', 2..{n - 1}) or ('a', 2..{n})" if last == "root"
             else " ".join(move for move, _, _ in moves) or "none past an extreme arc")
    raise MalformedDiagram(f"step {step!r} not allowed here; legal: {legal}")


class Diagram(Frozen):
    """A vertex of the tree: a validated step sequence over rank n."""

    __slots__ = ("n", "steps", "_state")
    __match_args__ = ("n", "steps")  # `_state` follows from them
    n: int
    steps: tuple[Step, ...]
    _state: tuple

    def __new__(cls, n: int, steps: Iterable[Step] = ()) -> "Diagram":
        if n < 3:
            raise RankTooSmall(f"rank must be >= 3, got {n}")
        steps = tuple(steps)
        state = _ROOT
        for step in steps:
            state = _follow(n, state, step)
        return _vertex(n, steps, state)

    @property
    def marks(self) -> tuple[tuple, ...]:
        """("dot", s) and ("arc", x, y) in step order."""
        return self._state[3]

    @property
    def dots(self) -> tuple[int, ...]:
        return tuple(mark[1] for mark in self.marks if mark[0] == "dot")

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(mark[1:] for mark in self.marks if mark[0] == "arc")

    @property
    def is_root(self) -> bool:
        return not self.steps

    @property
    def is_leaf(self) -> bool:
        return not _moves(self.n, *self._state[:3])

    @property
    def id(self) -> str:
        return _vertex_id(self.steps)

    def child(self, step: Step) -> "Diagram":
        """The vertex one step below; only the new step is checked."""
        return _vertex(self.n, self.steps + (step,), _follow(self.n, self._state, step))


def _vertex(n: int, steps: tuple, state: tuple) -> Diagram:
    """The Diagram of a vertex the walk reached, without replaying its steps."""
    d = object.__new__(Diagram)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "steps", steps)
    object.__setattr__(d, "_state", state)
    return d


def _vertex_id(steps: tuple | list) -> str:
    if not steps:
        return "root"
    first = steps[0]
    return " ".join([f"{first[0]}{first[1]}", *steps[1:]])


def parse_id(text: str, n: int) -> Diagram:
    """Inverse of Diagram.id; accepts "root" as well."""
    text = text.strip()
    if text == "root":
        return Diagram(n)
    tokens = text.split()
    if not tokens:
        raise MalformedDiagram("empty diagram id")
    head = tokens[0]
    if len(head) < 2 or head[0] not in "da" or not head[1:].isdigit():
        raise MalformedDiagram(f"bad initial token {head!r}")
    try:
        steps: list[Step] = [(head[0], int(head[1:]))]
    except ValueError:  # digits int() does not read ("²"), or too many of them
        raise MalformedDiagram(f"bad initial token {head!r}") from None
    for tok in tokens[1:]:
        if tok not in ("A", "L", "R"):
            raise MalformedDiagram(f"bad step token {tok!r}")
        steps.append(tok)
    return Diagram(n, tuple(steps))


def children(d: Diagram) -> list[Diagram]:
    """Child vertices in the fixed order of `_moves`: initial dots then initial
    arcs for the root; arc above, dot left, dot right elsewhere; none at a leaf."""
    u, v, last, marks = d._state
    return [_vertex(d.n, d.steps + (step,), kid + (marks + (mark,),))
            for step, mark, kid in _moves(d.n, u, v, last)]


def _walk(d: Diagram) -> Iterator[tuple[list, list, int, tuple, tuple]]:
    """The subtree at `d` in depth-first pre-order of the fixed child ordering:
    each vertex's steps, marks, depth below `d`, (u, v, last) and moves.  The
    steps and marks are two lists shared by every vertex, valid until the next
    one; a vertex has no moves exactly when it is a leaf."""
    n, top = d.n, len(d.steps)
    steps, marks, state = list(d.steps), list(d.marks), d._state[:3]
    moves = _moves(n, *state)
    table = {state: moves}  # this walk's moves by (u, v, last)
    yield steps, marks, 0, state, moves
    path = [iter(moves)]  # the moves not yet taken below each vertex from d down
    while path:
        depth = len(path)
        above = top + depth - 1  # steps of the vertex whose moves are taken
        for step, mark, state in path[-1]:
            del steps[above:], marks[above:]
            steps.append(step)
            marks.append(mark)
            if (moves := table.get(state)) is None:
                moves = table[state] = _moves(n, *state)
            yield steps, marks, depth, state, moves
            if moves:
                path.append(iter(moves))
                break  # descend
        else:
            path.pop()


def enumerate_leaves(n: int) -> list[Diagram]:
    """All leaves in depth-first order of the fixed child ordering."""
    return [_vertex(n, tuple(steps), state + (tuple(marks),))
            for steps, marks, _, state, moves in _walk(Diagram(n)) if not moves]


# --- rendering -------------------------------------------------------------

def render_ascii(d: Diagram) -> str:
    """Fixed-width drawing: one row per arc (outermost on top), then the
    generator row (● used, ○ unused) and a digit row (indices mod 10)."""
    n = d.n
    lines = [" " * (2 * x - 2) + "╭" + "─" * (2 * (y - x) - 1) + "╮" for x, y in sorted(d.arcs)]
    used = {g for mark in d.marks for g in mark[1:]}
    lines.append(" ".join("●" if g in used else "○" for g in range(1, n + 1)))
    lines.append(" ".join(str(g % 10) for g in range(1, n + 1)))
    return "\n".join(lines)


def render_dot(d: Diagram) -> str:
    """DOT graph of the subtree rooted at `d`, vertices labelled by id."""
    nodes = ["digraph diagram_tree {", "  node [shape=box fontname=\"monospace\"];"]
    edges: list[list[str]] = []  # per inner vertex in pre-order: its edges, filled by its children
    path: list[tuple[str, list[str]]] = []  # (id, edges) of each vertex from d down
    for steps, _, depth, _, moves in _walk(d):
        vid = _vertex_id(steps)
        nodes.append(f'  "{vid}" [label="{vid}"{"" if moves else " style=bold"}];')
        del path[depth:]
        if path:
            parent, out = path[-1]
            out.append(f'  "{parent}" -> "{vid}";')
        if moves:
            edges.append([])
            path.append((vid, edges[-1]))
    return "\n".join(nodes + [edge for out in edges for edge in out] + ["}"])


def render_outline(d: Diagram) -> str:
    """The subtree rooted at `d` in pre-order, one id per line, indented two
    spaces per level below `d`; a leaf's id ends in " *"."""
    return "\n".join("  " * depth + _vertex_id(steps) + ("" if moves else " *")
                     for steps, _, depth, _, moves in _walk(d))


def render(d: Diagram, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(d)
    if format == "dot":
        return render_dot(d)
    raise ValueError(f"format must be 'ascii' or 'dot', got {format!r}")
