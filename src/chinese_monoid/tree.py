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

One function, `_moves`, states these rules: the legal steps from a vertex's
state, each with the child's state.  `Diagram` and `Diagram.child` follow
the steps they are given through it, and `children` lists its moves.

One walk, `_walk`, visits a subtree in pre-order over states alone;
`preorder`, `enumerate_leaves` and the renderings run on it, and a
`Diagram` is built only where a caller reads one: for every vertex and its
children in `preorder`, for the leaves alone in `enumerate_leaves`, and
nowhere in `render_dot` or `render_outline`, which build each id once.

Vertices are written as ids like "d2 A L": initial token d<s> or a<s>, then
A (arc above), L (dot left), R (dot right).
"""

from __future__ import annotations

from typing import Iterator

from .core import Frozen

Step = tuple | str  # ("d", s) | ("a", s) as first step, then "A" | "L" | "R"


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


def _is_leaf(n: int, state: tuple) -> bool:
    u, v, last, _ = state
    return last == "arc" and (u == 1 or v == n)


def _moves(n: int, state: tuple) -> dict:
    """The legal steps from a state, each with the child's state, in the fixed
    child order: d2..d(n-1), a2..an at the root, then A, L, R elsewhere.

    A state is (u, v, last, marks): the used interval [u, v] (None, None at
    the root), the last move ("root", "dot0", "dotL", "dotR" or "arc") and
    the marks ("dot", s) and ("arc", x, y) in step order.  An arc above always
    fits: only an extreme arc reaches generator 1 or n, and nothing follows it.
    """
    u, v, last, marks = state
    if last == "root":
        return {**{("d", s): (s, s, "dot0", (("dot", s),)) for s in range(2, n)},
                **{("a", s): (s - 1, s, "arc", (("arc", s - 1, s),)) for s in range(2, n + 1)}}
    if _is_leaf(n, state):
        return {}
    moves = {"A": (u - 1, v + 1, "arc", marks + (("arc", u - 1, v + 1),))}
    if last in ("arc", "dotL") and u > 2:
        moves["L"] = (u - 1, v, "dotL", marks + (("dot", u - 1),))
    if last in ("arc", "dotR") and v < n - 1:
        moves["R"] = (u, v + 1, "dotR", marks + (("dot", v + 1),))
    return moves


def _follow(n: int, state: tuple, step: Step) -> tuple:
    """The child's state after one step; a step not among the moves raises."""
    moves = _moves(n, state)
    try:
        return moves[step]
    except (KeyError, TypeError):  # TypeError: an unhashable step
        legal = (f"('d', 2..{n - 1}) or ('a', 2..{n})" if state[2] == "root"
                 else " ".join(moves) or "none past an extreme arc")
        raise MalformedDiagram(f"step {step!r} not allowed here; legal: {legal}") from None


class Diagram(Frozen):
    """A vertex of the tree: a validated step sequence over rank n."""

    __slots__ = ("n", "steps", "_state")
    __match_args__ = ("n", "steps")  # `_state` follows from them
    n: int
    steps: tuple[Step, ...]
    _state: tuple

    def __new__(cls, n: int, steps: tuple[Step, ...] = ()) -> "Diagram":
        if n < 3:
            raise RankTooSmall(f"rank must be >= 3, got {n}")
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
        return _is_leaf(self.n, self._state)

    @property
    def interval(self) -> tuple:
        """The used interval (u, v); (None, None) at the root."""
        return self._state[:2]

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


def _vertex_id(steps: tuple) -> str:
    if not steps:
        return "root"
    first = steps[0]
    return " ".join((f"{first[0]}{first[1]}",) + steps[1:])


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
    return [_vertex(d.n, d.steps + (step,), state) for step, state in _moves(d.n, d._state).items()]


def _walk(d: Diagram) -> Iterator[tuple[tuple, tuple, int, dict]]:
    """The subtree at `d` in depth-first pre-order of the fixed child ordering:
    each vertex's steps, state, depth below `d` and moves.  A vertex has no
    moves exactly when it is a leaf."""
    n = d.n
    stack = [(d.steps, d._state, 0)]
    while stack:
        steps, state, depth = stack.pop()
        moves = _moves(n, state)
        yield steps, state, depth, moves
        stack.extend((steps + (step,), kid, depth + 1) for step, kid in reversed(moves.items()))


def preorder(root: Diagram) -> Iterator[tuple[Diagram, int, list[Diagram]]]:
    """The subtree at `root` in depth-first pre-order of the fixed child
    ordering: each vertex with its depth below `root` and its children."""
    n = root.n
    for steps, state, depth, moves in _walk(root):
        yield (_vertex(n, steps, state), depth,
               [_vertex(n, steps + (step,), kid) for step, kid in moves.items()])


def enumerate_leaves(n: int) -> list[Diagram]:
    """All leaves in depth-first order of the fixed child ordering."""
    return [_vertex(n, steps, state) for steps, state, _, moves in _walk(Diagram(n)) if not moves]


# --- rendering -------------------------------------------------------------

_USED = "●"    # filled circle
_UNUSED = "○"  # hollow circle
_ARC_L = "╭"
_ARC_R = "╮"
_ARC_H = "─"


def render_ascii(d: Diagram) -> str:
    """Fixed-width drawing: one row per arc (outermost on top), then the
    generator row and a digit row (indices mod 10)."""
    n = d.n
    width = 2 * n - 1
    lines: list[str] = []
    for x, y in sorted(d.arcs):
        row = [" "] * width
        row[2 * (x - 1)] = _ARC_L
        row[2 * (y - 1)] = _ARC_R
        for col in range(2 * (x - 1) + 1, 2 * (y - 1)):
            row[col] = _ARC_H
        lines.append("".join(row).rstrip())
    used = set(d.dots) | {g for x, y in d.arcs for g in (x, y)}
    lines.append(" ".join(_USED if g in used else _UNUSED for g in range(1, n + 1)))
    lines.append(" ".join(str(g % 10) for g in range(1, n + 1)))
    return "\n".join(lines)


def render_dot(d: Diagram) -> str:
    """DOT graph of the subtree rooted at `d`, vertices labelled by id."""
    nodes = ["digraph diagram_tree {", "  node [shape=box fontname=\"monospace\"];"]
    edges: list[list[str]] = []  # per inner vertex in pre-order: its edges, filled by its children
    path: list[tuple[str, list[str]]] = []  # (id, edges) of each vertex from d down
    for steps, _, depth, moves in _walk(d):
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
                     for steps, _, depth, moves in _walk(d))


def render(d: Diagram, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(d)
    if format == "dot":
        return render_dot(d)
    raise ValueError(f"format must be 'ascii' or 'dot', got {format!r}")
