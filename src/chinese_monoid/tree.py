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

Vertices are written as ids like "d2 A L": initial token d<s> or a<s>, then
A (arc above), L (dot left), R (dot right).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

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


def _replay(n: int, steps: tuple[Step, ...]):
    """Validate a step sequence and return its derived state.

    Returns (u, v, last, dots, arcs) where [u, v] is the used interval
    (None, None for the root), `last` is one of "root", "dot0", "dotL",
    "dotR", "arc", `dots` is a tuple of dot positions in step order and
    `arcs` a tuple of (x, y) pairs in step order.
    """
    u = v = None
    last = "root"
    dots: list[int] = []
    arcs: list[tuple[int, int]] = []
    for idx, step in enumerate(steps):
        if last == "arc" and (arcs[-1][0] == 1 or arcs[-1][1] == n):
            raise MalformedDiagram("steps continue past an extreme arc")
        if idx == 0:
            if not (isinstance(step, tuple) and len(step) == 2 and step[0] in ("d", "a")):
                raise MalformedDiagram(f"first step must be ('d', s) or ('a', s), got {step!r}")
            kind, s = step
            if kind == "d":
                if not 2 <= s <= n - 1:
                    raise MalformedDiagram(f"initial dot index {s} outside 2..{n - 1}")
                u = v = s
                dots.append(s)
                last = "dot0"
            else:
                if not 2 <= s <= n:
                    raise MalformedDiagram(f"initial arc index {s} outside 2..{n}")
                u, v = s - 1, s
                arcs.append((s - 1, s))
                last = "arc"
            continue
        if step == "A":
            x, y = u - 1, v + 1
            if x < 1 or y > n:
                raise MalformedDiagram("arc above would leave the generator row")
            arcs.append((x, y))
            u, v = x, y
            last = "arc"
        elif step == "L":
            if last not in ("arc", "dotL"):
                raise MalformedDiagram(f"dot left not allowed after {last}")
            if u - 1 < 2:
                raise MalformedDiagram(f"dot left would use generator {u - 1}")
            u -= 1
            dots.append(u)
            last = "dotL"
        elif step == "R":
            if last not in ("arc", "dotR"):
                raise MalformedDiagram(f"dot right not allowed after {last}")
            if v + 1 > n - 1:
                raise MalformedDiagram(f"dot right would use generator {v + 1}")
            v += 1
            dots.append(v)
            last = "dotR"
        else:
            raise MalformedDiagram(f"unknown step {step!r}")
    return u, v, last, tuple(dots), tuple(arcs)


@dataclass(frozen=True)
class Diagram:
    """A vertex of the tree: a validated step sequence over rank n."""

    n: int
    steps: tuple[Step, ...] = ()
    _state: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise RankTooSmall(f"rank must be >= 3, got {self.n}")
        object.__setattr__(self, "_state", _replay(self.n, self.steps))

    @property
    def interval(self) -> tuple[int, int] | None:
        """Used interval [u, v]; None for the root."""
        u, v, _, _, _ = self._state
        return None if u is None else (u, v)

    @property
    def last_move(self) -> str:
        return self._state[2]

    @property
    def dots(self) -> tuple[int, ...]:
        return self._state[3]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self._state[4]

    @property
    def is_root(self) -> bool:
        return not self.steps

    @property
    def is_leaf(self) -> bool:
        if not self.arcs:
            return False
        x, y = self.arcs[-1]
        return x == 1 or y == self.n

    @property
    def id(self) -> str:
        if not self.steps:
            return "root"
        first = self.steps[0]
        tokens = [f"{first[0]}{first[1]}"]
        tokens.extend(self.steps[1:])
        return " ".join(tokens)

    def child(self, step: Step) -> "Diagram":
        return Diagram(self.n, self.steps + (step,))


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
    steps: list[Step] = [(head[0], int(head[1:]))]
    for tok in tokens[1:]:
        if tok not in ("A", "L", "R"):
            raise MalformedDiagram(f"bad step token {tok!r}")
        steps.append(tok)
    return Diagram(n, tuple(steps))


def children(d: Diagram) -> list[Diagram]:
    """Child vertices in the fixed order: initial dots then initial arcs for
    the root; arc above, dot left, dot right elsewhere."""
    n = d.n
    if d.is_root:
        kids = [d.child(("d", s)) for s in range(2, n)]
        kids.extend(d.child(("a", s)) for s in range(2, n + 1))
        return kids
    if d.is_leaf:
        return []
    if d.last_move == "dot0":
        return [d.child("A")]
    u, v = d.interval
    kids = [d.child("A")]
    if d.last_move in ("arc", "dotL") and u - 1 >= 2:
        kids.append(d.child("L"))
    if d.last_move in ("arc", "dotR") and v + 1 <= n - 1:
        kids.append(d.child("R"))
    return kids


def preorder(root: Diagram) -> Iterator[tuple[Diagram, int, list[Diagram]]]:
    """The subtree at `root` in depth-first pre-order of the fixed child
    ordering: each vertex with its depth below `root` and its children."""
    stack = [(root, 0)]
    while stack:
        d, depth = stack.pop()
        kids = children(d)
        yield d, depth, kids
        stack.extend((kid, depth + 1) for kid in reversed(kids))


def enumerate_leaves(n: int) -> list[Diagram]:
    """All leaves in depth-first order of the fixed child ordering."""
    return [d for d, _, _ in preorder(Diagram(n)) if d.is_leaf]


def steps_from_marks(n: int, dots: set[int], arcs: list[tuple[int, int]]) -> tuple[Step, ...]:
    """Reconstruct the unique step order from a drawn diagram.

    `dots` are the dotted generators and `arcs` the joined pairs.  Raises
    MalformedDiagram if no legal order produces these marks.
    """
    if not arcs:
        if len(dots) != 1:
            raise MalformedDiagram("a diagram without arcs is a single initial dot")
        return (("d", next(iter(dots))),)
    ordered = sorted(arcs)  # outermost first: arcs are strictly nested
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:]):
        if not (x1 < x2 < y2 < y1):
            raise MalformedDiagram(f"arcs {ordered} are not nested")
    inner_x, inner_y = ordered[-1]
    inside = set(range(inner_x + 1, inner_y))
    steps: list[Step]
    if not inside:
        steps = [("a", inner_y)]
    elif len(inside) == 1 and inside <= dots:
        steps = [("d", next(iter(inside))), "A"]
    else:
        raise MalformedDiagram("innermost arc must cover nothing or a single dot")
    covered = set(range(inner_x, inner_y + 1))
    for x, y in reversed(ordered[:-1]):
        left = set(range(x + 1, min(covered)))
        right = set(range(max(covered) + 1, y))
        if left and right:
            raise MalformedDiagram("dots between nested arcs must sit on one side")
        between = left or right
        if not between <= dots:
            raise MalformedDiagram("generators between nested arcs must be dots")
        steps.extend(["L" if between is left else "R"] * len(between))
        steps.append("A")
        covered = set(range(x, y + 1))
    outer_x, outer_y = ordered[0]
    outside = dots - set(range(outer_x, outer_y + 1))
    if outside:
        left = {g for g in outside if g < outer_x}
        right = {g for g in outside if g > outer_y}
        if left and right:
            raise MalformedDiagram("dots outside the outer arc must sit on one side")
        run = sorted(left or right)
        lo, hi = run[0], run[-1]
        contiguous = run == list(range(lo, hi + 1))
        if not contiguous or (left and hi != outer_x - 1) or (right and lo != outer_y + 1):
            raise MalformedDiagram("outside dots must extend the used interval")
        steps.extend(["L" if left else "R"] * len(run))
    used = dots | {g for x, y in arcs for g in (x, y)}
    diagram = Diagram(n, tuple(steps))
    if set(diagram.dots) != dots or sorted(diagram.arcs) != ordered or \
            set(range(min(used), max(used) + 1)) != used:
        raise MalformedDiagram("marks do not form a constructible diagram")
    return tuple(steps)


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


def parse_ascii(text: str) -> tuple[int, set[int], list[tuple[int, int]]]:
    """Read back (n, dots, arcs) from a render_ascii drawing."""
    lines = text.split("\n")
    if len(lines) < 2:
        raise MalformedDiagram("drawing too short")
    gen_row = lines[-2]
    symbols = gen_row.split(" ")
    if any(sym not in (_USED, _UNUSED) for sym in symbols):
        raise MalformedDiagram("bad generator row")
    n = len(symbols)
    used = {g for g, sym in enumerate(symbols, start=1) if sym == _USED}
    arcs: list[tuple[int, int]] = []
    for line in lines[:-2]:
        left = line.find(_ARC_L)
        right = line.find(_ARC_R)
        if left < 0 or right < 0 or left % 2 or right % 2:
            raise MalformedDiagram(f"bad arc row {line!r}")
        arcs.append((left // 2 + 1, right // 2 + 1))
    dots = used - {g for x, y in arcs for g in (x, y)}
    return n, dots, arcs


def render_dot(d: Diagram) -> str:
    """DOT graph of the subtree rooted at `d`, vertices labelled by id."""
    nodes = ["digraph diagram_tree {", "  node [shape=box fontname=\"monospace\"];"]
    edges: list[str] = []
    for v, _, kids in preorder(d):
        shape = " style=bold" if v.is_leaf else ""
        nodes.append(f'  "{v.id}" [label="{v.id}"{shape}];')
        edges.extend(f'  "{v.id}" -> "{kid.id}";' for kid in kids)
    return "\n".join(nodes + edges + ["}"])


def render(d: Diagram, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(d)
    if format == "dot":
        return render_dot(d)
    raise ValueError(f"format must be 'ascii' or 'dot', got {format!r}")
