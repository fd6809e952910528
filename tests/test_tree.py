import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chinese_monoid.tree import (Diagram, MalformedDiagram, RankTooSmall,
                                 children, enumerate_leaves, parse_id,
                                 preorder, render, render_ascii, render_dot,
                                 render_outline, tribonacci, u_sequence)


# --- integer sequences -----------------------------------------------------

def test_tribonacci_values():
    assert [tribonacci(k) for k in range(11)] == [1, 1, 1, 3, 5, 9, 17, 31, 57, 105, 193]
    assert tribonacci(12) == 653


def test_u_sequence_values():
    assert u_sequence(0) == 1
    assert u_sequence(3) == 3
    assert u_sequence(4) == 5


def test_u_sequence_matches_tribonacci():
    for k in range(21):
        assert u_sequence(k) == tribonacci(k)
    for k in range(3, 21):
        assert u_sequence(k + 1) == u_sequence(k) + u_sequence(k - 1) + u_sequence(k - 2)


# --- tree structure ----------------------------------------------------------

def test_root_children_counts():
    assert len(children(Diagram(4))) == 5
    for n in range(3, 9):
        assert len(children(Diagram(n))) == 2 * n - 3


def test_initial_dot_forces_arc():
    d2 = Diagram(3, (("d", 2),))
    kids = children(d2)
    assert [k.id for k in kids] == ["d2 A"]
    assert kids[0].arcs == ((1, 3),)


def test_leaf_has_no_children():
    leaf = Diagram(3, (("a", 2),))
    assert leaf.is_leaf
    assert children(leaf) == []


def test_enumerate_leaves_small_ranks():
    assert [d.id for d in enumerate_leaves(3)] == ["d2 A", "a2", "a3"]
    assert [d.id for d in enumerate_leaves(4)] == ["d2 A", "d3 A", "a2", "a3 A", "a4"]
    assert len(enumerate_leaves(5)) == 9


def test_leaf_counts_match_tribonacci():
    for n in range(3, 10):
        assert len(enumerate_leaves(n)) == tribonacci(n)


def test_leaf_ids_are_unique():
    for n in range(3, 9):
        ids = [d.id for d in enumerate_leaves(n)]
        assert len(ids) == len(set(ids))


def test_used_interval_is_contiguous_and_single_use():
    for n in range(3, 8):
        for leaf in enumerate_leaves(n):
            used = sorted(set(leaf.dots) | {g for x, y in leaf.arcs for g in (x, y)})
            assert used == list(range(used[0], used[-1] + 1))
            assert len(leaf.dots) + 2 * len(leaf.arcs) == len(used)


def test_extreme_generators_only_in_arcs():
    for n in range(3, 8):
        for leaf in enumerate_leaves(n):
            assert 1 not in leaf.dots and n not in leaf.dots
            x, y = leaf.arcs[-1]
            assert x == 1 or y == n


def test_rank_too_small():
    with pytest.raises(RankTooSmall):
        enumerate_leaves(2)
    with pytest.raises(RankTooSmall):
        Diagram(2)


def test_malformed_sequences():
    with pytest.raises(MalformedDiagram):
        Diagram(3, (("d", 1),))          # dots never sit on generator 1
    with pytest.raises(MalformedDiagram):
        Diagram(3, (("a", 1),))
    with pytest.raises(MalformedDiagram):
        Diagram(3, (("d", 2), "L"))      # after an initial dot only an arc
    with pytest.raises(MalformedDiagram):
        Diagram(5, (("a", 4), "L", "R"))  # no side switch after a dot
    with pytest.raises(MalformedDiagram):
        Diagram(3, (("a", 2), "A"))      # nothing follows an extreme arc
    with pytest.raises(MalformedDiagram):
        Diagram(4, (("a", 2), "R"))      # (a,2) is already extreme
    with pytest.raises(MalformedDiagram):
        Diagram(4, (("d", 2), "X"))
    for unhashable in (["d", 2], ("d", [2])):
        with pytest.raises(MalformedDiagram):
            Diagram(4, (unhashable,))
        with pytest.raises(MalformedDiagram):
            Diagram(4).child(unhashable)
    with pytest.raises(MalformedDiagram, match="legal: A"):
        Diagram(5, (("a", 4), "L")).child("R")


def test_parse_id_roundtrip():
    for n in range(3, 8):
        for leaf in enumerate_leaves(n):
            assert parse_id(leaf.id, n) == leaf
    assert parse_id("root", 4).is_root
    with pytest.raises(MalformedDiagram):
        parse_id("z9", 4)
    with pytest.raises(MalformedDiagram):
        parse_id("d2 Q", 4)
    for blank in ("", "  "):
        with pytest.raises(MalformedDiagram):
            parse_id(blank, 4)


def vertices(n):
    return [d for d, _, _ in preorder(Diagram(n))]


def test_parsed_leaves_are_tree_leaves():
    # The CLI builds a leaf's representation straight from its parsed id, and
    # `Diagram` checks ids with the same step function that `children` uses
    # to grow the tree: every id that parses names a vertex, a leaf exactly
    # when it is a leaf of the tree.
    for n in range(3, 8):
        tree_vertices = set(vertices(n))
        leaves = set(enumerate_leaves(n))
        heads = [f"{kind}{s}" for kind in "da" for s in range(n + 2)]
        for head, size in itertools.product(heads, range(n)):
            for tail in itertools.product("ALR", repeat=size):
                try:
                    d = parse_id(" ".join((head,) + tail), n)
                except MalformedDiagram:
                    continue
                assert d in tree_vertices, d.id
                assert d.is_leaf == (d in leaves), d.id


def test_marks_name_the_vertices_one_to_one():
    # Distinct vertices carry distinct mark sets and distinct drawings, so a
    # drawing names exactly one vertex of the tree.
    for n in range(3, 10):
        all_vertices = vertices(n)
        assert len({frozenset(d.marks) for d in all_vertices}) == len(all_vertices)
        assert len({render_ascii(d) for d in all_vertices}) == len(all_vertices)


def test_the_tree_walk_checks_no_step(monkeypatch):
    # children lists the legal moves of a vertex; it never builds a child only
    # to reject it.  A step is checked only when a caller names it.
    import chinese_monoid.tree as tree

    def forbidden(*args):
        raise AssertionError("checked a step")
    monkeypatch.setattr(tree, "_follow", forbidden)
    assert len(enumerate_leaves(10)) == tribonacci(10)


def test_preorder_yields_depths_and_children():
    visits = list(preorder(Diagram(4)))
    assert [(d.id, depth) for d, depth, _ in visits] == [
        ("root", 0), ("d2", 1), ("d2 A", 2), ("d3", 1), ("d3 A", 2),
        ("a2", 1), ("a3", 1), ("a3 A", 2), ("a4", 1)]
    assert all(kids == children(d) for d, _, kids in visits)


def reference_preorder(d, depth=0):
    # The tree grown by Diagram.child alone: every candidate step is tried,
    # and the ones it refuses are dropped.
    if d.is_root:
        steps = [(kind, s) for kind in "da" for s in range(1, d.n + 1)]
    else:
        steps = ["A", "L", "R"]
    kids = []
    for step in steps:
        try:
            kids.append(d.child(step))
        except MalformedDiagram:
            pass
    yield d, depth, kids
    for kid in kids:
        yield from reference_preorder(kid, depth + 1)


def test_enumerate_leaves_matches_the_child_recursion():
    for n in range(3, 17):
        want = [d for d, _, kids in reference_preorder(Diagram(n)) if not kids]
        got = enumerate_leaves(n)
        assert got == want
        assert [(d.steps, d.marks, d._state) for d in got] == \
            [(d.steps, d.marks, d._state) for d in want]


def test_preorder_matches_the_child_recursion():
    for n in range(3, 10):
        for start in (Diagram(n), *children(Diagram(n))):
            assert [(d.id, depth, [kid.id for kid in kids])
                    for d, depth, kids in preorder(start)] == \
                [(d.id, depth, [kid.id for kid in kids])
                 for d, depth, kids in reference_preorder(start)]


def test_diagrams_are_frozen():
    d = Diagram(4, (("a", 3),))
    for name in ("n", "steps", "_state", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert not hasattr(d, "__dict__")
    assert Diagram(4).child(("a", 3)) == d and hash(Diagram(4).child(("a", 3))) == hash(d)


def test_diagram_value_semantics():
    d = Diagram(4, (("a", 3),))
    assert repr(d) == "Diagram(n=4, steps=(('a', 3),))"
    walked = next(leaf for leaf in enumerate_leaves(4) if leaf.id == "a3 A")
    assert walked == Diagram(4, (("a", 3), "A")) and hash(walked) == hash(Diagram(4, (("a", 3), "A")))
    assert d != Diagram(4, (("a", 3), "A")) and d != Diagram(5, (("a", 3),))
    assert d.__eq__((4, (("a", 3),))) is NotImplemented and d != (4, (("a", 3),))
    again = pickle.loads(pickle.dumps(d))
    assert again == d and again._state == d._state
    assert Diagram.__match_args__ == ("n", "steps")


# --- rendering ---------------------------------------------------------------

def test_render_ascii_single_arc():
    assert render_ascii(Diagram(3, (("a", 2),))) == \
        "╭─╮\n● ● ○\n1 2 3"


def test_render_ascii_arc_over_dot():
    drawing = render_ascii(Diagram(3, (("d", 2), "A")))
    assert drawing.split("\n") == [
        "╭───╮",
        "● ● ●",
        "1 2 3",
    ]


@settings(max_examples=300, deadline=None)
@given(st.text(), st.integers(-1, 9))
@example("d²", 4)             # a digit int() does not read
@example("a" + "1" * 5000, 4)  # more digits than int() reads
@example("root", 2)
def test_parse_id_raises_only_diagram_errors(text, n):
    try:
        d = parse_id(text, n)
    except (MalformedDiagram, RankTooSmall):
        return
    assert parse_id(d.id, n) == d


def test_render_dot_of_root():
    text = render(Diagram(3), "dot")
    assert text.startswith("digraph")
    assert text.count("label=") == 5  # root + first level (3) + one leaf below d2
    assert '"d2" -> "d2 A"' in text


def reference_dot(d):
    nodes = ["digraph diagram_tree {", "  node [shape=box fontname=\"monospace\"];"]
    edges = []
    for v, _, kids in reference_preorder(d):
        shape = " style=bold" if v.is_leaf else ""
        nodes.append(f'  "{v.id}" [label="{v.id}"{shape}];')
        edges.extend(f'  "{v.id}" -> "{kid.id}";' for kid in kids)
    return "\n".join(nodes + edges + ["}"])


def test_render_dot_matches_the_reference_on_every_subtree():
    for n in range(3, 8):
        for d, _, _ in preorder(Diagram(n)):
            assert render_dot(d) == reference_dot(d), d.id


def test_render_outline_matches_the_reference_on_every_subtree():
    for n in range(3, 8):
        for d, _, _ in preorder(Diagram(n)):
            want = "\n".join("  " * depth + v.id + (" *" if v.is_leaf else "")
                             for v, depth, _ in reference_preorder(d))
            assert render_outline(d) == want, d.id


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(Diagram(3), "png")
