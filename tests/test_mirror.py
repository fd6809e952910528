"""The mirror, which reverses a word and maps each letter g to n+1-g.

It is an anti-automorphism of the Chinese monoid of rank n: it maps the
relation class {j i k, j k i, k j i} (i <= k <= j) onto the class of its
mirrored letters.  A layer run on the mirrors reads the letters from the
other end, so these checks give every layer a second path that shares none
of its ordering, at no cost in production code.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chinese_monoid.core import congruence_class, eq_oracle, to_staircase
from chinese_monoid.representation import (build_representation, eq_via_embedding, image,
                                           incomparability_witness, leaf_representations)
from chinese_monoid.tree import enumerate_leaves, parse_id


def mirror(word, n):
    return tuple(n + 1 - g for g in reversed(word))


def mirror_id(leaf_id, n):
    """The mirror diagram's id: d s <-> d n+1-s, a s <-> a n+2-s (the arc
    over s-1, s goes to the arc over n+1-s, n+2-s), A stays, L <-> R."""
    head, *steps = leaf_id.split()
    s = int(head[1:])
    head = f"d{n + 1 - s}" if head[0] == "d" else f"a{n + 2 - s}"
    return " ".join([head, *({"L": "R", "R": "L"}.get(step, step) for step in steps)])


@st.composite
def pairs(draw, min_n, max_n, max_len):
    """(n, w, v) with v in w's class or a reordering of w, so both verdicts occur."""
    n = draw(st.integers(min_n, max_n))
    w = tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))
    if draw(st.booleans()):
        return n, w, draw(st.sampled_from(sorted(congruence_class(w))))
    return n, w, tuple(draw(st.permutations(w)))


METHODS = {
    "oracle": lambda n, w, v: eq_oracle(w, v),
    "embedding": eq_via_embedding,
    "normal form": lambda n, w, v: to_staircase(w, n) == to_staircase(v, n),
}


@settings(max_examples=200, deadline=None)
@given(pairs(1, 5, 8))
def test_each_method_gives_a_pair_and_its_mirror_one_verdict(case):
    n, w, v = case
    for name, eq in METHODS.items():
        assert eq(n, w, v) is eq(n, mirror(w, n), mirror(v, n)), name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=40).map(tuple))))
def test_the_normal_form_of_a_mirrored_expansion_depends_only_on_the_form(case):
    # w and the expansion of its form are one element, so their mirrors are
    # one element too; insertion reads each mirror from the other end.
    n, w = case
    expansion = to_staircase(w, n).expand()
    assert to_staircase(mirror(w, n), n) == to_staircase(mirror(expansion, n), n)


@settings(max_examples=100, deadline=None)
@given(pairs(3, 7, 8))
def test_a_leaf_identifies_a_pair_iff_its_mirror_leaf_identifies_the_mirrors(case):
    n, w, v = case
    mw, mv = mirror(w, n), mirror(v, n)
    for leaf in enumerate_leaves(n):
        rep = build_representation(leaf)
        twin = build_representation(parse_id(mirror_id(leaf.id, n), n))
        assert (image(rep, w) == image(rep, v)) is (image(twin, mw) == image(twin, mv)), leaf.id


@pytest.mark.parametrize("n", range(3, 13))
def test_the_mirror_maps_each_leaf_id_to_a_leaf_id(n):
    leaves = enumerate_leaves(n)
    assert {mirror_id(leaf.id, n) for leaf in leaves} == {leaf.id for leaf in leaves}
    for leaf in leaves:
        twin = parse_id(mirror_id(leaf.id, n), n)
        assert twin.is_leaf
        assert sorted(twin.dots) == sorted(n + 1 - s for s in leaf.dots)
        assert sorted(twin.arcs) == sorted((n + 1 - y, n + 1 - x) for x, y in leaf.arcs)


@pytest.mark.parametrize("n", range(3, 8))
def test_the_mirror_of_a_witness_is_a_witness_for_the_mirror_leaves(n):
    # r1 identifies w, v and r2 separates them, so the mirror of r1 must
    # identify the mirrors of w, v and the mirror of r2 separate them.
    reps = leaf_representations(n)
    twins = {rep.leaf.id: build_representation(parse_id(mirror_id(rep.leaf.id, n), n))
             for rep in reps}
    for r1, r2 in itertools.permutations(reps, 2):
        w, v = incomparability_witness(r1, r2)
        mw, mv = mirror(w, n), mirror(v, n)
        t1, t2 = twins[r1.leaf.id], twins[r2.leaf.id]
        assert image(t1, mw) == image(t1, mv), (r1.leaf.id, r2.leaf.id)
        assert image(t2, mw) != image(t2, mv), (r1.leaf.id, r2.leaf.id)
