import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chinese_monoid.bicyclic import IDENTITY, P, Q, Bicyclic
from chinese_monoid.core import StaircaseForm, eq_oracle, to_staircase, words_up_to
from chinese_monoid.representation import (Component, LeafRepresentation,
                                           NotALeaf, NotAnArcStep,
                                           _distinct_columns,
                                           arc_element_image, arc_unit_tuple,
                                           build_representation,
                                           eq_via_embedding, identity_tuple,
                                           image, image_str,
                                           incomparability_witness,
                                           leaf_representations,
                                           representation_json, tuple_mul)
from chinese_monoid.tree import Diagram, enumerate_leaves, parse_id, tribonacci


def rep_for(leaf_id: str, n: int):
    return build_representation(parse_id(leaf_id, n))


# --- construction ------------------------------------------------------------

def test_dot_then_arc_leaf():
    rep = rep_for("d2 A", 3)
    assert [c.kind for c in rep.schema] == ["N", "B", "Z"]
    assert [c.origin for c in rep.schema] == [("dot", 2), ("arc", 1, 3), ("arc", 1, 3)]
    assert rep.image_of(1) == (0, P, 1)
    assert rep.image_of(2) == (1, IDENTITY, 0)
    assert rep.image_of(3) == (0, Q, 0)


def test_single_arc_leaf_with_free_generator():
    rep = rep_for("a2", 3)
    assert [c.kind for c in rep.schema] == ["B", "Z", "N"]
    assert rep.schema[2] == Component("N", ("free", 3))
    assert rep.image_of(1) == (P, 1, 0)
    assert rep.image_of(2) == (Q, 0, 0)
    assert rep.image_of(3) == (Q, 0, 1)


def test_schema_counts_balance():
    for n in range(3, 9):
        for rep in leaf_representations(n):
            assert rep.c + 2 * rep.d == n


def test_not_a_leaf():
    with pytest.raises(NotALeaf):
        build_representation(Diagram(4, (("d", 2),)))


def test_generator_image_invariants():
    # integer exponents of generator images are 0 or 1, and at most one
    # additive component of a single generator image is nonzero
    for n in range(3, 7):
        for rep in leaf_representations(n):
            for g in range(1, n + 1):
                additive = [entry for comp, entry in zip(rep.schema, rep.image_of(g))
                            if comp.kind != "B"]
                assert all(entry in (0, 1) for entry in additive)
                assert sum(additive) <= 1


# --- images ------------------------------------------------------------------

def test_image_examples():
    rep = rep_for("d2 A", 3)
    assert image(rep, (3, 2, 1)) == (1, IDENTITY, 1)
    assert image(rep, (1, 2, 3)) == (1, Bicyclic(1, 1), 1)
    assert image(rep, ()) == identity_tuple(rep.schema)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 4), max_size=5).map(tuple),
       st.lists(st.integers(1, 4), max_size=5).map(tuple))
def test_image_is_a_homomorphism(w, v):
    for rep in leaf_representations(4):
        assert image(rep, w + v) == tuple_mul(rep.schema, image(rep, w), image(rep, v))


def test_defining_relations_preserved():
    for n in (3, 4):
        for rep in leaf_representations(n):
            for i in range(1, n + 1):
                for k in range(i, n + 1):
                    for j in range(k, n + 1):
                        a = image(rep, (j, i, k))
                        assert a == image(rep, (j, k, i)) == image(rep, (k, j, i))


def test_eq_via_embedding_examples():
    assert eq_via_embedding(3, (3, 2, 1), (2, 3, 1))
    assert not eq_via_embedding(3, (1, 2), (2, 1))
    assert eq_via_embedding(4, (1, 4, 2, 3), (1, 4, 2, 3))


def test_embedding_agrees_with_oracle_small():
    words = list(words_up_to(3, 3))
    for w, v in itertools.combinations(words, 2):
        assert eq_via_embedding(3, w, v) == eq_oracle(w, v)


# --- column evaluation against the per-letter fold -----------------------------

def reference_image(rep, word):
    """The per-letter product of whole generator images, the reference for `image`."""
    return functools.reduce(lambda acc, g: tuple_mul(rep.schema, acc, rep.images[g - 1]),
                            word, identity_tuple(rep.schema))


@st.composite
def leaf_and_word(draw):
    n = draw(st.integers(3, 9))
    rep = draw(st.sampled_from(leaf_representations(n)))
    return rep, tuple(draw(st.lists(st.integers(1, n), max_size=30)))


@settings(max_examples=100, deadline=None)
@given(leaf_and_word())
def test_image_matches_reference_fold(case):
    rep, word = case
    assert image(rep, word) == reference_image(rep, word)


@settings(max_examples=60, deadline=None)
@given(leaf_and_word(), st.data())
def test_image_matches_reference_fold_on_arbitrary_entries(case, data):
    # Tables that are not homomorphic images (any p^i q^j, any int), as the
    # faithfulness suite's --corrupt plants: the evaluator must not rely on
    # generator images being p, q, 1, 0 or 1.
    rep, word = case
    entry = {"B": st.builds(Bicyclic, st.integers(0, 3), st.integers(0, 3)),
             "N": st.integers(0, 3), "Z": st.integers(0, 3)}
    images = tuple(tuple(data.draw(entry[comp.kind]) for comp in rep.schema)
                   for _ in range(rep.n))
    tampered = LeafRepresentation(rep.leaf, rep.schema, images)
    assert image(tampered, word) == reference_image(tampered, word)


@st.composite
def word_pairs(draw):
    """(n, w, v, expected or None): random, equal, or same-letter unequal pairs."""
    n = draw(st.integers(3, 9))
    letters = st.lists(st.integers(1, n), max_size=30).map(tuple)
    kind = draw(st.sampled_from(("random", "equal", "shifted")))
    if kind == "random":
        return n, draw(letters), draw(letters), None
    if kind == "equal":
        w = draw(letters)
        return n, w, to_staircase(w, n).expand(), True
    def expand(triangle):
        return StaircaseForm(n, tuple(map(tuple, triangle))).expand()

    # A staircase triangle with an off-diagonal exponent k[r][j] moved onto
    # k[r][r] and k[j][j]: same letters, a different triangle, so unequal.
    k = [[0] * r for r in range(1, n + 1)]
    j = draw(st.integers(1, n - 1))
    r = draw(st.integers(j + 1, n))
    k[r - 1][j - 1] = 1
    for a, b in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=14)):
        k[max(a, b) - 1][min(a, b) - 1] += 1
    shifted = [row[:] for row in k]
    shifted[r - 1][j - 1] -= 1
    shifted[r - 1][r - 1] += 1
    shifted[j - 1][j - 1] += 1
    return n, expand(k), expand(shifted), False


@settings(max_examples=60, deadline=None)
@given(word_pairs())
def test_eq_via_embedding_matches_reference_fold(case):
    n, w, v, expected = case
    by_reference = all(reference_image(rep, w) == reference_image(rep, v)
                       for rep in leaf_representations(n))
    if expected is not None:
        assert by_reference is expected
    assert eq_via_embedding(n, w, v) is by_reference


def test_distinct_columns_are_quadratic():
    # The cost bound of eq_via_embedding: n(n-1)/2 bicyclic columns (one per
    # pair x < y) and n additive ones, where the leaf count grows like T_n.
    for n in range(3, 13):
        kinds = [kind for kind, _ in _distinct_columns(n)]
        assert kinds.count("B") == n * (n - 1) // 2
        assert kinds.count("N") == n


# --- arc elements ------------------------------------------------------------

def test_arc_element_examples():
    rep = rep_for("a2", 3)
    assert arc_element_image(rep, (1, 2)) == (IDENTITY, 1, 0)
    rep2 = rep_for("d2 A", 3)
    assert arc_element_image(rep2, (1, 3)) == (0, IDENTITY, 1)


def test_arc_element_shape_everywhere():
    for n in range(3, 7):
        for rep in leaf_representations(n):
            for arc in rep.leaf.arcs:
                value = arc_element_image(rep, arc)
                assert value == arc_unit_tuple(rep, arc)
                assert all(entry == IDENTITY for comp, entry
                           in zip(rep.schema, value) if comp.kind == "B")


def test_arc_element_commutes_with_generators():
    for n in (3, 4):
        for rep in leaf_representations(n):
            for x, y in rep.leaf.arcs:
                for g in range(1, n + 1):
                    assert image(rep, (y, x, g)) == image(rep, (g, y, x))


def test_not_an_arc():
    rep = rep_for("a2", 3)
    with pytest.raises(NotAnArcStep):
        arc_element_image(rep, (1, 3))


def test_initial_dot_image_is_central():
    for n in (3, 4, 5):
        for rep in leaf_representations(n):
            if rep.leaf.steps[0][0] != "d":
                continue
            s = rep.leaf.steps[0][1]
            for g in range(1, n + 1):
                assert image(rep, (s, g)) == image(rep, (g, s))


# --- witnesses ---------------------------------------------------------------

def test_witness_example():
    r1 = rep_for("a2", 3)
    r2 = rep_for("a3", 3)
    w, v = incomparability_witness(r1, r2, 4)
    assert image(r1, w) == image(r1, v)
    assert image(r2, w) != image(r2, v)


def test_witness_search_is_deterministic():
    r1 = rep_for("a2", 3)
    r2 = rep_for("a3", 3)
    assert incomparability_witness(r1, r2, 4) == incomparability_witness(r1, r2, 4)


def test_witness_rejects_equal_representations():
    rep = rep_for("a2", 3)
    with pytest.raises(ValueError):
        incomparability_witness(rep, rep, 3)


def test_witness_not_found_returns_none():
    r1 = rep_for("a2", 4)
    r2 = rep_for("a4", 4)
    # length-1 words are separated by neither congruence
    assert incomparability_witness(r1, r2, 1) is None


# --- serialization -----------------------------------------------------------

def test_image_str_form():
    rep = rep_for("d2 A", 3)
    assert image_str(rep, image(rep, (1, 2, 3))) == "(N:1, B:p^1q^1, Z:1)"


def test_representation_json_shape():
    payload = representation_json(rep_for("a2", 3))
    assert payload["leaf"] == "a2"
    assert payload["schema"] == [
        {"kind": "B", "origin": "arc 1 2"},
        {"kind": "Z", "origin": "arc 1 2"},
        {"kind": "N", "origin": "free 3"},
    ]
    assert payload["images"]["1"] == [{"p": 1, "q": 0}, 1, 0]


def test_total_components_over_leaves():
    for n in (3, 4, 5, 6):
        total = sum(rep.c + 2 * rep.d for rep in leaf_representations(n))
        assert total == n * tribonacci(n)
