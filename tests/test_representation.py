import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chinese_monoid import harness, representation
from chinese_monoid.bicyclic import IDENTITY, P, Q, product
from chinese_monoid.core import (StaircaseForm, WordSyntaxError,
                                 congruence_class, eq_oracle, to_staircase,
                                 words_up_to)
from chinese_monoid.cli import MAX_TREE_RANK
from chinese_monoid.representation import (BadLeafPair, Component,
                                           LeafRepresentation,
                                           NotALeaf, NotAnArcStep,
                                           arc_element_image,
                                           build_representation, column_values,
                                           eq_via_embedding, image, image_str,
                                           incomparability_witness,
                                           leaf_representations,
                                           representation_json)
from chinese_monoid.tree import Diagram, children, enumerate_leaves, parse_id, tribonacci
from oracles import arc_unit_tuple, identity_tuple, tuple_mul


def rep_for(leaf_id: str, n: int):
    return build_representation(parse_id(leaf_id, n))


# The Hypothesis strategies draw a leaf per example; building all T_n of them
# each time would dominate the run.
cached_leaf_representations = functools.cache(leaf_representations)


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


def reference_build(leaf):
    """(schema, columns) by the module docstring's rules, one mark at a time,
    with the free generators as those no mark names."""
    n = leaf.n

    def unit(g):
        return tuple(int(h == g) for h in range(1, n + 1))
    schema, columns = [], []
    for mark in leaf.marks:
        if mark[0] == "dot":
            schema.append(Component("N", mark))
            columns.append(unit(mark[1]))
        else:
            _, x, y = mark
            schema += [Component("B", mark), Component("Z", mark)]
            columns += [tuple(P if g <= x else IDENTITY if g < y else Q for g in range(1, n + 1)),
                        unit(x)]
    used = {g for mark in leaf.marks for g in mark[1:]}
    for g in range(1, n + 1):
        if g not in used:
            schema.append(Component("N", ("free", g)))
            columns.append(unit(g))
    return tuple(schema), tuple(columns)


def test_build_matches_the_used_set_reference():
    for n in range(3, 13):
        for leaf in enumerate_leaves(n):
            rep = build_representation(leaf)
            assert (rep.schema, rep.columns) == reference_build(leaf), leaf.id
            assert type(rep.schema) is type(rep.columns) is tuple


def test_tables_of_the_benchmark_ranks_are_unchanged():
    # The tables the `leaves` benchmark builds, n = 13..16, digested in
    # enumeration order: the CLI's digests stop at `repr -n 7`.
    digest = hashlib.sha256()
    for n in range(13, MAX_TREE_RANK + 1):
        for leaf in enumerate_leaves(n):
            rep = build_representation(leaf)
            digest.update(repr((leaf.id, [(c.kind, c.origin) for c in rep.schema],
                                rep.columns)).encode())
    assert digest.hexdigest() == \
        "e51483c1b73f3653d1167ae6b411a5339c8eac421da883d4b8799ee57368845a"


def test_representations_are_frozen():
    rep = rep_for("d2 A", 3)
    for name in ("leaf", "schema", "columns", "other"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    assert not hasattr(rep, "__dict__")
    again = build_representation(parse_id("d2 A", 3))
    assert again == rep and hash(again) == hash(rep)
    assert again.__eq__((rep.leaf, rep.schema, rep.columns)) is NotImplemented
    assert repr(rep).startswith("LeafRepresentation(leaf=Diagram(n=3, steps=(('d', 2), 'A')), schema=(")


def test_a_table_is_stored_as_tuples_of_its_shape():
    # Lists in, tuples stored, so the table equals and hashes like the built
    # one; a schema and columns of different lengths, or a column without one
    # entry per generator, are refused instead of giving a short image or an
    # IndexError later.
    rep = rep_for("d2 A", 3)
    again = LeafRepresentation(rep.leaf, list(rep.schema), [list(c) for c in rep.columns])
    assert again == rep and hash(again) == hash(rep)
    assert type(again.schema) is type(again.columns) is type(again.columns[0]) is tuple
    short = rep.columns[0][:2]
    for schema, columns in ((rep.schema, rep.columns[:2]), (rep.schema[:2], rep.columns),
                            (rep.schema, (short,) + rep.columns[1:]),
                            (rep.schema, rep.columns[:2] + (rep.columns[2] + (0,),))):
        with pytest.raises(ValueError, match="one column of 3 entries per component"):
            LeafRepresentation(rep.leaf, schema, columns)


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
    assert image(rep, (1, 2, 3)) == (1, (1, 1), 1)
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


@pytest.mark.parametrize("n,length", [(2, 9), (3, 6), (4, 5)])
def test_embedding_agrees_with_oracle_on_same_letter_pairs(n, length):
    # Every pair of words with the same letters: there the letter counts
    # cannot decide, so each projection (x, y) has to do its share.
    class_of = {}
    for word in itertools.product(range(1, n + 1), repeat=length):
        if word not in class_of:
            members = frozenset(congruence_class(word))
            class_of.update(dict.fromkeys(members, members))
    by_letters = {}
    for word in class_of:
        by_letters.setdefault(tuple(sorted(word)), []).append(word)
    for group in by_letters.values():
        for w, v in itertools.combinations(group, 2):
            assert eq_via_embedding(n, w, v) is (class_of[w] is class_of[v]), (w, v)


@pytest.mark.parametrize("n", [3, 5])
def test_letters_outside_the_rank_are_rejected(n):
    rep = leaf_representations(n)[0]
    for bad in (0, n + 1):
        with pytest.raises(WordSyntaxError):
            eq_via_embedding(n, (bad,), (n,))
        with pytest.raises(WordSyntaxError):
            eq_via_embedding(n, (1,), (1, bad))
        with pytest.raises(WordSyntaxError):
            image(rep, (bad,))
        with pytest.raises(WordSyntaxError):
            image(rep, (1, bad, 1))


# --- column evaluation against the per-letter fold -----------------------------

def reference_image(rep, word):
    """The per-letter product of whole generator images, the reference for `image`."""
    return functools.reduce(lambda acc, g: tuple_mul(rep.schema, acc, rep.image_of(g)),
                            word, identity_tuple(rep.schema))


@st.composite
def leaf_and_word(draw):
    n = draw(st.integers(3, 9))
    rep = draw(st.sampled_from(cached_leaf_representations(n)))
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
    entry = {"B": st.tuples(st.integers(0, 3), st.integers(0, 3)),
             "N": st.integers(0, 3), "Z": st.integers(0, 3)}
    columns = tuple(tuple(data.draw(entry[comp.kind]) for _ in range(rep.n))
                    for comp in rep.schema)
    tampered = LeafRepresentation(rep.leaf, rep.schema, columns)
    assert image(tampered, word) == reference_image(tampered, word)


def reference_column_values(reps, word):
    """Each distinct column folded over the whole word at once, the reference
    for the prefix fold of `column_values`."""
    columns = dict.fromkeys((comp.kind == "B", column) for rep in reps
                            for comp, column in zip(rep.schema, rep.columns))
    return tuple((product if is_b else sum)(column[g - 1] for g in word)
                 for is_b, column in columns)


@pytest.mark.parametrize("n", [3, 4])
def test_column_values_fold_each_distinct_column_once(n):
    reps = leaf_representations(n)
    words = list(words_up_to(n, 4))
    values = column_values(reps, words)
    assert list(values) == words
    assert {len(value) for value in values.values()} == {n + n * (n - 1) // 2}
    images = {w: tuple(image(rep, w) for rep in reps) for w in words}
    for w in words:
        assert values[w] == reference_column_values(reps, w), w
        assert all(entry in values[w] for image_of_w in images[w] for entry in image_of_w)
    # Equal values and equal images under every leaf give one partition.
    assert len(set(values.values())) == len(set(images.values())) == \
        len({(values[w], images[w]) for w in words})
    # A word listed without its prefixes, or before them, gets the same values.
    rng = random.Random(n)
    lonely = [tuple(rng.randint(1, n) for _ in range(length)) for length in (3, 7, 12)]
    for word in lonely:
        assert column_values(reps, [word]) == {word: reference_column_values(reps, word)}
    shuffled = rng.sample(words, len(words))
    assert column_values(reps, shuffled + lonely) == \
        {**values, **{word: reference_column_values(reps, word) for word in lonely}}


@pytest.mark.parametrize("n", [3, 4])
def test_column_values_refuse_letters_outside_the_rank(n):
    reps = leaf_representations(n)
    for bad in ((0,), (n + 1,), (1, n + 1), (1, 2, 0)):
        with pytest.raises(WordSyntaxError):
            column_values(reps, [(1,), bad])
    with pytest.raises(ValueError, match="one rank"):
        column_values(reps + leaf_representations(n + 1)[:1], [(1,)])
    with pytest.raises(ValueError, match="one rank"):
        column_values((), [()])


def test_a_corrupted_column_stays_apart_from_the_shared_one():
    # Columns are keyed by value: the p^2 copy that --corrupt plants is a
    # column of its own, beside the true column that the other leaves share.
    reps = leaf_representations(4)
    for seed in range(6):
        tampered, _ = harness._corrupt_one(reps, random.Random(seed))
        bad = next(rep for rep, clean in zip(tampered, reps) if rep != clean)
        width = len(column_values(reps, [()])[()])
        assert len(column_values(reps + (bad,), [()])[()]) == width + 1
        x, y = bad.leaf.arcs[0]
        pair = [(y, x, y), (y, y, x)]  # one relation class, split by the p^2
        clean_values = column_values(reps, pair)
        assert clean_values[pair[0]] == clean_values[pair[1]]
        tampered_values = column_values(tampered, pair)
        assert tampered_values[pair[0]] != tampered_values[pair[1]]
        for word in pair:
            assert tampered_values[word] == reference_column_values(tampered, word)


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


def test_leaf_table_columns_are_the_projections():
    # eq_via_embedding compares letter counts and projection for each
    # x < y; that is the leaf product only if these are exactly the distinct
    # columns of the generator-image tables (N and Z columns both add, so
    # they share a kind here).
    for n in range(3, 13):
        columns = {("B" if comp.kind == "B" else "N", column)
                   for rep in leaf_representations(n)
                   for comp, column in zip(rep.schema, rep.columns)}
        units = {("N", tuple(int(g == h) for g in range(1, n + 1)))
                 for h in range(1, n + 1)}
        projections = {("B", tuple(P if g <= x else Q if g >= y else IDENTITY
                                   for g in range(1, n + 1)))
                       for y in range(2, n + 1) for x in range(1, y)}
        assert columns == units | projections


def test_the_leaves_of_a_rank_share_each_column():
    # Every leaf of rank n holds the one object of each distinct column, so
    # building a table per leaf fails here.
    shared = {}
    for rep in leaf_representations(10):
        for column in rep.columns:
            assert shared.setdefault(column, column) is column
    assert len(shared) == 10 + 45


def test_one_sweep_of_the_largest_tree_rank_fits_the_mark_table():
    # No entry is dropped while the leaves of rank 16 are built, and the
    # table stays within its bound.
    reps = leaf_representations(MAX_TREE_RANK)
    table = representation._table
    assert table.n == MAX_TREE_RANK and len(table) <= 256
    assert {mark for rep in reps for mark in rep.leaf.marks} <= table.keys()


def test_the_mark_table_holds_little_after_random_leaves_of_a_large_rank():
    # Rank 300 has about 45,000 arcs, each with a column of 300 entries; a
    # table that kept every mark these leaves use would hold tens of MiB.
    rng = random.Random(0)
    leaves = [random_leaf(Diagram(300), rng) for _ in range(200)]
    tracemalloc.start()
    try:
        for leaf in leaves:
            build_representation(leaf)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2 ** 20


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
    with pytest.raises(BadLeafPair, match="must differ"):
        incomparability_witness(rep, rep, 3)
    with pytest.raises(BadLeafPair, match="equal rank"):
        incomparability_witness(rep, rep_for("a2", 4), 3)
    # Two tables of one leaf: the arcs alone decide, so a tampered entry
    # does not make the pair valid.
    rep = rep_for("d2 A", 3)
    tampered = LeafRepresentation(rep.leaf, rep.schema, ((0, 2, 0),) + rep.columns[1:])
    with pytest.raises(BadLeafPair, match="must differ"):
        incomparability_witness(tampered, rep)


def test_witness_not_found_returns_none():
    r1 = rep_for("a2", 4)
    r2 = rep_for("a4", 4)
    # length-1 words are separated by neither congruence
    assert incomparability_witness(r1, r2, 1) is None


def test_witness_examples_of_each_rule():
    # (1, 2) of "a2" holds no arc of "a3 A": a two-letter pair.
    assert incomparability_witness(rep_for("a3 A", 4), rep_for("a2", 4), 6) == ((1, 2), (2, 1))
    # (1, 3) of "d2 A" holds (2, 3) of "a3 A", and p = 2 > x = 1.
    assert incomparability_witness(rep_for("a3 A", 4), rep_for("d2 A", 4), 6) == \
        ((1, 3, 2), (2, 3, 1))
    # (1, 3) of "d2 A" holds (1, 2) of "a2", and p = x = 1.
    assert incomparability_witness(rep_for("a2", 4), rep_for("d2 A", 4), 6) == \
        ((2, 1, 3), (2, 3, 1))
    # (1, 5) of "d3 A A" holds (3, 4) and (2, 5) of "a4 A": the outermost counts.
    assert incomparability_witness(rep_for("a4 A", 5), rep_for("d3 A A", 5), 6) == \
        ((1, 5, 2), (2, 5, 1))


def shortest_witness_length(r1, r2, max_len):
    """Least length of a pair r1 identifies and r2 separates, by image over
    every word: the reference for the witness built from the arcs."""
    for length in range(1, max_len + 1):
        r2_images = {}
        for word in itertools.product(range(1, r1.n + 1), repeat=length):
            r2_images.setdefault(image(r1, word), set()).add(image(r2, word))
        if any(len(images) > 1 for images in r2_images.values()):
            return length
    return None


@pytest.mark.parametrize("n", range(3, 9))
def test_witness_is_valid_for_every_leaf_pair(n):
    reps = leaf_representations(n)
    for r1, r2 in itertools.permutations(reps, 2):
        w, v = incomparability_witness(r1, r2, 3)
        assert image(r1, w) == image(r1, v), (r1.leaf.id, r2.leaf.id)
        assert image(r2, w) != image(r2, v), (r1.leaf.id, r2.leaf.id)


@pytest.mark.parametrize("n", range(3, 6))
def test_witness_is_as_short_as_a_search_finds(n):
    for r1, r2 in itertools.permutations(leaf_representations(n), 2):
        w, _ = incomparability_witness(r1, r2, 3)
        assert len(w) == shortest_witness_length(r1, r2, 3), (r1.leaf.id, r2.leaf.id)


def random_leaf(d, rng):
    """A leaf below d, reached by a uniformly chosen child at each vertex."""
    while not d.is_leaf:
        d = rng.choice(children(d))
    return d


def test_witness_is_valid_above_the_tree_ranks():
    # No tree is walked at n = 17..200: the second leaf descends from a random
    # vertex on the first's path, so their arcs often nest and every rule runs.
    rng = random.Random(0)
    for n in range(MAX_TREE_RANK + 1, 201):
        a = random_leaf(Diagram(n), rng)
        b = random_leaf(Diagram(n, a.steps[:rng.randrange(len(a.steps))]), rng)
        if a == b:
            continue
        for r1, r2 in itertools.permutations(map(build_representation, (a, b))):
            w, v = incomparability_witness(r1, r2)
            assert len(w) in (2, 3), (n, r1.leaf.id, r2.leaf.id)
            assert image(r1, w) == image(r1, v), (n, r1.leaf.id, r2.leaf.id)
            assert image(r2, w) != image(r2, v), (n, r1.leaf.id, r2.leaf.id)


def test_leaf_arc_sets_form_an_antichain():
    # The witness for (r1, r2) starts from an arc of r2 that r1 lacks, so it
    # exists when no leaf's arc set holds another's.  The arcs of a leaf
    # nest, at most n/2 of them, so every proper subset is checked.
    for n in range(3, MAX_TREE_RANK + 1):
        arc_sets = {frozenset(leaf.arcs) for leaf in enumerate_leaves(n)}
        assert len(arc_sets) == tribonacci(n)
        for arcs in arc_sets:
            for size in range(1, len(arcs)):
                assert not any(frozenset(part) in arc_sets
                               for part in itertools.combinations(arcs, size)), (n, arcs)


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
