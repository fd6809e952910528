import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chinese_monoid import core, harness
from chinese_monoid.core import (ClassCapExceeded, IndexConstraintViolated,
                                 StaircaseForm, WordSyntaxError, boxplus_failures,
                                 boxplus_tuples, congruence_class, count_classes,
                                 eq_oracle, first_level_pairs, fold_prefixes, format_word,
                                 multiply, parse_word, pending, projection, to_staircase,
                                 verify_boxplus, words_up_to)
from chinese_monoid.bicyclic import IDENTITY, P, Q, product
from chinese_monoid.representation import eq_via_embedding
from oracles import decode_staircase, reduce_pq_string, reference_staircase

words3 = st.lists(st.integers(1, 3), max_size=4).map(tuple)


def long_words(n):
    """Words far beyond the reach of the breadth-first oracle."""
    return st.lists(st.integers(1, n), max_size=40).map(tuple)


def small_forms(n):
    return st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2,
                    max_size=n * (n + 1) // 2).map(
        lambda flat: StaircaseForm(
            n, tuple(tuple(flat[i * (i + 1) // 2: (i + 1) * (i + 2) // 2])
                     for i in range(n))))


# --- parsing ---------------------------------------------------------------

def test_parse_numeric_and_letters():
    assert parse_word("3 2 1", 3) == (3, 2, 1)
    assert parse_word("cba", 3) == (3, 2, 1)
    assert parse_word("", 5) == ()
    assert format_word((3, 2, 1)) == "3 2 1"
    assert format_word(()) == ""


def test_parse_rejects_bad_input():
    with pytest.raises(WordSyntaxError):
        parse_word("4", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("a 2", 3)
    with pytest.raises(WordSyntaxError):
        parse_word("x!", 26)


@pytest.mark.parametrize("n", [0, -1])
def test_a_rank_below_1_is_refused_on_the_empty_word(n):
    # The empty word has no letter to check, so the rank check must not sit
    # in the letter loop: to_staircase((), 0) would build a form StaircaseForm
    # refuses, and eq_via_embedding(0, (), ()) would answer True.
    for call in (lambda: parse_word("", n), lambda: to_staircase((), n),
                 lambda: eq_via_embedding(n, (), ())):
        with pytest.raises(WordSyntaxError, match=f"rank must be >= 1, got {n}"):
            call()


@settings(max_examples=300, deadline=None)
@given(st.text(), st.integers(-2, 30))
@example("²", 3)         # a digit int() does not read
@example("1" * 5000, 3)  # more digits than int() reads
@example("é", 200)       # a lowercase letter outside a..z
def test_parse_word_raises_only_word_syntax_errors(text, n):
    try:
        word = parse_word(text, n)
    except WordSyntaxError:
        return
    assert all(1 <= x <= n for x in word)


@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=12).map(tuple))))
def test_parse_word_roundtrip(case):
    n, word = case
    assert parse_word(format_word(word), n) == word


# --- rewriting -------------------------------------------------------------

def test_congruence_class_examples():
    assert congruence_class((3, 2, 1)) == {(3, 2, 1), (3, 1, 2), (2, 3, 1)}
    assert congruence_class((1,)) == {(1,)}
    extra = frozenset({((2, 1), (1, 2))})
    assert congruence_class((2, 1), extra) == {(2, 1), (1, 2)}


def test_congruence_class_cap():
    with pytest.raises(ClassCapExceeded):
        congruence_class((3, 2, 1), cap=2)
    with pytest.raises(ValueError):
        congruence_class((1,), cap=0)


def test_inhomogeneous_extra_pair_rejected():
    with pytest.raises(ValueError):
        congruence_class((1, 2), frozenset({((1,), (1, 2))}))


def reference_rules(n, extra=frozenset()):
    """Every relation a_j a_i a_k = a_j a_k a_i = a_k a_j a_i (i <= k <= j)
    over the letters 1..n (or over the letters of `n`, if it is a set),
    listed directly, and every extra pair, as rules (u, v) both ways."""
    rules = set()
    letters = sorted(n) if isinstance(n, set) else range(1, n + 1)
    for i, k, j in itertools.combinations_with_replacement(letters, 3):
        rules.update(itertools.permutations({(j, i, k), (j, k, i), (k, j, i)}, 2))
    for u, v in extra:
        rules.update({(u, v), (v, u)})
    return rules


def reference_neighbours(word, rules):
    """Every word one rule away from `word`, scanning every position."""
    return {word[:pos] + v + word[pos + len(u):] for u, v in rules
            for pos in range(len(word) - len(u) + 1) if word[pos:pos + len(u)] == u}


def reference_classes(n, max_len, extra=frozenset()):
    """Class of every word of length <= max_len, closed by `reference_rules`."""
    rules = reference_rules(n, extra)
    class_of = {}
    for word in words_up_to(n, max_len):
        if word in class_of:
            continue
        members, todo = {word}, [word]
        while todo:
            for nb in reference_neighbours(todo.pop(), rules) - members:
                members.add(nb)
                todo.append(nb)
        class_of.update(dict.fromkeys(members, frozenset(members)))
    return class_of


def extra_pair_sets(n):
    """No extra pairs, then every first-level pair set of rank n."""
    return [frozenset()] + [first_level_pairs(kind, s, n)
                            for kind, low, high in (("dot", 2, n - 1), ("arc", 2, n))
                            for s in range(low, high + 1)]


@pytest.mark.parametrize("n,max_len,with_pairs", [
    (3, 6, False), (4, 5, False), (3, 4, True), (4, 4, True), (5, 4, True)])
def test_congruence_class_matches_reference_closure(n, max_len, with_pairs):
    for extra in extra_pair_sets(n) if with_pairs else [frozenset()]:
        class_of = reference_classes(n, max_len, extra)
        for word, members in class_of.items():
            assert congruence_class(word, extra) == members, (n, sorted(extra), word)


def test_extra_pairs_leave_the_memoised_rules_unchanged():
    # The arc pairs rewrite (3, 1, 2), a relation factor whose memoised rule
    # every later closure reads; an extra pair must extend a copy of it, in
    # a coded table of its own.
    extra = first_level_pairs("arc", 2, 3)
    assert ((3, 1, 2), (2, 1, 3)) in extra
    with_pairs, plain = reference_classes(3, 3, extra), reference_classes(3, 3)
    for word in words_up_to(3, 3):
        assert congruence_class(word, extra) == with_pairs[word], word
        assert congruence_class(word) == plain[word], word

    def replacements(pairs):
        bits, _, _, rules = core._coded_rules(pairs, 2)
        return {r for _, r in rules[core._code((3, 1, 2), bits)]}
    assert core._relation_rewrites((3, 1, 2)) == {(3, 2, 1), (2, 3, 1)}
    assert core._coded_rules(core.NO_EXTRA, 2)[2] == {}
    assert replacements(core.NO_EXTRA) == {(3, 2, 1), (2, 3, 1)}
    assert replacements(extra) == {(3, 2, 1), (2, 3, 1), (2, 1, 3)}


def reference_class(word, extra=frozenset()):
    """Closure of one word by `reference_rules` over its letters and those of
    `extra`: no rule brings in any other letter."""
    letters = set(word).union(*(u + v for u, v in extra))
    rules = reference_rules(letters, extra)
    members, todo = {word}, [word]
    while todo:
        for nb in reference_neighbours(todo.pop(), rules) - members:
            members.add(nb)
            todo.append(nb)
    return members


def words_over(letters, max_len):
    return itertools.chain.from_iterable(
        itertools.product(letters, repeat=length) for length in range(max_len + 1))


@pytest.mark.parametrize("letters,max_len,extra", [
    ((1, 7, 8), 5, frozenset()),  # 3 bits a letter until an 8 needs 4
    ((1, 7, 8), 4, frozenset({((8, 1), (1, 8)), ((7, 1, 8), (8, 1, 7))})),
    ((1, 2), 5, frozenset({((2, 1), (8, 8))})),  # the extras' letters set the width
    ((1, 2, 3), 4, frozenset({((3,), (1,))})),
    ((1, 2, 3), 5, frozenset({((2, 1), (1, 2))})),
    ((1, 2, 3), 5, frozenset({((2, 1, 2, 1), (1, 2, 1, 2))})),
    ((1, 2, 3), 5, frozenset({((1, 1), (2, 2))})),  # homogeneous, new letters
])
def test_coded_closure_matches_reference_across_letter_widths(letters, max_len, extra):
    for word in words_over(letters, max_len):
        assert congruence_class(word, extra) == reference_class(word, extra), word


def test_coded_closure_at_the_largest_rank():
    for word in ((1000, 1, 999, 1000, 2), (1000, 999, 998, 1000, 1, 999)):
        members = congruence_class(word)
        assert members == reference_class(word) and len(members) > 1
        assert all(eq_oracle(word, v) for v in members)


def test_the_coded_rules_memo_is_bounded(monkeypatch):
    assert 0 < core._coded_rules.cache_info().maxsize < math.inf
    # Past DEFAULT_CAP rules, a table stops learning and computes them per use.
    core._coded_rules.cache_clear()
    monkeypatch.setattr(core, "DEFAULT_CAP", 0)
    extra = frozenset({((2, 1), (1, 2))})
    for word in words_over((1, 2, 3), 4):
        assert congruence_class(word, extra) == reference_class(word, extra), word
    _, _, table, rules = core._coded_rules(extra, 2)
    assert set(table) == {(2, 1), (1, 2)} and rules == {}
    core._coded_rules.cache_clear()


@pytest.mark.parametrize("n,max_len", [(3, 5), (4, 4)])
def test_eq_oracle_matches_reference_membership(n, max_len):
    # Same-letter pairs: the letter counts cannot decide them.
    for extra in extra_pair_sets(n):
        class_of = reference_classes(n, max_len, extra)
        by_letters = {}
        for word in class_of:
            by_letters.setdefault(tuple(sorted(word)), []).append(word)
        for group in by_letters.values():
            for w, v in itertools.combinations(group, 2):
                assert eq_oracle(w, v, extra) is (v in class_of[w]), (sorted(extra), w, v)


def test_eq_oracle_stops_at_the_target():
    # (2, 1, 3, 1) has one rewrite neighbour, (2, 3, 1, 1), in a class of 4.
    w, v, u = (2, 1, 3, 1), (2, 3, 1, 1), (1, 1, 2, 3)
    assert reference_neighbours(w, reference_rules(3)) == {v}
    assert len(congruence_class(w)) == 4 and u not in congruence_class(w)
    assert eq_oracle(w, v, cap=2)
    with pytest.raises(ClassCapExceeded):
        eq_oracle(w, u, cap=2)
    with pytest.raises(ClassCapExceeded):
        congruence_class(w, cap=2)


def test_eq_oracle_examples():
    assert eq_oracle((3, 2, 1), (2, 3, 1))
    assert not eq_oracle((1, 2), (2, 1))
    assert eq_oracle((1, 2, 2), (1, 2, 2))
    assert not eq_oracle((1, 2), (1, 2, 2))  # homogeneity short-circuit


@given(words3)
def test_eq_oracle_reflexive(word):
    assert eq_oracle(word, word)


# --- staircase form --------------------------------------------------------

def test_to_staircase_examples():
    assert to_staircase((3, 2, 1), 3).k == ((0,), (0, 1), (1, 0, 0))
    assert to_staircase((), 3) == StaircaseForm.identity(3)
    assert to_staircase((1, 1), 3).k == ((2,), (0, 0), (0, 0, 0))


def test_decode_staircase():
    assert decode_staircase((2, 1, 2), 2) == ((0,), (1, 1))
    assert decode_staircase((2, 2, 1), 2) is None
    assert decode_staircase((3, 2, 3, 1), 3) is None  # pairs out of order
    assert decode_staircase((), 3) == ((0,), (0, 0), (0, 0, 0))


def test_expand_weight_matches_length():
    form = StaircaseForm(3, ((1,), (1, 1), (0, 2, 1)))
    assert form.expand() == (1, 2, 1, 2, 3, 2, 3, 2, 3)
    assert form.weight() == len(form.expand()) == 9


@settings(max_examples=25, deadline=None)
@given(small_forms(3))
def test_expansion_roundtrip(form):
    assert to_staircase(form.expand(), 3) == form
    assert form.weight() == len(form.expand())


def test_staircase_uniqueness_small():
    # Every class has exactly one staircase member, and the insertion finds
    # it: all 14,464 words of these (rank, max length) pairs.
    for n, max_len in ((1, 6), (2, 7), (3, 7), (4, 6), (5, 5), (6, 4)):
        staircase: dict = {}
        for word in words_up_to(n, max_len):
            if word not in staircase:
                cls = congruence_class(word)
                members = [rows for rows in (decode_staircase(m, n) for m in cls)
                           if rows is not None]
                assert len(members) == 1, (n, word, members)
                staircase.update(dict.fromkeys(cls, members[0]))
            assert to_staircase(word, n).k == staircase[word], (n, word)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 10), st.data())
def test_staircase_agrees_with_leaf_product(n, data):
    word = data.draw(long_words(n))
    assert eq_via_embedding(n, to_staircase(word, n).expand(), word)


def triangles(n, max_weight):
    """Every staircase form of rank n and weight <= max_weight."""
    cells = [1 if j == r else 2 for r in range(1, n + 1) for j in range(1, r + 1)]

    def fill(i, budget):
        if i == len(cells):
            yield ()
            return
        for e in range(budget // cells[i] + 1):
            for rest in fill(i + 1, budget - e * cells[i]):
                yield (e,) + rest

    for flat in fill(0, max_weight):
        yield StaircaseForm(n, tuple(flat[r * (r - 1) // 2:r * (r + 1) // 2]
                                     for r in range(1, n + 1)))


def sparse_forms(n):
    """Forms with up to 30 nonzero cells anywhere in the triangle."""
    cell = st.integers(1, n).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r)))

    def build(entries):
        k = [[0] * r for r in range(1, n + 1)]
        for (r, j), e in entries:
            k[r - 1][j - 1] += e
        return StaircaseForm(n, tuple(map(tuple, k)))
    return st.lists(st.tuples(cell, st.integers(1, 3)), max_size=30).map(build)


def test_reference_staircase_inverts_the_expansion():
    # The reference is pinned on its own: it reads every triangle back from
    # the triangle's expansion.
    for n, max_weight in ((1, 6), (2, 6), (3, 5), (4, 4)):
        forms = list(triangles(n, max_weight))
        assert len(forms) == sum(count_classes(n, t) for t in range(max_weight + 1))
        for form in forms:
            assert reference_staircase(form.expand(), n) == form.k, (n, form)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=200).map(tuple))))
def test_staircase_matches_the_projection_decode(case):
    n, word = case
    assert to_staircase(word, n).k == reference_staircase(word, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(sparse_forms(n), sparse_forms(n))))
def test_multiply_matches_the_projection_decode(forms):
    f, g = forms
    assert multiply(f, g).k == reference_staircase(f.expand() + g.expand(), f.n)


def test_every_single_letter_insertion_matches_the_projection_decode():
    # Each letter appended to every form of weight <= 5: one insertion from
    # every small triangle, so every short bump chain is taken.
    for n in (3, 4):
        letters = [StaircaseForm(n, tuple(tuple(int(r == j == x) for j in range(1, r + 1))
                                          for r in range(1, n + 1)))
                   for x in range(1, n + 1)]
        for f in triangles(n, 5):
            for x, g in enumerate(letters, start=1):
                assert multiply(f, g).k == reference_staircase(f.expand() + (x,), n), (f, x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    sparse_forms(n), st.lists(st.integers(1, n), max_size=60).map(tuple))))
def test_inserted_forms_pass_validation(case):
    # _insert builds its forms without the constructor's checks; they must pass them.
    f, word = case
    g = to_staircase(word, f.n)
    for form in (g, multiply(f, g), multiply(g, f)):
        assert StaircaseForm(form.n, form.k) == form


def test_staircase_validation():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        StaircaseForm(0, ())
    with pytest.raises(ValueError):
        StaircaseForm(2, ((1,),))
    with pytest.raises(ValueError, match="row 2 must have 2 entries"):
        StaircaseForm(2, ((1,), (0,)))
    with pytest.raises(ValueError):
        StaircaseForm(2, ((1,), (-1, 0)))
    for bad in (2.5, 2.0, "2", None):  # expand() and multiply would fail on them later
        with pytest.raises(ValueError, match="nonnegative ints"):
            StaircaseForm(2, ((0,), (0, bad)))
    with pytest.raises(WordSyntaxError):
        to_staircase((5,), 3)


def test_staircase_rows_are_stored_as_tuples():
    form, want = StaircaseForm(2, [[1], [0, 2]]), StaircaseForm(2, ((1,), (0, 2)))
    assert form.k == ((1,), (0, 2)) and form == want and hash(form) == hash(want)
    assert form.expand() == want.expand() == (1, 2, 2)


def test_staircase_forms_are_frozen():
    form = StaircaseForm(2, ((1,), (0, 2)))
    for name in ("n", "k", "other"):
        with pytest.raises(AttributeError):
            setattr(form, name, None)
        with pytest.raises(AttributeError):
            delattr(form, name)
    assert not hasattr(form, "__dict__")


def test_staircase_value_semantics():
    form = StaircaseForm(2, ((1,), (0, 2)))
    assert repr(form) == "StaircaseForm(n=2, k=((1,), (0, 2)))"
    built = to_staircase((1, 2, 2), 2)  # made by `_built`, unchecked
    assert built == form and hash(built) == hash(form)
    assert form != StaircaseForm(2, ((1,), (1, 2))) and form != StaircaseForm.identity(2)
    assert form.__eq__((2, ((1,), (0, 2)))) is NotImplemented and form != (2, ((1,), (0, 2)))
    assert pickle.loads(pickle.dumps(built)) == form
    assert StaircaseForm.__match_args__ == ("n", "k")


def test_serialization_roundtrip():
    form = to_staircase((3, 2, 1), 3)
    assert StaircaseForm.from_dict(form.as_dict()) == form


# --- multiplication --------------------------------------------------------

def test_multiply_examples():
    identity = StaircaseForm.identity(3)
    g = to_staircase((3, 2, 1), 3)
    assert multiply(identity, g) == g
    assert multiply(g, identity) == g
    f = to_staircase((3,), 3)
    h = to_staircase((2, 1), 3)
    assert multiply(f, h) == to_staircase((3, 2, 1), 3)
    one = to_staircase((1,), 3)
    assert multiply(one, one).k == ((2,), (0, 0), (0, 0, 0))


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(StaircaseForm.identity(3), StaircaseForm.identity(4))


@settings(max_examples=25, deadline=None)
@given(words3, words3, words3)
def test_multiply_associative(a, b, c):
    fa, fb, fc = (to_staircase(w, 3) for w in (a, b, c))
    assert multiply(multiply(fa, fb), fc) == multiply(fa, multiply(fb, fc))


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 10), st.data())
def test_staircase_is_a_homomorphism(n, data):
    u, v = data.draw(long_words(n)), data.draw(long_words(n))
    assert to_staircase(u + v, n) == multiply(to_staircase(u, n), to_staircase(v, n))


@settings(max_examples=40, deadline=None)
@given(words3, words3)
def test_oracle_agrees_with_normalizer(w, v):
    assert eq_oracle(w, v) == (to_staircase(w, 3) == to_staircase(v, 3))


# --- class counting --------------------------------------------------------

def test_count_classes_examples():
    assert count_classes(3, 1) == 3
    assert count_classes(3, 2) == 9
    assert count_classes(7, 0) == 1
    with pytest.raises(ValueError, match="rank must be >= 1"):
        count_classes(0, 1)
    with pytest.raises(ValueError, match="length must be >= 0"):
        count_classes(3, -1)


@pytest.mark.parametrize("n,max_len", [(3, 4), (4, 3)])
def test_count_classes_matches_partition(n, max_len):
    for length in range(max_len + 1):
        reps = set()
        for word in itertools.product(range(1, n + 1), repeat=length):
            reps.add(to_staircase(word, n))
        assert len(reps) == count_classes(n, length)


def test_length_two_words_all_inequivalent():
    words = list(itertools.product(range(1, 4), repeat=2))
    for a, b in itertools.combinations(words, 2):
        assert not eq_oracle(a, b)


# --- first-level congruences -----------------------------------------------

def test_first_level_pairs_dot():
    assert first_level_pairs("dot", 2, 3) == frozenset({
        ((2, 1), (1, 2)), ((3, 2), (2, 3))})


def test_first_level_pairs_arc():
    assert first_level_pairs("arc", 2, 3) == frozenset({
        ((3, 2), (2, 3)), ((3, 1, 2), (2, 1, 3))})
    pairs = first_level_pairs("arc", 3, 4)
    assert ((2, 1), (1, 2)) in pairs
    assert ((4, 2, 3), (3, 2, 4)) in pairs  # a_i a_{s-1} a_m with s=3
    assert ((2, 3, 1), (1, 3, 2)) in pairs  # a_l a_s a_m with s=3


def test_first_level_pairs_bounds():
    with pytest.raises(IndexConstraintViolated):
        first_level_pairs("dot", 1, 3)
    with pytest.raises(IndexConstraintViolated):
        first_level_pairs("dot", 3, 3)
    with pytest.raises(IndexConstraintViolated):
        first_level_pairs("arc", 1, 3)
    with pytest.raises(IndexConstraintViolated):
        first_level_pairs("bogus", 2, 3)
    with pytest.raises(IndexConstraintViolated, match="rank must be >= 3"):
        first_level_pairs("dot", 2, 2)


def test_dot_pairs_make_generator_central():
    pairs = first_level_pairs("dot", 2, 3)
    for w in words_up_to(3, 3):
        assert eq_oracle((2,) + w, w + (2,), pairs)


def test_arc_pairs_make_product_central():
    pairs = first_level_pairs("arc", 2, 3)
    for w in words_up_to(3, 3):
        assert eq_oracle((2, 1) + w, w + (2, 1), pairs)


# --- annihilation identities -----------------------------------------------

def test_verify_boxplus_examples():
    assert verify_boxplus(4, 22, (), i=4, j=3, k=2, l=1)
    assert verify_boxplus(4, 23, (2,), i=4, j=2, k=3, l=1, m=2)
    assert verify_boxplus(3, 22, (1, 3), i=3, j=2, k=2, l=1)
    assert verify_boxplus(4, 32, (3,), i=4, j=1, l=1, m=2)


def test_verify_boxplus_constraint_checks():
    with pytest.raises(IndexConstraintViolated):
        verify_boxplus(4, 22, (), i=3, j=4, k=2, l=1)
    with pytest.raises(IndexConstraintViolated):
        verify_boxplus(4, 23, (), i=4, j=2, k=4, l=1, m=2)
    with pytest.raises(IndexConstraintViolated):
        verify_boxplus(4, 99, (), i=4, j=3, k=2, l=1)
    with pytest.raises(IndexConstraintViolated):
        verify_boxplus(3, 22, (9,), i=3, j=2, k=2, l=1)


@pytest.mark.parametrize("variant", [22, 23, 32])
def test_boxplus_tuples_count(variant):
    for n in range(3, 11):
        assert len(list(boxplus_tuples(n, variant))) == math.comb(n + 1, 4)


@pytest.mark.parametrize("variant", [22, 23, 32])
def test_verify_boxplus_admits_exactly_the_enumerated_tuples(variant):
    for n in range(3, 6):
        admitted = {(t["i"], t["j"], t.get("k", t["j"] + 1), t["l"], t.get("m"))
                    for t in boxplus_tuples(n, variant)}
        letters = range(1, n + 1)
        optional = (None,) + tuple(letters)
        for i, j, l, k, m in itertools.product(letters, letters, letters, optional, optional):
            filled = k if k is not None or variant == 22 else j + 1
            if (i, j, filled, l, m) in admitted:
                assert verify_boxplus(n, variant, (), i=i, j=j, k=k, l=l, m=m)
            else:
                with pytest.raises(IndexConstraintViolated):
                    verify_boxplus(n, variant, (), i=i, j=j, k=k, l=l, m=m)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(st.integers(1, n), max_size=6).map(tuple)] * 3)))
def test_bicyclic_images_of_a_product_compose(case):
    # verify_boxplus composes head, w and tail images instead of projecting
    # the whole word: each B(x, y) must be a homomorphism to B.
    n, head, w, tail = case
    word = head + w + tail
    for y in range(2, n + 1):
        for x in range(1, y):
            composed = product(projection(part, x, y) for part in (head, w, tail))
            assert composed == projection(word, x, y)
            text = "".join("p" if g <= x else "q" if g >= y else "" for g in word)
            assert composed == reduce_pq_string(text), (x, y)


def assert_pending_gives_every_projection(word, n):
    # q is the number of pending letters >= y, and p = #{g <= x} - #{g >= y} + q.
    at_least = [sum(1 for g in word if g >= y) for y in range(n + 2)]
    for x in range(1, n + 1):
        left = pending(word, x)
        assert left == sorted(left, reverse=True) and all(g > x for g in left), (word, x, left)
        for y in range(x + 1, n + 1):
            q = sum(1 for g in left if g >= y)
            p = len(word) - at_least[x + 1] - at_least[y] + q
            assert (p, q) == projection(word, x, y), (word, x, y, left)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=200).map(tuple))))
@example((3, (3, 2, 1)))  # a fold that drops the smallest or newest letter keeps 3
def test_pending_letters_give_every_projection(case):
    assert_pending_gives_every_projection(case[1], case[0])


def test_pending_letters_give_every_projection_on_all_short_words():
    for n, max_len in ((3, 6), (4, 5)):
        for word in words_up_to(n, max_len):
            assert_pending_gives_every_projection(word, n)


def normal_form_multisets_agree(n, w, i, j, k, l, m=None, m_first=False):
    extra = () if m is None else (m,)
    prefix, suffix = (extra, ()) if m_first else ((), extra)

    def nf(left, right):
        return to_staircase(prefix + left + w + right + suffix, n).k

    return (sorted([nf((i, j), (k, l)), nf((j, i), (l, k))])
            == sorted([nf((i, j), (l, k)), nf((j, i), (k, l))]))


def test_verify_boxplus_matches_normal_form_multisets():
    for n in (3, 4):
        words = list(words_up_to(n, 2))
        for variant in (22, 23, 32):
            for t in boxplus_tuples(n, variant):
                k = t.get("k", t["j"] + 1)
                for w in words:
                    want = normal_form_multisets_agree(
                        n, w, t["i"], t["j"], k, t["l"], t.get("m"), variant == 32)
                    assert verify_boxplus(n, variant, w, **t) is want, (n, variant, t, w)


def test_verify_boxplus_reports_inadmissible_tuples_as_false(monkeypatch):
    monkeypatch.setitem(core._BOXPLUS, 22, (lambda i, j, k, l, m: True, False))
    failing = set()
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        want = normal_form_multisets_agree(3, (), i, j, k, l)
        assert verify_boxplus(3, 22, (), i=i, j=j, k=k, l=l) is want, (i, j, k, l)
        if not want:
            failing.add((i, j, k, l))
    assert len(failing) == 32 and (1, 2, 1, 2) in failing


@pytest.mark.parametrize("n,max_len", [(3, 2), (4, 1), (3, 3), (4, 2)])
def test_boxplus_failures_are_the_failing_instances_in_order(monkeypatch, n, max_len):
    # With variant 22 admitting every tuple, some instances fail; the batch
    # path must yield exactly those, tuple-major and word-minor, and the
    # suite must report them in that order.  At max_len 2 and 3 the words
    # share their images, so one image's mask holds several words.
    monkeypatch.setitem(core._BOXPLUS, 22, (lambda i, j, k, l, m: True, False))
    words = list(words_up_to(n, max_len))
    tuples = [(variant, t) for variant in (22, 23, 32) for t in boxplus_tuples(n, variant)]
    want = [(variant, t, w) for variant, t in tuples for w in words
            if not normal_form_multisets_agree(n, w, t["i"], t["j"], t.get("k", t["j"] + 1),
                                               t["l"], t.get("m"), variant == 32)]
    assert len(want) >= 32
    assert list(boxplus_failures(n, words, tuples)) == want
    if n == 3:
        report = harness.run_suite("boxplus", max_n=3, max_word_len=max_len)
        assert report.instances == len(tuples) * len(words)
        assert report.failures == [f"n=3 variant={variant} {t} w={format_word(w)!r}"
                                   for variant, t, w in want]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fold_prefixes_gives_projections_and_counts_in_any_listing(n):
    # Every projection column and every letter-count column, over words
    # listed out of order, twice, and without their prefixes.
    pairs = [(x, y) for y in range(2, n + 1) for x in range(1, y)]
    columns = [(True, tuple(P if g <= x else Q if g >= y else IDENTITY for g in range(1, n + 1)))
               for x, y in pairs]
    columns += [(False, tuple(int(g == h) for g in range(1, n + 1))) for h in range(1, n + 1)]
    rng = random.Random(n)
    words = list(words_up_to(n, 3))
    listed = [tuple(rng.randint(1, n) for _ in range(length)) for length in (4, 7, 12)]
    listed += rng.sample(words, len(words)) + words[::5]
    values = fold_prefixes(columns, listed)
    assert list(values) == list(dict.fromkeys(listed))
    for w in listed:
        assert values[w] == (tuple(projection(w, x, y) for x, y in pairs)
                             + tuple(w.count(h) for h in range(1, n + 1))), w


@pytest.mark.parametrize("n,max_len", [(3, 3), (4, 2)])
def test_boxplus_masks_group_any_listing_by_projection(monkeypatch, n, max_len):
    # Words out of order, twice, and without their prefixes: boxplus_failures
    # on the whole list yields what verify_boxplus says of each word alone,
    # and that is what the normal forms say.
    monkeypatch.setitem(core._BOXPLUS, 22, (lambda i, j, k, l, m: True, False))
    rng = random.Random(n)
    words = list(words_up_to(n, max_len))
    listed = [tuple(rng.randint(1, n) for _ in range(6))] + rng.sample(words, len(words))
    listed += words[::3]
    tuples = [(variant, t) for variant in (22, 23, 32) for t in boxplus_tuples(n, variant)]
    got = list(boxplus_failures(n, listed, tuples))
    assert len(got) >= 32
    assert got == [(variant, t, w) for variant, t in tuples for w in listed
                   if not verify_boxplus(n, variant, w, **t)]
    assert got == [(variant, t, w) for variant, t in tuples for w in listed
                   if not normal_form_multisets_agree(n, w, t["i"], t["j"], t.get("k", t["j"] + 1),
                                                      t["l"], t.get("m"), variant == 32)]


def test_boxplus_failures_checks_every_letter_and_index():
    tuples = [(22, {"i": 3, "j": 2, "k": 2, "l": 1})]
    assert list(boxplus_failures(3, [(), (1, 3)], tuples)) == []
    for words, bad in (([(), (4,)], tuples), ([()], [(22, {"i": 4, "j": 2, "k": 2, "l": 1})]),
                       ([()], [(22, {"i": 2, "j": 3, "k": 2, "l": 1})]), ([()], [(99, tuples[0][1])])):
        with pytest.raises(IndexConstraintViolated):
            list(boxplus_failures(3, words, bad))
