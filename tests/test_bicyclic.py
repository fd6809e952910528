import itertools

from hypothesis import given
from hypothesis import strategies as st

from chinese_monoid.bicyclic import IDENTITY, P, Q, product
from chinese_monoid.representation import (image_json, image_str,
                                           leaf_representations)
from oracles import adjan_check, reduce_pq_string

elements = st.tuples(st.integers(0, 8), st.integers(0, 8))


def pq_text(xs):
    return "".join("p" * i + "q" * j for i, j in xs)


def test_defining_relation():
    assert product([Q, P]) == IDENTITY
    assert product([P, Q]) == (1, 1)


def test_identity_element():
    x = (4, 7)
    assert product([IDENTITY, x]) == x
    assert product([x, IDENTITY]) == x
    assert product([]) == IDENTITY


def test_product_example():
    assert product([(1, 2), (3, 1)]) == (2, 1)


def test_product_matches_string_rewriting_exhaustively():
    rng = range(7)
    for i, j, k, l in itertools.product(rng, rng, rng, rng):
        oracle = reduce_pq_string("p" * i + "q" * j + "p" * k + "q" * l)
        assert product([(i, j), (k, l)]) == oracle


@given(st.lists(elements, max_size=6))
def test_product_of_a_list_matches_string_rewriting(xs):
    # n-ary, not only binary: the fold must equal the rewriting of the whole
    # p/q word and, being associative, the product of the two sides of every
    # split point.
    whole = product(xs)
    assert whole == reduce_pq_string(pq_text(xs))
    for cut in range(len(xs) + 1):
        assert product([product(xs[:cut]), product(xs[cut:])]) == whole


def test_adjan_identity_on_grid():
    for i, j, k, l in itertools.product(range(6), repeat=4):
        assert adjan_check((i, j), (k, l))


@given(elements, elements, elements)
def test_associativity(x, y, z):
    assert product([product([x, y]), z]) == product([x, product([y, z])])


@given(elements, elements)
def test_adjan_identity_random(x, y):
    assert adjan_check(x, y)


def test_text_and_json_forms():
    rep = leaf_representations(3)[0]  # "d2 A": schema N, B, Z
    assert image_str(rep, (1, (2, 5), 3)) == "(N:1, B:p^2q^5, Z:3)"
    assert image_json(rep, (1, (2, 5), 3)) == [1, {"p": 2, "q": 5}, 3]
