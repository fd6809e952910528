import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chinese_monoid.bicyclic import IDENTITY, P, Q, Bicyclic, adjan_check, bmul
from oracles import reduce_pq_string

elements = st.builds(Bicyclic, st.integers(0, 8), st.integers(0, 8))


def test_defining_relation():
    assert bmul(Q, P) == IDENTITY
    assert bmul(P, Q) == Bicyclic(1, 1)


def test_identity_element():
    x = Bicyclic(4, 7)
    assert bmul(IDENTITY, x) == x
    assert bmul(x, IDENTITY) == x


def test_product_example():
    assert bmul(Bicyclic(1, 2), Bicyclic(3, 1)) == Bicyclic(2, 1)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Bicyclic(-1, 0)


def test_bmul_matches_string_rewriting_exhaustively():
    rng = range(7)
    for i, j, k, l in itertools.product(rng, rng, rng, rng):
        x, y = Bicyclic(i, j), Bicyclic(k, l)
        oracle = reduce_pq_string("p" * i + "q" * j + "p" * k + "q" * l)
        assert bmul(x, y) == oracle


def test_adjan_identity_on_grid():
    for i, j, k, l in itertools.product(range(6), repeat=4):
        assert adjan_check(Bicyclic(i, j), Bicyclic(k, l))


@given(elements, elements, elements)
def test_associativity(x, y, z):
    assert bmul(bmul(x, y), z) == bmul(x, bmul(y, z))


@given(elements, elements)
def test_adjan_identity_random(x, y):
    assert adjan_check(x, y)


def test_text_and_json_forms():
    assert Bicyclic(2, 5).as_dict() == {"p": 2, "q": 5}
