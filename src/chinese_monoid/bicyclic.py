"""Exact arithmetic in the bicyclic monoid B = <p, q : qp = 1>.

An element is its canonical form p^i q^j, held as the int pair (i, j); a
product cancels each inner q^j p^k block.  Exponents are Python ints, so no
overflow handling is needed.
"""

from __future__ import annotations

from typing import Iterable

IDENTITY, P, Q = (0, 0), (1, 0), (0, 1)


def product(elements: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(i, j) with p^i q^j the product, in order, of the pairs (k, l), each
    read as p^k q^l; any nonnegative k and l are allowed."""
    i = j = 0
    for k, l in elements:
        if j >= k:
            j += l - k
        else:
            i += k - j
            j = l
    return i, j
