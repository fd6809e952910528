"""Exact arithmetic in the bicyclic monoid B = <p, q : qp = 1>.

Elements have the canonical form p^i q^j; multiplication cancels the inner
q^j p^k block.  Exponents are Python ints, so no overflow handling is needed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bicyclic:
    """p^i q^j in canonical form."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError(f"exponents must be nonnegative, got ({self.i}, {self.j})")

    def __mul__(self, other: "Bicyclic") -> "Bicyclic":
        return bmul(self, other)

    def as_dict(self) -> dict:
        return {"p": self.i, "q": self.j}


IDENTITY = Bicyclic(0, 0)
P = Bicyclic(1, 0)
Q = Bicyclic(0, 1)


def bmul(x: Bicyclic, y: Bicyclic) -> Bicyclic:
    """Canonical product: p^i q^j * p^k q^l with the middle q^j p^k cancelled."""
    return Bicyclic(x.i + max(0, y.i - x.j), y.j + max(0, x.j - y.i))


def adjan_check(x: Bicyclic, y: Bicyclic) -> bool:
    """xy^2x * xy * xy^2x == xy^2x * yx * xy^2x, true for every x, y in B."""
    outer = x * y * y * x
    return outer * (x * y) * outer == outer * (y * x) * outer
