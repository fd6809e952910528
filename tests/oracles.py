"""Slow, independent oracles the tests check the package against, and the
componentwise image product the tests fold as `image`'s reference."""

from chinese_monoid.bicyclic import IDENTITY, product
from chinese_monoid.core import projection
from chinese_monoid.representation import Component


def decode_staircase(word, n):
    """Read `word` as a staircase expansion, or return None if it is not one.

    The expansion grammar is unambiguous: inside block r the pairs (r, j)
    appear with j ascending, single letters r come last, and block r+1 starts
    with a letter > r.
    """
    rows = [[0] * (i + 1) for i in range(n)]
    pos = 0
    size = len(word)
    for r in range(1, n + 1):
        for j in range(1, r):
            while pos + 1 < size and word[pos] == r and word[pos + 1] == j:
                rows[r - 1][j - 1] += 1
                pos += 2
        while pos < size and word[pos] == r:
            rows[r - 1][r - 1] += 1
            pos += 1
    if pos != size:
        return None
    return tuple(tuple(row) for row in rows)


def reduce_pq_string(text):
    """String-rewriting oracle: cancel "qp" in a p/q word until none is left.

    The reduced word is always of the form p^i q^j, returned as the pair
    (i, j); it cross-checks `bicyclic.product` and the bicyclic projections.
    """
    letters = list(text)
    if any(ch not in "pq" for ch in letters):
        raise ValueError(f"not a p/q string: {text!r}")
    changed = True
    while changed:
        changed = False
        for pos in range(len(letters) - 1):
            if letters[pos] == "q" and letters[pos + 1] == "p":
                del letters[pos:pos + 2]
                changed = True
                break
    i = letters.count("p")
    if letters != ["p"] * i + ["q"] * (len(letters) - i):
        raise AssertionError(f"reduction left a non-canonical word: {''.join(letters)}")
    return i, len(letters) - i


def reference_staircase(word, n):
    """The staircase exponents decoded from the letter counts and the
    bicyclic projections B(x, y) of `word`, a path independent of the
    insertion in `to_staircase`.  Each projection is constant on the class,
    and on the staircase word they fix the exponents linearly."""
    b = {(x, y): projection(word, x, y)[1]
         for y in range(2, n + 1) for x in range(1, y)}

    def col(y, j):  # sum of k[r][j] over the rows r >= y > j
        return b[j - 1, y] - b[j, y] if y <= n else 0

    k = [[0] * r for r in range(1, n + 1)]
    for r in range(2, n + 1):
        for j in range(2, r):
            k[r - 1][j - 1] = col(r, j) - col(r + 1, j)
        k[r - 1][r - 1] = b[r - 1, r] - b.get((r, r + 1), 0) - 2 * col(r + 1, r)
    for r in range(n, 0, -1):  # column 1 (and k[1][1]) from the letter counts
        below = sum(k[s - 1][r - 1] for s in range(r + 1, n + 1))
        k[r - 1][0] = word.count(r) - sum(k[r - 1][1:]) - below
    return tuple(map(tuple, k))


def bicyclic_mul(x, y):
    """p^i q^j * p^k q^l in closed form: the middle q^j p^k cancels to
    p^max(0, k-j) or q^max(0, j-k)."""
    (i, j), (k, l) = x, y
    return i + max(0, k - j), l + max(0, j - k)


def identity_tuple(schema):
    """The identity image of a leaf schema: IDENTITY in B, 0 elsewhere."""
    return tuple(IDENTITY if comp.kind == "B" else 0 for comp in schema)


def arc_unit_tuple(rep, arc):
    """The expected arc-element image: 1 in each integer component equal to
    the arc's own, the identity in every other."""
    own = Component("Z", ("arc", *arc))
    return tuple(IDENTITY if comp.kind == "B" else int(comp == own) for comp in rep.schema)


def tuple_mul(schema, a, b):
    """Componentwise product of two images, B entries by `bicyclic_mul`."""
    return tuple(bicyclic_mul(x, y) if comp.kind == "B" else x + y
                 for comp, x, y in zip(schema, a, b))


def adjan_check(x, y):
    """xy^2x * xy * xy^2x == xy^2x * yx * xy^2x, true for every x, y in B."""
    outer = (x, y, y, x)
    return product(outer + (x, y) + outer) == product(outer + (y, x) + outer)
