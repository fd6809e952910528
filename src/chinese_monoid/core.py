"""Core arithmetic of the Chinese monoid of rank n.

The monoid is generated by a_1, ..., a_n subject to the length-3 relations

    a_j a_i a_k = a_j a_k a_i = a_k a_j a_i   for i <= k <= j.

Words are plain tuples of generator indices (1-based); the empty tuple is
the identity.  Every class contains a unique word matching the triangular
"staircase" pattern

    b_1 b_2 ... b_n,   b_r = (a_r a_1)^k[r][1] (a_r a_2)^k[r][2] ... a_r^k[r][r],

which serves as the canonical form.  `to_staircase` and `multiply` insert
one letter at a time into its exponents, in O(n) per letter.  The letter
counts and the bicyclic projections (`projection`, each word's image in B
as a (p, q) pair), which `boxplus_failures` compares, and the letters
`pending` leaves, which give every projection (x, ·) at once for
`representation.eq_via_embedding`, fix the same exponents: the independent check.
The breadth-first closure of the relations (`congruence_class`, `eq_oracle`,
on words as text, one rule dict per call) is the oracle the tests
and suites check everything else against, correct by construction at desk
scale.  It sorts each length-3 factor into i <= k <= j and, if it is (j,i,k),
(j,k,i) or (k,j,i), replaces it by the other two; `eq_oracle` stops at its target.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Iterator, Sequence

from .bicyclic import IDENTITY, P, Q, product

Word = tuple[int, ...]
CongruencePairs = frozenset[tuple[Word, Word]]

NO_EXTRA: CongruencePairs = frozenset()

#: Default breadth-first cap: bounds the CLI oracle's memory (49 MB for 64
#: letters); the battery's largest class has 13 words.
DEFAULT_CAP = 200_000


class ClassCapExceeded(Exception):
    """The breadth-first closure grew past the requested cap."""


class IndexConstraintViolated(Exception):
    """Indices handed to a relation or congruence builder break its constraints."""


class WordSyntaxError(ValueError):
    """Unparseable word text, or a letter outside 1..n."""


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def parse_word(text: str, n: int) -> Word:
    """Parse a word over generators 1..n.

    Two syntaxes are accepted: whitespace-separated indices ("3 2 1") and
    the compact letter form ("cba", a=1..z=26, only meaningful for n <= 26).
    The empty string is the identity.
    """
    text = text.strip()
    tokens = text.split()
    if all(tok.isdigit() for tok in tokens):  # the empty word too
        try:
            letters = tuple(int(tok) for tok in tokens)
        except ValueError:  # digits int() does not read ("²"), or too many of them
            raise WordSyntaxError(f"cannot parse word {text!r}") from None
    elif len(tokens) == 1 and all("a" <= ch <= "z" for ch in tokens[0]):
        letters = tuple(ord(ch) - ord("a") + 1 for ch in tokens[0])
    else:
        raise WordSyntaxError(f"cannot parse word {text!r}")
    check_letters(letters, n)
    return letters


def check_letters(word: Word, n: int) -> None:
    """Raise WordSyntaxError unless n >= 1 and every letter of `word` lies in 1..n."""
    if n < 1:
        raise WordSyntaxError(f"rank must be >= 1, got {n}")
    for x in word:
        if not 1 <= x <= n:
            raise WordSyntaxError(f"letter {x} outside 1..{n}")


def format_word(word: Word) -> str:
    """Numeric text form; the empty word renders as the empty string."""
    return " ".join(str(x) for x in word)


def words_up_to(n: int, max_len: int) -> Iterator[Word]:
    """All words over 1..n of length 0..max_len, shortest first, lexicographic."""
    for length in range(max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


# ---------------------------------------------------------------------------
# Rewriting and the breadth-first congruence oracle
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _relation_rewrites(factor: str) -> tuple[str, ...]:
    # A length-3 factor with letters i <= k <= j lies in the relation class
    # (j i k, j k i, k j i) or in none; return the class's other members.
    if len(factor) != 3:
        return ()
    i, k, j = sorted(factor)
    members = dict.fromkeys((j + i + k, j + k + i, k + j + i))
    return tuple(m for m in members if m != factor) if factor in members else ()


def _text(word: Word) -> str:
    # The oracle's form of a word: letter g is the character chr(g).
    try:
        return "".join(map(chr, word))
    except (ValueError, OverflowError):
        raise ValueError("the oracle takes letters in 0..0x10FFFF") from None


def _closure(word: Word, extra: CongruencePairs, cap: int) -> Iterator[str]:
    # Yields each member once as text, in the order generated; see congruence_class.
    if cap <= 0:
        raise ValueError("cap must be positive")
    start = _text(word)
    rules: dict[str, tuple[str, ...]] = {}  # factor -> replacements, filled on first use
    for u, v in extra:  # a frozenset of int tuples iterates in the same order under any hash seed
        if len(u) != len(v):
            raise ValueError(f"inhomogeneous congruence pair ({u}, {v})")
        u, v = _text(u), _text(v)
        rules[u] = rules.get(u, _relation_rewrites(u)) + (v,)
        rules[v] = rules.get(v, _relation_rewrites(v)) + (u,)
    sizes = sorted({3, *map(len, rules)})
    seen, frontier = {start}, deque((start,))
    yield start
    while frontier:
        w = frontier.popleft()
        for size in sizes:
            for pos in range(len(w) - size + 1):
                factor = w[pos:pos + size]
                if (rule := rules.get(factor)) is None:
                    rule = rules[factor] = _relation_rewrites(factor)
                if rule:
                    head, tail = w[:pos], w[pos + size:]
                    for r in rule:
                        if (member := f"{head}{r}{tail}") not in seen:  # one allocation, not two
                            seen.add(member)
                            if len(seen) > cap:
                                raise ClassCapExceeded(
                                    f"congruence class of {format_word(word)!r} exceeds cap {cap}")
                            frontier.append(member)
                            yield member


def congruence_class(word: Word, extra: CongruencePairs = NO_EXTRA,
                     cap: int = DEFAULT_CAP) -> set[Word]:
    """Breadth-first closure of `word` under the defining relations plus the
    `extra` pairs (substituted in both directions at every position).

    It runs on text, letter g the character chr(g) for g in 0..0x10FFFF; a
    dict of the call maps each factor to its replacements.  Members have the
    length of `word`; more than `cap` raise ClassCapExceeded.
    """
    return {tuple(map(ord, member)) for member in _closure(word, extra, cap)}


def eq_oracle(w: Word, v: Word, extra: CongruencePairs = NO_EXTRA,
              cap: int = DEFAULT_CAP) -> bool:
    """Decide w = v modulo the Chinese relations and `extra`.

    Runs the closure of `congruence_class` from w and returns True once v
    is generated, so `cap` bounds only the words generated before that; a
    False verdict closes the whole class.  Congruences here are homogeneous,
    so words of different lengths are unequal without running the closure.
    The arguments are checked first, whatever the words.
    """
    members = _closure(w, extra, cap)
    next(members)  # checks cap, extra and w's letters; the first member is w
    target = _text(v)
    return len(w) == len(v) and (w == v or target in members)


# ---------------------------------------------------------------------------
# Immutable values and the staircase canonical form
# ---------------------------------------------------------------------------

class Frozen:
    """Immutable value with slots.  Equality (within one class), hash, repr,
    pickling and `match` read `__match_args__`, the constructor's arguments."""

    __slots__ = __match_args__ = ()
    _values: tuple  # the fields' values, in that order

    def __init_subclass__(cls) -> None:
        # attrgetter, not getattr in a loop: `incomparability_witness` compares leaves
        cls._values = property(attrgetter(*cls.__match_args__))  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values


class StaircaseForm(Frozen):
    """Triangular exponent array of the canonical form.

    Row i (1-based, stored at k[i-1]) holds k[i][1..i]: exponent of the pair
    a_i a_j at position j < i and of the single letter a_i at position i.
    """

    __slots__ = __match_args__ = ("n", "k")
    n: int
    k: tuple[tuple[int, ...], ...]

    def __new__(cls, n: int, k: tuple[tuple[int, ...], ...]) -> "StaircaseForm":
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        if len(k) != n:
            raise ValueError("exponent triangle has wrong number of rows")
        k = tuple(map(tuple, k))
        for i, row in enumerate(k, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries")
            if not all(isinstance(e, int) and e >= 0 for e in row):
                raise ValueError(f"exponents must be nonnegative ints, got row {i} {row}")
        return cls._built(n, k)

    @classmethod
    def _built(cls, n: int, k: tuple[tuple[int, ...], ...]) -> "StaircaseForm":
        form = object.__new__(cls)  # unchecked: `_insert` cannot fail the checks above
        object.__setattr__(form, "n", n)
        object.__setattr__(form, "k", k)
        return form

    @classmethod
    def identity(cls, n: int) -> "StaircaseForm":
        return cls(n, tuple(tuple(0 for _ in range(i + 1)) for i in range(n)))

    def expand(self) -> Word:
        """The canonical word b_1 b_2 ... b_n this triangle encodes."""
        out: list[int] = []
        for r in range(1, self.n + 1):
            row = self.k[r - 1]
            for j in range(1, r):
                out.extend((r, j) * row[j - 1])
            out.extend((r,) * row[r - 1])
        return tuple(out)

    def weight(self) -> int:
        """Weighted degree: off-diagonal exponents count twice.  Equals the
        length of the expanded word."""
        return sum(2 * sum(row) - row[-1] for row in self.k)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": [list(row) for row in self.k]}

    @classmethod
    def from_dict(cls, data: dict) -> "StaircaseForm":
        return cls(int(data["n"]), tuple(tuple(int(e) for e in row) for row in data["k"]))


def projection(word: Word, x: int, y: int) -> tuple[int, int]:
    """(i, j) with p^i q^j the image of `word` in the bicyclic monoid under
    a_g -> p (g <= x), 1 (x < g < y), q (g >= y), by `bicyclic.product`."""
    return product(P if g <= x else Q if g >= y else IDENTITY for g in word)


def fold_prefixes(columns: Sequence[tuple[bool, tuple]], words: Sequence[Word]) -> dict[Word, tuple]:
    """Each word's values on `columns`, (is_b, column) pairs, column[g-1] for
    a_g: B entries take the `bicyclic.product` step, others add.  A word
    extends its longest prefix already folded; the caller checks letters."""
    multiplies = tuple(is_b for is_b, _ in columns)
    rows = tuple(zip(*(column for _, column in columns)))  # rows[g-1]: generator g's
    folded = {(): tuple(IDENTITY if is_b else 0 for is_b in multiplies)}
    for word in words:
        start = next(cut for cut in range(len(word), -1, -1) if word[:cut] in folded)
        for cut in range(start, len(word)):
            folded[word[:cut + 1]] = tuple([
                ((v[0], v[1] - e[0] + e[1]) if v[1] >= e[0] else (v[0] + e[0] - v[1], e[1]))
                if is_b else v + e
                for is_b, v, e in zip(multiplies, folded[word[:cut]], rows[word[cut] - 1])])
    return {word: folded[word] for word in words}


def pending(word: Word, x: int) -> list[int]:
    """The letters still pending, largest first, once `word` is read left to
    right: each g > x is pushed, each g <= x removes the largest pending one.

    For every y > x, `projection(word, x, y)` is (#{g <= x} - #{g >= y} + c, c)
    with c = #{pending >= y}: under B(x, y) a p cancels a pending q exactly
    when some pending letter is >= y, and then the largest one is.
    """
    heap: list[int] = []  # negated: heapq's least is the largest letter
    for g in word:
        if g > x:
            heappush(heap, -g)
        elif heap:
            heappop(heap)
    return [-g for g in sorted(heap)]


def to_staircase(word: Word, n: int) -> StaircaseForm:
    """Canonical form of `word` in the Chinese monoid of rank n.

    The letters are inserted one at a time into the identity's triangle
    (Cassaigne, Espie, Krob, Novelli and Hivert, "The Chinese monoid", IJAC
    11, 2001), by `_insert`; no projection is read.
    """
    check_letters(word, n)
    return _insert(n, [[0] * r for r in range(1, n + 1)], word)


def multiply(f: StaircaseForm, g: StaircaseForm) -> StaircaseForm:
    """Product of canonical forms: g's letters inserted into f's triangle."""
    if f.n != g.n:
        raise ValueError(f"rank mismatch: {f.n} != {g.n}")
    return _insert(f.n, [list(row) for row in f.k], g.expand())


def _insert(n: int, k: list[list[int]], word: Word) -> StaircaseForm:
    # Appends each letter x of `word` to the triangle k (rows as lists, changed
    # in place): in the first row r = n, n-1, ..., x+1 with a nonzero cell
    # (r, j), j > x, one unit moves from the least such (r, j) to (r, x).  A
    # single a_r (j = r) ends there; a pair a_r a_j carries x := j on in the
    # same row r.  With no such row, k[x][x] grows.  top[r] is the column of
    # the last nonzero cell of row r (0 if none), so a letter costs O(n).
    top = [0] + [max(j for j, e in enumerate(row, 1) if e) if any(row) else 0 for row in k]
    for x in word:
        r = n
        while r > x:
            if top[r] <= x:
                r -= 1
                continue
            row = k[r - 1]
            j = x + 1
            while not row[j - 1]:
                j += 1
            row[j - 1] -= 1
            row[x - 1] += 1
            if top[r] == j and not row[j - 1]:
                top[r] = x  # cells x+1..j-1 of row r are empty
            if j == r:
                break
            x = j
        else:
            k[x - 1][x - 1] += 1
            top[x] = x
    return StaircaseForm._built(n, tuple(map(tuple, k)))


def count_classes(n: int, length: int) -> int:
    """Number of staircase forms of rank n and weighted degree `length`.

    Counts exponent triangles directly: n diagonal cells of weight 1 and
    n(n-1)/2 off-diagonal cells of weight 2.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if length < 0:
        raise ValueError("length must be >= 0")
    ways = [0] * (length + 1)
    ways[0] = 1
    cells = [1] * n + [2] * (n * (n - 1) // 2)
    for weight in cells:
        for t in range(weight, length + 1):
            ways[t] += ways[t - weight]
    return ways[length]


# ---------------------------------------------------------------------------
# First-level congruences and the two-sided annihilation identities
# ---------------------------------------------------------------------------

def first_level_pairs(kind: str, s: int, n: int) -> CongruencePairs:
    """Generating pairs of the first-level congruence attached to a dot or arc.

    kind "dot" (2 <= s <= n-1): the generators a_1..a_s commute pairwise and
    a_s..a_n commute pairwise; modulo these pairs a_s is central.

    kind "arc" (2 <= s <= n): a_1..a_{s-1} commute, a_s..a_n commute, and the
    mixed triples (a_i a_{s-1} a_m, a_m a_{s-1} a_i) for s <= m, i and
    (a_l a_s a_m, a_m a_s a_l) for l, m <= s-1 are identified; modulo these
    pairs the product a_s a_{s-1} is central.
    """
    if n < 3:
        raise IndexConstraintViolated(f"rank must be >= 3, got {n}")
    pairs: set[tuple[Word, Word]] = set()

    def commutators(lo: int, hi: int) -> None:
        for x in range(lo, hi + 1):
            for y in range(x + 1, hi + 1):
                pairs.add(((y, x), (x, y)))

    if kind == "dot":
        if not 2 <= s <= n - 1:
            raise IndexConstraintViolated(f"dot index s={s} outside 2..{n - 1}")
        commutators(1, s)
        commutators(s, n)
    elif kind == "arc":
        if not 2 <= s <= n:
            raise IndexConstraintViolated(f"arc index s={s} outside 2..{n}")
        commutators(1, s - 1)
        commutators(s, n)
        for i in range(s, n + 1):
            for m in range(i + 1, n + 1):
                pairs.add(((m, s - 1, i), (i, s - 1, m)))
        for l in range(1, s):
            for m in range(l + 1, s):
                pairs.add(((m, s, l), (l, s, m)))
    else:
        raise IndexConstraintViolated(f"kind must be 'dot' or 'arc', got {kind!r}")
    return frozenset(pairs)


#: Each variant of the annihilation identities: admissibility of
#: (i, j, k, l, m), with 0 for an absent m, and whether a_m comes first.
_BOXPLUS = {
    22: (lambda i, j, k, l, m: m == 0 and i > j >= k > l, False),
    23: (lambda i, j, k, l, m: k == j + 1 and i > j >= m > l, False),
    32: (lambda i, j, k, l, m: k == j + 1 and i > m > j >= l, True),
}


def _boxplus_rule(variant: int):
    if variant not in _BOXPLUS:
        raise IndexConstraintViolated(f"variant must be one of 22, 23, 32, got {variant}")
    return _BOXPLUS[variant]


def verify_boxplus(n: int, variant: int, w: Word, *, i: int, j: int,
                   l: int, k: int | None = None, m: int | None = None) -> bool:
    """Check one instance of the two-sided annihilation identities.

    Variant 22 (indices i > j >= k > l):
        the normal forms of  a_i a_j w a_k a_l  and  a_j a_i w a_l a_k
        form the same multiset as those of  a_i a_j w a_l a_k  and
        a_j a_i w a_k a_l.
    No form is built: the four words share their letter counts, and their
    projections B(x, y), 1 <= x < y <= n, which fix the normal form one to
    one, are composed as head image * w image * tail image, homomorphisms to
    the bicyclic monoid.  Where both heads and both tails commute under
    B(x, y) (unless min(a, b) <= x < y <= max(a, b), letters a and b do),
    the four words have one image and the projection is skipped.
    Variant 23 appends a_m (i >= j+1 > j >= m > l, k forced to j+1);
    variant 32 prepends a_m (i > m >= j+1 > j >= l, k forced to j+1).
    Each variant is one predicate in `_BOXPLUS`, which `boxplus_tuples`
    enumerates; an index outside 1..n, or a tuple the predicate rejects,
    raises IndexConstraintViolated.  It is `boxplus_failures` on one instance.
    """
    return not any(boxplus_failures(n, (w,), ((variant, dict(i=i, j=j, k=k, l=l, m=m)),)))


def boxplus_failures(n: int, words: Sequence[Word],
                     tuples: Sequence[tuple[int, dict]]) -> Iterator[tuple[int, dict, Word]]:
    """Yield (variant, indices, w) for each failing instance of `verify_boxplus`.

    Every (variant, indices) of `tuples`, with indices its keyword arguments,
    meets every w of `words`, tuple-major and word-minor.  Every letter and
    index is range-checked before any work.  Under each B(x, y) the words are
    grouped by image into int masks (bit i for words[i]) by one `fold_prefixes`
    of all projection columns per call, which the suite makes once per rank.
    Per tuple, the kept projections and their head and tail images are
    computed once, and integers are composed once per distinct image.  The two
    multisets of words agree iff, at every kept projection, ij w kl = ij w lk
    and ji w lk = ji w kl (straight) or ij w kl = ji w kl and ji w lk = ij w lk
    (crossed); a failing image clears its mask.
    """
    for x in itertools.chain(*words, *(map(t.get, "ijklm") for _, t in tuples)):
        if x is not None and not 1 <= x <= n:
            raise IndexConstraintViolated(f"index {x} outside 1..{n}")
    masks = {(x, y): {} for y in range(2, n + 1) for x in range(1, y)}  # image -> words
    values = fold_prefixes([(True, (P,) * x + (IDENTITY,) * (y - x - 1) + (Q,) * (n + 1 - y))
                            for x, y in masks], words)
    for index, w in enumerate(words):
        for by_image, image in zip(masks.values(), values[w]):
            by_image[image] = by_image.get(image, 0) | 1 << index
    for variant, indices in tuples:
        admissible, m_first = _boxplus_rule(variant)
        i, j, k, l, m = map(indices.get, "ijklm")
        k = j + 1 if k is None else k
        if not admissible(i, j, k, l, m or 0):
            raise IndexConstraintViolated(
                f"variant {variant} does not admit (i, j, k, l, m) = {(i, j, k, l, m)}")
        extra: Word = () if m is None else (m,)
        prefix, suffix = (extra, ()) if m_first else ((), extra)
        h1, h2 = prefix + (i, j), prefix + (j, i)
        t1, t2 = (k, l) + suffix, (l, k) + suffix
        (hlo, hhi), (tlo, thi) = sorted((i, j)), sorted((k, l))
        kept = [(masks[x, y], projection(h1, x, y)[1], projection(h2, x, y)[1],
                 *projection(t1, x, y), *projection(t2, x, y))
                for x, y in masks  # elsewhere heads and tails commute: four equal images
                if hlo <= x and y <= hhi or tlo <= x and y <= thi]
        straight = crossed = everyone = (1 << len(words)) - 1
        for by_image, g1, g2, e1, f1, e2, f2 in kept:
            for (c, d), mask in by_image.items():
                # w -> p^c q^d and each tail -> p^e q^f; a head's p-exponent
                # stays in front, so head * w -> p^. q^b and head * w * tail
                # -> p^. q^(f + max(0, b - e)), as `bicyclic.product` folds it,
                # inlined.  v1, v3 = ij w kl, ij w lk; v2, v4 = ji w lk, ji w kl.
                b1, b2 = (d + g1 - c if g1 > c else d), (d + g2 - c if g2 > c else d)
                v1, v3 = (f1 + b1 - e1 if b1 > e1 else f1), (f2 + b1 - e2 if b1 > e2 else f2)
                v2, v4 = (f2 + b2 - e2 if b2 > e2 else f2), (f1 + b2 - e1 if b2 > e1 else f1)
                straight &= ~(0 if v1 == v3 and v2 == v4 else mask)
                crossed &= ~(0 if v1 == v4 and v2 == v3 else mask)
        failing = everyone & ~(straight | crossed)
        while failing:  # its set bits, lowest first
            yield variant, indices, words[(failing & -failing).bit_length() - 1]
            failing &= failing - 1


def boxplus_tuples(n: int, variant: int) -> Iterator[dict[str, int]]:
    """All admissible index tuples of a variant, as kwargs for verify_boxplus."""
    admissible, _ = _boxplus_rule(variant)
    fourth = "k" if variant == 22 else "m"
    for i, j, x, l in itertools.product(range(1, n + 1), repeat=4):
        if admissible(i, j, x, l, 0) if variant == 22 else admissible(i, j, j + 1, l, x):
            yield {"i": i, "j": j, fourth: x, "l": l}
