"""Seeded benchmark inputs with their ground truth built in.

Nothing here imports the package under test: the defining relation, the
staircase expansion and the class-size count are the benchmark's own, so
the answers it checks against are independent of the code it measures.
Every function takes an explicit `random.Random`, so a seed fixes the inputs.
"""

from __future__ import annotations

import random
from functools import lru_cache

# Per-query class-size band for the breadth-first workload.  The time of one
# breadth-first normal form grows with the size of the input's congruence
# class, which ranges over four orders of magnitude at |w| = 8..12.  Drawing
# classes from a fixed band keeps the work of a run the same from seed to
# seed; the upper edge keeps the tail percentile inside the band.
CLASS_BAND = (64, 1024)

NORMALIZE_RANKS = (4, 5, 6)
NORMALIZE_LENGTHS = (8, 9, 10, 11, 12)
# Text queries per rank: walked from a random triangle, or uniform random words.
NORMALIZE_FRESH = 40
NORMALIZE_UNIFORM = 8
NORMALIZE_PRODUCTS = 12  # multiply calls per rank
REPEAT_SHARE = 0.25  # of text queries: a new word of an already normalized class

# Equal and unequal pairs per (n, |w|).  The time of an equal pair is fixed
# by T_n * |w|, while an unequal pair stops at the first separating leaf.
# Most pairs are small, so the median time falls inside the cluster of equal
# pairs at n=6, |w|=20 rather than between two clusters; the largest cell has
# two pairs, so the tail percentile stays inside it from six repetitions on.
EMBED_PAIRS = {6: 8, 8: 2, 10: 1, 12: 2}
EMBED_LENGTHS = (20, 40)

LEAVES_RANKS = (13, 14, 15, 16)
RENDER_RANKS = tuple(range(3, 13))
WITNESS_RANKS = (5, 6, 7)
WITNESS_PAIRS = 12  # seeded leaf pairs per rank
WITNESS_MAX_LEN = 6


def relation_class(window: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    """Words equal to `window` by one use of a_j a_i a_k = a_j a_k a_i = a_k a_j a_i
    (i <= k <= j), the window itself included."""
    i, k, j = sorted(window)
    members = {(j, i, k), (j, k, i), (k, j, i)}
    return members if window in members else {window}


def walk(word: tuple[int, ...], steps: int, rng: random.Random) -> tuple[int, ...]:
    """A random walk of `steps` relation rewrites; stays in the class of `word`."""
    out = list(word)
    if len(out) < 3:
        return word
    for _ in range(steps):
        pos = rng.randrange(len(out) - 2)
        out[pos:pos + 3] = rng.choice(sorted(relation_class(tuple(out[pos:pos + 3]))))
    return tuple(out)


def scramble(word: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    return walk(word, 4 * len(word), rng)


@lru_cache(maxsize=None)
def _others(window: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(relation_class(window) - {window}))


def class_size(word: tuple[int, ...], cap: int) -> int | None:
    """Size of the congruence class of `word`, or None once it exceeds `cap`."""
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        for pos in range(len(w) - 2):
            for window in _others(w[pos:pos + 3]):
                nb = w[:pos] + window + w[pos + 3:]
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        return None
                    todo.append(nb)
    return len(seen)


# --- staircase triangles ----------------------------------------------------

Triangle = list[list[int]]  # row r (1-based) at index r-1, entries k[r][1..r]


def _cells(n: int) -> list[tuple[int, int]]:
    return [(r, j) for r in range(1, n + 1) for j in range(1, r + 1)]


def _weight(cell: tuple[int, int]) -> int:
    r, j = cell
    return 1 if r == j else 2


def random_triangle(n: int, weight: int, rng: random.Random) -> Triangle:
    """A staircase triangle drawn uniformly among those of the given weight."""
    cells = _cells(n)
    # ways[c][t]: fillings of cells[c:] with total weight t.
    ways = [[0] * (weight + 1) for _ in range(len(cells) + 1)]
    ways[-1][0] = 1
    for c in range(len(cells) - 1, -1, -1):
        step = _weight(cells[c])
        for t in range(weight + 1):
            ways[c][t] = ways[c + 1][t] + (ways[c][t - step] if t >= step else 0)
    k = [[0] * r for r in range(1, n + 1)]
    left = weight
    for c, (r, j) in enumerate(cells):
        step = _weight((r, j))
        pick = rng.randrange(ways[c][left])
        while pick >= ways[c + 1][left]:
            pick -= ways[c + 1][left]
            k[r - 1][j - 1] += 1
            left -= step
    return k


def expand(k: Triangle) -> tuple[int, ...]:
    """The staircase word b_1 ... b_n, b_r = (a_r a_1)^k[r][1] ... a_r^k[r][r]."""
    out: list[int] = []
    for r, row in enumerate(k, start=1):
        for j in range(1, r):
            out.extend((r, j) * row[j - 1])
        out.extend((r,) * row[r - 1])
    return tuple(out)


def shifted(k: Triangle, rng: random.Random) -> Triangle | None:
    """Move one off-diagonal exponent k[r][j] onto k[r][r] and k[j][j].

    The letters are unchanged (a_r a_j becomes a_r and a_j) but the triangle
    differs, so by uniqueness of the staircase form the words are unequal.
    None if every off-diagonal exponent is 0.
    """
    cells = [(r, j) for r, j in _cells(len(k)) if r != j and k[r - 1][j - 1]]
    if not cells:
        return None
    r, j = rng.choice(cells)
    out = [row[:] for row in k]
    out[r - 1][j - 1] -= 1
    out[r - 1][r - 1] += 1
    out[j - 1][j - 1] += 1
    return out


def text(word: tuple[int, ...]) -> str:
    return " ".join(map(str, word))


def tribonacci(k: int) -> int:
    a, b, c = 1, 1, 1
    for _ in range(k - 2):
        a, b, c = b, c, a + b + c
    return c


# --- workloads -------------------------------------------------------------

def _banded(draw) -> tuple:
    """Redraw until the drawn word's class size falls in CLASS_BAND."""
    lo, hi = CLASS_BAND
    while True:
        item = draw()
        size = class_size(item[0], hi)
        if size is not None and size >= lo:
            return item + (size,)


def normalize_inputs(rng: random.Random) -> dict:
    """Text queries and products for the breadth-first normal form.

    NORMALIZE_FRESH queries per rank start from a random triangle,
    NORMALIZE_UNIFORM are uniform random words, and REPEAT_SHARE of all text
    queries are new walks in the class of an earlier fresh query.  Products
    multiply two triangles whose weights add up to 8..12.  Queries are
    interleaved in a fixed order.
    """
    queries: list[dict] = []
    for n in NORMALIZE_RANKS:
        for _ in range(NORMALIZE_FRESH):
            length = rng.choice(NORMALIZE_LENGTHS)

            def draw():
                k = random_triangle(n, length, rng)
                return scramble(expand(k), rng), k
            word, k, size = _banded(draw)
            queries.append({"op": "nf", "n": n, "text": text(word), "k": k, "class": size})
        for _ in range(NORMALIZE_UNIFORM):
            length = rng.choice(NORMALIZE_LENGTHS)
            word, size = _banded(lambda: (tuple(rng.randint(1, n) for _ in range(length)),))
            queries.append({"op": "nf", "n": n, "text": text(word), "k": None, "class": size})
        for _ in range(NORMALIZE_PRODUCTS):
            length = rng.choice(NORMALIZE_LENGTHS)

            def draw():
                a = rng.randint(3, length - 3)
                f, g = random_triangle(n, a, rng), random_triangle(n, length - a, rng)
                return expand(f) + expand(g), f, g
            _, f, g, size = _banded(draw)
            queries.append({"op": "mul", "n": n, "f": f, "g": g, "class": size})
    rng.shuffle(queries)
    text_queries = sum(q["op"] == "nf" for q in queries)
    repeats = round(REPEAT_SHARE * text_queries / (1 - REPEAT_SHARE))
    for _ in range(repeats):
        # Insert after a query built from a triangle, so its class is already cached.
        slots = [i for i, q in enumerate(queries) if q["op"] == "nf" and q["k"] is not None]
        i = rng.choice(slots)
        src = queries[i]
        word = scramble(expand(src["k"]), rng)
        queries.insert(rng.randint(i + 1, len(queries)),
                       {"op": "nf", "n": src["n"], "text": text(word), "k": src["k"],
                        "class": src["class"], "repeat": True})
    return {"queries": queries}


def embed_inputs(rng: random.Random) -> dict:
    """Equal and same-letter unequal pairs, EMBED_PAIRS[n] of each per (n, |w|)."""
    pairs = []
    for n, count in EMBED_PAIRS.items():
        for length in EMBED_LENGTHS:
            for _ in range(count):
                while True:
                    k = random_triangle(n, length, rng)
                    other = shifted(k, rng)
                    if other is not None:
                        break
                base = expand(k)
                pairs.append({"n": n, "w": scramble(base, rng), "v": scramble(base, rng),
                              "equal": True})
                pairs.append({"n": n, "w": scramble(base, rng),
                              "v": scramble(expand(other), rng), "equal": False})
    rng.shuffle(pairs)
    return {"ranks": list(EMBED_PAIRS), "pairs": pairs}


def leaves_inputs(rng: random.Random) -> dict:
    """Leaf ranks to enumerate, ranks to render and seeded leaf pairs
    (indices into the enumeration order) for witness search."""
    witness = []
    for n in WITNESS_RANKS:
        for _ in range(WITNESS_PAIRS):
            a, b = rng.sample(range(tribonacci(n)), 2)
            witness.append({"n": n, "a": a, "b": b})
    return {"leaves": list(LEAVES_RANKS), "render": list(RENDER_RANKS),
            "witness": witness, "max_len": WITNESS_MAX_LEN}


GENERATORS = {
    "normalize": normalize_inputs,
    "embed_eq": embed_inputs,
    "leaves": leaves_inputs,
}


def inputs(workload: str, seed: int, rep: int) -> dict:
    """Inputs of repetition `rep` of a run with this seed.

    The battery takes the run's seed itself, so that every repetition must
    print the same bytes.
    """
    if workload == "battery":
        return {"seed": seed}
    return GENERATORS[workload](random.Random(f"{workload}/{seed}/{rep}"))
