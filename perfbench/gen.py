"""Seeded inputs and reference answers, computed without the program under test.

Everything here is plain integer arithmetic on tuples: the benchmark builds
its own words, matrices, conjugators and expected values, and hands the
program only the finished inputs.
"""

from __future__ import annotations

import math
import random

# Routes words stay inside the length range of the census that the repo's
# acceptance tests check the two numerical routes on (T = 14).  Longer words
# exist on which e2_period misses its 1e-6 tolerance; see README.md.
ROUTES_MAX_LENGTH = 14.0
ROUTES_PER_STRATUM = 40
STRATA = ("generic", "long", "cusp")
# generic and long words are spread over equal-width length bins with equal
# quotas, so a seed changes which words are drawn but not how long they are
LENGTH_RANGE = {"generic": (2.0, ROUTES_MAX_LENGTH), "long": (8.0, ROUTES_MAX_LENGTH)}
LENGTH_BINS = 4
CUSP_ENTRY = (50, 400)

SYMBOLS_BLOCK = 1000
SYMBOLS_ENTRY_MAX = 9

# A word outside every stratum and every symbols block, for warm-up only.
WARMUP_WORD = (7, 58)


def word_product(word):
    """Entries (p, q, r, s) of A_{a1} ... A_{an} with A_a = (a 1; 1 0)."""
    p, q, r, s = 1, 0, 0, 1
    for a in word:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inverse(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def alternating_sum(word):
    """Reference psi of the class of a word: a1 - a2 + a3 - ... - a2n."""
    return sum(a if i % 2 == 0 else -a for i, a in enumerate(word))


def min_even_rotation(word):
    """Reference class: the lexicographically least rotation by an even offset."""
    word = tuple(word)
    return min(word[k:] + word[:k] for k in range(0, len(word), 2))


def is_primitive(word):
    """False iff the word repeats a block of even length at least twice."""
    n = len(word)
    return not any(
        n % block == 0 and word == word[:block] * (n // block) for block in range(2, n, 2)
    )


def geodesic_length(word):
    p, _, _, s = word_product(word)
    return 2.0 * math.acosh((p + s) / 2.0)


def _routes_candidate(rng, stratum, slot):
    if stratum == "generic":
        return tuple(rng.randint(1, 6) for _ in range(rng.choice((2, 4, 6))))
    if stratum == "long":
        return tuple(rng.randint(1, 3) for _ in range(rng.choice((8, 10, 12))))
    # cusp: the large entry is drawn from the slot's own sub-interval of
    # CUSP_ENTRY, so every seed covers the whole range evenly
    edges = cusp_edges()
    big = rng.randrange(edges[slot], edges[slot + 1])
    word = [rng.randint(1, 6) for _ in range(rng.choice((2, 4)))]
    word[rng.randrange(len(word))] = big
    return tuple(word)


def cusp_edges(slots=ROUTES_PER_STRATUM):
    """Boundaries of the equal sub-intervals of CUSP_ENTRY, one per cusp slot."""
    lo, hi = CUSP_ENTRY
    return [lo + k * (hi - lo + 1) // slots for k in range(slots + 1)]


def _fits_slot(stratum, slot, length):
    if length > ROUTES_MAX_LENGTH:
        return False
    if stratum not in LENGTH_RANGE:
        return True
    lo, hi = LENGTH_RANGE[stratum]
    b = slot * LENGTH_BINS // ROUTES_PER_STRATUM
    width = (hi - lo) / LENGTH_BINS
    return lo + b * width <= length and (length < lo + (b + 1) * width or b == LENGTH_BINS - 1)


def routes_words(seed, per_stratum=ROUTES_PER_STRATUM):
    """[(stratum, word)] with per_stratum distinct classes in each stratum."""
    rng = random.Random(f"routes-{seed}")
    out = []
    seen = {min_even_rotation(WARMUP_WORD)}
    for stratum in STRATA:
        for slot in range(per_stratum):
            while True:
                word = _routes_candidate(rng, stratum, slot)
                cls = min_even_rotation(word)
                if cls in seen or not is_primitive(word):
                    continue
                if _fits_slot(stratum, slot, geodesic_length(word)):
                    break
            seen.add(cls)
            out.append((stratum, word))
    return out


def random_sl2(rng, max_factors=6):
    """Random SL(2,Z) element as a product of powers of T = (1 1; 0 1) and S = (0 -1; 1 0)."""
    g = (1, 0, 0, 1)
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            g = mat_mul(g, (1, rng.randint(-5, 5), 0, 1))
        else:
            g = mat_mul(g, (0, -1, 1, 0))
    return g


def symbols_queries(seed, blocks, block_size=SYMBOLS_BLOCK):
    """Blocks of symbol queries; each query is a dict of plain tuples and ints.

    In every block half the queries name a class not queried before in the
    run, and half revisit a class of the same block under a fresh conjugator
    and sign.  Classes never recur across blocks, so the repeat share is
    exactly one half in every block.
    """
    rng = random.Random(f"symbols-{seed}")
    seen = {min_even_rotation(WARMUP_WORD)}
    out = []
    for _ in range(blocks):
        fresh_left = block_size // 2
        block_classes = []
        block = []
        for i in range(block_size):
            left = block_size - i
            if block_classes and rng.random() >= fresh_left / left:
                word = rng.choice(block_classes)
                repeat = True
            else:
                while True:
                    word = tuple(
                        rng.randint(1, SYMBOLS_ENTRY_MAX) for _ in range(rng.choice((2, 4, 6)))
                    )
                    cls = min_even_rotation(word)
                    if cls not in seen and is_primitive(word):
                        break
                seen.add(cls)
                block_classes.append(word)
                fresh_left -= 1
                repeat = False
            block.append(make_query(rng, word, repeat))
        out.append(block)
    return out


def make_query(rng, word, repeat):
    tau = random_sl2(rng)
    g = mat_mul(mat_mul(tau, word_product(word)), mat_inverse(tau))
    if rng.random() < 0.5:
        g = tuple(-x for x in g)
    return {
        "g": g,
        "tau": tau,
        "repeat": repeat,
        "word": word,
        "cls": min_even_rotation(word),
        "psi": alternating_sum(word),
    }


def census_reference(cap):
    """Every (canonical word, trace) with trace <= cap, by brute force.

    Walks all even words whose product trace stays within cap (the trace
    grows with every entry and every extension) and keeps the canonical
    primitive ones.  Meant for small caps only.
    """
    out = set()
    stack = [()]
    while stack:
        word = stack.pop()
        for a in range(1, cap + 1):
            w = word + (a,)
            if len(w) % 2 == 1:
                p, _, _, s = word_product(w + (1,))
                if p + s > cap:  # trace of the shortest even completion
                    break
                stack.append(w)
                continue
            p, _, _, s = word_product(w)
            if p + s > cap:
                break
            stack.append(w)
            if w == min_even_rotation(w) and is_primitive(w):
                out.add((w, p + s))
    return out
