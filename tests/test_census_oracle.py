"""The census's (trace, psi, word length) multiset against an oracle with no walk.

The oracle builds the classes from the cycles of the continued-fraction pair
step on reduced matrices.  It shares no code with the census walk: no FKM
tree, no Lyndon test and no word products.  It checks how long each class's
word is, not which word it is; the brute-force oracle and the pinned columns
cover the words.
"""

import math
from collections import Counter

import numpy as np
import pytest

from modwind.geodesics import enumerate_by_trace

CAP = 403  # trace_cap_for_length(12.0)


def reduced_states(cap):
    """(a, c, d) of the reduced matrices (a b; c d) of trace <= cap.

    For t >= 3, isqrt(t^2 - 4) = t - 1, and the walk's reduced states of
    trace t, P = a - d and Q = 2c, are the matrices of determinant 1 with
    1 <= d <= c < a and a + d = t.  There is one for each coprime (a, c) with
    c < a: d = a^-1 mod c, taken in [1, c], and b = (ad - 1) / c.
    """
    a, c = np.divmod(np.arange((cap + 1) ** 2, dtype=np.int64), cap + 1)
    keep = (1 <= c) & (c < a) & (a < cap)
    a, c = a[keep], c[keep]
    # extended Euclid on every pair at once: at the end r0 = gcd(a, c) = s0 a (mod c)
    r0, r1, s0, s1 = a, c, np.ones_like(a), np.zeros_like(a)
    while r1.any():
        live = r1 > 0
        q = np.where(live, r0 // np.maximum(r1, 1), 0)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
    d = (s0 - 1) % c + 1
    keep = (r0 == 1) & (a + d <= cap)
    return a[keep], c[keep], d[keep]


def cycle_multiset(cap):
    """Counter of (trace, psi, pairs) over the cycles of the pair step on the
    reduced states of trace <= cap.

    From alpha = (P + sqrt(D)) / Q, D = t^2 - 4, one step reads a = floor(alpha)
    and moves to P' = aQ - P, Q' = (D - P'^2) / Q; two steps read a pair
    (a1, a2) and conjugate in SL(2,Z), so the pair step permutes the states of
    each trace.  A cycle is the states of a class of trace t, or of a proper
    power g^k of trace t, with g's word read once: it has one state a pair of
    that word, and the sum of a1 - a2 over it is g's psi.  Pointer doubling
    labels each state with the least state of its cycle.
    """
    a, c, d = reduced_states(cap)
    t = a + d
    P, Q = a - d, 2 * c
    D, root = t * t - 4, t - 1
    a1 = (P + root) // Q
    P1 = a1 * Q - P
    Q1 = (D - P1 * P1) // Q
    a2 = (P1 + root) // Q1
    P2 = a2 * Q1 - P1
    Q2 = (D - P2 * P2) // Q1
    # the next state is (a, c, d) = ((t + P2) / 2, Q2 / 2, (t - P2) / 2), of the same trace
    index = np.full((cap + 1) ** 2, -1)
    index[a * (cap + 1) + c] = np.arange(len(a))
    step = index[(t + P2) // 2 * (cap + 1) + Q2 // 2]
    assert np.array_equal(np.sort(step), np.arange(len(a))), "the pair step is no permutation"
    label = np.arange(len(a))
    while True:
        least = np.minimum(label, label[step])
        step = step[step]
        if np.array_equal(least, label):
            break
        label = least
    psi = np.bincount(label, weights=a1 - a2).astype(np.int64)
    pairs = np.bincount(label)
    first = np.flatnonzero(pairs)
    return Counter(zip(t[first].tolist(), psi[first].tolist(), pairs[first].tolist()))


def class_multiset(cap):
    """Counter of (trace, psi, pairs) over the primitive classes of trace <= cap:
    the cycles less the proper powers.

    g^k has trace t_k = t_1 t_(k-1) - t_(k-2), t_0 = 2, and g's psi and pairs,
    so powers come only from traces up to sqrt(cap + 2), taken in increasing
    order: the classes of a trace are its cycles less the powers that land on it.
    """
    cycles = cycle_multiset(cap)
    powers = Counter()
    for t1 in range(3, math.isqrt(cap + 2) + 1):
        for (t, psi, pairs), cycle_count in list(cycles.items()):
            if t == t1:
                classes = cycle_count - powers[t, psi, pairs]
                prev, tk = t1, t1 * t1 - 2
                while tk <= cap:
                    powers[tk, psi, pairs] += classes
                    prev, tk = tk, t1 * tk - prev
    assert all(cycles[key] >= n for key, n in powers.items())
    cycles.subtract(powers)
    return +cycles


def word_pairs(census):
    """The pairs of each row's word: word walk_index[i] of the blocks laid end
    to end lies in block n, of words of n + 1 pairs, where n blocks end at or
    before it."""
    ends = np.cumsum([len(block) for block in census.words])
    return np.searchsorted(ends, census.walk_index, side="right") + 1


def census_multiset(trace, psi, pairs):
    """Counter of (trace, psi, pairs) over a census's columns."""
    return Counter(zip(trace.tolist(), psi.tolist(), pairs.tolist()))


@pytest.fixture(scope="module")
def census():
    return enumerate_by_trace(CAP)


@pytest.fixture(scope="module")
def oracle():
    return class_multiset(CAP)


def test_oracle_equals_the_census_through_cap_403(census, oracle):
    assert sum(oracle.values()) == len(census) == 14904
    assert census_multiset(census.trace, census.psi, word_pairs(census)) == oracle


@pytest.mark.parametrize("mutation", ["dropped", "duplicated", "psi negated"])
def test_oracle_catches_a_wrong_row(census, oracle, mutation):
    i = len(census) // 2
    rows = list(range(len(census)))
    psi = census.psi.copy()
    if mutation == "dropped":
        del rows[i]
    elif mutation == "duplicated":
        rows.insert(i, i)
    else:
        i = int(np.flatnonzero(psi[i:])[0]) + i
        psi[i] = -psi[i]
    assert census_multiset(census.trace[rows], psi[rows], word_pairs(census)[rows]) != oracle
