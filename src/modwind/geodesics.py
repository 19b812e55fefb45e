"""Oriented primitive closed geodesics as even-length cyclic continued-fraction words.

A word (a1, ..., a2n) names the conjugacy class of A_{a1} ... A_{a2n} with
A_a = (a 1; 1 0).  Conjugation acts by rotation through an even offset, so the
canonical representative is the lexicographically minimal even rotation.
Read as a word over digit pairs, a canonical primitive word is a Lyndon word,
and the census is the FKM tree of Lyndon words of bounded trace, built one
level at a time and stored in columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from operator import index
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, DomainError, NotHyperbolic, NotPrimitive
from .matrices import Mat2, _integer, geodesic_length, short_int, short_real

__all__ = [
    "CyclicWord",
    "GeodesicRecord",
    "Census",
    "EnumerationConfig",
    "MAX_TRACE_CAP",
    "MAX_LENGTH_BOUND",
    "validate_entries",
    "canonical_form",
    "is_primitive",
    "word_to_matrix",
    "matrix_to_word",
    "li",
    "trace_cap_for_length",
    "enumerate_geodesics",
    "enumerate_by_trace",
]

# The largest trace a census may reach.  At this cap the prime geodesic
# theorem's count li(e^T) at 140 B a class comes to 511.99 MiB, the last cap
# within 512 MiB; the commands peak at 35-50 B a class there, measured in
# fresh processes, so 140 B leaves room for the longer words of larger T.
# Every digit and trace is at most the cap, below 2^16 for the census's
# uint16 columns, and |psi| <= cap - 3 < 2^15 for its int16 psi.
MAX_TRACE_CAP = 8055
# The largest length bound: the length of that trace, 17.988096560397445.
MAX_LENGTH_BOUND = geodesic_length(MAX_TRACE_CAP)
_LENGTH_SLACK = 1e-12
# Continued-fraction steps a walk takes before it gives up.
_WALK_STEPS = 100000
# Census iteration converts this many rows of each column to Python at a time.
_ROWS_PER_CHUNK = 4096
_EULER_GAMMA = 0.5772156649015329


def validate_entries(entries: Sequence[int]) -> Tuple[int, ...]:
    """The entries as a tuple of Python ints, a CyclicWord's as they are (checked when it
    was built); refuses odd or zero length, then the first non-integral or < 1 entry."""
    if isinstance(entries, CyclicWord):
        return entries.entries
    if len(entries) % 2 != 0 or len(entries) == 0:
        raise DomainError(f"word length {len(entries)} is not a positive even number")
    ints = []
    try:
        for a in map(index, entries):
            if a < 1:
                raise DomainError(f"entry {short_int(a)} < 1")
            ints.append(a)
    except TypeError:
        raise DomainError("word entries must be integers") from None
    return tuple(ints)


def _least_even_rotation(entries: Tuple[int, ...]) -> Tuple[int, int]:
    """(k, p): entries[k:] + entries[:k] is the least even rotation, of period p digits.

    One linear pass of Duval's Lyndon factorization (J. Algorithms 4, 1983) over the
    word written twice, as a word over digit pairs.  Each round reads from i a power
    of a Lyndon word u and a proper prefix of u, and steps i past the powers; the least
    rotation is a power of u in the last round that starts in the first copy.
    """
    n = len(entries)
    twice = entries + entries
    i = 0
    while True:
        # i, j and k index digits and step by whole pairs
        start, j, k = i, i + 2, i
        while j < 2 * n:
            x, y = twice[k], twice[j]
            if x == y:
                x, y = twice[k + 1], twice[j + 1]
            if x > y:
                break
            k = i if x < y else k + 2
            j += 2
        p = j - k
        i += (k - i) // p * p + p
        if i >= n:
            return start, p


@dataclass(frozen=True, slots=True)
class CyclicWord:
    """Even-length positive word stored in its canonical (minimal even) rotation."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        entries = validate_entries(self.entries)
        if _least_even_rotation(entries)[0]:
            raise DomainError(f"{self.entries} is not in canonical rotation")
        object.__setattr__(self, "entries", entries)


_set_entries = CyclicWord.entries.__set__


def _canonical_word(entries: Tuple[int, ...]) -> CyclicWord:
    """CyclicWord(entries) without its checks, for entries that this module has
    validated and put in least even rotation; the slot's setter stores past the
    frozen __setattr__."""
    word = object.__new__(CyclicWord)
    _set_entries(word, entries)
    return word


def canonical_form(entries: Sequence[int]) -> CyclicWord:
    """Canonical representative: lexicographically minimal even rotation."""
    entries = validate_entries(entries)
    k, _ = _least_even_rotation(entries)
    return _canonical_word(entries[k:] + entries[:k])


def is_primitive(word) -> bool:
    """False iff the word is u^k with k >= 2 and |u| even.

    Doubled odd blocks are primitive; they encode the inert geodesics.
    """
    entries = validate_entries(word)
    return _least_even_rotation(entries)[1] == len(entries)


def _word_product_entries(entries: Sequence[int]) -> Tuple[int, int, int, int]:
    p, q, r, s = 1, 0, 0, 1
    for a in entries:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


def word_to_matrix(word) -> Mat2:
    """Product of the factors (a 1; 1 0) over the word entries."""
    return Mat2(*_word_product_entries(validate_entries(word)))


def _reduced_cycle(t: int, P: int, Q: int) -> Tuple[int, int, List[int], Tuple[int, int, int, int]]:
    """(P, Q, digits, product): the first reduced state of the continued-fraction
    walk on alpha = (P + sqrt(D)) / Q, D = t^2 - 4, the digits of one period from
    it, and the entries (p, q, r, s) of the product of the factors A_a over them.

    (a b; c d) of det 1 and trace t > 2 fixes alpha at P = a - d, Q = 2c, and Q
    divides D - P^2 = 4bc.  A step reads a = floor(alpha) and moves to
    1 / (alpha - a): P' = aQ - P, Q' = (D - P'^2) / Q, the state of the conjugate
    A_a^-1 (a b; c d) A_a with A_a = (a 1; 1 0).  Two steps conjugate in SL(2,Z), so
    the walk is tested at even steps for alpha > 1 and -1 < alpha' < 0, that is
    Q - sqrt(D) < P < sqrt(D) < P + Q, which every product of factors A_a meets.
    By Galois' theorem (a purely periodic continued fraction iff reduced) the
    walk becomes reduced, stays so, and returns after one period.  So it tests
    reducedness only until the state is reduced, and then compares P and Q
    with that start at even steps, stepping with Q > 0.  Both phases together
    take at most _WALK_STEPS steps before they return.  The period's product is
    multiplied out as its digits are read: the pair (a, b) takes (p q; r s) by
    A_a A_b = (ab + 1, a; b, 1) to (ub + p, u; vb + r, v), u = pa + q, v = ra + s.
    """
    if t <= 2:
        raise NotHyperbolic(f"trace {short_int(t)} (need trace > 2)")
    D = t * t - 4
    root = math.isqrt(D)  # D = t^2 - 4 is never a square for t > 2
    pairs = _WALK_STEPS // 2
    for used in range(pairs):
        if Q - root <= P <= root < P + Q:
            break
        a = (P + root) // Q if Q > 0 else ~((P + root) // -Q)
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (P + root) // Q if Q > 0 else ~((P + root) // -Q)
        P = a * Q - P
        Q = (D - P * P) // Q
    else:
        raise CapExceeded(f"the walk did not cycle in {_WALK_STEPS} steps at trace {short_int(t)}")
    # reduced from here on, so Q > root - P >= 0 at every step
    start_P, start_Q, digits = P, Q, []
    p, q, r, s = 1, 0, 0, 1
    for _ in range(pairs - used):
        a = (P + root) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        b = (P + root) // Q
        P = b * Q - P
        Q = (D - P * P) // Q
        digits += a, b
        u, v = p * a + q, r * a + s
        p, q, r, s = u * b + p, u, v * b + r, v
        if P == start_P and Q == start_Q:
            return P, Q, digits, (p, q, r, s)
    raise CapExceeded(f"the walk did not cycle in {_WALK_STEPS} steps at trace {short_int(t)}")


def matrix_to_word(gamma: Mat2) -> CyclicWord:
    """Cyclic word of the class of a primitive hyperbolic matrix, trace > 2: the digits the
    walk reads from the first reduced state until it returns, an even-length word whose
    product is SL(2,Z)-conjugate to gamma.  No floating point is used."""
    t = gamma.trace
    P, Q, cycle, (p, _, r, s) = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    # the walk returns after the least even multiple of the period of its
    # states, which the digits share, so the cycle is no power of a shorter
    # even block: only gamma can be a proper power, of the cycle's product;
    # with det 1, trace, p - s and 2r fix the product's matrix
    if (p + s, p - s, 2 * r) != (t, P, Q):
        raise NotPrimitive(f"{gamma} is a proper power")
    k, _ = _least_even_rotation(cycle)
    return _canonical_word(tuple(cycle[k:] + cycle[:k]))


@dataclass(frozen=True, slots=True)
class GeodesicRecord:
    """One oriented primitive closed geodesic."""

    word: CyclicWord
    trace: int
    length: float
    psi: int


def _li_from_log(log_x: float) -> float:
    """gamma + ln ln x + sum_n (ln x)^n / (n n!), the logarithmic integral from 0."""
    total = 0.0
    term = 1.0  # (ln x)^n / n!
    n = 0
    while True:
        n += 1
        term *= log_x / n
        total += term / n
        if n > log_x and term < 1e-17 * total:
            return _EULER_GAMMA + math.log(log_x) + total


_LI_2 = _li_from_log(math.log(2.0))


def li(x: float) -> float:
    """Logarithmic integral with lower limit 2: int_2^x dt / log t.

    The series has positive terms only, so it needs no cancellation.
    """
    if not 2 <= x < math.inf:
        raise DomainError(f"x = {x} outside [2, inf)")
    return _li_from_log(math.log(x)) - _LI_2


@dataclass(frozen=True, slots=True)
class EnumerationConfig:
    max_length: float

    def __post_init__(self):
        T = _real(self.max_length)
        if not (0 < T <= MAX_LENGTH_BOUND):
            raise CapExceeded(f"max_length {short_real(T)} outside (0, {MAX_LENGTH_BOUND}]")


def _real(max_length):
    """max_length as it is, or DomainError if it is not a real number."""
    if not isinstance(max_length, Real):
        raise DomainError(f"length bounds must be real numbers, not {max_length!r}")
    return max_length


def trace_cap_for_length(max_length: float) -> int:
    """Largest matrix trace t with geodesic_length(t) <= max_length, to within 1e-12.

    This is the census's only length rule: geodesic_length is monotone in the
    trace, so trace <= cap is the same as length <= max_length.  The cap is
    the float floor of 2 cosh(T/2) at T = max(max_length + 1e-12, 0), which
    rounding can leave a trace or two off; below 2^53 every trace is a float,
    so a few steps each way settle it.  Past that, geodesic_length is constant
    over runs of traces that round to one float, and the floor is kept.  A
    bound below the shortest length, 2 acosh(3/2), gives 2.
    """
    try:
        bound = _real(max_length) + _LENGTH_SLACK
        if not math.isfinite(bound):
            raise DomainError(f"length bound {max_length} is not finite")
        cap = math.floor(2.0 * math.cosh(max(bound, 0.0) / 2.0))
    except OverflowError:
        # an int bound past the float range, or cosh(T/2) past it
        raise DomainError("length bound past the float range of cosh(T/2)") from None
    if cap < 2**53:
        while cap > 2 and geodesic_length(cap) > bound:
            cap -= 1
        while geodesic_length(cap + 1) <= bound:
            cap += 1
    return cap


class Census:
    """Every class of a census, read as columns in (trace, word) order.

    Row i is the class with entries word walk_index[i] of the blocks words
    laid end to end, matrix trace trace[i], length _lengths[trace[i] - 3] and
    winding number psi[i]; words[n] is the uint16 block, in walk order, of the
    words of n + 1 pairs.  trace is uint16 and psi int16, so a caller casts
    them before arithmetic that can leave that range.  Only this class reads
    that layout, and only rows() reads single words, as Python values;
    iteration builds a GeodesicRecord view of each row.  The columns are
    read-only, so the tables of counts() and psi_sums() cannot go stale.  The
    census is built from the walk's columns and its FKM tree
    (enumerate_by_trace); the first read of a column or a row puts the rows
    in order, keeps the order as the walk index and drops the tree.  len(),
    counts() and psi_sums() need no order, so the statistics never sort the
    rows.
    """

    __slots__ = ("_trace", "_psi", "_walk_index", "words", "_tree", "_lengths", "_counts", "_last_psi_sums")

    def __init__(self, trace, psi, words, tree):
        # the tree of the walk-order columns, None once they are in row order with their walk index
        self._trace, self._psi, self._tree, self._walk_index = trace, psi, tree, None
        self.words = words = tuple(words)
        top = int(trace.max()) if len(trace) else 2
        # geodesic_length's formula without its checks, the same floats for
        # traces this small
        self._lengths = np.array([2.0 * math.acosh(t / 2.0) for t in range(3, top + 1)], dtype=np.float64)
        for column in (trace, psi, self._lengths, *words):
            column.setflags(write=False)
        self._counts = self._last_psi_sums = None

    def _in_row_order(self) -> Census:
        """The census, its columns put in (trace, preorder) order if they are not yet.

        Preorder of the FKM tree with children in ascending order is
        lexicographic order, so the rows are sorted by trace, then preorder
        rank.  The rows go in preorder, then a stable sort by trace: the rank
        goes before the sort, where the census peaks.  The uint16 traces
        take numpy's radix sort.
        """
        if self._tree is not None:
            rank = np.concatenate(_preorder_ranks(self._tree))
            self._tree = None
            order = np.empty_like(rank)
            order[rank] = np.arange(len(rank), dtype=rank.dtype)
            del rank
            order = np.take(order, np.argsort(np.take(self._trace, order), kind="stable"))
            # each column is rebound in turn, so its walk-order copy is freed at once
            self._trace = np.take(self._trace, order)
            self._psi = np.take(self._psi, order)
            self._walk_index = order
            for column in (self._trace, self._psi, order):
                column.setflags(write=False)
        return self

    trace = property(lambda self: self._in_row_order()._trace)
    psi = property(lambda self: self._in_row_order()._psi)
    walk_index = property(lambda self: self._in_row_order()._walk_index)

    def __len__(self) -> int:
        return len(self._trace)

    def rows(self, index=None) -> Iterator[Tuple[Tuple[int, ...], int, float, int]]:
        """Every row as Python values (entries, trace, length, psi), in order, or
        the rows at an array of row indices in that order, a negative index
        counting from the end as in a sequence; IndexError for one outside
        [-len, len), TypeError for indices that are not one axis of integers
        (numpy would read booleans as a mask).

        Each chunk gathers its lengths with one numpy take and its words with
        one a block, so no per-row view or numpy slice is built.
        """
        if index is not None:
            index = np.asarray(index)
            if index.ndim != 1 or index.size and index.dtype.kind not in "iu":
                raise TypeError(f"row indices must be 1-D integers, not {index.ndim}-D {index.dtype}")
        first = _bounds([len(block) for block in self.words])
        for lo in range(0, len(self) if index is None else len(index), _ROWS_PER_CHUNK):
            hi = lo + _ROWS_PER_CHUNK
            at = slice(lo, hi) if index is None else index[lo:hi]
            walk, trace = self.walk_index[at], self.trace[at]
            # words a block at a time from the sorted walk indices, put back in row order
            by_walk = np.argsort(walk)
            walk = np.take(walk, by_walk)
            cuts = np.searchsorted(walk, first).tolist()
            grouped = []
            for block, start, begin, end in zip(self.words, first.tolist(), cuts, cuts[1:]):
                grouped += zip(*np.take(block, walk[begin:end] - start, axis=0).T.tolist())
            for k, t, length, psi in zip(
                np.argsort(by_walk).tolist(),
                trace.tolist(),
                self._lengths[trace - 3].tolist(),
                self.psi[at].tolist(),
            ):
                yield grouped[k], t, length, psi

    def __iter__(self) -> Iterator[GeodesicRecord]:
        for entries, trace, length, psi in self.rows():
            yield GeodesicRecord(_canonical_word(entries), trace, length, psi)

    def counts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (trace, psi) count table of the census, built on the first call
        and kept: see _count_table."""
        if self._counts is None:
            self._counts = _count_table(self._trace, self._psi, self._lengths)
        return self._counts

    def psi_sums(self, cap: int) -> Tuple[int, np.ndarray, np.ndarray, int]:
        """The per-psi table of the classes of trace <= cap, kept for the last
        cap asked for: see _psi_sums."""
        if self._last_psi_sums is None or self._last_psi_sums[0] != cap:
            self._last_psi_sums = cap, _psi_sums(*self.counts(), cap)
        return self._last_psi_sums[1]

    def rows_with_entry_at_least(self, bound: int) -> np.ndarray:
        """Indices, in order, of the rows with an entry >= bound."""
        hit = np.concatenate([(block >= bound).any(axis=1) for block in self.words])
        return np.flatnonzero(np.take(hit, self.walk_index))


def _count_table(trace, psi, lengths):
    """Columns (trace, psi, count, length) with one row per distinct (trace, psi)
    of the classes, given in any row order, sorted by (trace, psi): the number
    of classes with that pair, and the length of that trace, read from lengths,
    which holds the length of trace t at t - 3.  The columns are read-only.

    One sort of the keys (trace - 3) W + psi - lo, where lo is the least psi
    and W the spread of psi, finds the pairs.
    """
    if len(trace):
        lo = int(psi.min())
        width = int(psi.max()) - lo + 1
        # |psi| <= trace - 3, so with traces up to cap every key is below
        # (cap - 2)(2 cap - 5): 1.3e8 at MAX_TRACE_CAP, inside int32
        keys = trace.astype(np.int32)
        keys -= 3
        keys *= width
        keys += psi
        keys -= lo
        keys.sort()
        # the first row of each run of equal keys
        first = np.empty(len(keys), bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        first = np.flatnonzero(first)
        count = np.diff(first, append=len(keys))
        keys = np.take(keys, first)
        row = (keys // width).astype(np.int64)
        trace, psi, length = row + 3, keys - width * row + lo, np.take(lengths, row)
    else:
        trace = psi = count = np.zeros(0, np.int64)
        length = np.zeros(0)
    for column in (trace, psi, count, length):
        column.setflags(write=False)
    return trace, psi, count, length


def _psi_sums(trace, psi, count, length, cap):
    """(lo, count, weight, total) over the count table's rows of trace <= cap:
    the least psi lo, from lo on the number of classes of each psi and the
    sum of their lengths, and the number of classes.  The table is in trace
    order, so the window is a leading slice of its rows.  The arrays are
    read-only.
    """
    rows = int(np.searchsorted(trace, cap, side="right"))
    psi, count = psi[:rows], count[:rows]
    lo = int(psi.min()) if rows else 0
    per_psi = np.bincount(psi - lo, weights=count).astype(np.int64)
    weight = np.bincount(psi - lo, weights=length[:rows] * count)
    for column in (per_psi, weight):
        column.setflags(write=False)
    return lo, per_psi, weight, int(count.sum())


def _bounds(sizes):
    """Running sums of the sizes from 0: segment x is bounds[x]:bounds[x + 1]."""
    bounds = np.zeros(len(sizes) + 1, np.int32)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def _segments(sizes, first):
    """(owner, value, bounds) of consecutive segments of the given sizes, segment
    x counting up from first[x]: the segment each item lies in, its value, and
    the segment bounds."""
    bounds = _bounds(sizes)
    owner = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    value = np.arange(len(owner), dtype=np.int32) - np.take(bounds[:-1] - first, owner)
    return owner, value, bounds


def _expand(cap: int, frontier: list):
    """One level of the FKM tree of trace <= cap: the children of a frontier of
    prenecklaces of n pairs.  frontier is [p, q, r, s, w, period, a0, b0, words],
    a row a node: product (p q; r s), alternating sum, period, the pair `period`
    places back and the word with two spare digits; the step empties it, to free
    each array once read.  Returns (offsets, is_class, keep), x's children at
    offsets[x]:offsets[x + 1], (trace, psi, words) of the classes, words their
    block of 2(n + 1) digits a row, and the next frontier; a slice gives the slices.

    A class is a Lyndon word over digit pairs (a_{2i-1}, a_{2i}): its minimal
    even rotation is itself, and it is no power of an even block.  The tree
    is that of the FKM walk over prenecklaces (Duval 1988; Ruskey, Savage
    and Wang 1992).  A prenecklace of n pairs with period p has the children
    that append the pair p places back (period p again) or any larger pair
    (period n + 1); it is a Lyndon word exactly when p = n, so every child
    except the repeat is a class.

    The product (p q; r s) of the factors A_a = (a 1; 1 0) has non-negative
    entries, and appending the pair (a, b) multiplies it by
    A_a A_b = (ab + 1, a; b, 1).  With u = pa + q and v = ra + s the child is
    (ub + p, u; vb + r, v), of trace ub + p + v.  The trace grows with a, b
    and every further pair, so no prefix of a class is over the cap, and the
    largest b is (cap - p - v) // u, which is at least 1 exactly when
    (p + r) a + p + q + s <= cap.  The pairs start at the repeated pair
    (a0, b0), and at (a, 1) for every larger a.  So a child with repeated
    pair (a1, b1) has a child of its own exactly when (a1, b1) or
    (a1 + 1, 1) fits, and only such children are kept: every node below the
    root has a child, and keep marks exactly the next level's nodes.  No
    entry, trace or sum exceeds a few caps, so the arithmetic columns are
    int32.  No digit or trace exceeds the cap and |psi| <= trace - 3, so the
    words are uint16, and a class's trace uint16 and psi int16.  Every
    gather is a np.take of a contiguous array, faster in numpy than fancy
    indexing, on intp indices where it gathers a whole level, which np.take
    would otherwise cast on every call; a child's word is its parent's row
    taken whole, with its pair in the spare digits.
    """
    p, q, r, s, w, period, a0, b0, words = frontier
    frontier.clear()
    n = words.shape[1] // 2 - 1
    # the a range of each node, then the b range of each a
    a_size = np.maximum((cap - p - q - s) // (p + r) - a0 + 1, 0)
    i, a, a_bounds = _segments(a_size, a0)
    # a node's first a, if it has one, is a0, whose b range starts at b0
    starts = np.flatnonzero(a_size)
    first = np.take(a_bounds, starts)
    b_lo = np.ones(len(i), np.int32)
    b_lo[first] = np.take(b0, starts)
    p_a = np.take(p, i)
    u = p_a * a + np.take(q, i)
    v = np.take(r, i) * a + np.take(s, i)
    b_size = np.maximum((cap - p_a - v) // u - b_lo + 1, 0)
    j, b, b_bounds = _segments(b_size, b_lo)
    offsets = np.take(b_bounds, a_bounds)
    # the repeat is the first child, (a0, b0), of a node below the root whose
    # a0 has a b range
    is_class = np.ones(len(j), bool)
    if n:
        is_class[np.take(b_bounds, first[np.take(b_size, first) > 0])] = False
    parent = np.take(i, j)
    a, u, v = np.take(a, j), np.take(u, j), np.take(v, j)
    del i, a_size, a_bounds, starts, first, b_lo, p_a, j, b_size, b_bounds
    P = u * b + np.take(p, parent)
    R = v * b + np.take(r, parent)
    w = np.take(w, parent) + a - b
    trace = P + v
    word = np.take(words, parent, axis=0)
    word[:, 2 * n], word[:, 2 * n + 1] = a, b
    del a, b, p, q, r, s, a0, b0, words
    # no pair is below (1, 1), so a child over the cap with it has no child:
    # that cheap test first, then the exact one on the rows it leaves
    kept = np.flatnonzero(trace + P + u + R <= cap)
    period = np.where(np.take(is_class, kept), n + 1, np.take(period, np.take(parent, kept)))
    # each row's repeat pair, `period` places back, by a take of the flat words
    back = kept * (2 * n + 2) + 2 * (n + 1 - period)
    a0, b0 = np.take(word, back), np.take(word, back + 1)
    Pk, uk, Rk, vk = (np.take(x, kept) for x in (P, u, R, v))
    # live: (a0 + 1, 1) fits, or (a0, b0) does.  a0 and b0 are compared with
    # the largest a and b, quotients as in the a and b ranges, so no product
    # can leave int32: the cheap test bounds P, u, R and v by the cap
    a_top = (cap - Pk - uk - vk) // (Pk + Rk)
    live = (a0 < a_top) | (a0 == a_top) & (b0 <= (cap - Pk - Rk * a0 - vk) // (Pk * a0 + uk))
    keep = np.zeros(len(P), bool)
    keep[kept] = live
    alive = np.flatnonzero(live)
    kept = np.take(kept, alive)
    words = np.empty((len(kept), 2 * n + 4), np.uint16)
    words[:, : 2 * n + 2] = np.take(word, kept, axis=0)
    frontier = [np.take(x, kept) for x in (P, u, R, v, w)]
    frontier += [np.take(x, alive) for x in (period, a0, b0)] + [words]
    del Pk, uk, Rk, vk, a_top, live, alive, kept, back, period, a0, b0, words
    # the classes' columns go last, once the children's columns are freed
    cls = np.flatnonzero(is_class)
    trace, w = np.take(trace, cls).astype(np.uint16), np.take(w, cls).astype(np.int16)
    del P, u, R, v, parent
    return (offsets, is_class, keep), (trace, w, np.take(word, cls, axis=0)), frontier


def _fkm_levels(cap: int):
    """The FKM tree of the classes of trace <= cap, one _expand a level: the tree,
    per level of n + 1 pairs the (offsets, is_class, keep) of its nodes, then trace,
    psi and words, per level the columns and the word block of its classes."""
    frontier = [np.array([x], np.int32) for x in (1, 0, 0, 1, 0, 1, 1, 1)] + [np.empty((1, 2), np.uint16)]
    tree, rows = [], []
    while len(frontier[0]):
        node, row, frontier = _expand(cap, frontier)
        tree.append(node)
        rows.append(row)
    return (tree, *zip(*rows))


def _preorder_ranks(tree):
    """For each level of the tree, how many classes precede each of its classes
    in preorder."""
    # bottom-up: running sums over each level of the classes in the subtree
    # of each child, itself included
    running = []
    below = None
    for offsets, is_class, keep in reversed(tree):
        count = is_class.astype(np.int32)
        if below is not None:
            count[keep] += below
        run = _bounds(count)
        below = np.take(run, offsets[1:]) - np.take(run, offsets[:-1])
        running.append(run)
    # top-down: the classes before a child are those before its parent, the
    # parent if it is a class, and those in the subtrees of its elder siblings
    ranks = []
    first = np.zeros(1, np.int32)
    for offsets, is_class, keep in tree:
        run = running.pop()
        before = np.repeat(first - run[offsets[:-1]], np.diff(offsets)) + run[:-1]
        ranks.append(before[is_class])
        first = before[keep] + is_class[keep]
    return ranks


def enumerate_by_trace(cap: int) -> Census:
    """All oriented primitive classes with trace <= cap, sorted (trace, word).

    The census sorts its rows on their first read (Census._in_row_order).  A
    cap below 3 gives an empty census, and a cap over MAX_TRACE_CAP is refused
    before the walk.
    """
    cap = _integer(cap, "trace caps")
    if cap > MAX_TRACE_CAP:
        raise CapExceeded(f"trace cap {short_int(cap)} over MAX_TRACE_CAP, {MAX_TRACE_CAP:,}")
    tree, trace, psi, words = _fkm_levels(cap)
    return Census(np.concatenate(trace), np.concatenate(psi), words, tree)


def enumerate_geodesics(config: EnumerationConfig) -> Census:
    """Every oriented primitive class with length <= max_length, deterministic order."""
    return enumerate_by_trace(trace_cap_for_length(config.max_length))
