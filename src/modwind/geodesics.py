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
from operator import index
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import (
    CapExceeded,
    DomainError,
    NonPositiveEntry,
    NotHyperbolic,
    NotPrimitive,
    OddLength,
)
from .matrices import Mat2, _integer, geodesic_length, short_int

__all__ = [
    "CyclicWord",
    "GeodesicRecord",
    "Census",
    "EnumerationConfig",
    "MAX_LENGTH_BOUND",
    "CENSUS_MEMORY_BUDGET",
    "validate_entries",
    "canonical_form",
    "is_primitive",
    "word_to_matrix",
    "matrix_to_word",
    "li",
    "estimated_census_size",
    "trace_cap_for_length",
    "enumerate_geodesics",
    "enumerate_by_trace",
]

MAX_LENGTH_BOUND = 20.0
# A census is refused up front when its estimated peak memory exceeds this,
# which admits T up to about 17.98.
CENSUS_MEMORY_BUDGET = 512 * 2**20
# Peak memory growth per class of a census and its statistics: 76 B at
# T = 15, 80 B at T = 17 and 75 B at T = 17.98, measured in fresh processes
# (the walk and the row ordering after it set the last two), plus room for
# the longer words of larger T.
_CENSUS_BYTES_PER_CLASS = 140
_LENGTH_SLACK = 1e-12
# The row bounds are int32, so a census holds at most this many digits.
_MAX_DIGITS = np.iinfo(np.int32).max
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
        raise OddLength(f"word length {len(entries)} is not a positive even number")
    ints = []
    try:
        for a in map(index, entries):
            if a < 1:
                raise NonPositiveEntry(f"entry {short_int(a)} < 1")
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


@dataclass(frozen=True)
class CyclicWord:
    """Even-length positive word stored in its canonical (minimal even) rotation."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        entries = validate_entries(self.entries)
        if _least_even_rotation(entries)[0]:
            raise ValueError(f"{self.entries} is not in canonical rotation")
        object.__setattr__(self, "entries", entries)


def _canonical_word(entries: Tuple[int, ...]) -> CyclicWord:
    """CyclicWord(entries) without its checks, for entries that this module has
    validated and put in least even rotation."""
    word = object.__new__(CyclicWord)
    object.__setattr__(word, "entries", entries)
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


def _reduced_cycle(t: int, P: int, Q: int) -> Tuple[int, int, List[int]]:
    """(P, Q, digits): the first reduced state of the continued-fraction walk on
    alpha = (P + sqrt(D)) / Q, D = t^2 - 4, and the digits of one period from it.

    (a b; c d) of det 1 and trace t > 2 fixes alpha at P = a - d, Q = 2c, and Q
    divides D - P^2 = 4bc.  A step reads a = floor(alpha) and moves to
    1 / (alpha - a): P' = aQ - P, Q' = (D - P'^2) / Q, the state of the conjugate
    A_a^-1 (a b; c d) A_a with A_a = (a 1; 1 0).  Two steps conjugate in SL(2,Z), so
    the walk is tested at even steps for alpha > 1 and -1 < alpha' < 0, that is
    Q - sqrt(D) < P < sqrt(D) < P + Q, which every product of factors A_a meets.
    By Galois' theorem (a purely periodic continued fraction iff reduced) the
    walk becomes reduced, stays so, and returns after one period.
    """
    if t <= 2:
        raise NotHyperbolic(f"trace {short_int(t)} (need trace > 2)")
    D = t * t - 4
    root = math.isqrt(D)  # D = t^2 - 4 is never a square for t > 2
    start, digits = None, []
    for _ in range(_WALK_STEPS // 2 + 1):
        if start is None and Q - root <= P <= root < P + Q:
            start, digits = (P, Q), []
        elif (P, Q) == start:
            return P, Q, digits
        for _ in range(2):
            a = (P + root) // Q if Q > 0 else ~((P + root) // -Q)
            P = a * Q - P
            Q = (D - P * P) // Q
            digits.append(a)
    raise CapExceeded(f"the walk did not cycle in {_WALK_STEPS} steps at trace {short_int(t)}")


def matrix_to_word(gamma: Mat2) -> CyclicWord:
    """Cyclic word of the class of a primitive hyperbolic matrix, trace > 2: the digits the
    walk reads from the first reduced state until it returns, an even-length word whose
    product is SL(2,Z)-conjugate to gamma.  No floating point is used."""
    t = gamma.trace
    P, Q, cycle = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    # the walk returns after the least even multiple of the period of its
    # states, which the digits share, so the cycle is no power of a shorter
    # even block: only gamma can be a proper power, of the cycle's product
    k, _ = _least_even_rotation(cycle)
    p, _, r, s = _word_product_entries(cycle)
    # with det 1, trace, p - s and 2r fix the product's matrix
    if (p + s, p - s, 2 * r) != (t, P, Q):
        raise NotPrimitive(f"{gamma} is a proper power")
    return _canonical_word(tuple(cycle[k:] + cycle[:k]))


@dataclass(frozen=True)
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


def estimated_census_size(max_length: float) -> float:
    """li(e^T), the prime geodesic theorem's count of classes of length <= T, and
    inf once e^T is past the float range.

    At T = 15 it gives 234,955 against the 234,832 classes of the census.
    """
    if not max_length > math.log(2.0):
        return 0.0
    try:
        return li(math.exp(max_length))
    except OverflowError:
        return math.inf


def _check_census_budget(max_length: float) -> None:
    """Refuse a census of classes of length <= max_length whose estimated peak
    memory is over CENSUS_MEMORY_BUDGET."""
    size = estimated_census_size(max_length)
    if size * _CENSUS_BYTES_PER_CLASS > CENSUS_MEMORY_BUDGET:
        raise CapExceeded(
            f"a census at length {max_length} has about {size:.3g} classes, "
            f"over the memory budget of {CENSUS_MEMORY_BUDGET // 2**20} MiB"
        )


@dataclass(frozen=True)
class EnumerationConfig:
    max_length: float

    def __post_init__(self):
        if not (0 < self.max_length <= MAX_LENGTH_BOUND):
            raise CapExceeded(
                f"max_length {self.max_length} outside (0, {MAX_LENGTH_BOUND}]"
            )
        _check_census_budget(self.max_length)


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
        bound = max_length + _LENGTH_SLACK
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
    """Every class of a census, stored as int32 columns in (trace, word) order.

    Row i is the class with entries digits[start[i]:stop[i]], matrix trace
    trace[i], length _lengths[trace[i] - 3] and winding number psi[i]: the
    length depends on the trace alone, so it is kept once a trace.  This
    class is the only reader of that row layout, and rows() its one reader of
    the words: it yields rows as Python values, and iteration builds a
    GeodesicRecord view of each; no per-row object is stored.  The columns
    are read-only, so the count table that counts() keeps cannot go stale.
    """

    __slots__ = ("trace", "psi", "start", "stop", "digits", "_lengths", "_counts")

    def __init__(self, trace, psi, start, stop, digits):
        self.trace = trace
        self.psi = psi
        self.start = start  # row bounds into digits
        self.stop = stop
        self.digits = digits  # the words of all rows
        top = int(trace[-1]) if len(trace) else 2
        self._lengths = np.array([geodesic_length(t) for t in range(3, top + 1)], dtype=np.float64)
        for column in (trace, psi, start, stop, digits, self._lengths):
            column.setflags(write=False)
        self._counts = None

    def __len__(self) -> int:
        return len(self.trace)

    def rows(self, index=None) -> Iterator[Tuple[Tuple[int, ...], int, float, int]]:
        """Every row as Python values (entries, trace, length, psi), in order, or
        the rows at an array of row indices in that order; IndexError for one
        out of range, TypeError for indices that are not one axis of integers
        (numpy would read booleans as a mask).

        Each chunk of rows gathers its digits and its lengths with one numpy
        take each, so no per-row view or numpy slice is built.
        """
        if index is not None:
            index = np.asarray(index)
            if index.ndim != 1 or index.size and index.dtype.kind not in "iu":
                raise TypeError(f"row indices must be 1-D integers, not {index.ndim}-D {index.dtype}")
        for lo in range(0, len(self) if index is None else len(index), _ROWS_PER_CHUNK):
            hi = lo + _ROWS_PER_CHUNK
            at = slice(lo, hi) if index is None else index[lo:hi]
            start = self.start[at]
            trace = self.trace[at]
            row, place, bounds = _segments(self.stop[at] - start)
            flat = self.digits[start[row] + place].tolist()
            bounds = bounds.tolist()
            for begin, end, t, length, psi in zip(
                bounds,
                bounds[1:],
                trace.tolist(),
                self._lengths[trace - 3].tolist(),
                self.psi[at].tolist(),
            ):
                yield tuple(flat[begin:end]), t, length, psi

    def __iter__(self) -> Iterator[GeodesicRecord]:
        for entries, trace, length, psi in self.rows():
            yield GeodesicRecord(_canonical_word(entries), trace, length, psi)

    def counts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (trace, psi) count table of the census, built on the first call
        and kept: see _count_table."""
        if self._counts is None:
            self._counts = _count_table(self.trace, self.psi, self._lengths)
        return self._counts

    def rows_with_entry_at_least(self, bound: int) -> np.ndarray:
        """Indices, in order, of the rows with an entry >= bound: a row has one
        where the running count of such digits grows between its bounds."""
        count = _bounds(self.digits >= bound)
        return np.flatnonzero(count[self.stop] > count[self.start])


def _count_table(trace, psi, lengths):
    """Columns (trace, psi, count, length) with one row per distinct (trace, psi)
    of classes given in trace order, sorted by (trace, psi): the number of
    classes with that pair, and the length of that trace, read from lengths,
    which holds the length of trace t at t - 3.  The columns are read-only.

    One sort of the keys (trace - 3) W + psi - lo, where lo is the least psi
    and W the spread of psi, finds the pairs.
    """
    if len(trace):
        lo = int(psi.min())
        width = int(psi.max()) - lo + 1
        # |psi| <= trace - 3, so with traces up to cap every key is below
        # (cap - 2)(2 cap - 5): 9.7e8 at the cap of MAX_LENGTH_BOUND, 22,026,
        # inside int32
        keys = trace.astype(np.int32)
        keys -= 3
        keys *= width
        keys += psi
        keys -= lo
        keys.sort()
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        count = np.diff(first, append=len(keys))
        keys = keys[first]
        row = keys // width
        trace, psi, length = (row + 3).astype(np.int64), (keys % width + lo).astype(np.int64), lengths[row]
    else:
        count, length = np.zeros(0, np.int64), np.zeros(0)
    for column in (trace, psi, count, length):
        column.setflags(write=False)
    return trace, psi, count, length


def _bounds(sizes):
    """Running sums of the sizes from 0: segment x is bounds[x]:bounds[x + 1]."""
    bounds = np.zeros(len(sizes) + 1, np.int32)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def _segments(sizes):
    """(owner, place, bounds) of consecutive segments of the given sizes: the
    segment each item lies in, its place there, and the segment bounds."""
    bounds = _bounds(sizes)
    owner = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    place = np.arange(len(owner), dtype=np.int32) - np.take(bounds, owner)
    return owner, place, bounds


def _expand(cap: int, frontier: list, digits: np.ndarray):
    """One level of the FKM tree of trace <= cap: the children of a frontier of
    prenecklaces of n pairs, the classes' words appended to digits.  frontier is
    [p, q, r, s, w, period, a0, b0, words], a row a node: product (p q; r s),
    alternating sum, period, the pair `period` places back and the word with two
    spare digits; the step empties it, to free each array once read.  Returns
    (offsets, is_class, keep), x's children at offsets[x]:offsets[x + 1], (trace,
    start, psi) of the classes and the next frontier; a slice gives the slices.

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
    (a0, b0), and at (a, 1) for every larger a.  No entry, trace or sum
    exceeds a few caps, so every column is int32.  Every gather is a np.take
    of a contiguous array, faster in numpy than fancy indexing, so a child's
    word is its parent's row taken whole, with its pair in the spare digits.
    """
    p, q, r, s, w, period, a0, b0, words = frontier
    frontier.clear()
    n = words.shape[1] // 2 - 1
    # the a range of each node, then the b range of each a
    i, k, a_bounds = _segments(np.maximum((cap - p - q - s) // (p + r) - a0 + 1, 0))
    a = np.take(a0, i) + k
    u = np.take(p, i) * a + np.take(q, i)
    v = np.take(r, i) * a + np.take(s, i)
    b_lo = np.where(k == 0, np.take(b0, i), 1)
    j, kb, b_bounds = _segments(np.maximum((cap - np.take(p, i) - v) // u - b_lo + 1, 0))
    offsets = np.take(b_bounds, a_bounds)
    # the repeat is the first child, (a0, b0), of a node below the root
    is_class = (np.take(k, j) != 0) | (kb != 0) if n else np.ones(len(j), bool)
    parent = np.take(i, j)
    a, u, v, b = np.take(a, j), np.take(u, j), np.take(v, j), np.take(b_lo, j) + kb
    del i, k, a_bounds, j, kb, b_bounds, b_lo
    P = u * b + np.take(p, parent)
    R = v * b + np.take(r, parent)
    w = np.take(w, parent) + a - b
    # the smallest pair (1, 1) gives a child's cheapest child
    keep = 2 * P + u + R + v <= cap
    word = np.take(words, parent, axis=0)
    word[:, 2 * n], word[:, 2 * n + 1] = a, b
    del a, b, p, q, r, s, a0, b0, words
    kept = np.flatnonzero(keep)
    words = np.empty((len(kept), 2 * n + 4), np.int32)
    words[:, : 2 * n + 2] = np.take(word, kept, axis=0)
    period = np.where(np.take(is_class, kept), n + 1, np.take(period, np.take(parent, kept)))
    # each kept row's pair `period` places back, by a take of the flat words
    back = np.arange(0, words.size, 2 * n + 4, dtype=np.int32) + 2 * (n + 1 - period)
    frontier = [np.take(x, kept) for x in (P, u, R, v, w)]
    frontier += [period, np.take(words, back), np.take(words, back + 1), words]
    # the classes' words go last, once the children's columns are freed
    trace, w = (P + v)[is_class], w[is_class]
    del P, u, R, v, parent, kept, back, period, words
    begin, size = len(digits), len(digits) + len(trace) * (2 * n + 2)
    if size > _MAX_DIGITS:
        raise CapExceeded(f"{size} digits overflow the int32 row bounds")
    digits.resize(size, refcheck=False)
    # "clip" keeps these in-range rows and, unlike np.compress, does not buffer them
    np.take(word, np.flatnonzero(is_class), axis=0, out=digits[begin:].reshape(-1, 2 * n + 2), mode="clip")
    return (offsets, is_class, keep), (trace, np.arange(begin, size, 2 * n + 2, dtype=np.int32), w), frontier


def _fkm_levels(cap: int):
    """The FKM tree of the classes of trace <= cap, one _expand a level: digits,
    the classes' words in a block a level, and tree and rows, per level of n + 1
    pairs (offsets, is_class, keep) of its nodes and (trace, start, psi) of its classes."""
    frontier = [np.array([x], np.int32) for x in (1, 0, 0, 1, 0, 1, 1, 1)] + [np.empty((1, 2), np.int32)]
    digits = np.empty(0, np.int32)
    tree, rows = [], []
    while len(frontier[0]):
        node, row, frontier = _expand(cap, frontier, digits)
        tree.append(node)
        rows.append(row)
    return digits, tree, rows


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

    Preorder of the FKM tree with children in ascending order is lexicographic
    order, so the rows are sorted by trace, then preorder rank.  The row
    bounds move, the digits stay in their level blocks.  A cap below 3 gives
    an empty census.
    """
    cap = _integer(cap, "trace caps")
    if cap > 2:
        _check_census_budget(geodesic_length(cap))
    digits, tree, rows = _fkm_levels(cap)
    rank = np.concatenate(_preorder_ranks(tree))
    del tree
    trace, start, psi = (np.concatenate(column) for column in zip(*rows))
    # a class of n pairs has 2n digits
    widths = np.arange(2, 2 * len(rows) + 2, 2, dtype=np.int32)
    stop = start + np.repeat(widths, [len(t) for t, _, _ in rows])
    del rows
    # rank goes before the sort, where the census peaks once the walk is done
    order = trace.astype(np.int64) * len(trace) + rank
    del rank
    order = np.argsort(order)
    # each column is rebound in turn, so its level-order copy is freed at once
    trace = np.take(trace, order)
    psi = np.take(psi, order)
    start = np.take(start, order)
    stop = np.take(stop, order)
    del order
    return Census(trace=trace, psi=psi, start=start, stop=stop, digits=digits)


def enumerate_geodesics(config: EnumerationConfig) -> Census:
    """Every oriented primitive class with length <= max_length, deterministic order."""
    return enumerate_by_trace(trace_cap_for_length(config.max_length))
