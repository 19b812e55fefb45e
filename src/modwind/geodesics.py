"""Oriented primitive closed geodesics as even-length cyclic continued-fraction words.

A word (a1, ..., a2n) names the conjugacy class of A_{a1} ... A_{a2n} with
A_a = (a 1; 1 0).  Conjugation acts by rotation through an even offset, so the
canonical representative is the lexicographically minimal even rotation.
Enumeration is a pruned depth-first walk over canonical words; the brute-force
matrix scan is the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import (
    CapExceeded,
    NonPositiveEntry,
    NotHyperbolic,
    NotPrimitive,
    OddLength,
)
from .matrices import Mat2, floor_quadratic, geodesic_length, isqrt_checked

__all__ = [
    "CyclicWord",
    "GeodesicRecord",
    "EnumerationConfig",
    "MAX_LENGTH_BOUND",
    "validate_entries",
    "canonical_form",
    "is_primitive",
    "word_to_matrix",
    "matrix_to_word",
    "trace_cap_for_length",
    "enumerate_geodesics",
    "enumerate_by_trace",
    "brute_force_classes",
]

MAX_LENGTH_BOUND = 20.0
_BRUTE_FORCE_TRACE_LIMIT = 50
_LENGTH_SLACK = 1e-12


def validate_entries(entries: Sequence[int]) -> None:
    if len(entries) % 2 != 0 or len(entries) == 0:
        raise OddLength(f"word length {len(entries)} is not a positive even number")
    for a in entries:
        if a < 1:
            raise NonPositiveEntry(f"entry {a} < 1")


def _min_even_rotation(entries: Tuple[int, ...]) -> Tuple[int, ...]:
    best = entries
    n = len(entries)
    for k in range(2, n, 2):
        rot = entries[k:] + entries[:k]
        if rot < best:
            best = rot
    return best


@dataclass(frozen=True)
class CyclicWord:
    """Even-length positive word stored in its canonical (minimal even) rotation."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        validate_entries(self.entries)
        if self.entries != _min_even_rotation(self.entries):
            raise ValueError(f"{self.entries} is not in canonical rotation")

    def reversed(self) -> "CyclicWord":
        return canonical_form(tuple(reversed(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def canonical_form(entries: Sequence[int]) -> CyclicWord:
    """Canonical representative: lexicographically minimal even rotation."""
    validate_entries(entries)
    return CyclicWord(_min_even_rotation(tuple(entries)))


def is_primitive(word) -> bool:
    """False iff the word is u^k with k >= 2 and |u| even.

    Doubled odd blocks are primitive; they encode the inert geodesics.
    """
    entries = tuple(getattr(word, "entries", word))
    n = len(entries)
    for block in range(2, n, 2):
        if n % block == 0 and entries == entries[:block] * (n // block):
            return False
    return True


def _word_product_entries(entries: Sequence[int]) -> Tuple[int, int, int, int]:
    p, q, r, s = 1, 0, 0, 1
    for a in entries:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


def word_to_matrix(word) -> Mat2:
    """Product of the factors (a 1; 1 0) over the word entries."""
    entries = tuple(getattr(word, "entries", word))
    validate_entries(entries)
    return Mat2(*_word_product_entries(entries))


def matrix_to_word(gamma: Mat2) -> CyclicWord:
    """Cyclic word of the conjugacy class of a primitive hyperbolic matrix, trace > 2.

    Walks gamma along the continued-fraction map of its attracting fixed point
    by exact conjugation steps sigma -> A_a^{-1} sigma A_a.  A single step
    conjugates by a determinant -1 matrix, so cycle detection keys on
    (state, step parity): the extracted cycle is then an even-length word whose
    product is SL(2,Z)-conjugate to gamma.  Everything is exact integer
    arithmetic; no floating point is used.
    """
    t = gamma.trace
    if t <= 2:
        raise NotHyperbolic(f"trace {t} (need trace > 2)")
    D = t * t - 4
    sqrt_floor = isqrt_checked(D)

    p, q, r, s = gamma.entries()
    seen: Dict[Tuple[int, int, int, int, int], int] = {}
    path: List[Tuple[int, int, int, int]] = []
    digits: List[int] = []
    step = 0
    while True:
        state = (p, q, r, s)
        key = state + (step % 2,)
        if key in seen:
            start = seen[key]
            if start % 2 == 1:
                # the cycle product must sit at even conjugation distance from
                # gamma; the walk is deterministic, so rotating the entry point
                # one step forward stays inside the cycle
                cycle = tuple(digits[start + 1 :]) + (digits[start],)
                cycle_state = path[start + 1]
            else:
                cycle = tuple(digits[start:])
                cycle_state = path[start]
            break
        seen[key] = step
        path.append(state)
        # attracting fixed point is (p - s + sqrt(D)) / (2 r) since trace > 2
        a = floor_quadratic(p - s, 2 * r, sqrt_floor)
        # sigma' = A_a^{-1} sigma A_a
        p, q, r, s = r * a + s, r, p * a + q - a * (r * a + s), p - a * r
        digits.append(a)
        step += 1
        if step > 100000:
            raise RuntimeError(f"continued-fraction walk did not cycle for {gamma}")

    for a in cycle:
        if a < 1:
            raise RuntimeError(f"non-positive digit {a} in cycle for {gamma}")
    prod = _word_product_entries(cycle)
    if prod != cycle_state:
        # cycle_state must then be a proper power of the cycle product
        raise NotPrimitive(f"{gamma} is a proper power")
    word = canonical_form(cycle)
    if not is_primitive(word):
        raise NotPrimitive(f"{gamma} is a proper power")
    return word


@dataclass(frozen=True)
class GeodesicRecord:
    """One oriented primitive closed geodesic."""

    word: CyclicWord
    trace: int
    length: float
    psi: int


@dataclass(frozen=True)
class EnumerationConfig:
    max_length: float

    def __post_init__(self):
        if not (0 < self.max_length <= MAX_LENGTH_BOUND):
            raise CapExceeded(
                f"max_length {self.max_length} outside (0, {MAX_LENGTH_BOUND}]"
            )


def trace_cap_for_length(max_length: float) -> int:
    """Largest matrix trace t with geodesic_length(t) <= max_length, to within 1e-12.

    This is the census's only length rule: geodesic_length is monotone in the
    trace, so trace <= cap is the same as length <= max_length.  The float
    floor of 2 cosh(T/2) can land one below a trace whose length is exactly T,
    so the cap steps up while the next trace still fits.
    """
    cap = math.floor(2.0 * math.cosh(max_length / 2.0))
    while geodesic_length(cap + 1) <= max_length + _LENGTH_SLACK:
        cap += 1
    return cap


def _record(entries: Tuple[int, ...], trace: int) -> GeodesicRecord:
    word = CyclicWord(entries)
    psi = sum(a if i % 2 == 0 else -a for i, a in enumerate(entries))
    return GeodesicRecord(word=word, trace=trace, length=geodesic_length(trace), psi=psi)


def _dfs_first_entry(a1: int, cap: int) -> List[Tuple[Tuple[int, ...], int]]:
    """All canonical primitive words starting with a1, trace <= cap.

    Partial products of positive A-factors have non-negative entries that are
    monotone in every digit and non-decreasing under extension, so a branch is
    pruned as soon as the trace of its minimal even completion exceeds the cap.
    Canonical words satisfy entries[0] <= entries[i] for every even i, which
    prunes even positions below a1.
    """
    out: List[Tuple[Tuple[int, ...], int]] = []
    # stack frames: (entries, p, q, r, s, next_digit)
    m0 = (a1, 1, 1, 0)
    stack = [([a1], *m0, 1)]
    while stack:
        entries, p, q, r, s, a = stack.pop()
        depth = len(entries)
        even_pos = depth % 2 == 0  # next digit lands at even index (0-based)
        if even_pos and a < a1:
            a = a1
        # child product
        np_, nq, nr, ns = p * a + q, p, r * a + s, r
        child_len = depth + 1
        if child_len % 2 == 0:
            # completions of the child (if any) only grow the trace
            if np_ + ns > cap:
                continue  # larger a only increases the trace: drop frame
            stack.append((entries, p, q, r, s, a + 1))
            centries = entries + [a]
            tup = tuple(centries)
            if tup == _min_even_rotation(tup) and is_primitive(tup):
                out.append((tup, np_ + ns))
            stack.append((centries, np_, nq, nr, ns, 1))
        else:
            # minimal even completion of the child is child * A_1
            if np_ + nq + nr > cap:
                continue
            stack.append((entries, p, q, r, s, a + 1))
            stack.append((entries + [a], np_, nq, nr, ns, 1))
    return out


def enumerate_by_trace(cap: int) -> List[GeodesicRecord]:
    """All oriented primitive classes with trace <= cap, sorted (trace, word)."""
    # the shortest word starting with a1 is (a1, 1), of trace a1 + 2
    found = [item for a1 in range(1, cap - 1) for item in _dfs_first_entry(a1, cap)]
    found.sort(key=lambda item: (item[1], item[0]))
    return [_record(entries, trace) for entries, trace in found]


def enumerate_geodesics(config: EnumerationConfig) -> List[GeodesicRecord]:
    """Every oriented primitive class with length <= max_length, deterministic order."""
    return enumerate_by_trace(trace_cap_for_length(config.max_length))


def brute_force_classes(trace_max: int) -> List[CyclicWord]:
    """Independent oracle: scan SL(2,Z) matrices with entries bounded by trace_max^2,
    keep 2 < trace <= trace_max, reduce each through matrix_to_word, deduplicate.
    """
    if trace_max > _BRUTE_FORCE_TRACE_LIMIT:
        raise CapExceeded(f"trace_max {trace_max} > {_BRUTE_FORCE_TRACE_LIMIT}")
    import numpy as np

    bound = trace_max * trace_max
    words = set()
    c_vals = np.concatenate(
        [np.arange(-bound, 0, dtype=np.int64), np.arange(1, bound + 1, dtype=np.int64)]
    )
    for t in range(3, trace_max + 1):
        a_lo, a_hi = max(-bound, t - bound), min(bound, t + bound)
        a_vals = np.arange(a_lo, a_hi + 1, dtype=np.int64)
        n_vals = a_vals * (t - a_vals) - 1  # b*c must equal a*d - 1
        n_grid = n_vals[:, None]
        with np.errstate(all="ignore"):
            b_grid = n_grid // c_vals[None, :]
        mask = (b_grid * c_vals[None, :] == n_grid) & (np.abs(b_grid) <= bound)
        ai, ci = np.nonzero(mask)
        for i, j in zip(ai.tolist(), ci.tolist()):
            a = int(a_vals[i])
            c = int(c_vals[j])
            b = int(b_grid[i, j])
            try:
                words.add(matrix_to_word(Mat2(a, b, c, t - a)))
            except NotPrimitive:
                continue
    return sorted(words, key=lambda w: (word_to_matrix(w).trace, w.entries))
