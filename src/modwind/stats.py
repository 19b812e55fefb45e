"""Counting statistics of winding numbers over the prime geodesic census.

Every statistic reads only trace and psi, so each one reads a leading trace
window of the census's (trace, psi) count table (Census.counts), a row
standing for all classes of its pair, or the per-psi sums of that window
(Census.psi_sums), built once a window, and compares aggregate observables
against their closed-form predictions: the winding density, the Cauchy limit
law of the winding-to-length ratio, residue equidistribution, and
character-twisted sums.  The prime geodesic theorem's count, li(e^T), is
geodesics.li; no statistic here reads it.  No statistic needs the census's
rows in order, so none sorts them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientData
from .geodesics import Census, trace_cap_for_length
from .matrices import _PI_OVER_AREA, _integer, short_int

__all__ = [
    "MAX_TABLE_ROWS",
    "WindingHistogram",
    "DistributionReport",
    "TwistedSumReport",
    "winding_histogram",
    "limiting_density",
    "density_table",
    "cauchy_compare",
    "equidistribution",
    "twisted_sum",
    "twisted_sums",
]

_MIN_SAMPLE = 1000
# Rows of a table the statistics return (equidistribution) or the CLI prints.
MAX_TABLE_ROWS = 10_000
_MAX_EXPONENT = 709.0


@dataclass(frozen=True, slots=True)
class WindingHistogram:
    """Counts of prime geodesics of length <= T keyed by winding number."""

    T: float
    counts: Dict[int, int]
    total: int


@dataclass(frozen=True, slots=True)
class DistributionReport:
    ks_statistic: float
    empirical_cdf: List[Tuple[float, float]]
    reference_cdf: List[Tuple[float, float]]


@dataclass(frozen=True, slots=True)
class TwistedSumReport:
    r: float
    sum: complex
    main_term: Optional[float]
    relative_error: Optional[float]


def winding_histogram(census: Census, T: float) -> WindingHistogram:
    lo, per_psi, _, total = census.psi_sums(trace_cap_for_length(T))
    values = np.flatnonzero(per_psi)
    return WindingHistogram(
        T=T, counts=dict(zip((values + lo).tolist(), per_psi[values].tolist())), total=total
    )


def _kernel_width(n: int) -> float:
    """pi n / 3 = n V, where the winding n sits in the density's Cauchy kernel."""
    n = _integer(n, "winding numbers")
    if not abs(n) <= sys.float_info.max:  # an int past the float range
        raise DomainError(f"winding number {short_int(n)} past the float range")
    return math.pi * n / _PI_OVER_AREA


def limiting_density(n: int, T: float) -> float:
    """Limiting winding density (1/3) T / (T^2 + (pi n / 3)^2) at a finite T > 0."""
    if not 0 < T <= sys.float_info.max:  # NaN and ints past the float range too
        raise DomainError(f"T outside (0, {sys.float_info.max:g}]")
    T = float(T)
    c = _kernel_width(n)
    return (1.0 / _PI_OVER_AREA) * T / (T * T + c * c)


def density_table(
    hist: WindingHistogram, n_range: Sequence[int]
) -> List[Tuple[int, float, float]]:
    """Rows (n, empirical density pi_n/pi, predicted density)."""
    if hist.total == 0:
        raise InsufficientData("empty histogram")
    return [
        (n, hist.counts.get(n, 0) / hist.total, limiting_density(n, hist.T))
        for n in n_range
    ]


def cauchy_compare(census: Census, T: float) -> DistributionReport:
    """KS distance between (pi/V) psi/length = (3/pi) psi/length and the standard Cauchy law.

    The rows of the count table are sorted by value, and the empirical CDF
    steps by each row's count.  Over the classes of one row the CDF takes
    every i/n between the counts below and through the row, so its largest
    distance to the Cauchy CDF is at one of those two ends: the same floats
    as over the sorted classes, ties between rows included.
    """
    # the window is the census's own length rule, trace <= trace_cap_for_length(T);
    # the count table is sorted by trace, whatever order the census's rows are
    # in, so the window is a leading slice of its columns
    trace, psi, count, length = census.counts()
    rows = int(np.searchsorted(trace, trace_cap_for_length(T), side="right"))
    psi, count, length = psi[:rows], count[:rows], length[:rows]
    n = int(count.sum())
    if n < _MIN_SAMPLE:
        raise InsufficientData(f"{n} records (need {_MIN_SAMPLE})")
    values = _PI_OVER_AREA / math.pi * psi / length
    order = np.argsort(values)
    values = values[order]
    # classes with a value before or at each row's, from 0 to n
    through = np.zeros(len(order) + 1, np.int64)
    np.cumsum(count[order], out=through[1:])

    def cdf(u: np.ndarray) -> np.ndarray:  # the standard Cauchy law's
        return 0.5 + np.arctan(u) / math.pi

    f = cdf(values)
    ks = float(max(np.max(np.abs(through[1:] / n - f)), np.max(np.abs(through[:-1] / n - f))))
    grid = [-5.0 + 0.1 * j for j in range(101)]
    below = through[np.searchsorted(values, grid, side="right")].tolist()
    empirical = [(u, idx / n) for u, idx in zip(grid, below)]
    reference = list(zip(grid, cdf(np.array(grid)).tolist()))
    return DistributionReport(
        ks_statistic=ks, empirical_cdf=empirical, reference_cdf=reference
    )


def _modulus(q: int) -> int:
    """q as a Python int in [1, MAX_TABLE_ROWS] (the table has a row per residue), or DomainError."""
    q = _integer(q, "moduli")
    if not 1 <= q <= MAX_TABLE_ROWS:
        raise DomainError(f"modulus {short_int(q)} outside [1, {MAX_TABLE_ROWS:,}]")
    return q


def equidistribution(census: Census, T: float, q: int) -> Dict[int, float]:
    """Fraction of prime geodesics of length <= T with psi in each class mod q."""
    q = _modulus(q)
    lo, per_psi, _, total = census.psi_sums(trace_cap_for_length(T))
    if total < _MIN_SAMPLE and q > 1:
        raise InsufficientData(f"{total} records (need {_MIN_SAMPLE})")
    if total == 0:
        raise InsufficientData("no records")
    values = np.arange(lo, lo + len(per_psi))
    counts = np.bincount(values % q, weights=per_psi, minlength=q).astype(np.int64).tolist()
    return {a: counts[a] / total for a in range(q)}


def _weights(rs: Iterable[float]) -> List[float]:
    """The twist weights, read once, as Python floats with |r| <= 12, or DomainError."""
    try:
        rs = [float(r) for r in rs]
    except (TypeError, ValueError, OverflowError):
        raise DomainError("twist weights must be real numbers in the float range") from None
    for r in rs:
        if not abs(r) <= 4 * _PI_OVER_AREA:  # NaN included
            raise DomainError(f"|r| = {abs(r)} outside [0, {4 * _PI_OVER_AREA}]")
    return rs


def twisted_sums(census: Census, T: float, rs: Iterable[float]) -> List[TwistedSumReport]:
    """Length sums twisted by the weight-r character e^{2 pi i r psi / 12}, one per r.

    The lengths times the counts are summed per value of psi once a window
    (Census.psi_sums), so each r costs one real cosine and sine per |psi|:
    numpy's cos is even and its sin odd to the bit, so each is evaluated
    once a |psi| and gathered back, the same floats as over every psi.  The
    exponential main term e^{T (1 - |r|/2)} / (1 - |r|/2) only dominates the
    error for |r| < 1/2, so main_term and relative_error are reported only in
    that range.
    """
    rs = _weights(rs)
    lo, _, weight, _ = census.psi_sums(trace_cap_for_length(T))
    mags = np.abs(np.arange(lo, lo + len(weight)))
    steps = np.arange(mags.max(initial=0) + 1)
    reports = []
    for r in rs:
        x = steps * (math.pi * r / (2 * _PI_OVER_AREA))
        sin = np.take(np.sin(x), mags)
        # psi ascends from lo, so its negative values lead
        sin[: max(-lo, 0)] *= -1
        total = complex((np.take(np.cos(x), mags) * weight).sum(), (sin * weight).sum())
        main = rel = None
        if abs(r) < 0.5:
            s0 = 1.0 - abs(r) / 2.0
            if not T * s0 <= _MAX_EXPONENT:
                raise DomainError(f"main term e^({T} (1 - |r|/2)) past the float range at r = {r}")
            main = math.exp(T * s0) / s0
            rel = abs(total - main) / main
        reports.append(TwistedSumReport(r=r, sum=total, main_term=main, relative_error=rel))
    return reports


def twisted_sum(census: Census, T: float, r: float) -> TwistedSumReport:
    """twisted_sums at the single weight r."""
    return twisted_sums(census, T, (r,))[0]
