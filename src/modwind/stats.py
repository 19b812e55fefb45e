"""Counting statistics of winding numbers over the prime geodesic census.

Every statistic reads only trace and psi, so each one reduces a leading trace
window of the census's (trace, psi) count table (Census.counts) with numpy, a
row standing for all classes of its pair, and compares aggregate observables
against their closed-form predictions: the prime geodesic theorem, the winding
density, the Cauchy limit law of the winding-to-length ratio, residue
equidistribution, and character-twisted sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientData, QuadratureFailure
from .geodesics import Census, li, trace_cap_for_length
from .matrices import _integer, short_int

__all__ = [
    "MAX_TABLE_ROWS",
    "WindingHistogram",
    "DistributionReport",
    "TwistedSumReport",
    "winding_histogram",
    "predicted_pi_n",
    "limiting_density",
    "density_table",
    "cauchy_compare",
    "equidistribution",
    "twisted_sum",
    "twisted_sums",
    "li",
]

_MIN_SAMPLE = 1000
# Rows of a table the statistics return (equidistribution) or the CLI prints.
MAX_TABLE_ROWS = 10_000
_PANEL_WIDTH = 0.5
_MAX_EXPONENT = 709.0


def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the Tricomi initial guesses, with P_n and its
    derivative from the three-term recurrence.  Written out because importing
    numpy.polynomial.legendre.leggauss adds about 1.2 MB to the peak RSS of a
    process that only reads the census.
    """
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)


@dataclass(frozen=True)
class WindingHistogram:
    """Counts of prime geodesics of length <= T keyed by winding number."""

    T: float
    counts: Dict[int, int]
    total: int


@dataclass(frozen=True)
class DistributionReport:
    ks_statistic: float
    empirical_cdf: List[Tuple[float, float]]
    reference_cdf: List[Tuple[float, float]]


@dataclass(frozen=True)
class TwistedSumReport:
    r: float
    sum: complex
    main_term: Optional[float]
    relative_error: Optional[float]


def _window(census: Census, T: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi (int64), count (int64) and length (float64) of the count table's
    rows of length <= T.

    The window is the census's own length rule, trace <= trace_cap_for_length(T).
    The table is in trace order, so its window is a leading slice of its
    columns.
    """
    cap = trace_cap_for_length(T)
    trace, psi, count, length = census.counts()
    rows = int(np.searchsorted(trace, cap, side="right"))
    return psi[:rows], count[:rows], length[:rows]


def _by_psi(psi: np.ndarray, weights: np.ndarray) -> Tuple[int, np.ndarray]:
    """The least psi lo, and the sums of the weights over the rows of each
    psi from lo on."""
    lo = int(psi.min()) if len(psi) else 0
    return lo, np.bincount(psi - lo, weights=weights)


def winding_histogram(census: Census, T: float) -> WindingHistogram:
    psi, count, _ = _window(census, T)
    lo, per_psi = _by_psi(psi, count)
    values = np.flatnonzero(per_psi)
    counts = per_psi[values].astype(np.int64)
    return WindingHistogram(
        T=T, counts=dict(zip((values + lo).tolist(), counts.tolist())), total=int(count.sum())
    )


def predicted_pi_n(n: int, T: float) -> float:
    """Predicted count of prime geodesics of length <= T with winding n.

    (4/(12T)) * integral_2^{e^T} log t / ((log t)^2 + (4 pi n / 12)^2) dt,
    where 12 is 4 pi over the area pi/3 of the modular orbifold,
    evaluated after the substitution u = log t by the 16-point Gauss-Legendre
    rule on fixed panels of width at most 1/2.  The error estimate is the
    change when every panel is halved.
    """
    if not 2 <= T <= _MAX_EXPONENT:
        raise DomainError(f"T = {T} outside [2, {_MAX_EXPONENT:g}], where e^T is a finite float")
    c2 = _kernel_width(n) ** 2
    lo = math.log(2.0)
    panels = math.ceil((T - lo) / _PANEL_WIDTH)

    def integral(m: int) -> float:
        edges = np.linspace(lo, T, m + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        u = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_NODES
        return float((half * (u * np.exp(u) / (u * u + c2) @ _GL_WEIGHTS)).sum())

    coarse, val = integral(panels), integral(2 * panels)
    err = abs(val - coarse)
    if not err <= 1e-6 * max(1.0, abs(val)):
        raise QuadratureFailure(f"predicted_pi_n error estimate {err}")
    return 4.0 / (12 * T) * val


def _kernel_width(n: int) -> float:
    """4 pi n / 12, where the winding n sits in the density's Cauchy kernel."""
    n = _integer(n, "winding numbers")
    if not abs(n) <= sys.float_info.max:  # an int past the float range
        raise DomainError(f"winding number {short_int(n)} past the float range")
    return 4.0 * math.pi * n / 12


def limiting_density(n: int, T: float) -> float:
    """Limiting winding density (4/12) T / (T^2 + (4 pi n / 12)^2) at a finite T > 0."""
    if not 0 < T <= sys.float_info.max:  # NaN and ints past the float range too
        raise DomainError(f"T outside (0, {sys.float_info.max:g}]")
    T = float(T)
    c = _kernel_width(n)
    return (4.0 / 12) * T / (T * T + c * c)


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


def _cauchy_cdf(u: float) -> float:
    return 0.5 + math.atan(u) / math.pi


def cauchy_compare(census: Census, T: float) -> DistributionReport:
    """KS distance between (3/pi) psi/length and the standard Cauchy law.

    The rows of the count table are sorted by value, and the empirical CDF
    steps by each row's count.  Over the classes of one row the CDF takes
    every i/n between the counts below and through the row, so its largest
    distance to the Cauchy CDF is at one of those two ends: the same floats
    as over the sorted classes, ties between rows included.
    """
    psi, count, length = _window(census, T)
    n = int(count.sum())
    if n < _MIN_SAMPLE:
        raise InsufficientData(f"{n} records (need {_MIN_SAMPLE})")
    values = 3.0 / math.pi * psi / length
    order = np.argsort(values)
    values = values[order]
    # classes with a value before or at each row's, from 0 to n
    through = np.zeros(len(order) + 1, np.int64)
    np.cumsum(count[order], out=through[1:])
    f = 0.5 + np.arctan(values) / math.pi
    ks = float(max(np.max(np.abs(through[1:] / n - f)), np.max(np.abs(through[:-1] / n - f))))
    grid = [-5.0 + 0.1 * j for j in range(101)]
    below = through[np.searchsorted(values, grid, side="right")].tolist()
    empirical = [(u, idx / n) for u, idx in zip(grid, below)]
    reference = [(u, _cauchy_cdf(u)) for u in grid]
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
    psi, count, _ = _window(census, T)
    total = int(count.sum())
    if total < _MIN_SAMPLE and q > 1:
        raise InsufficientData(f"{total} records (need {_MIN_SAMPLE})")
    if total == 0:
        raise InsufficientData("no records")
    counts = np.bincount(psi % q, weights=count, minlength=q).astype(np.int64).tolist()
    return {a: counts[a] / total for a in range(q)}


def _weights(rs: Iterable[float]) -> List[float]:
    """The twist weights, read once, as Python floats with |r| <= 12, or DomainError."""
    try:
        rs = [float(r) for r in rs]
    except (TypeError, ValueError, OverflowError):
        raise DomainError("twist weights must be real numbers in the float range") from None
    for r in rs:
        if not abs(r) <= 12:  # NaN included
            raise DomainError(f"|r| = {abs(r)} outside [0, 12]")
    return rs


def twisted_sums(census: Census, T: float, rs: Iterable[float]) -> List[TwistedSumReport]:
    """Length sums twisted by the weight-r character e^{2 pi i r psi / 12}, one per r.

    The lengths times the counts are summed per value of psi once for the
    whole grid, so each r costs one real cosine and sine per distinct psi.  The
    exponential main term e^{T (1 - |r|/2)} / (1 - |r|/2) only dominates the
    error for |r| < 1/2, so main_term and relative_error are reported only in
    that range.
    """
    rs = _weights(rs)
    psi, count, length = _window(census, T)
    lo, weight = _by_psi(psi, length * count)
    values = np.arange(lo, lo + len(weight))
    reports = []
    for r in rs:
        x = values * (math.pi * r / 6.0)
        total = complex(np.cos(x) @ weight, np.sin(x) @ weight)
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
