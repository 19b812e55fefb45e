"""Counting statistics of winding numbers over the prime geodesic census.

Everything here consumes the enumeration output (word, trace, length, psi) and
compares aggregate observables against their closed-form predictions: the
prime geodesic theorem, the winding density, the Cauchy limit law of the
winding-to-length ratio, residue equidistribution, and character-twisted sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, InsufficientData, QuadratureFailure
from .geodesics import GeodesicRecord

__all__ = [
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
    "li",
]

_MIN_SAMPLE = 1000


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


def winding_histogram(records: Iterable[GeodesicRecord], T: float) -> WindingHistogram:
    counts: Dict[int, int] = {}
    total = 0
    for rec in records:
        if rec.length <= T:
            counts[rec.psi] = counts.get(rec.psi, 0) + 1
            total += 1
    return WindingHistogram(T=T, counts=counts, total=total)


def predicted_pi_n(n: int, T: float, k: int = 12) -> float:
    """Predicted count of prime geodesics of length <= T with winding n.

    (4/(kT)) * integral_2^{e^T} log t / ((log t)^2 + (4 pi n / k)^2) dt,
    evaluated after the substitution u = log t.
    """
    from scipy.integrate import quad

    if T < 2:
        raise DomainError(f"T = {T} < 2")
    c = 4.0 * math.pi * n / k
    val, err = quad(
        lambda u: u * math.exp(u) / (u * u + c * c),
        math.log(2.0),
        T,
        epsrel=1e-8,
        limit=200,
    )
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureFailure(f"predicted_pi_n error estimate {err}")
    return 4.0 / (k * T) * val


def limiting_density(n: int, T: float, k: int = 12) -> float:
    """Limiting winding density (4/k) T / (T^2 + (4 pi n / k)^2)."""
    c = 4.0 * math.pi * n / k
    return (4.0 / k) * T / (T * T + c * c)


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


def cauchy_compare(records: Iterable[GeodesicRecord], T: float) -> DistributionReport:
    """KS distance between (3/pi) psi/length and the standard Cauchy law."""
    values = sorted(
        (3.0 / math.pi) * rec.psi / rec.length for rec in records if rec.length <= T
    )
    n = len(values)
    if n < _MIN_SAMPLE:
        raise InsufficientData(f"{n} records (need {_MIN_SAMPLE})")
    ks = 0.0
    for i, u in enumerate(values):
        f = _cauchy_cdf(u)
        ks = max(ks, abs((i + 1) / n - f), abs(i / n - f))
    grid = [-5.0 + 0.1 * j for j in range(101)]
    empirical = []
    idx = 0
    for u in grid:
        while idx < n and values[idx] <= u:
            idx += 1
        empirical.append((u, idx / n))
    reference = [(u, _cauchy_cdf(u)) for u in grid]
    return DistributionReport(
        ks_statistic=ks, empirical_cdf=empirical, reference_cdf=reference
    )


def equidistribution(
    records: Iterable[GeodesicRecord], T: float, q: int
) -> Dict[int, float]:
    """Fraction of prime geodesics of length <= T with psi in each class mod q."""
    if q < 1:
        raise DomainError(f"modulus {q} < 1")
    counts = [0] * q
    total = 0
    for rec in records:
        if rec.length <= T:
            counts[rec.psi % q] += 1
            total += 1
    if total < _MIN_SAMPLE and q > 1:
        raise InsufficientData(f"{total} records (need {_MIN_SAMPLE})")
    if total == 0:
        raise InsufficientData("no records")
    return {a: counts[a] / total for a in range(q)}


def twisted_sum(records: Iterable[GeodesicRecord], T: float, r: float) -> TwistedSumReport:
    """Length sum twisted by the weight-r character e^{2 pi i r psi / 12}.

    The exponential main term e^{T (1 - |r|/2)} / (1 - |r|/2) only dominates
    the error for |r| < 1/2, so main_term and relative_error are reported
    only in that range.
    """
    if abs(r) > 12:
        raise DomainError(f"|r| = {abs(r)} > 12")
    total = 0j
    for rec in records:
        if rec.length <= T:
            total += cmath.exp(2j * math.pi * r * rec.psi / 12.0) * rec.length
    if abs(r) < 0.5:
        s0 = 1.0 - abs(r) / 2.0
        main = math.exp(T * s0) / s0
        rel = abs(total - main) / main
        return TwistedSumReport(r=r, sum=total, main_term=main, relative_error=rel)
    return TwistedSumReport(r=r, sum=total, main_term=None, relative_error=None)


def li(x: float) -> float:
    """Logarithmic integral with lower limit 2: int_2^x dt / log t."""
    import mpmath

    if x < 2:
        raise DomainError(f"x = {x} < 2")
    return float(mpmath.li(x, offset=True))
