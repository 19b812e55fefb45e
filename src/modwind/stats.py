"""Counting statistics of winding numbers over the prime geodesic census.

Everything here reduces the psi and length columns of the enumeration output
with numpy and compares aggregate observables against their closed-form
predictions: the prime geodesic theorem, the winding density, the Cauchy limit
law of the winding-to-length ratio, residue equidistribution, and
character-twisted sums.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientData, QuadratureFailure
from .geodesics import Census, li, trace_cap_for_length
from .matrices import short_int
from .winding import _GL_NODES, _GL_WEIGHTS

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
    "twisted_sums",
    "li",
]

_MIN_SAMPLE = 1000
_PANEL_WIDTH = 0.5
_MAX_EXPONENT = 709.0


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


def _window(census: Census, T: float) -> Tuple[np.ndarray, np.ndarray]:
    """psi (int64) and length (float64) of the classes of length <= T.

    The window is the census's own length rule, trace <= trace_cap_for_length(T).
    A Census is in trace order, so its window is a leading slice of its
    columns.
    """
    rows = int(np.searchsorted(census.trace, trace_cap_for_length(T), side="right"))
    return census.psi[:rows], census.length[:rows]


def winding_histogram(census: Census, T: float) -> WindingHistogram:
    psi, _ = _window(census, T)
    values, counts = np.unique(psi, return_counts=True)
    return WindingHistogram(
        T=T, counts=dict(zip(values.tolist(), counts.tolist())), total=len(psi)
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
    c2 = (4.0 * math.pi * n / 12) ** 2
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


def limiting_density(n: int, T: float) -> float:
    """Limiting winding density (4/12) T / (T^2 + (4 pi n / 12)^2) at a finite T > 0."""
    if not 0 < T <= sys.float_info.max:  # NaN and ints past the float range too
        raise DomainError(f"T outside (0, {sys.float_info.max:g}]")
    T = float(T)
    c = 4.0 * math.pi * n / 12
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
    """KS distance between (3/pi) psi/length and the standard Cauchy law."""
    psi, length = _window(census, T)
    n = len(psi)
    if n < _MIN_SAMPLE:
        raise InsufficientData(f"{n} records (need {_MIN_SAMPLE})")
    values = np.sort(3.0 / math.pi * psi / length)
    f = 0.5 + np.arctan(values) / math.pi
    i = np.arange(n)
    ks = float(max(np.max(np.abs((i + 1) / n - f)), np.max(np.abs(i / n - f))))
    grid = [-5.0 + 0.1 * j for j in range(101)]
    below = np.searchsorted(values, grid, side="right").tolist()
    empirical = [(u, idx / n) for u, idx in zip(grid, below)]
    reference = [(u, _cauchy_cdf(u)) for u in grid]
    return DistributionReport(
        ks_statistic=ks, empirical_cdf=empirical, reference_cdf=reference
    )


def equidistribution(census: Census, T: float, q: int) -> Dict[int, float]:
    """Fraction of prime geodesics of length <= T with psi in each class mod q."""
    if not 1 <= q <= np.iinfo(np.int64).max:
        raise DomainError(f"modulus {short_int(q)} outside [1, 2^63 - 1]")
    psi, _ = _window(census, T)
    total = len(psi)
    if total < _MIN_SAMPLE and q > 1:
        raise InsufficientData(f"{total} records (need {_MIN_SAMPLE})")
    if total == 0:
        raise InsufficientData("no records")
    counts = np.bincount(psi % q, minlength=q).tolist()
    return {a: counts[a] / total for a in range(q)}


def twisted_sums(census: Census, T: float, rs: Sequence[float]) -> List[TwistedSumReport]:
    """Length sums twisted by the weight-r character e^{2 pi i r psi / 12}, one per r.

    The lengths are summed per value of psi once for the whole grid, so each
    r costs one exponential per distinct psi.  The exponential main term
    e^{T (1 - |r|/2)} / (1 - |r|/2) only dominates the error for |r| < 1/2,
    so main_term and relative_error are reported only in that range.
    """
    for r in rs:
        if not abs(r) <= 12:  # NaN included
            raise DomainError(f"|r| = {abs(r)} outside [0, 12]")
    psi, length = _window(census, T)
    lo = int(psi.min()) if len(psi) else 0
    weight = np.bincount(psi - lo, weights=length)
    values = np.arange(lo, lo + len(weight))
    reports = []
    for r in rs:
        phase = np.exp(2j * math.pi * r * values / 12.0)
        total = complex(phase @ weight)
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
