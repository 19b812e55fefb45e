"""Winding number of the discriminant form along closed geodesics.

Two independent numerical routes to the same integer:

* winding_index tracks the argument of F(t) = Delta(z(t)) z'(t)^6 along one
  period of the geodesic axis and counts full turns.  F is invariant under
  deck transformations, so it is literally periodic in t and the total
  argument change is an exact multiple of 2 pi up to discretisation error.
* e2_period integrates the closed 1-form E2(z) dz along the same loop by the
  periodic trapezoidal rule, where E2 is the weight 2 completed Eisenstein
  series (the holomorphic q-series minus 3 / (pi y)).

Both evaluate the forms once per round of refinement, on one numpy array of
every point that round needs (in slices of at most _CHUNK points), with a
numpy pass only where its result is read.  winding_index reads arg F, up to
2 pi k as only wrapped increments count, and the reduced height at each node
in at most two rounds, |d arg F/dt| <= 6.9452 y_red + 18 sizing its one
split; e2_period reads E2(z) dz/dt and its rounding scale on one uniform grid
over the period, then on the midpoints that each doubling of that grid adds.
A round costs 50-100 us of numpy dispatch plus about 0.09 us a node, or
0.03-0.04 us at a flat one (2-core x86-64 host, numpy 2.4), so a short
class costs mostly per round.
Each point is folded into the standard fundamental domain first, so the
q-series runs at |q| <= exp(-pi sqrt(3)), where eleven terms leave a tail
below 1e-22; from folded height 8.6 (_FLAT_HEIGHT) up all terms past q^0 do,
so there the series is its constant term 1 and is not summed (_series).
That flattens most nodes of a cusp excursion, among them the heights of
about 56-59.5 and 112-119 where q or q^2 is subnormal and slow.  The fold
(_reduce) refuses a point whose height is not above the float spacing of
its real part; above that, its relative error is about 2^-52 |z| / Im z.

Both follow the axis of the exact conjugate of gamma whose top, the point
at t = 0, is the excursion of the first largest digit of the period: the
continued-fraction walk's first reduced state (P, Q), walked on to that
digit, gives the fixed points +-(P +- sqrt(D)) / Q.  A trace whose fixed
points are past the float range is refused before the walk.

The integrands are l-periodic, so any window of length l gives the same
total, but the fold amplifies the rounding error of z(t) by about
|z| / Im z.  Both routes integrate over one window, t in [b - l/2, b + l/2]
with b the axis's balance (_axis_for): b makes this amplification alike at
the two ends, capped so that the largest excursion stays whole in the
middle, where a translation alone folds it.  On long words the ends decide
the residual of winding_index and whether the rounding witness of
e2_period meets its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import (
    CapExceeded,
    NonPositiveImaginary,
    QuadratureFailure,
    ResidualTooLarge,
    StepTooCoarse,
)
from .geodesics import _reduced_cycle
from .matrices import Mat2, geodesic_length, short_int

__all__ = [
    "WindingResult",
    "SERIES_TERMS",
    "DELTA_SERIES",
    "E2HOL_SERIES",
    "delta_eval",
    "e2_completed",
    "axis_point",
    "winding_index",
    "e2_period",
]

# With y >= sqrt(3)/2 after reduction, |q| <= exp(-pi sqrt(3)) ~ 4.33e-3.
# The least count whose truncated tails, sum |c_n| |q|^n over n > SERIES_TERMS,
# are both below 1e-22: 2.5e-23 for Delta/q and 3e-26 for E2 at 11 terms,
# where 10 terms leave 3.8e-21 for Delta/q.
SERIES_TERMS = 11
# From this folded height y up, |q| = e^(-2 pi y) leaves both tails past q^0
# below 1e-22 too: 8.2e-23 (about 24 |q|), where 8.5 leaves 1.5e-22.
_FLAT_HEIGHT = 8.6

_TWO_PI = 2.0 * math.pi
_BASE_STEP = 0.03  # winding_index's first grid, unsplit up to B = 4.9: sets only the cost
# winding_index's bound |d arg F/dt| <= _E2_RATE y_red + _FLAT_RATE: _E2_RATE is 2 pi
# sum |c_n| |q|^n over E2HOL_SERIES at the fold's largest |q|, 6.945194..., rounded up
_E2_RATE = 6.9452
_FLAT_RATE = 18.0
_RESIDUAL_LIMIT = 1e-3
_QUAD_TOL = 1e-9
_FOLD_STEPS = 10000
# Relative float spacing: Im z at or below this times |Re z| is not resolved.
_FLOAT_SPACING = 2.0**-52
# Points per evaluation batch, so temporaries do not grow with the word.
_CHUNK = 1 << 16
# winding_index nodes per class: 2^19 nodes hold a cusp excursion of about
# 116,000 turns of Delta (about 4.5 nodes per turn) in 12 MB of node arrays.
_MAX_NODES = 1 << 19
_PERIOD_STEP = 0.25  # e2_period's coarse trapezoid spacing: its first batch has 2n nodes
# e2_period's largest rounding witness: on 243 random long words of length 20 to
# 60 the error was at most 1.25 times it, so at most 2.5e-7 within budget.
_ROUNDING_BUDGET = 2e-7


def _horner(coeffs: Tuple[int, ...], q):
    """Sum of coeffs[n] q^n, elementwise over an array q, from the top coefficient."""
    acc = q * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= q
    acc += coeffs[0]
    return acc


def _delta_q_coefficients(n_terms: int) -> List[int]:
    """Coefficients of Delta/q = prod (1 - q^n)^24 up to q^n_terms."""
    coeffs = [0] * (n_terms + 1)
    coeffs[0] = 1
    for n in range(1, n_terms + 1):
        for _ in range(24):
            for k in range(n_terms, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return coeffs


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


# Integer q-expansion coefficients c_0 .. c_N.  DELTA_SERIES is Delta/q (so
# the leading coefficient is for q^0; the explicit factor q is restored in
# log form inside delta_eval); E2HOL_SERIES is the holomorphic part of E2.
DELTA_SERIES = tuple(_delta_q_coefficients(SERIES_TERMS))
E2HOL_SERIES = (1, *(-24 * _sigma1(n) for n in range(1, SERIES_TERMS + 1)))


def _wrap(x):
    """x reduced to [-pi, pi], elementwise."""
    return x - _TWO_PI * np.rint(x / _TWO_PI)


def _reduce(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(z_red, j): each point of the 1-D array z folded into the fundamental
    domain by some M in SL(2,Z), and the automorphy factor j = j(M, z).

    Each step translates by T^-n with n the nearest integer to Re w, then
    applies S wherever |w - n| < 1.  Translations leave j alone, and
    j(S T^-n M, z) = (Mz - n) j(M, z), so j is the product of the points
    that S moved, taken before it moved them.  Only those points take the
    next step.

    Rounding z to a float moves it by up to 2^-53 |z|, which the fold
    amplifies to a relative error of about 2^-52 |z| / Im z in z_red (against
    its height) and in j.  A point whose height is not above the float
    spacing of its real part (or whose real part is NaN) has lost its position,
    so it raises CapExceeded; Im z <= 0 or NaN raises NonPositiveImaginary first.
    """
    resolved = z.imag > _FLOAT_SPACING * np.abs(z.real)
    if not resolved.all():
        if not (z.imag > 0.0).all():
            raise NonPositiveImaginary(f"Im z = {z.imag.min()}")
        raise CapExceeded(f"Im z not above the float spacing of Re z at z = {z[~resolved][0]}")
    w = z - np.rint(z.real)
    j = np.ones_like(z)
    moving = (np.abs(w) < 1.0 - 1e-15).nonzero()[0]
    for _ in range(_FOLD_STEPS):
        if moving.size == 0:
            return w, j
        wm = w[moving]
        j[moving] *= wm
        wm = -1.0 / wm
        wm -= np.rint(wm.real)
        w[moving] = wm
        moving = moving[np.abs(wm) < 1.0 - 1e-15]
    raise RuntimeError("fundamental domain reduction did not terminate")


def _series(coeffs: Tuple[int, ...], z_red: np.ndarray) -> np.ndarray:
    """Sum of coeffs[n] q^n, q = exp(2 pi i z_red), at each folded point; exactly
    coeffs[0], with no q formed, where Im z_red >= _FLAT_HEIGHT."""
    if z_red.imag.max(initial=0.0) < _FLAT_HEIGHT:
        return _horner(coeffs, np.exp(2j * math.pi * z_red))
    steep = z_red.imag < _FLAT_HEIGHT
    value = np.full(z_red.shape, complex(coeffs[0]))
    if steep.any():
        value[steep] = _horner(coeffs, np.exp(2j * math.pi * z_red[steep]))
    return value


def _delta_series(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z_red, j, tail) at each point of z, with Delta(z) = q tail / j^12 and
    q = exp(2 pi i z_red): the fold of _reduce and the series Delta/q at z_red."""
    z_red, j = _reduce(z)
    return z_red, j, _series(DELTA_SERIES, z_red)


def _arg_delta(z_red: np.ndarray, j: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """arg Delta in [-pi, pi] from the parts that _delta_series returns."""
    return _wrap(_TWO_PI * z_red.real + np.angle(tail) - 12.0 * np.angle(j))


def _e2(z: np.ndarray) -> np.ndarray:
    """Completed E2 at each point of z."""
    z_red, j = _reduce(z)
    return (_series(E2HOL_SERIES, z_red) - 3.0 / (math.pi * z_red.imag)) / (j * j)


def delta_eval(z: complex) -> Tuple[float, float]:
    """(log |Delta(z)|, arg Delta(z) in [-pi, pi]), exact in the modular transformation.

    |Delta| underflows double precision already for y around 230, so the
    modulus is only ever exposed through its logarithm.
    """
    z_red, j, tail = _delta_series(np.array([z], dtype=complex))
    log_abs = -_TWO_PI * z_red.imag + np.log(np.abs(tail)) - 12.0 * np.log(np.abs(j))
    return float(log_abs[0]), float(_arg_delta(z_red, j, tail)[0])


def e2_completed(z: complex) -> complex:
    """Weight 2 completed Eisenstein series: q-series minus 3/(pi y), folded."""
    return complex(_e2(np.array([z], dtype=complex))[0])


@dataclass(frozen=True)
class _Axis:
    """Geodesic axis z(t) = g(w) with w = i e^t if alpha > alpha_bar, else -i e^t,
    and g = (alpha, alpha_bar; 1, 1).

    det g = alpha - alpha_bar, so g maps the half-plane of w to the upper one;
    z(t) runs from the repelling fixed point alpha_bar to the attracting one
    alpha at unit speed, and z(0) is the top of the axis.
    """

    alpha: float
    alpha_bar: float
    length: float
    balance: float  # the centre of both routes' window, see _axis_for

    def at(self, t):
        """(z(t), dz/dt) at a float t or at each entry of an array t."""
        w = (1j if self.alpha > self.alpha_bar else -1j) * np.exp(t)
        den = w + 1.0
        z = (self.alpha * w + self.alpha_bar) / den
        return z, (self.alpha - self.alpha_bar) * w / (den * den)


def _axis_for(gamma: Mat2) -> _Axis:
    """The axis of the exact conjugate of gamma whose top is the excursion of the
    first largest digit a_k of the period, D = trace^2 - 4.

    The walk's first reduced state (P, Q) takes k more steps, P <- aQ - P and
    Q <- (D - P^2) / Q.  Its fixed points (P +- sqrt(D)) / Q are read as
    P / Q + (1 / Q) sqrt(D) and -Q' / (P + sqrt(D)), Q' = (D - P^2) / Q the
    exact integer before Q: (P - sqrt(D)) / Q would keep only about
    |alpha_bar / alpha| of the bits of alpha_bar.  Even states are conjugates
    of gamma in SL(2,Z).  At odd k the conjugate by S T^-a of the state before,
    a = a_(k-1), has the fixed points -(P +- sqrt(D)) / Q, attracting first.
    Either way the large excursion sits at t = 0, where a translation alone
    folds it.  The axis also carries the centre of both routes' window.
    """
    t = gamma.trace
    try:
        root = math.sqrt(t * t - 4) if t > 2 else 0.0  # the walk refuses t <= 2
    except OverflowError:
        raise CapExceeded(f"fixed points of trace {short_int(t)} past the float range") from None
    P, Q, digits = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    k = digits.index(max(digits))
    D = t * t - 4
    for a in digits[:k]:
        P = a * Q - P
        Q = (D - P * P) // Q
    p, q, near = P / Q, 1 / Q, -((D - P * P) // Q) / (P + root)
    if k % 2:
        p, q, near = -p, -q, -near
    alpha, alpha_bar, ell = p + q * root, near, geodesic_length(t)
    # the routes' window [b - ell/2, b + ell/2] ends at heights of about
    # |alpha - alpha_bar| e^-(ell/2 +- b), where the fold amplifies the rounding
    # of z(t) by about |alpha| / Im z at the attracting end and |alpha_bar| / Im z
    # at the other.  b = 0.5 log |alpha_bar / alpha| makes the two alike, with
    # |alpha_bar / alpha| = (D - P^2) / (P + sqrt(D))^2 as 0 < P < sqrt(D).  |b|
    # is capped so that neither end rises above height about 1, which keeps
    # the top excursion whole in the middle of the window.
    balance = 0.5 * math.log(D - P * P) - math.log(P + root)
    room = max(0.0, 0.5 * ell - math.log(abs(alpha - alpha_bar)))
    return _Axis(alpha, alpha_bar, ell, min(room, max(-room, balance)))


def axis_point(gamma: Mat2, t: float) -> Tuple[complex, complex]:
    """(z(t), dz/dt) at flow time t on the axis both routes follow: that of the exact
    conjugate of gamma whose top z(0) is the excursion of the period's largest digit."""
    z, dz = _axis_for(gamma).at(t)
    return complex(z), complex(dz)


def _in_chunks(fn, t: np.ndarray) -> np.ndarray:
    """fn over t in slices of at most _CHUNK points, joined on the last axis."""
    if t.size <= _CHUNK:
        return fn(t)
    return np.concatenate([fn(t[k : k + _CHUNK]) for k in range(0, t.size, _CHUNK)], axis=-1)


@dataclass(frozen=True)
class WindingResult:
    index: int
    residual: float
    steps: int


def winding_index(gamma: Mat2) -> WindingResult:
    """Winding number of Delta(z) z'^6 around 0 over one period of the axis.

    The argument is unwrapped over a grid on which it provably turns by less
    than pi/2 an interval.  On the unit-speed axis d arg F/dt is
    Im(2 pi i E2(z) z' + 6 z''/z'), E2 the holomorphic series, and
    * |E2*(z) z'| = |E2*(z_red)| y_red, as E2*(z) dz is invariant; each of the
      two 3 / (pi y) terms (E2 = E2* + 3 / (pi y)) adds 6, as |Re z'| <= y;
    * |E2(z_red)| <= 1.1054 at y_red >= sqrt(3)/2, from the series;
    * |z''/z'| = 1, which adds 6 more.
    So |d arg F/dt| <= 6.9452 y_red + 18.  log y_red is 1-Lipschitz in t, so
    B = max(y_l, sqrt(y_l y_r) e^(h/2)) bounds y_red over an interval of width
    h; each interval of the uniform first grid splits once into
    floor(h (6.9452 B + 18) / (pi/2)) + 1 equal parts, and only new nodes are
    evaluated.  An increment of pi/2 or more could hide a turn, so it raises
    StepTooCoarse; on this grid only evaluation error can cause one.
    """
    axis = _axis_for(gamma)
    ell = axis.length

    def arg_f(t):
        """(arg F + 2 pi k, y_red) at each t as two rows, F = Delta(z_red) (dz_red/dt)^6."""
        z, dz = axis.at(t)
        z_red, j, tail = _delta_series(z)
        dz /= j * j  # dz_red/dt
        arg = _TWO_PI * z_red.real + np.arctan2(tail.imag, tail.real)
        return np.array([arg + 6.0 * np.arctan2(dz.imag, dz.real), z_red.imag])

    # at most 23,661 nodes, as l < 709.79 (the axis refuses t^2 - 4 past the float
    # range); the split's node cap covers this grid too, as bounds[-1] >= intervals
    intervals = math.ceil(ell / _BASE_STEP)
    lo, hi = axis.balance - 0.5 * ell, axis.balance + 0.5 * ell
    t = lo + (hi - lo) / intervals * np.arange(intervals + 1.0)  # np.linspace's nodes
    t[-1] = hi
    values = _in_chunks(arg_f, t)
    h, (arg, y) = t[1:] - t[:-1], values  # only arg F is read after the split
    # y_l keeps the bound where rounding breaks sqrt(y_l y_r) e^(h/2) >= y_l
    bound = np.maximum(y[:-1], np.sqrt(y[:-1] * y[1:]) * np.exp(0.5 * h))
    pieces = np.floor(h * (_E2_RATE * bound + _FLAT_RATE) / (0.5 * math.pi)) + 1.0  # floats: not wrapped
    # node k moves to place bounds[k], with the new nodes evenly between
    bounds = np.concatenate(([0.0], np.cumsum(pieces)))
    if bounds[-1] + 1 > _MAX_NODES:
        raise CapExceeded(f"winding grid needs {bounds[-1] + 1:.0f} nodes (cap {_MAX_NODES})")
    if bounds[-1] > intervals:
        t = np.interp(np.arange(bounds[-1] + 1), bounds, t)
        fresh = np.ones(t.size, dtype=bool)
        fresh[bounds.astype(np.intp)] = False
        arg = np.empty(t.size)
        arg[~fresh] = values[0]
        arg[fresh] = _in_chunks(arg_f, t[fresh])[0]
    inc = _wrap(arg[1:] - arg[:-1])
    coarse = np.abs(inc) >= 0.5 * math.pi
    if coarse.any():
        raise StepTooCoarse(f"argument jump near t = {t[:-1][coarse][0]} for {gamma}")
    turns = float(inc.sum()) / _TWO_PI
    index = round(turns)
    residual = abs(turns - index)
    if residual >= _RESIDUAL_LIMIT:
        raise ResidualTooLarge(f"winding total {turns} turns for {gamma}")
    return WindingResult(index=index, residual=residual, steps=inc.size)


def _trapezoid(gamma: Mat2) -> Tuple[complex, float]:
    """(period, rounding witness) of E2(z) dz over one loop of the axis of gamma.

    The integrand is l-periodic and real-analytic in t, so the trapezoidal
    rule over one period, on the routes' window centred at axis.balance,
    converges geometrically.  The first batch of 2n uniform nodes,
    n = max(4, ceil(l / _PERIOD_STEP)), gives T_n (its even nodes) and T_2n;
    while |T_2n - T_n| > _QUAD_TOL the grid doubles, one batch of midpoints a
    round, up to _MAX_NODES.  That check sees the discretisation, not the
    rounding, so the batches also sum the witness: the fold's relative error
    scale 2^-52 |z| / Im z times |E2(z) dz/dt|.
    """
    axis = _axis_for(gamma)
    ell = axis.length
    lo = axis.balance - 0.5 * ell

    def rows(s):
        """E2(z) dz/dt and |z| / Im z |E2(z) dz/dt| at each s, as two rows."""
        z, dz = axis.at(s)
        f = _e2(z) * dz
        return np.array([f, np.abs(z) / z.imag * np.abs(f)])

    # at most 5,680 nodes: l < 709.79, as the axis refuses t^2 - 4 past the float range
    nodes = 2 * max(4, math.ceil(ell / _PERIOD_STEP))
    h = ell / nodes
    first = _in_chunks(rows, lo + h * np.arange(nodes))
    coarse, sums = 2.0 * h * first[0, ::2].sum(), h * first.sum(axis=1)
    while abs(sums[0] - coarse) > _QUAD_TOL:
        if 2 * nodes > _MAX_NODES:
            raise QuadratureFailure(f"trapezoid sums unsettled on {nodes} nodes for {gamma}")
        mid = _in_chunks(rows, lo + h * np.arange(0.5, nodes))
        coarse, sums = sums[0], 0.5 * (sums + h * mid.sum(axis=1))
        nodes, h = 2 * nodes, 0.5 * h
    return sums[0], _FLOAT_SPACING * sums[1].real  # a power of 2 scales a sum exactly


def e2_period(gamma: Mat2) -> float:
    """Period of the closed 1-form E2(z) dz over one loop of the axis (_trapezoid),
    refused when its rounding witness is above _ROUNDING_BUDGET."""
    total, witness = _trapezoid(gamma)
    if witness > _ROUNDING_BUDGET:
        raise QuadratureFailure(f"rounding witness {witness:.1e} above budget for {gamma}")
    if abs(total.imag) > 1e-6:
        raise QuadratureFailure(f"period has imaginary part {total.imag} for {gamma}")
    return float(total.real)
