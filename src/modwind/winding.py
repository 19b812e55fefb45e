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
every point that round needs (in slices of at most _CHUNK points, each row
joined on its own), with a numpy pass only where its result is read.
winding_index reads arg F, up to 2 pi k as only wrapped increments count, and
the reduced height at each node in at most two rounds.  Its grid follows the
exact rate d arg F/dt = 2 pi Re(E2*(z_red) z_red'), whose bound
max(6.9452 y_red - 6, 1.132) sizes its splits: one on the closed-form heights
of the cusp zone before the first round, where a tall top needs it, and one
on the folded heights, which adds a second round only where an excursion
stays below height 1 on the axis.  e2_period reads E2(z) dz/dt and its real
rounding scale on one uniform grid over the period, then on the midpoints
that each doubling of that grid adds.
winding_index grids only the two arms of the axis either side of its flat
top [-s, s], where Im z(t) = R / cosh t, R = |alpha - alpha_bar| / 2, is at
least H = _FLAT_HEIGHT (s = 0 where R is not above H).  There the fold is a
translation and Delta/q is 1 within 1e-22, so arg F = 2 pi Re z + 6 arg z',
and on the semicircle both terms change in closed form in R: Re z by
sigma 2 sqrt(R^2 - H^2) and arg z' by -sigma (pi - 2 asin(H / R)), sigma the
sign of alpha - alpha_bar.
A top is refused (_flat_top) where float rounding could put that closed
form a tenth of _RESIDUAL_LIMIT off.  e2_period's trapezoid needs the whole
periodic window, so it keeps the top.
A round costs 40-72 us of numpy dispatch plus 0.07-0.11 us a node, or
0.03-0.04 us at a flat one (one batch of 50 to 1,600 nodes, best of 30, in
four runs on a 2-core x86-64 host, numpy 2.4.6), so a short class costs
mostly per round.
Each point is folded into the standard fundamental domain first, so the
q-series runs at |q| <= exp(-pi sqrt(3)), where eleven terms leave a tail
below 1e-22; from folded height 8.6 (_FLAT_HEIGHT) up all terms past q^0 do,
so there the series is its constant term 1 and is not summed (_series).
That flattens most of e2_period's nodes on a cusp excursion, among them
the heights of about 56-59.5 and 112-119 where q or q^2 is subnormal and
slow.  The fold (_reduce) refuses a point whose height is not above the
float spacing of its real part; above that, its relative error is about
2^-52 |z| / Im z.

Both follow the axis of the exact conjugate of gamma whose top, the point
at t = 0, is the excursion of the first largest digit of the class's word,
the least even rotation of the period (as matrix_to_word writes it): the
continued-fraction walk's first reduced state (P, Q), walked on to that
digit, gives the fixed points +-(P +- sqrt(D)) / Q.  The axis, and so both
routes, depend on the conjugacy class alone.  A trace whose fixed points are
past the float range is refused before the walk.  The axis of the last
matrix is kept, as both routes run on one class back to back.

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

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import CapExceeded, DomainError, QuadratureFailure
from .geodesics import _least_even_rotation, _reduced_cycle
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
# winding_index's first grid: sets only the cost.  An interval whose nodes lie at
# reduced height up to 4.9 needs no split, as h (_E2_RATE 4.9 e^(h/2) - 6) < pi/2 for h
# up to 0.0542, so a generic class takes one round.
_BASE_STEP = 0.054
# winding_index's bound |d arg F/dt| <= max(_E2_RATE y_red - 6, _RATE_FLOOR): _E2_RATE is
# 2 pi sum |c_n| |q|^n over E2HOL_SERIES at the fold's largest |q|, 6.945194..., and
# _RATE_FLOOR is 6 - (4 pi - _E2_RATE) sqrt(3)/2, 1.131923..., each rounded up
_E2_RATE = 6.9452
_RATE_FLOOR = 1.132
_RESIDUAL_LIMIT = 1e-3
_QUAD_TOL = 1e-9
_FOLD_STEPS = 10000
# Relative float spacing: Im z at or below this times |Re z| is not resolved.
_FLOAT_SPACING = 2.0**-52
# Points per evaluation batch, so temporaries do not grow with the word.
_CHUNK = 1 << 16
# winding_index nodes per class: 2^19 nodes hold a cusp excursion off the flat
# top (a second large digit) of about 116,000 turns of Delta (about 4.5 nodes
# per turn) in 12 MB of node arrays.
_MAX_NODES = 1 << 19
_PERIOD_STEP = 0.25  # e2_period's coarse trapezoid spacing: its first batch has 2n nodes
# e2_period's largest rounding witness: on two draws of 243 random words of length
# 20 to 60 the error was at most 1.25 and 0.78 times it, so 2.5e-7 within budget.
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
    so it raises CapExceeded; Im z <= 0 or NaN raises DomainError first.
    """
    resolved = z.imag > _FLOAT_SPACING * np.abs(z.real)
    if not resolved.all():
        if not (z.imag > 0.0).all():
            raise DomainError(f"Im z = {z.imag.min()}")
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


@dataclass(frozen=True, slots=True)
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


@functools.lru_cache(maxsize=1)
def _axis_for(gamma: Mat2) -> _Axis:
    """The axis of the exact conjugate of gamma whose top is the excursion of the
    first largest digit a_k of the class's word, D = trace^2 - 4.

    The word is the walk's period in its least even rotation (matrix_to_word's),
    so the axis depends on the class alone.  The walk's first reduced state
    (P, Q) takes k more steps to that digit, P <- aQ - P and Q <- (D - P^2) / Q.
    Its fixed points (P +- sqrt(D)) / Q are read as P / Q + (1 / Q) sqrt(D)
    and -Q' / (P + sqrt(D)), Q' = (D - P^2) / Q the exact integer before Q:
    (P - sqrt(D)) / Q would keep only about |alpha_bar / alpha| of the bits of
    alpha_bar.  Even states are conjugates
    of gamma in SL(2,Z).  At odd k the conjugate by S T^-a of the state before,
    a = a_(k-1), has the fixed points -(P +- sqrt(D)) / Q, attracting first.
    Either way the large excursion sits at t = 0, where a translation alone
    folds it.  The axis also carries the centre of both routes' window.
    Only the last axis is kept; a refusal is raised again on every call.
    """
    t = gamma.trace
    try:
        root = math.sqrt(t * t - 4) if t > 2 else 0.0  # the walk refuses t <= 2
    except OverflowError:
        raise CapExceeded(f"fixed points of trace {short_int(t)} past the float range") from None
    P, Q, digits = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    r, _ = _least_even_rotation(digits)
    k = (r + (digits[r:] + digits[:r]).index(max(digits))) % len(digits)
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
    conjugate of gamma whose top z(0) is the excursion of the first largest digit of
    the class's word."""
    z, dz = _axis_for(gamma).at(t)
    return complex(z), complex(dz)


def _in_chunks(fn, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """fn's rows over t, computed in slices of at most _CHUNK points and joined row by row."""
    if t.size <= _CHUNK:
        return fn(t)
    parts = [fn(t[k : k + _CHUNK]) for k in range(0, t.size, _CHUNK)]
    return tuple(np.concatenate(row) for row in zip(*parts))


def _uniform_grid(a: float, b: float) -> np.ndarray:
    """np.linspace's nodes from a to b in the fewest intervals of at most _BASE_STEP."""
    intervals = math.ceil((b - a) / _BASE_STEP)
    t = a + (b - a) / intervals * np.arange(intervals + 1.0)
    t[-1] = b
    return t


def _flat_top(axis: _Axis) -> Tuple[float, float]:
    """(s, turns of F over [-s, s]) where the top of the axis is above _FLAT_HEIGHT,
    else (0.0, 0.0): the closed form and rounding bound that winding_index states."""
    top = 0.5 * abs(axis.alpha - axis.alpha_bar)
    if top <= _FLAT_HEIGHT:
        return 0.0, 0.0
    if 2.0**-49 * top > 0.1 * _RESIDUAL_LIMIT:
        raise CapExceeded(f"flat top of height {top:.3g} past the float resolution of its turns")
    sigma = 1.0 if axis.alpha > axis.alpha_bar else -1.0
    width = 2.0 * math.sqrt((top - _FLAT_HEIGHT) * (top + _FLAT_HEIGHT))
    turns = width - 3.0 + 6.0 / math.pi * math.asin(_FLAT_HEIGHT / top)
    return math.acosh(top / _FLAT_HEIGHT), sigma * turns


def _split(t: np.ndarray, y: np.ndarray, gap: int | None):
    """winding_index's split of the grid t, with reduced heights y at its nodes and the
    flat top as interval gap (None: no flat top): (the split grid, the places of t's
    nodes in it, the flat top's interval in it), or None where no interval splits.

    Interval k, of width h, splits into floor(ratio) + 1 equal parts, ratio =
    h max(_E2_RATE B - 6, _RATE_FLOOR) / (pi/2) with B = max(y_l, sqrt(y_l y_r) e^(h/2));
    the flat top stays one interval.  More than _MAX_NODES nodes raise CapExceeded
    before any of them is evaluated.  Every h off the flat top is at most _BASE_STEP
    and every B at most max(y) e^(h/2), so where no node is above about 4.9 one
    max shows that nothing splits.
    """
    rate = _E2_RATE * y.max() * math.exp(0.5 * _BASE_STEP) - 6.0
    if _BASE_STEP * max(rate, _RATE_FLOOR) < 0.5 * math.pi:
        return None
    h = t[1:] - t[:-1]
    # y_l keeps the bound where rounding breaks sqrt(y_l y_r) e^(h/2) >= y_l
    bound = np.maximum(y[:-1], np.sqrt(y[:-1] * y[1:]) * np.exp(0.5 * h))
    ratio = h * np.maximum(_E2_RATE * bound - 6.0, _RATE_FLOOR) / (0.5 * math.pi)
    if gap is not None:
        ratio[gap] = 0.0
    if ratio.max() < 1.0:
        return None
    # node k moves to place bounds[k], with the new nodes evenly between
    bounds = np.concatenate(([0.0], np.cumsum(np.floor(ratio) + 1.0)))  # floats: not wrapped
    if bounds[-1] + 1 > _MAX_NODES:
        raise CapExceeded(f"winding grid needs {bounds[-1] + 1:.0f} nodes (cap {_MAX_NODES})")
    old = bounds.astype(np.intp)
    return np.interp(np.arange(bounds[-1] + 1), bounds, t), old, None if gap is None else int(old[gap])


@dataclass(frozen=True, slots=True)
class WindingResult:
    index: int
    residual: float
    steps: int


def winding_index(gamma: Mat2) -> WindingResult:
    """Winding number of Delta(z) z'^6 around 0 over one period of the axis.

    The argument is unwrapped over a grid on which it provably turns by less
    than pi/2 an interval.  On the unit-speed axis d arg F/dt is
    Im(2 pi i E2(z) z' + 6 z''/z'), E2 the holomorphic series, and a unit-speed
    geodesic has z''/z' = -i z'/y, so Im(6 z''/z') = -6 Re z' / y cancels the
    part 6 Re z' / y that the 3 / (pi y) of E2 = E2* + 3 / (pi y) adds:
        d arg F/dt = 2 pi Re(E2*(z) z') = 2 pi Re(E2*(z_red) z_red'),
    as E2*(z) dz is invariant, with |z_red'| = y_red.  So |d arg F/dt| <=
    |2 pi E2(z_red) y_red - 6|, and 2 pi |E2(z_red) - 1| <= 6.9452 - 2 pi at
    y_red >= sqrt(3)/2 (the series, _E2_RATE) bounds that by 6.9452 y_red - 6
    where 2 pi y_red >= 6 and by 6 - (4 pi - 6.9452) y_red <= 1.132
    (_RATE_FLOOR) below:
        |d arg F/dt| <= max(6.9452 y_red - 6, 1.132).
    log y_red is 1-Lipschitz in t, so B = max(y_l, sqrt(y_l y_r) e^(h/2))
    bounds y_red over an interval of width h, and _split splits each interval
    into floor(h max(6.9452 B - 6, 1.132) / (pi/2)) + 1 equal parts.
    Where Im z >= 1 the fold is a translation alone, so y_red = Im z(t) =
    R / cosh t (below, y_red >= Im z): the uniform first grid is split once on
    these closed-form heights before any node is evaluated, which splits
    nothing where R is below about 4.9.  That places every split of the cusp
    zone ahead of the one round that evaluates the grid.  The
    grid is then split on the folded heights at its nodes, which is the
    proof, and only new nodes are evaluated, in a second round; this finds
    nothing to split unless an excursion stays below height 1 on the axis,
    where the first split cannot see it.  An increment of pi/2 or more could
    hide a turn, so it raises QuadratureFailure; on this grid only evaluation
    error can cause one.

    The flat top is not gridded.  On the axis Im z(t) = R / cosh t exactly,
    R = |alpha - alpha_bar| / 2 the top height, so when R is above
    H = _FLAT_HEIGHT, Im z >= H exactly on [-s, s], s = acosh(R / H).  There
    the fold is a translation (j = 1) and Delta/q is 1 within 1e-22, so
    arg F = 2 pi Re z + 6 arg z'.  Over [-s, s] z runs along the semicircle
    between its two points of height H, so Re z moves by
    sigma 2 sqrt(R^2 - H^2) and the tangent turns by -sigma (pi - 2 asin(H/R)),
    sigma = sign(alpha - alpha_bar), and the continuous change of arg F is,
    in turns, sigma (2 sqrt(R^2 - H^2) - 3 + (6 / pi) asin(H / R)).  The
    first grid and the splits cover the two arms [lo, -s] and [s, hi], the
    interval between them is one increment (of `steps`) taken in this closed
    form, and every check is as above; a top at or below H is s = 0, where
    the arms share their node t = 0 and there is no such interval.  The
    rounding bound: alpha and alpha_bar have opposite signs (their product is
    -(D - P^2) / Q^2), so |z| <= 2R on the axis.  The arms' end nodes are
    within about 2^-52 |z| <= 2^-51 R of z(+-s) and the closed form is within
    about 2^-50 R of its value, so the term is within about 2^-49 R turns of
    the change between those nodes.
    Where that could exceed a tenth of _RESIDUAL_LIMIT, for R above 5.6e10,
    CapExceeded is raised before any node is evaluated.
    """
    axis = _axis_for(gamma)
    ell = axis.length
    lo, hi = axis.balance - 0.5 * ell, axis.balance + 0.5 * ell
    # the first grid has at most 13,148 nodes, as l < 709.79 (the axis refuses t^2 - 4
    # past the float range), far below the node cap, so only the splits are checked against it
    s, flat = _flat_top(axis)
    # a reduced state has alpha > 1 > 0 > alpha_bar > -1, so |alpha - alpha_bar| > 1
    # and |balance| < l/2; the window's ends sit at height about 1 or below
    if not lo < -s <= s < hi:
        raise RuntimeError(f"flat top [{-s}, {s}] not inside the window [{lo}, {hi}]")
    left, right = _uniform_grid(lo, -s), _uniform_grid(s, hi)
    # the arms' grids, with the flat top [-s, s] as interval `gap` between them;
    # without a flat top they share the node t = 0 and there is no gap
    gap = left.size - 1 if s else None
    t = np.concatenate((left, right if s else right[1:]))

    def arg_f(t):
        """(arg F + 2 pi k, y_red) at each t, F = Delta(z_red) (dz_red/dt)^6."""
        z, dz = axis.at(t)
        z_red, j, tail = _delta_series(z)
        dz /= j * j  # dz_red/dt
        arg = _TWO_PI * z_red.real + np.arctan2(tail.imag, tail.real)
        return arg + 6.0 * np.arctan2(dz.imag, dz.real), z_red.imag

    # where Im z >= 1 the fold is a translation alone, so there y_red is Im z(t) = R / cosh t,
    # and below that it is at least Im z: the split on these heights makes every split of
    # that zone before any node is evaluated, and the split on the folded heights any other
    split = _split(t, 0.5 * abs(axis.alpha - axis.alpha_bar) / np.cosh(t), gap)
    if split:
        t, _, gap = split
    arg, y = _in_chunks(arg_f, t)  # only arg F is read after the split
    split = _split(t, y, gap)
    if split:
        t, old, gap = split
        fresh = np.ones(t.size, dtype=bool)
        fresh[old] = False
        first, arg = arg, np.empty(t.size)
        arg[old] = first
        arg[fresh] = _in_chunks(arg_f, t[fresh])[0]
    inc = _wrap(arg[1:] - arg[:-1])
    if s:
        inc[gap] = 0.0  # the flat top's turns are `flat`
    coarse = np.abs(inc) >= 0.5 * math.pi
    if coarse.any():
        raise QuadratureFailure(f"argument jump near t = {t[:-1][coarse][0]} for {gamma}")
    turns = float(inc.sum()) / _TWO_PI + flat
    index = round(turns)
    residual = abs(turns - index)
    if residual >= _RESIDUAL_LIMIT:
        raise QuadratureFailure(f"winding total {turns} turns for {gamma}")
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
    scale 2^-52 |z| / Im z times |E2(z) dz/dt|.  A witness above
    _ROUNDING_BUDGET after any batch raises QuadratureFailure at once: more
    nodes refine the witness's integral but do not shrink it.
    """
    axis = _axis_for(gamma)
    ell = axis.length
    lo = axis.balance - 0.5 * ell

    def rows(s):
        """E2(z) dz/dt and the real |z| / Im z |E2(z) dz/dt| at each s."""
        z, dz = axis.at(s)
        f = _e2(z) * dz
        return f, np.abs(z) / z.imag * np.abs(f)

    # at most 5,680 nodes: l < 709.79, as the axis refuses t^2 - 4 past the float range
    nodes = 2 * max(4, math.ceil(ell / _PERIOD_STEP))
    h = ell / nodes
    f, scale = _in_chunks(rows, lo + h * np.arange(nodes))
    coarse, total, scale_sum = 2.0 * h * f[::2].sum(), h * f.sum(), h * scale.sum()
    while True:
        witness = _FLOAT_SPACING * scale_sum  # a power of 2 scales a sum exactly
        if witness > _ROUNDING_BUDGET:
            raise QuadratureFailure(f"rounding witness {witness:.1e} above budget for {gamma}")
        if abs(total - coarse) <= _QUAD_TOL:
            return total, witness
        if 2 * nodes > _MAX_NODES:
            raise QuadratureFailure(f"trapezoid sums unsettled on {nodes} nodes for {gamma}")
        f, scale = _in_chunks(rows, lo + h * np.arange(0.5, nodes))
        coarse, total, scale_sum = total, 0.5 * (total + h * f.sum()), 0.5 * (scale_sum + h * scale.sum())
        nodes, h = 2 * nodes, 0.5 * h


def e2_period(gamma: Mat2) -> float:
    """Period of the closed 1-form E2(z) dz over one loop of the axis (_trapezoid),
    refused as soon as its rounding witness is above _ROUNDING_BUDGET."""
    total, _ = _trapezoid(gamma)
    if abs(total.imag) > 1e-6:
        raise QuadratureFailure(f"period has imaginary part {total.imag} for {gamma}")
    return float(total.real)
