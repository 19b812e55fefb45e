"""Winding number of the discriminant form along closed geodesics.

Two independent numerical routes to the same integer:

* winding_index tracks the argument of F(t) = Delta(z(t)) z'(t)^6 along one
  period of the geodesic axis and counts full turns.  F is invariant under
  deck transformations, so it is literally periodic in t and the total
  argument change is an exact multiple of 2 pi up to discretisation error.
* e2_period integrates the closed 1-form E2(z) dz along the same loop by the
  periodic trapezoidal rule, where E2 is the weight 2 completed Eisenstein
  series (the holomorphic q-series minus 3 / (pi y)).

Both read one first round a class (_Round, kept for the last class by
_first_round), which holds only what both read: the axis, one uniform
periodic grid over the window, t_k = lo + k l / m for k = 0..m, m even and
l / m at most the class's own step (_axis_for: 0.054 where the largest
digit but the top one is 8 or more, up to 0.15 where it is 2 or less), and
its nodes, each folded once (_fold) and given the scale of the fold's
rounding that e2_period's witness reads (_nodes).  Each route sums its own
series on it, Delta/q as the 24th power of Euler's pentagonal series (_eta)
and E2 by Horner's rule (_horner), and makes its own plan.  The probes
delta_eval and e2_completed are that fold and those series at one point at
dz/dt = 1: a one-element batch, whose in-place complex steps numpy may round
differently in the last bit from the same node in a longer one.
e2_period reads the grid's first m nodes as T_m and their even nodes as
T_(m/2), then evaluates the midpoints that each doubling adds.
winding_index reads every node, node m closing the period, takes the cusp
zone, where the axis runs at height 1 or more, in closed form (its plan,
_cusp_zone, and arg Delta/q at the zone's two end nodes), and splits, in a
second round, only where the axis runs below height 1; the split reads the
round's own step, so a coarse first round splits wherever its heights ask.
A round costs 36-47 us of numpy dispatch plus 0.07-0.08 us a node at any
height (one batch of 50 to 1,600 nodes, best of 30, in four runs on a 2-core
x86-64 host, numpy 2.4.6), so a short class costs mostly per round, and the
shared first round saves the second route's.
Each point is folded into the standard fundamental domain first, so the
q-series runs at |q| <= exp(-pi sqrt(3)), where eleven terms of E2 leave a
tail below 1e-22 and the pentagonal series' tail, from q^12 on, is below
4.4e-29; from folded height 8.6 (_FLAT_HEIGHT) up the terms past q^0 of E2
and of _eta^24 are below 1e-22, so _q caps q's height there, and every row
of the fold holds one entry a node.  The fold (_reduce, called in _fold
alone) refuses a point whose height is not above the float spacing of its
real part; above that, its relative error is about 2^-52 |z| / Im z.

Both follow the axis of the exact conjugate of gamma whose top, the point
at t = 0, is the excursion of the first largest digit of the class's word,
the least even rotation of the period (as matrix_to_word writes it): the
continued-fraction walk's first reduced state (P, Q), walked on to that
digit, gives the fixed points +-(P +- sqrt(D)) / Q.  The axis, and so both
routes, depend on the conjugacy class alone.  A trace whose fixed points are
past the float range is refused before the walk.

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

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import CapExceeded, DomainError, QuadratureFailure
from .geodesics import _least_even_rotation, _reduced_cycle
from .matrices import Mat2, geodesic_length, short_int

__all__ = [
    "WindingResult",
    "SERIES_TERMS",
    "E2HOL_SERIES",
    "delta_eval",
    "e2_completed",
    "axis_point",
    "winding_index",
    "e2_period",
]

# With y >= sqrt(3)/2 after reduction, |q| <= exp(-pi sqrt(3)) ~ 4.33e-3.  E2 is summed
# by Horner's rule to q^SERIES_TERMS, leaving a tail sum |c_n| |q|^n of 3e-26 (2.9e-24
# at 10 terms); Delta/q is _eta^24, whose q-expansion needs 11 terms for a tail below
# 1e-22 (2.5e-23).  11 are kept, so that E2's bits, and every pinned period, stay.
SERIES_TERMS = 11
# From this folded height y up, |q| = e^(-2 pi y) leaves the terms past q^0 of E2 and
# of _eta^24 below 1e-22 in sum: 8.2e-23 (about 24 |q|), where 8.5 leaves 1.5e-22.
# _q caps q's height here, so that no product in _horner or _eta is subnormal.
_FLAT_HEIGHT = 8.6

_TWO_PI = 2.0 * math.pi
# The bounds of a class's first step (_FIRST_STEPS), which set only the cost.
# _BASE_STEP leaves heights up to 4.9 unsplit, as h (_E2_RATE 4.9 e^(h/2) - 6) < pi/2
# for h up to 0.0542.  At _MAX_STEP e2_period's first check still settles on every
# class of T <= 11 (at 0.2, 957 of the 5,961 doubled its grid).
_BASE_STEP = 0.054
_MAX_STEP = 0.15
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
# Nodes per class of either route: 2^19 nodes hold a cusp excursion off the cusp
# zone (a second large digit) of about 116,000 turns of Delta (about 4.5 nodes
# per turn).  A first round is the uniform grid alone, at most 13,147 nodes.
_MAX_NODES = 1 << 19
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


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


# The integer q-expansion coefficients c_0 .. c_N of the holomorphic part of E2,
# which e2_period sums by Horner's rule; winding_index takes Delta/q as _eta^24.
E2HOL_SERIES = (1, *(-24 * _sigma1(n) for n in range(1, SERIES_TERMS + 1)))
# E2's coefficients as complex128 scalars, q's dtype, for _horner: each of its
# in-place steps then takes numpy's loop for two complex128 operands, which gives
# the bits of the integer coefficients about a fifth faster.
_E2HOL_C = tuple(map(np.complex128, E2HOL_SERIES))


def _eta(q):
    """1 - q - q^2 + q^5 + q^7 at each q, in 8 array passes: Euler's pentagonal series
    for prod (1 - q^n), whose next terms are -q^12 - q^15, so Delta/q = _eta^24 up to
    a relative 24 |q|^12 (1 + |q|^3 + ...), at most 1.1e-27 at the fold's largest |q|."""
    q2 = q * q
    acc = q2 + 1.0
    acc *= q2 * q
    acc -= 1.0
    acc *= q2
    acc -= q
    acc += 1.0
    return acc


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


def _q(z_red: np.ndarray) -> np.ndarray:
    """q = exp(2 pi i z_red) at each folded point, its height capped at _FLAT_HEIGHT:
    past the cap every term of either series past q^0 is below 1e-22 at both heights."""
    w = z_red.copy()
    np.minimum(w.imag, _FLAT_HEIGHT, out=w.imag)
    return np.exp(2j * math.pi * w)


def _fold(z: np.ndarray, dz: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(z_red, dz_red, q) at each point z with derivative dz, the one place that
    folds: _reduce, dz / j^2 and _q."""
    z_red, j = _reduce(z)
    return z_red, dz / (j * j), _q(z_red)


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
    step: float = _BASE_STEP  # the first round's step bound (_axis_for); the finest by default

    def at(self, t):
        """(z(t), dz/dt) at a float t or at each entry of an array t."""
        w = (1j if self.alpha > self.alpha_bar else -1j) * np.exp(t)
        den = w + 1.0
        z = (self.alpha * w + self.alpha_bar) / den
        return z, (self.alpha - self.alpha_bar) * w / (den * den)


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
    folds it.  The axis also carries the centre of both routes' window and the
    step bound of their first round, set by the largest digit a other than a_k:
    every reduced state's top is below height a_k/2 + 1, so off a_k's cusp zone
    the nodes are at reduced height below B = max(1, a/2 + 1) (_FIRST_STEPS).
    """
    t = gamma.trace
    try:
        root = math.sqrt(t * t - 4) if t > 2 else 0.0  # the walk refuses t <= 2
    except OverflowError:
        raise CapExceeded(f"fixed points of trace {short_int(t)} past the float range") from None
    P, Q, digits, _ = _reduced_cycle(t, gamma.a - gamma.d, 2 * gamma.c)
    r, _ = _least_even_rotation(digits)
    k = (r + (digits[r:] + digits[:r]).index(max(digits))) % len(digits)
    step = _FIRST_STEPS[min(sorted(digits)[-2], len(_FIRST_STEPS) - 1)]
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
    return _Axis(alpha, alpha_bar, ell, min(room, max(-room, balance)), step)


def axis_point(gamma: Mat2, t: float) -> Tuple[complex, complex]:
    """(z(t), dz/dt) at flow time t on the axis both routes follow: that of the exact
    conjugate of gamma whose top z(0) is the excursion of the first largest digit of
    the class's word."""
    z, dz = _first_round(gamma).axis.at(t)
    return complex(z), complex(dz)


def _in_chunks(fn, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """fn's rows over t, computed in slices of at most _CHUNK points and joined row by row."""
    if t.size <= _CHUNK:
        return fn(t)
    parts = [fn(t[k : k + _CHUNK]) for k in range(0, t.size, _CHUNK)]
    return tuple(np.concatenate(row) for row in zip(*parts))


def _nodes(axis: _Axis, t: np.ndarray) -> Tuple[np.ndarray, ...]:
    """_fold's rows at each t on the axis and |z| / Im z, the real scale of the fold's
    rounding: the rows of e2_period's rounds, the one place that forms the scale,
    which its witness alone reads."""
    z, dz = axis.at(t)
    return (*_fold(z, dz), np.abs(z) / z.imag)


def _arg_f(z_red, dz_red, q) -> Tuple[np.ndarray, np.ndarray]:
    """(arg F + 2 pi k, _eta) at each node, F = Delta(z_red) (dz_red/dt)^6 with
    Delta/q = _eta^24, from _fold's rows."""
    eta = _eta(q)
    arg = _TWO_PI * z_red.real + 24.0 * np.arctan2(eta.imag, eta.real)
    return arg + 6.0 * np.arctan2(dz_red.imag, dz_red.real), eta


def _e2_rows(z_red, dz_red, q) -> np.ndarray:
    """E2(z) dz/dt = E2(z_red) dz_red/dt at each node, from _fold's rows."""
    return (_horner(_E2HOL_C, q) - 3.0 / (math.pi * z_red.imag)) * dz_red


def delta_eval(z: complex) -> Tuple[float, float]:
    """(log |Delta(z)|, arg Delta(z) in [-pi, pi]): the routes' fold at dz/dt = 1, where
    (dz_red)^6 = j^-12, so F = Delta(z_red) j^-12 = Delta(z).  |Delta| underflows double
    precision already for y around 230, so the modulus is only exposed as its logarithm."""
    z_red, dz_red, q = _fold(np.array([z], dtype=complex), np.ones(1, dtype=complex))
    arg, eta = _arg_f(z_red, dz_red, q)
    log_abs = -_TWO_PI * z_red.imag + 24.0 * np.log(np.abs(eta)) + 6.0 * np.log(np.abs(dz_red))
    return float(log_abs[0]), float(_wrap(arg)[0])


def e2_completed(z: complex) -> complex:
    """Weight 2 completed Eisenstein series, q-series minus 3/(pi y): the routes'
    E2(z_red) dz_red/dt at dz/dt = 1, which is E2(z)."""
    return complex(_e2_rows(*_fold(np.array([z], dtype=complex), np.ones(1, dtype=complex)))[0])


def _top_turns(axis: _Axis, ta: float, tb: float) -> float:
    """The turns of 2 pi Re z + 6 arg z' from ta to tb in the cusp zone, in closed
    form: those of F less the change of arg Delta/q (winding_index)."""
    sigma = 1.0 if axis.alpha > axis.alpha_bar else -1.0
    top = 0.5 * abs(axis.alpha - axis.alpha_bar)
    width = top * (math.tanh(tb) - math.tanh(ta))
    return sigma * (width - 3.0 / math.pi * (math.atan(math.sinh(tb)) - math.atan(math.sinh(ta))))


def _ratio(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """h max(_E2_RATE B - 6, _RATE_FLOOR) / (pi/2) on each interval of the grid t, of
    width h, with B = max(y_l, sqrt(y_l y_r) e^(h/2)) from the reduced heights y at
    its nodes: an interval splits into floor of this plus one equal parts."""
    h = t[1:] - t[:-1]
    # y_l keeps the bound where rounding breaks sqrt(y_l y_r) e^(h/2) >= y_l
    bound = np.maximum(y[:-1], np.sqrt(y[:-1] * y[1:]) * np.exp(0.5 * h))
    return h * np.maximum(_E2_RATE * bound - 6.0, _RATE_FLOOR) / (0.5 * math.pi)


def _may_split(top: float, h: float) -> bool:
    """False where no interval of a grid of steps up to h whose nodes are at reduced
    height up to top can split: every B is at most top e^(h/2), so one max shows it."""
    rate = _E2_RATE * top * math.exp(0.5 * h) - 6.0
    return h * max(rate, _RATE_FLOOR) >= 0.5 * math.pi


def _largest_step(top: float) -> float:
    """The largest step h in [_BASE_STEP, _MAX_STEP], to 1e-12, at which no interval
    whose nodes are at reduced height up to top may split (_may_split)."""
    lo, hi = _BASE_STEP, _MAX_STEP
    if not _may_split(top, hi):
        return hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _may_split(top, mid) else (mid, hi)
    return lo


# The first round's step bound by the largest digit a other than the top one:
# _largest_step(max(1, a/2 + 1)).  From a = 8 on, B >= 5, it is _BASE_STEP.
_FIRST_STEPS = tuple(_largest_step(max(1.0, 0.5 * a + 1.0)) for a in range(9))


def _split(t: np.ndarray, ratio: np.ndarray):
    """(the split grid, the places of t's nodes in it) with interval k of the grid t in
    floor(ratio[k]) + 1 equal parts, or None where no ratio reaches 1.  More than
    _MAX_NODES nodes raise CapExceeded before any of them is evaluated."""
    if ratio.max() < 1.0:
        return None
    # node k moves to place bounds[k], with the new nodes evenly between
    bounds = np.concatenate(([0.0], np.cumsum(np.floor(ratio) + 1.0)))  # floats: not wrapped
    if bounds[-1] + 1 > _MAX_NODES:
        raise CapExceeded(f"winding grid needs {bounds[-1] + 1:.0f} nodes (cap {_MAX_NODES})")
    return np.interp(np.arange(bounds[-1] + 1), bounds, t), bounds.astype(np.intp)


class _Round:
    """The first round of both routes on one class, only what both read: its axis,
    the uniform periodic grid t_k = lo + k h over the window, h = l / m <= axis.step,
    k = 0..m (t, lo, h), and the rows of _nodes at t, folded on their first read
    (nodes).  Each array is read-only."""

    def __init__(self, axis: _Axis):
        self.axis = axis
        ell = axis.length
        # at most 13,146 intervals, as l < 709.79 (the axis refuses t^2 - 4 past the
        # float range) and the step is at least _BASE_STEP: far below the node cap, so
        # only the split is checked against it
        self.m = m = 2 * math.ceil(0.5 * ell / axis.step)
        self.lo, self.h = lo, h = axis.balance - 0.5 * ell, ell / m
        self.t = lo + h * np.arange(m + 1.0)
        self.t.flags.writeable = False

    @functools.cached_property
    def nodes(self) -> Tuple[np.ndarray, ...]:
        """(z_red, dz_red/dt, q, |z| / Im z) at t, from _nodes in one batch: a first
        grid has at most 13,147 nodes, below _CHUNK."""
        rows = _nodes(self.axis, self.t)
        for row in rows:
            row.flags.writeable = False
        return rows


@functools.lru_cache(maxsize=1)
def _first_round(gamma: Mat2) -> _Round:
    """The first round of the class of gamma, kept for the last matrix, as every
    caller runs both routes on one class back to back; a refusal of the axis or of
    the fold is raised again on every call."""
    return _Round(_axis_for(gamma))


def _cusp_zone(rnd: _Round) -> Tuple[int, int, float]:
    """winding_index's plan on its first round, made before any node is evaluated:
    (i0, i1, turns), the places of the first and last grid nodes of the cusp zone,
    where the axis runs at height 1 or more, taken one step inside ((0, 0, 0.0)
    where fewer than two are), and the closed form of the turns of
    2 pi Re z + 6 arg z' between them (_top_turns).  A flat top past the float
    resolution of those turns raises CapExceeded."""
    axis, lo, h = rnd.axis, rnd.lo, rnd.h
    top = 0.5 * abs(axis.alpha - axis.alpha_bar)
    if 2.0**-49 * top > 0.1 * _RESIDUAL_LIMIT:
        raise CapExceeded(f"flat top of height {top:.3g} past the float resolution of its turns")
    # grid nodes k with lo + k h in [-acosh R, acosh R], where Im z(t) >= 1, one more
    # step inside at either end so that rounding cannot let one out (none for R <= 1)
    c = math.acosh(max(top, 1.0))
    i0, i1 = max(0, math.ceil((-c - lo) / h) + 1), min(rnd.m, math.floor((c - lo) / h) - 1)
    return (i0, i1, _top_turns(axis, float(rnd.t[i0]), float(rnd.t[i1]))) if i1 > i0 else (0, 0, 0.0)


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
    bounds y_red over an interval of width h, and a split cuts each interval
    into floor(h max(6.9452 B - 6, 1.132) / (pi/2)) + 1 equal parts (_ratio).

    The grid is the first round's (_Round): the uniform periodic grid of the
    class's own step, node m closing the period.  Where Im z(t) >= 1 the fold
    is a translation alone (|w| >= Im w >= 1 after it), so
    y_red = Im z(t) = R / cosh t exactly, and below height 1 y_red >= Im z.
    The cusp zone, between the grid's nodes i0 and i1 at height 1 or more, is
    not stepped through (below).  The remaining intervals are those with a
    node below height 1: the window's two ends, |t| > acosh R, each with the
    interval that crosses into the zone (every interval where there is no
    zone).  Only these are split, on the folded
    heights at their nodes, and only the new nodes are evaluated, in a second
    round; this finds nothing to split unless an excursion stays below height
    1 on the axis, or the step set from the digits (_axis_for) is too coarse
    for the heights met, as the check reads the round's own step.  An
    increment of pi/2 or more could hide a turn, so it raises
    QuadratureFailure; on this grid only evaluation error can cause one.

    The cusp zone is taken in closed form.  On the axis Im z(t) = R / cosh t
    exactly, R = |alpha - alpha_bar| / 2 the top height, so Im z >= 1 exactly
    on [-c, c], c = acosh R.  There the fold is a translation (j = 1), so
    arg F = 2 pi Re z + arg Delta/q + 6 arg z'.  On the semicircle of centre x,
    z(t) = x + sigma R tanh t + i R / cosh t and z'(t) = sigma R sech t
    (sech t - sigma i tanh t), so arg z' = const - sigma gd t with
    gd t = atan(sinh t), and between the zone's nodes t_i0 <= t_i1 the first
    and last terms turn by sigma (R (tanh t_i1 - tanh t_i0) -
    (3 / pi) (gd t_i1 - gd t_i0)), sigma = sign(alpha - alpha_bar) (_top_turns);
    at -c, c this is sigma (2 sqrt(R^2 - 1) - 3 + (6 / pi) asin(1 / R)).  There
    |q| <= e^(-2 pi) too, so |arg Delta/q| <= |log Delta/q| <=
    24 sum -log(1 - e^(-2 pi n)) = 0.044944...: the principal arg Delta/q,
    24 times the principal arg _eta, is continuous on the zone, and its turns
    there are the change of its principal value between the zone's two nodes,
    which the round evaluated.
    The zone is one increment (of `steps`), and the grid's nodes inside it,
    which e2_period reads, are skipped.  i0 and i1 are one step inside
    [-c, c], so that rounding cannot let one out, and with fewer than two
    nodes there is no zone.  The rounding bound:
    alpha and alpha_bar have opposite signs (their product is -(D - P^2) / Q^2),
    so |z| <= 2R on the axis.  The nodes t_i0 and t_i1 are evaluated within
    about 2^-52 |z| <= 2^-51 R of z(t_i0) and z(t_i1), and the closed form is
    within about 2^-50 R of its value, so the term is within about 2^-49 R
    turns of the change between those nodes.  Where that could exceed a tenth
    of _RESIDUAL_LIMIT, for R above 5.6e10, CapExceeded is raised before any
    node is evaluated, on every call.  A split past _MAX_NODES raises it before
    any node that the split adds is evaluated.
    """
    rnd = _first_round(gamma)
    i0, i1, turns = _cusp_zone(rnd)
    z_red, dz_red, q, _ = rnd.nodes
    (arg, eta), y, t = _arg_f(z_red, dz_red, q), z_red.imag, rnd.t
    if i1 > i0:
        # |arg Delta/q| <= 0.045 where Im z >= 1, so 24 times the principal arg _eta is
        # its principal value, continuous there
        turns += 24.0 * (cmath.phase(eta[i1]) - cmath.phase(eta[i0])) / _TWO_PI
    # only the intervals with a node below height 1 on the axis: [0, i0) and [i1, m)
    split = None
    if _may_split(max(y[: i0 + 1].max(), y[i1:].max()), rnd.h):
        ratio = np.zeros(rnd.m)
        for lo, hi in ((0, i0), (i1, rnd.m)):
            ratio[lo:hi] = _ratio(t[lo : hi + 1], y[lo : hi + 1])
        split = _split(t, ratio)
    if split:
        t, old = split
        fresh = np.ones(t.size, dtype=bool)
        fresh[old] = False
        first, arg = arg, np.empty(t.size)
        arg[old] = first
        arg[fresh] = _arg_f(*_in_chunks(lambda s: _fold(*rnd.axis.at(s)), t[fresh]))[0]
        i0, i1 = int(old[i0]), int(old[i1])
    inc = _wrap(arg[1:] - arg[:-1])
    steps = inc.size
    if i1 > i0:
        inc[i0:i1] = 0.0  # the zone, taken in closed form
        steps -= i1 - i0 - 1
    coarse = np.abs(inc) >= 0.5 * math.pi
    if coarse.any():
        raise QuadratureFailure(f"argument jump near t = {t[:-1][coarse][0]} for {gamma}")
    turns += float(inc.sum()) / _TWO_PI
    index = round(turns)
    residual = abs(turns - index)
    if residual >= _RESIDUAL_LIMIT:
        raise QuadratureFailure(f"winding total {turns} turns for {gamma}")
    return WindingResult(index=index, residual=residual, steps=steps)


def _trapezoid(gamma: Mat2) -> Tuple[complex, float]:
    """(period, rounding witness) of E2(z) dz over one loop of the axis of gamma.

    The integrand is l-periodic and real-analytic in t, so the trapezoidal
    rule over one period, on the routes' window centred at axis.balance,
    converges geometrically.  The first round's grid (_Round) has m uniform
    intervals of at most the axis's step, m even: its first m nodes give T_m and
    their even nodes T_(m/2).  The batches also sum the witness: the fold's
    relative error scale 2^-52 |z| / Im z times |E2(z) dz/dt|.  While
    |T_m - T_(m/2)| > max(_QUAD_TOL, witness) the grid doubles, one batch of
    midpoints a round, up to _MAX_NODES: a difference below the witness is
    rounding, which no doubling resolves.  A witness above _ROUNDING_BUDGET
    after any batch raises QuadratureFailure at once: more nodes refine the
    witness's integral but do not shrink it.
    """
    rnd = _first_round(gamma)
    axis, nodes, lo, h = rnd.axis, rnd.m, rnd.lo, rnd.h
    # the grid's first m nodes lead the round
    *rows, scale = (row[:nodes] for row in rnd.nodes)
    f = _e2_rows(*rows)
    coarse, total, scale_sum = 2.0 * h * f[::2].sum(), h * f.sum(), h * (scale * np.abs(f)).sum()
    while True:
        witness = _FLOAT_SPACING * scale_sum  # a power of 2 scales a sum exactly
        if witness > _ROUNDING_BUDGET:
            raise QuadratureFailure(f"rounding witness {witness:.1e} above budget for {gamma}")
        if abs(total - coarse) <= max(_QUAD_TOL, witness):
            return total, witness
        if 2 * nodes > _MAX_NODES:
            raise QuadratureFailure(f"trapezoid sums unsettled on {nodes} nodes for {gamma}")
        *rows, scale = _in_chunks(functools.partial(_nodes, axis), lo + h * np.arange(0.5, nodes))
        f = _e2_rows(*rows)
        scale_sum = 0.5 * (scale_sum + h * (scale * np.abs(f)).sum())
        coarse, total = total, 0.5 * (total + h * f.sum())
        nodes, h = 2 * nodes, 0.5 * h


def e2_period(gamma: Mat2) -> float:
    """Period of the closed 1-form E2(z) dz over one loop of the axis (_trapezoid),
    refused as soon as its rounding witness is above _ROUNDING_BUDGET."""
    total, _ = _trapezoid(gamma)
    # a guard: no input is known to reach it, even with the witness's budget lifted
    if abs(total.imag) > 1e-6:
        raise QuadratureFailure(f"period has imaginary part {total.imag} for {gamma}")
    return float(total.real)
