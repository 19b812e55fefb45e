"""Winding number of the discriminant form along closed geodesics.

Two independent numerical routes to the same integer:

* winding_index tracks the argument of F(t) = Delta(z(t)) z'(t)^6 along one
  period of the geodesic axis and counts full turns.  F is invariant under
  deck transformations, so it is literally periodic in t and the total
  argument change is an exact multiple of 2 pi up to discretisation error.
* e2_period integrates the closed 1-form E2(z) dz along the same loop, where
  E2 is the weight 2 completed Eisenstein series (the holomorphic q-series
  minus 3 / (pi y)).

Both evaluate the forms only after folding the point into the standard
fundamental domain, so the q-series always runs at |q| <= exp(-pi sqrt(3))
where forty terms leave a tail below 1e-22.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import (
    NonPositiveImaginary,
    NotHyperbolic,
    QuadratureFailure,
    ResidualTooLarge,
    StepTooCoarse,
)
from .matrices import Mat2, fixed_points, geodesic_length

__all__ = [
    "LogDeltaValue",
    "WindingResult",
    "SERIES_TERMS",
    "DELTA_SERIES",
    "E2HOL_SERIES",
    "reduce_to_fundamental",
    "delta_eval",
    "e2_completed",
    "axis_point",
    "winding_index",
    "e2_period",
]

# With y >= sqrt(3)/2 after reduction, |q| <= exp(-pi sqrt(3)) ~ 4.33e-3 and
# the truncated tail of either series is below |q|^41 * poly ~ 1e-22.
SERIES_TERMS = 40

_TWO_PI = 2.0 * math.pi
_BASE_STEP = 0.05
_HEIGHT_STEP = 0.15
_MAX_HALVINGS = 24
_RESIDUAL_LIMIT = 1e-3
_QUAD_TOL = 1e-9


def _horner(coeffs: Tuple[int, ...], q: complex) -> complex:
    """Sum of coeffs[n] q^n."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * q + c
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


def _reduce(z: complex) -> Tuple[complex, complex]:
    """(z_red, j): z folded into the fundamental domain by some (a b; c d) in
    SL(2,Z), and the automorphy factor j = c z + d of that matrix.

    The matrix is tracked as four ints: T^-n maps (a, b) to (a - n c, b - n d)
    and S maps (a, b, c, d) to (-c, -d, a, b).
    """
    if z.imag <= 0.0:
        raise NonPositiveImaginary(f"Im z = {z.imag}")
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(10000):
        n = round(w.real)
        if n:
            w = complex(w.real - n, w.imag)
            a, b = a - n * c, b - n * d
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            return w, c * z + d
    raise RuntimeError("fundamental domain reduction did not terminate")


def reduce_to_fundamental(z: complex) -> Tuple[complex, float, float]:
    """Fold z into the standard fundamental domain.

    Returns (z_reduced, arg_offset, log_scale) with
    Delta(z) = exp(log_scale + i arg_offset) * Delta(z_reduced).
    arg_offset is reported mod 2 pi; weight 12 kills the branch ambiguity of
    the individual principal arguments.
    """
    z_red, j = _reduce(z)
    return z_red, math.remainder(-12.0 * cmath.phase(j), _TWO_PI), -12.0 * math.log(abs(j))


@dataclass(frozen=True)
class LogDeltaValue:
    """log |Delta(z)| and arg Delta(z) mod 2 pi, stored separately.

    |Delta| underflows double precision already for y around 230, so the
    modulus is only ever exposed through its logarithm.
    """

    log_modulus: float
    arg_mod_2pi: float


def _delta_parts(z: complex) -> Tuple[float, float, float]:
    """(log|Delta|, wrapped arg, reduced height) at z."""
    z_red, j = _reduce(z)
    q = cmath.exp(2j * math.pi * z_red)
    tail = _horner(DELTA_SERIES, q)
    log_abs = -_TWO_PI * z_red.imag + math.log(abs(tail)) - 12.0 * math.log(abs(j))
    arg = _TWO_PI * z_red.real + cmath.phase(tail) - 12.0 * cmath.phase(j)
    return log_abs, math.remainder(arg, _TWO_PI), z_red.imag


def delta_eval(z: complex) -> LogDeltaValue:
    """Discriminant form in log form, exact in the modular transformation."""
    log_abs, arg, _ = _delta_parts(z)
    return LogDeltaValue(log_modulus=log_abs, arg_mod_2pi=arg)


def e2_completed(z: complex) -> complex:
    """Weight 2 completed Eisenstein series: q-series minus 3/(pi y), folded."""
    z_red, j = _reduce(z)
    q = cmath.exp(2j * math.pi * z_red)
    value = _horner(E2HOL_SERIES, q) - 3.0 / (math.pi * z_red.imag)
    return value / (j * j)


@dataclass(frozen=True)
class _Axis:
    """Geodesic axis z(t) = g(i e^t) with g = (alpha, s alpha_bar; 1, s).

    The column sign s = sign(alpha - alpha_bar) keeps det g > 0 so that g
    maps the upper half-plane to itself; either sign conjugates gamma to the
    same diagonal dilation, so z(t) runs from the repelling to the attracting
    fixed point at unit speed in both cases.
    """

    alpha: float
    alpha_bar: float
    sign: float
    length: float

    def point(self, t: float) -> complex:
        w = 1j * math.exp(t)
        return (self.alpha * w + self.sign * self.alpha_bar) / (w + self.sign)

    def velocity(self, t: float) -> complex:
        w = 1j * math.exp(t)
        den = w + self.sign
        return self.sign * (self.alpha - self.alpha_bar) * w / (den * den)


def _axis_for(gamma: Mat2) -> _Axis:
    if gamma.trace <= 2:
        raise NotHyperbolic(f"trace {gamma.trace} (need trace > 2)")
    fp = fixed_points(gamma)
    alpha = float(fp.alpha)
    alpha_bar = float(fp.alpha_bar)
    return _Axis(
        alpha=alpha,
        alpha_bar=alpha_bar,
        sign=1.0 if alpha > alpha_bar else -1.0,
        length=geodesic_length(gamma.trace),
    )


def axis_point(gamma: Mat2, t: float) -> Tuple[complex, complex]:
    """Axis point and velocity (z(t), dz/dt) at flow time t from z(0) = g(i)."""
    axis = _axis_for(gamma)
    return axis.point(t), axis.velocity(t)


@dataclass(frozen=True)
class WindingResult:
    index: int
    residual: float
    steps: int


def _wrapped_arg_f(axis: _Axis, t: float) -> Tuple[float, float]:
    """(arg F(t) mod 2 pi, reduced height) with F = Delta(z) z'(t)^6."""
    _, arg_delta, y_red = _delta_parts(axis.point(t))
    arg = arg_delta + 6.0 * cmath.phase(axis.velocity(t))
    return math.remainder(arg, _TWO_PI), y_red


def winding_index(gamma: Mat2, step_scale: float = 1.0) -> WindingResult:
    """Winding number of Delta(z) z'^6 around 0 over one period of the axis.

    The argument is unwrapped step by step; the step shrinks where the folded
    point sits high in the cusp (that is where the argument turns fastest,
    at rate about 2 pi y) and is halved on the spot whenever one increment
    reaches pi/2, so no turn can be skipped.  step_scale < 1 refines the
    base step; the reported index must not depend on it.
    """
    if not (0.0 < step_scale <= 1.0):
        raise ValueError(f"step_scale {step_scale} outside (0, 1]")
    axis = _axis_for(gamma)
    ell = axis.length
    total = 0.0
    steps = 0
    t = 0.0
    prev_arg, y_red = _wrapped_arg_f(axis, t)
    while t < ell:
        dt = step_scale * min(_BASE_STEP, _HEIGHT_STEP / max(1.0, y_red))
        for attempt in range(_MAX_HALVINGS + 1):
            t_next = min(t + dt, ell)
            cur_arg, cur_y = _wrapped_arg_f(axis, t_next)
            inc = math.remainder(cur_arg - prev_arg, _TWO_PI)
            if abs(inc) < 0.5 * math.pi:
                break
            dt *= 0.5
        else:
            raise StepTooCoarse(f"argument jump near t = {t} for {gamma}")
        total += inc
        prev_arg, y_red = cur_arg, cur_y
        t = t_next
        steps += 1
    turns = total / _TWO_PI
    index = round(turns)
    residual = abs(turns - index)
    if residual >= _RESIDUAL_LIMIT:
        raise ResidualTooLarge(f"winding total {turns} turns for {gamma}")
    return WindingResult(index=index, residual=residual, steps=steps)


def e2_period(gamma: Mat2) -> float:
    """Period of the closed 1-form E2(z) dz over one loop of the geodesic.

    The interval is cut into pieces of bounded length and each piece handed
    to adaptive quadrature; the integrand is smooth (the completed series is
    real-analytic across fold boundaries) but turns quickly inside cusp
    excursions.
    """
    from scipy.integrate import quad

    axis = _axis_for(gamma)
    ell = axis.length
    pieces = max(4, math.ceil(ell / 0.25))
    total = 0j

    def integrand(t: float) -> complex:
        return e2_completed(axis.point(t)) * axis.velocity(t)

    for k in range(pieces):
        a = ell * k / pieces
        b = ell * (k + 1) / pieces
        val, err = quad(integrand, a, b, epsabs=_QUAD_TOL, limit=200, complex_func=True)
        if max(err.real, err.imag) > 100 * _QUAD_TOL + 1e-12:
            raise QuadratureFailure(f"estimated error {err} on [{a}, {b}] for {gamma}")
        total += val
    if abs(total.imag) > 1e-6:
        raise QuadratureFailure(f"period has imaginary part {total.imag} for {gamma}")
    return total.real
