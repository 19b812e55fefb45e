"""Exact arithmetic on SL(2,Z): matrices, Dedekind sums, the branch cocycle, fixed points.

All operations are pure functions on immutable values.  Python integers are
arbitrary precision, so the "overflow must be detected" contract is satisfied
vacuously; the resource caps live in the enumeration layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import NonPositiveModulus, NotHyperbolic

__all__ = [
    "Mat2",
    "IDENTITY",
    "T",
    "S",
    "QuadraticIrrational",
    "FixedPointPair",
    "sawtooth",
    "dedekind_sum",
    "dedekind_sum_direct",
    "omega",
    "fixed_points",
    "geodesic_length",
    "sign0",
]


def sign0(x) -> int:
    """Sign with sign0(0) = 0."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Mat2:
    """Unimodular integer 2x2 matrix (a b; c d) with det = 1, checked on construction."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self}")

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def power(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse().power(-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)
T = Mat2(1, 1, 0, 1)
S = Mat2(0, -1, 1, 0)


def sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2 for non-integral x, 0 on integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum_direct(h: int, k: int) -> Fraction:
    """Dedekind sum by direct summation of sum_mu ((mu/k))((h mu/k)).

    O(k); kept as the independent oracle for the reciprocity recursion.
    """
    if k < 1:
        raise NonPositiveModulus(f"k = {k}")
    total = Fraction(0)
    for mu in range(1, k):
        total += sawtooth(Fraction(mu, k)) * sawtooth(Fraction(h * mu, k))
    return total


def dedekind_sum(h: int, k: int) -> Fraction:
    """Dedekind sum s(h, k), exact rational, via the reciprocity recursion.

    Depends only on h mod k, and s(gh, gk) = s(h, k): summing over mu = nu + k m
    (nu mod k, m mod g), ((gh mu / gk)) = ((h nu / k)) does not depend on m, and
    sum_{m mod g} ((nu / gk + m / g)) = ((nu / k)) by the distribution relation.
    """
    if k < 1:
        raise NonPositiveModulus(f"k = {k}")
    h %= k
    g = gcd(h, k)
    h, k = h // g, k // g
    # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12  and  s(k,h) = s(k mod h, h)
    s = Fraction(0)
    sign = 1
    while h:
        s += sign * (Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12)
        sign = -sign
        h, k = k % h, h
    return s


def _quarter_turns(m: Mat2) -> int:
    """arg j(m, z) in quarter turns, rounded: sign(c) if c != 0, else 0 (d > 0) or 2 (d < 0)."""
    if m.c:
        return 1 if m.c > 0 else -1
    return 0 if m.d > 0 else 2


def omega(g: Mat2, h: Mat2) -> int:
    """Branch cocycle (arg j(g,hz) + arg j(h,z) - arg j(gh,z)) / 2pi, principal args.

    The value is z-independent and lies in {-1, 0, 1}; it is decided from the
    signs of c and d alone (Kirby & Melvin, Math. Ann. 1994).  Since
    Im j(m, z) = c Im z, each arg lies strictly within a quarter turn of
    q(m) pi/2 when c != 0 and equals it when c = 0, with q = _quarter_turns.
    So 2 pi omega = R pi/2 + E with R = q(g) + q(h) - q(gh).  If no c is zero,
    R is odd and |E| < 3 pi/2; if one is zero, |E| < pi, so the integer omega
    forces R = 0 mod 4; if all are zero, E = 0.  Two c's are never the only
    zeros (upper triangular matrices form a group).  In every case
    omega = floor((R + 1) / 4).
    """
    return (_quarter_turns(g) + _quarter_turns(h) - _quarter_turns(g @ h) + 1) // 4


@dataclass(frozen=True)
class QuadraticIrrational:
    """Exact real algebraic number p + q*sqrt(D) with rational p, q and non-square D > 0."""

    p: Fraction
    q: Fraction
    D: int

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.D)


@dataclass(frozen=True)
class FixedPointPair:
    """Attracting (alpha) and repelling (alpha_bar) boundary fixed points of a hyperbolic matrix."""

    alpha: QuadraticIrrational
    alpha_bar: QuadraticIrrational


def fixed_points(gamma: Mat2) -> FixedPointPair:
    """Exact fixed points (a - d +- sqrt(tr^2 - 4)) / (2c), attracting one first."""
    t = gamma.trace
    if abs(t) <= 2 or gamma.c == 0:
        raise NotHyperbolic(f"{gamma} has trace {t}, c = {gamma.c}")
    D = t * t - 4
    p = Fraction(gamma.a - gamma.d, 2 * gamma.c)
    q = Fraction(1, 2 * gamma.c)
    plus = QuadraticIrrational(p, q, D)
    minus = QuadraticIrrational(p, -q, D)
    # c alpha + d is the eigenvalue at alpha; it exceeds 1 in modulus (attracting)
    # for the + root iff trace > 2.
    if t > 2:
        return FixedPointPair(plus, minus)
    return FixedPointPair(minus, plus)


def geodesic_length(trace: int) -> float:
    """Length 2*arccosh(|t|/2) of the closed geodesic with matrix trace t."""
    if abs(trace) <= 2:
        raise NotHyperbolic(f"trace {trace}")
    return 2.0 * math.acosh(abs(trace) / 2.0)


def floor_quadratic(P: int, Q: int, sqrt_floor: int) -> int:
    """floor((P + sqrt(D)) / Q) for non-square D with isqrt(D) = sqrt_floor."""
    if Q > 0:
        return (P + sqrt_floor) // Q
    # floor(-x) = -ceil(x); ceil is floor + 1 since sqrt(D) is irrational
    return -((P + sqrt_floor) // (-Q) + 1)


def isqrt_checked(D: int) -> int:
    s = isqrt(D)
    if s * s == D:
        raise ValueError(f"{D} is a perfect square")
    return s
