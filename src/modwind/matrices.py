"""Exact arithmetic on SL(2,Z): matrices, Dedekind sums, the branch cocycle.

Everything is computed on Python integers, which do not overflow.  Rationals
appear only in the value of dedekind_sum and in its oracle; geodesic_length
returns a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .errors import DomainError, NotHyperbolic

__all__ = [
    "Mat2",
    "IDENTITY",
    "T",
    "S",
    "sawtooth",
    "dedekind_sum",
    "dedekind_sum_direct",
    "omega",
    "geodesic_length",
    "sign0",
    "short_int",
    "short_real",
]

# pi/V for the area V = pi/3 of the modular orbifold PSL(2,Z)\H, the one
# normalisation of the winding statistics and of chi_r.  An int, so 2 and 4
# times it are exact; 1/V is never formed, as 1 / (pi/3) is an ulp off 3/pi.
_PI_OVER_AREA = 3


def sign0(x) -> int:
    """Sign with sign0(0) = 0."""
    return (x > 0) - (x < 0)


def short_int(x: int) -> str:
    """x in decimal, or its sign and bit length past 256 bits (str() fails past 4,300 digits)."""
    if x.bit_length() <= 256:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


def short_real(x) -> str:
    """A real number for a message: an int by short_int, any other as a float, or
    its sign and kind past the float range (str() of a huge Fraction fails)."""
    if isinstance(x, int):
        return short_int(x)
    try:
        return repr(float(x))
    except OverflowError:
        return f"{'-' if x < 0 else ''}<{type(x).__name__} past the float range>"


def _integer(x, what: str) -> int:
    """x as a Python int by operator.index, or DomainError: `what` (a plural,
    the kind of x) must be integers."""
    try:
        return index(x)
    except TypeError:
        raise DomainError(f"{what} must be integers, not {x!r}") from None


@dataclass(frozen=True, init=False, repr=False, slots=True)
class Mat2:
    """Unimodular integer 2x2 matrix (a b; c d), det = 1 checked; entries stored as Python ints."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a, b, c, d):
        try:
            a, b, c, d = index(a), index(b), index(c), index(d)
        except TypeError:
            raise DomainError("matrix entries must be integers") from None
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if a * d - b * c != 1:
            raise DomainError(f"determinant is not 1: {self}")

    def __repr__(self) -> str:
        a, b, c, d = map(short_int, self.entries())
        return f"Mat2(a={a}, b={b}, c={c}, d={d})"

    @property
    def trace(self) -> int:
        return self.a + self.d

    # A product, negation or inverse of Python ints of det 1 is one too, so
    # these build their result unchecked (_mat2): each matrix is checked once.
    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self.a, self.b, self.c, self.d
        p, q, r, s = other.a, other.b, other.c, other.d
        return _mat2(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)

    def inverse(self) -> "Mat2":
        return _mat2(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Mat2":
        return _mat2(-self.a, -self.b, -self.c, -self.d)

    def power(self, n: int) -> "Mat2":
        n = _integer(n, "exponents")
        base = self
        if n < 0:
            base, n = self.inverse(), -n
        result = IDENTITY
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


_set_a, _set_b, _set_c, _set_d = Mat2.a.__set__, Mat2.b.__set__, Mat2.c.__set__, Mat2.d.__set__


def _mat2(a: int, b: int, c: int, d: int) -> Mat2:
    """Mat2(a, b, c, d) without its checks, for Python ints of det 1 derived
    from checked matrices; the slots' setters store past the frozen __setattr__."""
    m = object.__new__(Mat2)
    _set_a(m, a)
    _set_b(m, b)
    _set_c(m, c)
    _set_d(m, d)
    return m


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

    O(k); kept as the independent oracle for dedekind_sum, and takes h and k as
    dedekind_sum does.
    """
    h, k = _integer(h, "h and k"), _integer(k, "h and k")
    if k < 1:
        raise DomainError(f"k = {short_int(k)}")
    total = Fraction(0)
    for mu in range(1, k):
        total += sawtooth(Fraction(mu, k)) * sawtooth(Fraction(h * mu, k))
    return total


def _dedekind12(h: int, k: int, h_inv: int) -> int:
    """12 k s(h, k) for coprime 0 <= h < k, in one Euclid pass over k / h, with
    h_inv = h^-1 mod k in [0, k) from the caller.

    With a_1..a_n the Euclid quotients of k / h and h' = h_inv,
    12 k s(h, k) = k (a_1 - a_2 + ... +- a_n) + h + h' - k c_n, c_n = 3 for odd
    n and 1 for even n (Hickerson, J. reine angew. Math. 290, 1977; Knuth,
    TAOCP Vol. 2, 3.3.3).  Proof by induction on n, with G = 12 s.  n = 1:
    h = h' = 1, a_1 = k, and k G(1, k) = (k - 1)(k - 2).  n > 1: k = a_1 h + r
    with h >= 2, h / r has the quotients a_2..a_n, and r' = r^-1 = k^-1 mod h.
    Reciprocity G(h, k) + G(r, h) = h/k + k/h + 1/(hk) - 3 and the hypothesis
    give G(h, k) = a_1 - a_2 + ... + h/k + 1/(hk) - r'/h - 3 + c_(n-1).  As
    x = h h' + k r' is 1 mod hk with 0 < x < 2hk and h', r' >= 1, x = hk + 1,
    so 1/(hk) - r'/h = h'/k - 1 and c_n = 4 - c_(n-1).  k = 1 is the empty sum.

    The quotients are taken two at a time, the first added and the second
    subtracted, with a and b taking turns as the divisor; the remainder that
    ends the pass tells an odd n (c_n = 3) from an even one (c_n = 1).
    """
    if k == 1:
        return 0
    total, a, b = 0, k, h
    while True:
        total += a // b
        a %= b
        if not a:
            return k * (total - 3) + h + h_inv
        total -= b // a
        b %= a
        if not b:
            return k * (total - 1) + h + h_inv


def dedekind_sum(h: int, k: int) -> Fraction:
    """Dedekind sum s(h, k) of integers h, k, exact rational, from the integer form _dedekind12.

    Depends only on h mod k, and s(gh, gk) = s(h, k): summing over mu = nu + k m
    (nu mod k, m mod g), ((gh mu / gk)) = ((h nu / k)) does not depend on m, and
    sum_{m mod g} ((nu / gk + m / g)) = ((nu / k)) by the distribution relation.
    """
    h, k = _integer(h, "h and k"), _integer(k, "h and k")
    if k < 1:
        raise DomainError(f"k = {short_int(k)}")
    h %= k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    return Fraction(_dedekind12(h, k, pow(h, -1, k)), 12 * k)


def _quarter_turns(c: int, d: int) -> int:
    """arg(c z + d) in quarter turns, rounded: sign(c) if c != 0, else 0 (d > 0) or 2 (d < 0)."""
    if c:
        return 1 if c > 0 else -1
    return 0 if d > 0 else 2


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
    omega = floor((R + 1) / 4).  Only the bottom row of gh is read.
    """
    gh_c, gh_d = g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d
    turns = _quarter_turns(g.c, g.d) + _quarter_turns(h.c, h.d) - _quarter_turns(gh_c, gh_d)
    return (turns + 1) // 4


def geodesic_length(trace: int) -> float:
    """Length 2*arccosh(|t|/2) of the closed geodesic with matrix trace t.

    Past the float range of t / 2 it is 2 log|t|, which the arccosh form
    equals to float rounding from |t| of about 2^27 on.
    """
    trace = _integer(trace, "traces")
    if abs(trace) <= 2:
        raise NotHyperbolic(f"trace {trace}")
    try:
        return 2.0 * math.acosh(abs(trace) / 2.0)
    except OverflowError:
        return 2.0 * math.log(abs(trace))

