"""Rademacher and Dedekind symbols on SL(2,Z), by mutually independent routes.

phi_closed uses the classical closed form with Dedekind sums; phi_word folds
the quasimorphism defect over a generator word.  Their agreement is the main
cross-validation and is enforced by the test suite, never assumed here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import NonIntegralPhi
from .geodesics import validate_entries
from .matrices import IDENTITY, Mat2, S, dedekind_sum, omega, sign0

__all__ = [
    "phi_closed",
    "phi_word",
    "psi",
    "psi_cf",
    "s_symbol",
    "chi_r",
    "word_factor_matrix",
    "ts_factors",
    "psi_cocycle",
]

# area of the modular orbifold is pi/3, so pi/V = 3 and 4*pi/V = 12
_PI_OVER_V = 3


def phi_closed(gamma: Mat2) -> int:
    """Dedekind symbol: (a+d)/c - 12 sign(c) s(d,|c|) for c != 0, else b/d."""
    if gamma.c == 0:
        value = Fraction(gamma.b, gamma.d)
    else:
        value = Fraction(gamma.trace, gamma.c) - 12 * sign0(gamma.c) * dedekind_sum(
            gamma.d, abs(gamma.c)
        )
    if value.denominator != 1:
        raise NonIntegralPhi(f"phi({gamma}) = {value}")
    return int(value)


def word_factor_matrix(factor: Tuple[str, int]) -> Mat2:
    """Matrix of a single generator power ('T', n) or ('S', n)."""
    kind, n = factor
    if kind == "T":
        return Mat2(1, n, 0, 1)
    if kind == "S":
        return S.power(n)
    raise ValueError(f"unknown generator {kind!r}")


def _factor_phi(factor: Tuple[str, int]) -> int:
    # base values: phi(T^a) = a; every power of S (S, -I, -S, I) has phi = 0
    kind, n = factor
    return n if kind == "T" else 0


def phi_word(factors: Iterable[Tuple[str, int]]) -> int:
    """Dedekind symbol by folding phi(gh) = phi(g) + phi(h) - 3 sign(c_g c_h c_gh)."""
    acc = IDENTITY
    phi = 0
    for factor in factors:
        f = word_factor_matrix(factor)
        prod = acc @ f
        phi += _factor_phi(factor) - 3 * sign0(acc.c * f.c * prod.c)
        acc = prod
    return phi


def ts_factors(gamma: Mat2) -> list:
    """Decompose gamma as a word in T and S (S^2 = -I absorbs the sign).

    Peels T^n S from the left with n the nearest integer to a/c, a rounded
    Euclid step that at least halves |c|, until c = 0; the remainder is
    +-T^m.  The product is re-multiplied and checked against the input.
    """
    factors = []
    g = gamma
    s_inv = Mat2(0, 1, -1, 0)
    while g.c != 0:
        n = (2 * g.a + g.c) // (2 * g.c)
        g = s_inv @ Mat2(1, -n, 0, 1) @ g
        factors.append(("T", n))
        factors.append(("S", 1))
    if g.a == 1:
        if g.b:
            factors.append(("T", g.b))
    else:
        factors.append(("S", 2))
        if g.b:
            factors.append(("T", -g.b))
    check = IDENTITY
    for f in factors:
        check = check @ word_factor_matrix(f)
    if check != gamma:
        raise ValueError(f"T/S decomposition check failed for {gamma}")
    return factors


def psi_cocycle(gamma: Mat2) -> int:
    """Rademacher symbol with phi computed by cocycle folding over T/S factors."""
    return phi_word(ts_factors(gamma)) - 3 * sign0(gamma.c * gamma.trace)


def psi(gamma: Mat2) -> int:
    """Rademacher symbol psi = phi - 3 sign(c (a+d))."""
    return phi_closed(gamma) - 3 * sign0(gamma.c * gamma.trace)


def psi_cf(word) -> int:
    """Rademacher symbol of an A-word as the alternating sum a1 - a2 + ... - a2n.

    Accepts a CyclicWord or any even-length sequence of positive integers.
    Even rotations leave the alternating sum unchanged.
    """
    entries = tuple(word)
    validate_entries(entries)
    return sum(a if i % 2 == 0 else -a for i, a in enumerate(entries))


def s_symbol(gamma: Mat2) -> int:
    """The second Dedekind symbol S, from psi via the trace-sign corrections.

    For c != 0 the three trace-sign cases invert the psi-S relation; for c = 0
    with negative diagonal the cocycle S(-g) = S(-I) + S(g) + 12 omega(-I, g)
    extends from the positive-diagonal values S(T^b) = b, with S(-I) = -6.
    """
    t = gamma.trace
    if gamma.c != 0:
        p = psi(gamma)
        if t > 0:
            return p
        if t == 0:
            return p - _PI_OVER_V * sign0(gamma.c)
        return p - 2 * _PI_OVER_V * sign0(gamma.c)
    if gamma.d > 0:
        return gamma.b  # gamma = T^b
    neg = -gamma  # positive diagonal
    return -2 * _PI_OVER_V + neg.b + 12 * omega(-IDENTITY, neg)


def chi_r(gamma: Mat2, r: float) -> complex:
    """Weight-r multiplier system value exp(i pi r S(gamma) / 6)."""
    return cmath.exp(1j * math.pi * r * s_symbol(gamma) / 6.0)
