"""Rademacher and Dedekind symbols on SL(2,Z), by mutually independent routes.

phi_closed uses the classical closed form with Dedekind sums; phi_word folds
the quasimorphism defect over a generator word.  Their agreement is the main
cross-validation and is enforced by the test suite, never assumed here.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Tuple

from .errors import NonIntegralPhi
from .geodesics import validate_entries
from .matrices import Mat2, _dedekind12, _integer, sign0

__all__ = [
    "phi_closed",
    "phi_word",
    "psi",
    "psi_cf",
    "s_symbol",
    "chi_r",
    "word_factor_matrix",
    "psi_cocycle",
]

# area of the modular orbifold is pi/3, so pi/V = 3 and 4*pi/V = 12
_PI_OVER_V = 3


def phi_closed(gamma: Mat2) -> int:
    """Dedekind symbol (a+d)/c - 12 sign(c) s(d,|c|) for c != 0, else b/d.

    For c != 0 this is (a + d - 12 |c| s(d, |c|)) / c, an exact integer
    division, since 12 |c| s(d, |c|) is an integer and gcd(d, c) = 1.
    """
    a, b, c, d = gamma.entries()
    if c == 0:
        return b * d  # d = +-1
    phi, rem = divmod(a + d - _dedekind12(d % abs(c), abs(c)), c)
    if rem:
        raise NonIntegralPhi(f"phi({gamma}) is not an integer")
    return phi


# S^n for n mod 4: I, S, -I, -S
_S_POWERS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def _factor_entries(kind: str, n: int) -> Tuple[int, int, int, int]:
    if kind == "T":
        return 1, n, 0, 1
    if kind == "S":
        return _S_POWERS[n % 4]
    raise ValueError(f"unknown generator {kind!r}")


def word_factor_matrix(factor: Tuple[str, int]) -> Mat2:
    """Matrix of a single generator power ('T', n) or ('S', n)."""
    return Mat2(*_factor_entries(*factor))


def phi_word(factors: Iterable[Tuple[str, int]]) -> int:
    """Dedekind symbol by folding phi(gh) = phi(g) + phi(h) - 3 sign(c_g c_h c_gh).

    The defect reads only c, and a product's bottom row only its left factor's,
    so the fold keeps the running c and d alone.  Each exponent is converted
    once, so numpy integers give a Python int.
    """
    c, d, phi = 0, 1, 0
    for kind, n in factors:
        n = _integer(n, "exponents")
        fa, fb, fc, fd = _factor_entries(kind, n)
        prod_c = c * fa + d * fc
        phi += (n if kind == "T" else 0) - 3 * sign0(c * fc * prod_c)
        c, d = prod_c, c * fb + d * fd
    return phi


def psi_cocycle(gamma: Mat2) -> int:
    """Rademacher symbol with phi folded over the T/S factors of gamma in one pass.

    Peels T^n S from the left, (a, b, c, d) -> S^-1 T^-n (a, b, c, d) =
    (c, d, n c - a, n d - b) with n the nearest integer to a/c, a rounded
    Euclid step that at least halves |c|, until c = 0; the remainder R is
    +-T^m with phi(R) = b d.  As phi(T^n S) = n and c(T^n S) = 1, the defect
    gives phi(T^n S R) = n + phi(R) - 3 sign(c_R c), so each step adds
    n - 3 sign(c_R c).  The peeled exponents are multiplied back onto R and
    the product is checked against the input.
    """
    a, b, c, d = gamma.entries()
    phi, steps = 0, []
    while c != 0:
        n = (2 * a + c) // (2 * c)
        next_c = n * c - a
        phi += n - 3 * sign0(next_c * c)
        a, b, c, d = c, d, next_c, n * d - b
        steps.append(n)
    phi += b * d
    for n in reversed(steps):  # T^n S (a b; c d) = (n a - c, n b - d; a, b)
        a, b, c, d = n * a - c, n * b - d, a, b
    if (a, b, c, d) != gamma.entries():
        raise ValueError(f"T/S decomposition check failed for {gamma}")
    return phi - 3 * sign0(gamma.c * gamma.trace)


def psi(gamma: Mat2) -> int:
    """Rademacher symbol psi = phi - 3 sign(c (a+d))."""
    return phi_closed(gamma) - 3 * sign0(gamma.c * gamma.trace)


def psi_cf(word) -> int:
    """Rademacher symbol of an A-word as the alternating sum a1 - a2 + ... - a2n.

    Accepts a CyclicWord, taken as checked, or any even-length sequence of positive
    integers, converted by validate_entries.  Even rotations leave the sum unchanged.
    """
    entries = validate_entries(word)
    return sum(entries[::2]) - sum(entries[1::2])


def s_symbol(gamma: Mat2) -> int:
    """The second Dedekind symbol S, from psi via the trace-sign corrections.

    For c != 0 the three trace-sign cases invert the psi-S relation.  For
    c = 0 gamma is T^b, with S(T^b) = b, or -T^-b: the cocycle
    S(-g) = S(-I) + S(g) + 12 omega(-I, g) with S(-I) = -6 and
    omega(-I, T^-b) = 0 (quarter turns 2 + 0 - 2) gives S(-T^-b) = -6 - b.
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
    return -2 * _PI_OVER_V - gamma.b  # gamma = -T^-b


def chi_r(gamma: Mat2, r: float) -> complex:
    """Weight-r multiplier system value exp(i pi r S(gamma) / 6)."""
    return cmath.exp(1j * math.pi * r * s_symbol(gamma) / 6.0)
