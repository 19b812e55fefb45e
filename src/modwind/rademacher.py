"""Rademacher and Dedekind symbols on SL(2,Z), by mutually independent routes.

phi_closed uses the classical closed form with Dedekind sums; phi_word folds
the quasimorphism defect over a generator word.  Their agreement is the main
cross-validation and is enforced by the test suite, never assumed here.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Tuple

from .errors import DomainError
from .geodesics import validate_entries
from .matrices import _PI_OVER_AREA, Mat2, _dedekind12, _integer, sign0

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

def _phi(a: int, b: int, c: int, d: int) -> int:
    """phi_closed on the entries of a matrix."""
    if c == 0:
        return b * d  # d = +-1
    k = abs(c)
    # exact: _dedekind12 is k (sum - c_n) + d % k + a % k, so a + d less it is a multiple of k
    return (a + d - _dedekind12(d % k, k, a % k)) // c


def phi_closed(gamma: Mat2) -> int:
    """Dedekind symbol (a+d)/c - 12 sign(c) s(d,|c|) for c != 0, else b/d.

    For c != 0 this is (a + d - 12 |c| s(d, |c|)) / c, an exact integer
    division: 12 |c| s(d, |c|) is an integer congruent to d + d^-1 mod c, and
    a = d^-1 mod c as ad - bc = 1, so d^-1 mod |c| is read as a mod |c|.
    """
    return _phi(gamma.a, gamma.b, gamma.c, gamma.d)


# S^n for n mod 4: I, S, -I, -S
_S_POWERS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def _factor_entries(kind: str, n: int) -> Tuple[int, int, int, int]:
    if kind == "T":
        return 1, n, 0, 1
    if kind == "S":
        return _S_POWERS[n % 4]
    raise DomainError(f"unknown generator {kind!r}")


def word_factor_matrix(factor: Tuple[str, int]) -> Mat2:
    """Matrix of a single generator power ('T', n) or ('S', n)."""
    kind, n = factor
    return Mat2(*_factor_entries(kind, _integer(n, "exponents")))


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
    entries = a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    phi, steps, trace_sign = 0, [], sign0(c * (a + d))
    while c != 0:
        n = (2 * a + c) // (2 * c)
        next_c = n * c - a
        phi += n - 3 * sign0(next_c * c)
        a, b, c, d = c, d, next_c, n * d - b
        steps.append(n)
    phi += b * d
    for n in reversed(steps):  # T^n S (a b; c d) = (n a - c, n b - d; a, b)
        a, b, c, d = n * a - c, n * b - d, a, b
    if (a, b, c, d) != entries:
        raise RuntimeError(f"T/S decomposition check failed for {gamma}")
    return phi - 3 * trace_sign


def _psi(a: int, b: int, c: int, d: int) -> int:
    """psi on the entries of a matrix."""
    return _phi(a, b, c, d) - 3 * sign0(c * (a + d))


def psi(gamma: Mat2) -> int:
    """Rademacher symbol psi = phi - 3 sign(c (a+d))."""
    return _psi(gamma.a, gamma.b, gamma.c, gamma.d)


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
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if c != 0:
        p, t = _psi(a, b, c, d), a + d
        if t > 0:
            return p
        if t == 0:
            return p - _PI_OVER_AREA * sign0(c)
        return p - 2 * _PI_OVER_AREA * sign0(c)
    if d > 0:
        return b  # gamma = T^b
    return -2 * _PI_OVER_AREA - b  # gamma = -T^-b


def chi_r(gamma: Mat2, r: float) -> complex:
    """Weight-r multiplier system value exp(i pi r S(gamma) / 6), 6 = 2 pi / V."""
    return cmath.exp(1j * math.pi * r * s_symbol(gamma) / (2 * _PI_OVER_AREA))
