import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modwind import winding
from modwind.errors import DomainError, NotHyperbolic
from modwind.geodesics import word_to_matrix
from modwind.matrices import (
    IDENTITY,
    Mat2,
    S,
    T,
    dedekind_sum,
    dedekind_sum_direct,
    geodesic_length,
    omega,
    sawtooth,
    short_int,
    short_real,
    sign0,
)


def random_element(rng, max_factors=8):
    g = IDENTITY
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            g = g @ Mat2(1, rng.randint(-5, 5), 0, 1)
        else:
            g = g @ S
    if rng.random() < 0.5:
        g = -g
    return g


class TestMat2:
    def test_identity_product(self):
        assert IDENTITY @ IDENTITY == IDENTITY

    def test_generator_product(self):
        # A_3 A_7 with A_a = (a 1; 1 0): determinant -1 factors, product in SL2
        left = (3, 1, 1, 0)
        right = (7, 1, 1, 0)
        prod = (
            left[0] * right[0] + left[1] * right[2],
            left[0] * right[1] + left[1] * right[3],
            left[2] * right[0] + left[3] * right[2],
            left[2] * right[1] + left[3] * right[3],
        )
        assert prod == (22, 3, 7, 1)
        assert Mat2(*prod).trace == 23

    def test_determinant_checked(self):
        with pytest.raises(ValueError):
            Mat2(1, 1, 1, 1)
        with pytest.raises(ValueError):
            Mat2(2, 0, 0, 2)

    def test_non_integral_entries_refused(self):
        # each has determinant 1, so only the entries' type refuses it
        for entries in ((2.0, 1.0, 1.0, 1.0), (Fraction(3, 2), 1, 2, 2), (1, 0, 0, True + 0.0)):
            with pytest.raises(ValueError, match="integers"):
                Mat2(*entries)

    def test_inverse_roundtrip(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_element(rng)
            assert g @ g.inverse() == IDENTITY
            assert g.inverse() @ g == IDENTITY

    def test_power(self):
        g = Mat2(2, 1, 1, 1)
        assert g.power(0) == IDENTITY
        assert g.power(1) == g
        assert g.power(3) == g @ g @ g
        assert g.power(-2) == (g @ g).inverse()

    def test_neg_and_trace(self):
        g = Mat2(2, 1, 1, 1)
        assert (-g).trace == -3
        assert (-g).entries() == (-2, -1, -1, -1)
        assert T.trace == 2

    def test_repr_of_huge_entries(self):
        # str() of an int with more than 4,300 digits raises ValueError
        g = Mat2(1, 2**20000, 0, 1)
        assert repr(-g) == "Mat2(a=-1, b=-<20001-bit int>, c=0, d=-1)"
        assert str(Mat2(22, 3, 7, 1)) == "Mat2(a=22, b=3, c=7, d=1)"
        assert short_int(2**256) == "<257-bit int>"
        assert short_int(-(2**256 - 1)) == str(-(2**256 - 1))
        # str() of a Fraction formats its numerator and denominator in full
        assert short_real(Fraction(10**5000)) == "<Fraction past the float range>"
        assert short_real(Fraction(-(10**5000), 3)) == "-<Fraction past the float range>"
        assert short_real(Fraction(37, 2)) == short_real(18.5) == "18.5"
        assert short_real(2**256) == "<257-bit int>"
        with pytest.raises(ValueError, match="bit int"):
            Mat2(2**20000, 1, 1, 1)


ENTRY_BOUND = 2**4096


@st.composite
def checked_matrices(draw):
    """A Mat2 built by the checked constructor, entries of up to about 4,096 bits:
    a random bottom row (c, d) made coprime, a = d^-1 mod c shifted by a multiple
    of c, and b = (ad - 1) / c; c = 0 gives +-T^b."""
    c, d = draw(st.integers(-ENTRY_BOUND, ENTRY_BOUND)), draw(st.integers(-ENTRY_BOUND, ENTRY_BOUND))
    if c == 0:
        d = 1 if d >= 0 else -1
        return Mat2(d, draw(st.integers(-ENTRY_BOUND, ENTRY_BOUND)), 0, d)
    g = math.gcd(c, d)
    c, d = c // g, d // g
    a = pow(d, -1, abs(c)) + draw(st.integers(-3, 3)) * c
    return Mat2(a, (a * d - 1) // c, c, d)


class TestDerivedMatricesUnchecked:
    """Products, negations, inverses and powers of checked matrices are built
    without the checks: each is still a Mat2 of Python ints that the checked
    constructor builds equal from its entries, so of det 1."""

    @staticmethod
    def check(m):
        assert type(m) is Mat2
        assert all(type(x) is int for x in m.entries())
        assert m == Mat2(*m.entries())

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(checked_matrices(), checked_matrices(), st.integers(-6, 6))
    def test_equal_to_checked_construction(self, g, h, n):
        for m in (g @ h, h @ g, -g, g.inverse(), g.power(n), h.power(-n)):
            self.check(m)
        assert (g @ h).entries() == (
            g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d, g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d
        )
        assert g @ g.inverse() == IDENTITY and -(-g) == g
        assert g.power(n) @ g.power(-n) == IDENTITY

    def test_numpy_entries_give_python_ints(self):
        g = Mat2(*np.array([2, 1, 1, 1], dtype=np.int64))
        for m in (g @ g, -g, g.inverse(), g.power(-5)):
            self.check(m)

    def test_large_entries_seen(self):
        # the strategy reaches the 4,096-bit bound
        bits = []

        @settings(max_examples=50, derandomize=True, deadline=None)
        @given(checked_matrices())
        def collect(g):
            bits.append(max(abs(x).bit_length() for x in g.entries()))

        collect()
        assert max(bits) >= 4000


class TestSawtooth:
    def test_integers_vanish(self):
        for n in range(-3, 4):
            assert sawtooth(Fraction(n)) == 0

    def test_values(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
        assert sawtooth(Fraction(3, 4)) == Fraction(1, 4)
        assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)

    def test_odd(self):
        rng = random.Random(5)
        for _ in range(50):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            assert sawtooth(-x) == -sawtooth(x)


def reference_dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) by the reciprocity recursion on exact rationals, after dividing out the gcd."""
    h %= k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk))/12  and  s(k,h) = s(k mod h, h)
    s = Fraction(0)
    sign = 1
    while h:
        s += sign * (Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12)
        sign = -sign
        h, k = k % h, h
    return s


def reciprocity_rhs(h: int, k: int) -> Fraction:
    return Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12


class TestDedekindSum:
    def test_empty_sum(self):
        assert dedekind_sum(0, 1) == 0

    def test_small_values(self):
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_mod_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 500)
            h = rng.randint(-1000, 1000)
            assert dedekind_sum(h, k) == dedekind_sum(h % k, k)

    def test_recursion_matches_direct(self):
        rng = random.Random(13)
        for _ in range(150):
            k = rng.randint(1, 200)
            h = rng.randint(0, k)
            assert dedekind_sum(h, k) == dedekind_sum_direct(h % k if k > 1 else 0, k)

    def test_non_coprime_matches_direct(self):
        # these pairs go through s(gh, gk) = s(h, k) before the recursion
        pairs = [(h, k) for k in range(1, 61) for h in range(k) if math.gcd(h, k) > 1]
        rng = random.Random(19)
        while len(pairs) < 800:
            k = rng.randint(2, 300)
            h = rng.randint(0, k - 1)
            if math.gcd(h, k) > 1:
                pairs.append((h, k))
        for h, k in pairs:
            assert dedekind_sum(h, k) == dedekind_sum_direct(h, k), (h, k)

    def test_non_coprime_is_fast(self):
        # a direct sum over 400,002 terms takes about 10 s
        start = time.perf_counter()
        value = dedekind_sum(2, 400002)
        assert time.perf_counter() - start < 0.1
        k = 200001  # s(1, k) = (k - 1)(k - 2) / (12 k)
        assert value == Fraction((k - 1) * (k - 2), 12 * k)

    def test_reciprocity(self):
        rng = random.Random(17)
        for _ in range(200):
            k = rng.randint(2, 2000)
            h = rng.randint(1, k - 1)
            if math.gcd(h, k) != 1:
                continue
            assert dedekind_sum(h, k) + dedekind_sum(k, h) == reciprocity_rhs(h, k)

    def test_matches_direct_on_every_small_pair(self):
        for k in range(1, 81):
            for h in range(k):
                assert dedekind_sum(h, k) == dedekind_sum_direct(h, k), (h, k)

    def test_matches_recursion_on_large_pairs(self):
        rng = random.Random(101)
        for _ in range(1000):
            k = rng.randint(1, 2 ** rng.randint(1, 80))
            h = rng.randint(-(2**80), 2**80) if rng.random() < 0.2 else rng.randint(0, k)
            assert dedekind_sum(h, k) == reference_dedekind_sum(h, k), (h, k)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2**64, 2**200), st.integers(1, 2**200))
    def test_reciprocity_past_two_to_the_64(self, k, h):
        assume(math.gcd(h, k) == 1)
        assert dedekind_sum(h, k) + dedekind_sum(k, h) == reciprocity_rhs(h, k)

    def test_modulus_guard(self):
        with pytest.raises(DomainError, match="^k = 0$"):
            dedekind_sum(1, 0)
        with pytest.raises(DomainError, match="^k = -2$"):
            dedekind_sum_direct(1, -2)


class TestOmega:
    def test_minus_identity_pair(self):
        assert omega(-IDENTITY, -IDENTITY) == 1

    def test_left_identity(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_element(rng)
            assert omega(IDENTITY, g) == 0

    def test_inverse_pairs(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_element(rng)
            assert omega(g, g.inverse()) in (0, 1)

    def test_cocycle_identity(self):
        rng = random.Random(31)
        for _ in range(200):
            g, h, l = (random_element(rng) for _ in range(3))
            assert omega(g, h) + omega(g @ h, l) == omega(g, h @ l) + omega(h, l)

    def test_matches_definition_on_small_entries(self):
        # every SL(2,Z) matrix with entries in -3..3, c = 0 and negative
        # diagonals included; the reference is the defining sum of principal
        # arguments at z = i, in floating point
        r = range(-3, 4)
        small = [
            Mat2(a, b, c, d)
            for a in r for b in r for c in r for d in r
            if a * d - b * c == 1
        ]
        assert len(small) == 116

        def j(m, z):
            return m.c * z + m.d

        for g in small:
            for h in small:
                hz = (h.a * 1j + h.b) / j(h, 1j)
                turns = (
                    cmath.phase(j(g, hz)) + cmath.phase(j(h, 1j)) - cmath.phase(j(g @ h, 1j))
                ) / (2 * math.pi)
                assert abs(turns - round(turns)) < 1e-9
                assert omega(g, h) == round(turns), (g, h)


class TestFixedPoints:
    # the fixed points of a matrix are read off by winding._axis_for, which takes
    # them at the exact conjugate whose top letter is the first largest digit k
    # of the class's word, the least even rotation of the period; a word product
    # is its own first reduced state, so that conjugate is the product of that
    # word rotated by k, conjugated by S T^-a (a the digit before) when k is odd

    def test_matches_rounded_exact_parts(self):
        # p + q sqrt(D) with the rationals p = (a - d)/(2c) and q = 1/(2c) of that
        # conjugate each rounded to a float once, and -2b / (a - d + sqrt(D)), the
        # other fixed point without the cancellation of p - q sqrt(D), bit for
        # bit; a third of the words carry a digit of 2^60 and more
        rng = random.Random(41)
        for i in range(2000):
            w = [rng.randint(1, 9) for _ in range(2 * rng.randint(1, 3))]
            if i % 3 == 0:
                w[rng.randrange(len(w))] = 2 ** (60 + i % 11)
            word = min(w[r:] + w[:r] for r in range(0, len(w), 2))
            k = word.index(max(word))
            g = word_to_matrix(tuple(word[k - k % 2 :] + word[: k - k % 2]))
            if k % 2:
                B = S @ T.power(-word[k - 1])
                g = B @ g @ B.inverse()
            p = float(Fraction(g.a - g.d, 2 * g.c))
            q = float(Fraction(1, 2 * g.c))
            root = math.sqrt(g.trace**2 - 4)
            axis = winding._axis_for(word_to_matrix(tuple(w)))
            assert (axis.alpha, axis.alpha_bar) == (p + q * root, -2 * g.b / (g.a - g.d + root))

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            winding._axis_for(T)
        with pytest.raises(NotHyperbolic):
            winding._axis_for(Mat2(1, 1, 0, 1))


class TestGeodesicLength:
    def test_smallest_trace(self):
        assert geodesic_length(3) == pytest.approx(2 * math.acosh(1.5), abs=1e-14)
        assert geodesic_length(3) == pytest.approx(1.9248473002, abs=1e-9)

    def test_boundary_rejected(self):
        for t in (-2, -1, 0, 1, 2):
            with pytest.raises(NotHyperbolic):
                geodesic_length(t)

    def test_trace_23(self):
        lam = (23 + math.sqrt(525)) / 2
        assert geodesic_length(23) == pytest.approx(2 * math.log(lam), abs=1e-12)

    def test_monotone(self):
        values = [geodesic_length(t) for t in range(3, 200)]
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sign_symmetric(self):
        assert geodesic_length(-5) == geodesic_length(5)

    @pytest.mark.parametrize("t", [2**1024, 10**400, -(10**400)])
    def test_past_the_float_range(self, t):
        # float(t) overflows here; the length is 2 log|t|
        assert geodesic_length(t) == 2.0 * math.log(abs(t))

    def test_log_form_agrees_from_2_27(self):
        # 2 acosh(t/2) = 2 log t - 2/t^2 + ..., so the forms meet to float rounding
        for e in range(27, 1024, 7):
            t = 2**e + 3
            assert geodesic_length(t) == pytest.approx(2.0 * math.log(t), rel=2**-52, abs=0.0)


def test_sign0():
    assert sign0(5) == 1
    assert sign0(-3) == -1
    assert sign0(0) == 0
