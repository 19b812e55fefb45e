import cmath
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modwind import rademacher
from modwind.errors import DomainError
from modwind.matrices import IDENTITY, Mat2, S, dedekind_sum, omega, sign0
from modwind.rademacher import (
    chi_r,
    phi_closed,
    phi_word,
    psi,
    psi_cf,
    psi_cocycle,
    s_symbol,
    word_factor_matrix,
)
from modwind.geodesics import is_primitive, matrix_to_word, word_to_matrix

from test_matrices import random_element


def fold(factors):
    """(phi, entries) of a product of generator powers; phi(T^n) = n, phi(S^n) = 0."""
    a, b, c, d = 1, 0, 0, 1
    phi = 0
    for kind, n in factors:
        fa, fb, fc, fd = word_factor_matrix((kind, n)).entries()
        prod_c = c * fa + d * fc
        phi += (n if kind == "T" else 0) - 3 * sign0(c * fc * prod_c)
        a, b, c, d = a * fa + b * fc, a * fb + b * fd, prod_c, c * fb + d * fd
    return phi, (a, b, c, d)


def ts_factors(gamma):
    """The T/S word that psi_cocycle peels off gamma: T^n S while c != 0, then +-T^m.

    With fold, the two-pass reference for psi_cocycle: the word is built as a
    list, folded once to check its product against gamma and again for phi.
    """
    factors = []
    a, b, c, d = gamma.entries()
    while c != 0:
        n = (2 * a + c) // (2 * c)
        a, b, c, d = c, d, n * c - a, n * d - b
        factors += [("T", n), ("S", 1)]
    if a == -1:
        factors.append(("S", 2))  # -T^m = S^2 T^-m
        b = -b
    if b:
        factors.append(("T", b))
    if fold(factors)[1] != gamma.entries():
        raise ValueError(f"T/S decomposition check failed for {gamma}")
    return factors


def reference_psi_cocycle(gamma):
    return fold(ts_factors(gamma))[0] - 3 * sign0(gamma.c * gamma.trace)


class TestPhiClosed:
    def test_translations(self):
        for a in range(-5, 6):
            assert phi_closed(Mat2(1, a, 0, 1)) == a

    def test_small_hyperbolic(self):
        assert phi_closed(Mat2(3, 1, 2, 1)) == 2

    def test_plus_minus_identity(self):
        assert phi_closed(IDENTITY) == 0
        assert phi_closed(-IDENTITY) == 0

    def test_reference_value(self):
        # (a+d)/c - 12 sign(c) s(d, |c|) = 23/7 - 12 * s(1, 7)
        assert phi_closed(Mat2(22, 3, 7, 1)) == -1

    def test_matches_dedekind_sum(self):
        # d^-1 mod |c| is read as a mod |c|; the closed form with s(d, |c|) from
        # dedekind_sum, which takes its inverse by pow, agrees on both signs of c
        rng = random.Random(29)
        big = Mat2(1, 2**70 + 1, 0, 1)
        signs = set()
        for i in range(2000):
            g = random_element(rng, 12)
            if i % 4 == 0:
                g = big @ g @ S @ big.inverse()
            a, _, c, d = g.entries()
            if c == 0:
                continue
            signs.add(sign0(c))
            expect = (a + d - 12 * abs(c) * dedekind_sum(d, abs(c))) / c
            assert phi_closed(g) == expect, g
        assert signs == {1, -1}

    def test_wrong_euclid_quotients_caught_across_routes(self, monkeypatch):
        # a + d less any k (sum - c_n) + d % k + a % k is a multiple of k = |c|,
        # so a wrong quotient sum still divides exactly; only the other routes
        # see it: psi moves by 1 where the Euclid pass takes an odd count
        def quotients_plus_one(h, k, h_inv):
            if k == 1:
                return 0
            total, sign, a, b = 0, 1, k, h
            while b:
                total += sign * (a // b + 1)
                a, b, sign = b, a % b, -sign
            return k * total + h + h_inv - k * (3 if sign < 0 else 1)

        rng = random.Random(47)
        cases = []
        for _ in range(300):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            conj = random_element(rng, 6)
            cases.append((w, conj @ word_to_matrix(w) @ conj.inverse()))
        assert all(psi(g) == psi_cocycle(g) == psi_cf(w) for w, g in cases)
        monkeypatch.setattr(rademacher, "_dedekind12", quotients_plus_one)
        wrong = [(w, g) for w, g in cases if psi(g) != psi_cf(w) or psi(g) != psi_cocycle(g)]
        assert len(wrong) > len(cases) // 4
        assert all(psi_cocycle(g) == psi_cf(w) for w, g in cases)


class TestPhiWord:
    def test_translation_word(self):
        assert phi_word([("T", 3)]) == 3

    def test_empty_word(self):
        assert phi_word([]) == 0

    def test_matches_closed_on_a1a2(self):
        factors = [("T", 1), ("S", 1), ("T", -2), ("S", -1)]
        g = IDENTITY
        for f in factors:
            g = g @ word_factor_matrix(f)
        assert g == Mat2(3, 1, 2, 1)
        assert phi_word(factors) == phi_closed(g) == 2

    def test_random_words(self):
        rng = random.Random(41)
        for _ in range(500):
            length = rng.randint(0, 12)
            factors = []
            g = IDENTITY
            for _ in range(length):
                if rng.random() < 0.6:
                    f = ("T", rng.randint(-6, 6))
                else:
                    f = ("S", rng.randint(-3, 3))
                factors.append(f)
                g = g @ word_factor_matrix(f)
            assert phi_word(factors) == phi_closed(g)


class TestPsi:
    def test_reference_value(self):
        assert psi(Mat2(22, 3, 7, 1)) == -4

    def test_translations(self):
        for a in range(-5, 6):
            assert psi(Mat2(1, a, 0, 1)) == a

    def test_inverse_negates(self):
        rng = random.Random(43)
        for _ in range(200):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 3)))
            g = word_to_matrix(w)
            assert psi(g.inverse()) == -psi(g)

    def test_minus_gamma(self):
        rng = random.Random(47)
        for _ in range(200):
            g = random_element(rng)
            assert psi(-g) == psi(g)

    def test_identity(self):
        assert psi(IDENTITY) == 0


class TestPsiCf:
    def test_reference_word(self):
        assert psi_cf((3, 7)) == -4
        assert psi_cf((7, 3)) == 4

    def test_inert_pair(self):
        assert psi_cf((1, 1)) == 0

    def test_doubled_odd_blocks_vanish(self):
        rng = random.Random(53)
        for _ in range(100):
            n = 2 * rng.randint(0, 3) + 1
            block = tuple(rng.randint(1, 9) for _ in range(n))
            assert psi_cf(block * 2) == 0

    def test_even_rotation_invariance(self):
        word = (2, 5, 1, 3, 4, 1)
        for k in range(0, 6, 2):
            assert psi_cf(word[k:] + word[:k]) == psi_cf(word)

    def test_rejects_odd_length(self):
        with pytest.raises(DomainError, match="^word length 3 is not a positive even number$"):
            psi_cf((1, 2, 3))
        with pytest.raises(DomainError, match="^word length 0 is not a positive even number$"):
            psi_cf(())

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="^entry 0 < 1$"):
            psi_cf((1, 0))

    def test_rejects_non_integral(self):
        # an alternating sum of floats is not a Rademacher symbol
        with pytest.raises(DomainError, match="integers"):
            psi_cf((2.5, 1))

    def test_float_matrix_refused(self):
        # its determinant is 1.0, so only the entries' type refuses it
        with pytest.raises(ValueError, match="integers"):
            psi(Mat2(2.0, 1.0, 1.0, 1.0))


class TestPsiCocycle:
    def test_reference_value(self):
        assert psi_cocycle(Mat2(22, 3, 7, 1)) == -4

    def test_matches_closed_form(self):
        rng = random.Random(59)
        for _ in range(500):
            g = random_element(rng)
            assert psi_cocycle(g) == psi(g)

    def test_entries_beyond_float_range(self):
        # a / c = 10^400 overflows a float division
        g = Mat2(10**400, 10**400 - 1, 1, 1)
        assert psi_cocycle(g) == psi(g)
        assert omega(g, g) == 0

    def test_s_powers(self):
        for n in range(-9, 10):
            assert word_factor_matrix(("S", n)) == S.power(n)
        with pytest.raises(ValueError):
            word_factor_matrix(("U", 1))

    def test_ts_factors_reconstruct(self):
        rng = random.Random(61)
        for _ in range(200):
            g = random_element(rng)
            acc = IDENTITY
            for f in ts_factors(g):
                acc = acc @ word_factor_matrix(f)
            assert acc == g


class TestSSymbol:
    def test_minus_identity(self):
        assert s_symbol(-IDENTITY) == -6

    def test_identity(self):
        assert s_symbol(IDENTITY) == 0

    def test_positive_trace_equals_psi(self):
        g = Mat2(22, 3, 7, 1)
        assert s_symbol(g) == psi(g) == -4

    def test_translations(self):
        for b in range(-4, 5):
            assert s_symbol(Mat2(1, b, 0, 1)) == b

    def test_negated_translations_match_the_cocycle(self):
        # S(-g) = S(-I) + S(g) + 12 omega(-I, g) on g = T^b
        for b in range(-50, 51):
            t = Mat2(1, b, 0, 1)
            assert s_symbol(-t) == -6 + b + 12 * omega(-IDENTITY, t)

    def test_psi_s_gap(self):
        rng = random.Random(67)
        for _ in range(300):
            g = random_element(rng)
            assert psi(g) - s_symbol(g) in (-6, -3, 0, 3, 6)

    def test_cocycle_relation(self):
        rng = random.Random(71)
        for _ in range(300):
            g = random_element(rng)
            h = random_element(rng)
            assert s_symbol(g @ h) - s_symbol(g) - s_symbol(h) == 12 * omega(g, h)


class TestChiR:
    def test_identity(self):
        for r in (0.0, 0.3, 1.0, 2.5, 12.0):
            assert chi_r(IDENTITY, r) == pytest.approx(1.0)

    def test_weight_twelve_trivial(self):
        rng = random.Random(73)
        for _ in range(100):
            g = random_element(rng)
            assert abs(chi_r(g, 12.0) - 1.0) < 1e-9

    def test_minus_identity(self):
        for r in (0.3, 1.0, 2.5):
            expected = cmath.exp(-1j * math.pi * r)
            assert abs(chi_r(-IDENTITY, r) - expected) < 1e-12

    def test_unit_modulus(self):
        rng = random.Random(79)
        for _ in range(100):
            g = random_element(rng)
            assert abs(abs(chi_r(g, 0.3)) - 1.0) < 1e-12

    def test_multiplier_law(self):
        rng = random.Random(83)
        for _ in range(200):
            g = random_element(rng)
            h = random_element(rng)
            w = omega(g, h)
            for r in (0.3, 1.0, 2.5):
                lhs = chi_r(g @ h, r)
                rhs = chi_r(g, r) * chi_r(h, r) * cmath.exp(2j * math.pi * r * w)
                assert abs(lhs - rhs) <= 1e-9


class TestSymbolValues:
    def test_bundle(self):
        g = Mat2(22, 3, 7, 1)
        assert (phi_closed(g), s_symbol(g), psi(g)) == (-1, -4, -4)

    def test_psi_relation(self):
        rng = random.Random(89)
        for _ in range(200):
            g = random_element(rng)
            assert psi(g) == phi_closed(g) - 3 * sign0(g.c * g.trace)


BIG = st.integers(-(2**70), 2**70)


@st.composite
def sl2_elements(draw):
    """+-T^n0 S T^n1 S ... T^nm, entries past 2^64, c = 0 when no S is drawn."""
    g = Mat2(1, draw(BIG), 0, 1)
    for n in draw(st.lists(BIG, max_size=4)):
        g = g @ S @ Mat2(1, n, 0, 1)
    return -g if draw(st.booleans()) else g


@st.composite
def small_c_elements(draw):
    """(a b; c d) with c = +-1 or +-2 and a, d past 2^64; at c = +-2, a / c is a tie."""
    c = draw(st.sampled_from([1, -1, 2, -2]))
    a, d = draw(BIG), draw(BIG)
    if abs(c) == 2:
        a, d = 2 * a + 1, 2 * d + 1
    return Mat2(a, (a * d - 1) // c, c, d)


DIGITS = st.integers(1, 2**66)
# even words, and doubled odd blocks (the inert classes)
WORDS = st.one_of(
    st.lists(st.tuples(DIGITS, DIGITS), min_size=1, max_size=3).map(lambda pairs: sum(pairs, ())),
    st.sampled_from([1, 3]).flatmap(lambda n: st.lists(DIGITS, min_size=n, max_size=n)).map(
        lambda block: tuple(block * 2)
    ),
)


class TestProperties:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.one_of(sl2_elements(), small_c_elements()))
    @example(Mat2(10**400, 10**400 - 1, 1, 1))
    @example(Mat2(2, 1, -1, 0))
    @example(Mat2(3, 1, 2, 1))  # a / c = 3/2 rounds up to 2
    @example(Mat2(-5, 2, 2, -1))  # -5/2 rounds up to -2
    @example(Mat2(-3, 2, -2, 1))  # 3/2 at c < 0
    def test_routes_one_and_two_agree(self, g):
        assert psi_cocycle(g) == psi(g) == reference_psi_cocycle(g)
        assert phi_word(ts_factors(g)) == phi_closed(g)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sl2_elements())
    def test_minus_gamma(self, g):
        assert psi(-g) == psi(g)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sl2_elements(), sl2_elements())
    def test_s_cocycle(self, g, h):
        assert s_symbol(g @ h) - s_symbol(g) - s_symbol(h) == 12 * omega(g, h)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(WORDS, sl2_elements())
    def test_route_three_on_primitive_hyperbolics(self, word, tau):
        assume(is_primitive(word))
        g = tau @ word_to_matrix(word) @ tau.inverse()
        assert psi(g) == psi(-g) == psi_cf(matrix_to_word(g if g.trace > 0 else -g))
        assert psi(g) == psi_cf(word)
