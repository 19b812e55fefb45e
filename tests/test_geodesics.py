import math
import random

import pytest

from modwind.errors import (
    CapExceeded,
    NonPositiveEntry,
    NotHyperbolic,
    NotPrimitive,
    OddLength,
)
from modwind.geodesics import (
    CyclicWord,
    MAX_LENGTH_BOUND,
    EnumerationConfig,
    brute_force_classes,
    canonical_form,
    enumerate_by_trace,
    enumerate_geodesics,
    is_primitive,
    matrix_to_word,
    trace_cap_for_length,
    word_to_matrix,
)
from modwind.matrices import Mat2, geodesic_length
from modwind.rademacher import psi, psi_cf


class TestCanonicalForm:
    def test_length_two_words_are_rigid(self):
        # the only even rotation of a length-2 word is the identity, so
        # (7,3) and (3,7) name different oriented classes
        assert canonical_form((7, 3)).entries == (7, 3)
        assert canonical_form((3, 7)).entries == (3, 7)

    def test_even_rotation_minimum(self):
        assert canonical_form((2, 1, 1, 3)).entries == (1, 3, 2, 1)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(200):
            w = tuple(rng.randint(1, 9) for _ in range(2 * rng.randint(1, 4)))
            c = canonical_form(w)
            assert canonical_form(c.entries).entries == c.entries

    def test_fixed_point(self):
        assert canonical_form((1, 1)).entries == (1, 1)

    def test_rejects_bad_words(self):
        with pytest.raises(OddLength):
            canonical_form((1, 2, 3))
        with pytest.raises(NonPositiveEntry):
            canonical_form((1, -2))
        with pytest.raises(ValueError):
            CyclicWord((2, 1, 1, 3))  # not the minimal even rotation


class TestIsPrimitive:
    def test_even_block_square(self):
        assert not is_primitive((1, 2, 1, 2))
        assert not is_primitive((3, 7, 3, 7, 3, 7))

    def test_doubled_odd_block_allowed(self):
        assert is_primitive((1, 1))
        assert is_primitive((2, 5, 3, 2, 5, 3))

    def test_length_two(self):
        assert is_primitive((3, 7))


class TestWordToMatrix:
    def test_examples(self):
        assert word_to_matrix((1, 1)) == Mat2(2, 1, 1, 1)
        assert word_to_matrix((3, 7)) == Mat2(22, 3, 7, 1)
        assert word_to_matrix((1, 2)) == Mat2(3, 1, 2, 1)

    def test_accepts_cyclic_word(self):
        assert word_to_matrix(canonical_form((3, 7))) == Mat2(22, 3, 7, 1)

    def test_rejects_odd(self):
        with pytest.raises(OddLength):
            word_to_matrix((3,))


class TestMatrixToWord:
    def test_examples(self):
        assert matrix_to_word(Mat2(2, 1, 1, 1)).entries == (1, 1)
        assert matrix_to_word(Mat2(22, 3, 7, 1)).entries == (3, 7)

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            matrix_to_word(Mat2(1, 1, 0, 1))

    def test_proper_power_rejected(self):
        g = word_to_matrix((1, 2))
        with pytest.raises(NotPrimitive):
            matrix_to_word(g @ g)
        with pytest.raises(NotPrimitive):
            matrix_to_word(g.power(3))

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            n = 2 * rng.randint(1, 3)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            if not is_primitive(w):
                continue
            g = word_to_matrix(w)
            tau = Mat2(1, rng.randint(-9, 9), 0, 1) @ Mat2(0, -1, 1, 0) @ Mat2(
                1, rng.randint(-9, 9), 0, 1
            )
            conj = tau @ g @ tau.inverse()
            assert matrix_to_word(conj).entries == canonical_form(w).entries

    def test_mirror_classes_distinct(self):
        assert matrix_to_word(word_to_matrix((1, 2))).entries == (1, 2)
        assert matrix_to_word(word_to_matrix((2, 1))).entries == (2, 1)


class TestTraceCap:
    def test_values(self):
        assert trace_cap_for_length(geodesic_length(5)) == 5
        assert trace_cap_for_length(14.0) == int(2 * math.cosh(7.0))
        # a bound equal to a trace's own length must admit that trace
        for n in range(3, trace_cap_for_length(MAX_LENGTH_BOUND) + 1):
            assert trace_cap_for_length(geodesic_length(n)) == n

    @pytest.mark.parametrize("n", [4, 9, 17])
    def test_boundary_included(self, n):
        t = geodesic_length(n)
        records = enumerate_geodesics(EnumerationConfig(max_length=t))
        assert max(r.trace for r in records) == n


class TestEnumerate:
    def test_cap_five(self):
        records = enumerate_by_trace(5)
        got = [(r.word.entries, r.trace, r.psi) for r in records]
        assert got == [
            ((1, 1), 3, 0),
            ((1, 2), 4, -1),
            ((2, 1), 4, 1),
            ((1, 3), 5, -2),
            ((3, 1), 5, 2),
        ]

    def test_records_consistent(self):
        records = enumerate_by_trace(40)
        for r in records:
            m = word_to_matrix(r.word)
            assert m.trace == r.trace
            assert r.length == pytest.approx(geodesic_length(r.trace))
            assert psi_cf(r.word) == psi(m) == r.psi

    def test_deterministic_order(self):
        records = enumerate_by_trace(25)
        keys = [(r.trace, r.word.entries) for r in records]
        assert keys == sorted(keys)

    def test_length_bound_guard(self):
        with pytest.raises(CapExceeded):
            EnumerationConfig(max_length=20.5)
        with pytest.raises(CapExceeded):
            EnumerationConfig(max_length=0.0)

    def test_growth_sane(self):
        records = enumerate_geodesics(EnumerationConfig(max_length=11.0))
        pi = lambda t: sum(1 for r in records if r.length <= t)
        counts = [pi(t) for t in (8.0, 9.0, 10.0, 11.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]


class TestBruteForce:
    def test_trace_three(self):
        assert [w.entries for w in brute_force_classes(3)] == [(1, 1)]

    def test_no_hyperbolic_below_three(self):
        assert brute_force_classes(2) == []

    def test_cap_five(self):
        words = {w.entries for w in brute_force_classes(5)}
        assert words == {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}

    def test_matches_enumeration_at_ten(self):
        brute = {w.entries for w in brute_force_classes(10)}
        direct = {r.word.entries for r in enumerate_by_trace(10)}
        assert brute == direct

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            brute_force_classes(51)


class TestOrientationInvolution:
    def test_reversal_closure(self):
        records = enumerate_by_trace(30)
        by_word = {r.word.entries: r for r in records}
        for r in records:
            rev = r.word.reversed()
            assert rev.entries in by_word
            assert by_word[rev.entries].psi == -r.psi

    def test_inert_words_have_zero_psi(self):
        records = enumerate_by_trace(60)
        for r in records:
            n = len(r.word.entries)
            half = r.word.entries[: n // 2]
            if (n // 2) % 2 == 1 and r.word.entries == half * 2:
                assert r.psi == 0
