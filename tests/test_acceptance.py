"""End-to-end acceptance checks run against the full desk-scale census.

Each test exercises one advertised guarantee of the package at its stated
tolerance: exact agreement of the symbol computations, the winding index and
period identities on a stratified sample, enumeration against the brute-force
oracle and against a count of reduced states from divisors alone, and the
counting and distribution statistics at length bound 14.
"""

import hashlib
import json
import math
import time
from dataclasses import asdict

import pytest

from modwind import winding
from modwind.geodesics import (
    EnumerationConfig,
    enumerate_by_trace,
    enumerate_geodesics,
    word_to_matrix,
)
from modwind.rademacher import psi, psi_cf, psi_cocycle
from modwind.stats import (
    cauchy_compare,
    equidistribution,
    limiting_density,
    twisted_sum,
    winding_histogram,
)
from modwind.verify import run_all, stratified_sample
from modwind.winding import e2_period, winding_index
from test_geodesics import brute_force_classes


@pytest.fixture(scope="module")
def census14():
    start = time.perf_counter()
    records = enumerate_geodesics(EnumerationConfig(max_length=14.0))
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def sample500(census14):
    records, _ = census14
    return list(records.rows(stratified_sample(records, 500, seed=0)))


class TestSymbolAgreement:
    def test_three_methods_agree_up_to_length_twelve(self, census14):
        records, _ = census14
        small = [r for r in records if r.length <= 12.0]
        assert len(small) > 10**4
        start = time.perf_counter()
        for rec in small:
            m = word_to_matrix(rec.word)
            assert psi_cf(rec.word) == psi(m) == psi_cocycle(m) == rec.psi
        assert time.perf_counter() - start < 30.0


class TestWindingIndexTheorem:
    def test_sample_has_large_entries(self, sample500):
        assert len(sample500) == 500
        assert any(max(entries) >= 50 for entries, _, _, _ in sample500)

    def test_index_equals_psi_on_sample(self, sample500):
        start = time.perf_counter()
        for entries, _, _, expected in sample500:
            result = winding_index(word_to_matrix(entries))
            assert result.index == expected
            assert result.residual < 1e-3
        assert time.perf_counter() - start < 300.0

    def test_period_equals_psi_on_sample(self, sample500):
        for entries, _, _, expected in sample500:
            assert e2_period(word_to_matrix(entries)) == pytest.approx(expected, abs=1e-6)

    def test_routes_equal_psi_on_census_to_eleven(self, monkeypatch):
        # and winding_index splits its first grid at most once: at most two
        # batches of Delta evaluations a class
        batches = []
        delta_series = winding._delta_series

        def counting(z):
            batches[-1] += 1
            return delta_series(z)

        monkeypatch.setattr(winding, "_delta_series", counting)
        census = enumerate_geodesics(EnumerationConfig(max_length=11.0))
        assert len(census) == 5961
        start = time.perf_counter()
        for entries, _, _, expected in census.rows():
            g = word_to_matrix(entries)
            batches.append(0)
            assert winding_index(g).index == expected
            assert e2_period(g) == pytest.approx(expected, abs=1e-6)
        assert time.perf_counter() - start < 60.0
        assert max(batches) <= 2 and 1 in batches and 2 in batches


def reduced_state_counts(cap):
    """The number of reduced states of each trace t <= cap, from divisors alone.

    With D = t^2 - 4 and r = isqrt(D), the walk's reduced states of trace t
    are the (P, Q) with 0 < P < sqrt(D) < P + Q, Q - sqrt(D) < P, Q even and
    2Q | D - P^2.  With Q = 2q they are the P = t (mod 2) with 0 < P <= r and
    the divisors q of (D - P^2) / 4 with r - P < 2q <= r + P: no continued
    fraction and no walk.
    """
    top = (cap * cap - 4) // 4
    divisors = [[] for _ in range(top + 1)]
    for q in range(1, top + 1):
        for m in range(q, top + 1, q):
            divisors[m].append(q)
    counts = [0] * (cap + 1)
    for t in range(3, cap + 1):
        D = t * t - 4
        r = math.isqrt(D)
        for P in range(2 - t % 2, r + 1, 2):
            counts[t] += sum(r - P < 2 * q <= r + P for q in divisors[(D - P * P) // 4])
    return counts


def census_state_counts(trace, level, cap):
    """The number of reduced states of each trace t <= cap, from a census's
    trace and level columns: a word of level n has 2(n + 1) digits.

    A class has len(word) / 2 reduced states, its even-step states, and so
    has each of its proper powers g^k, whose traces follow
    t_k = t_1 t_(k-1) - t_(k-2) with t_0 = 2.
    """
    counts = [0] * (cap + 1)
    for t1, n in zip(trace.tolist(), level.tolist()):
        length = 2 * (n + 1)
        prev, t = 2, t1
        while t <= cap:
            counts[t] += length // 2
            prev, t = t, t1 * t - prev
    return counts


CAP_12 = 403  # trace_cap_for_length(12.0)


@pytest.fixture(scope="module")
def census_cap_12():
    return enumerate_by_trace(CAP_12)


@pytest.fixture(scope="module")
def states_cap_12():
    return reduced_state_counts(CAP_12)


class TestEnumerationOracle:
    def test_reduced_states_count_every_class_through_cap_403(self, census_cap_12, states_cap_12):
        c = census_cap_12
        assert census_state_counts(c.trace, c.level, CAP_12) == states_cap_12

    @pytest.mark.parametrize("mutation", ["dropped", "duplicated"])
    def test_reduced_state_count_catches_a_row(self, census_cap_12, states_cap_12, mutation):
        c, i = census_cap_12, len(census_cap_12) // 2
        rows = list(range(len(c)))
        if mutation == "dropped":
            del rows[i]
        else:
            rows.insert(i, i)
        assert census_state_counts(c.trace[rows], c.level[rows], CAP_12) != states_cap_12

    def test_matches_brute_force_through_cap_thirty(self):
        brute = brute_force_classes(30)
        direct = enumerate_by_trace(30)
        for cap in range(2, 31):
            expect = {w.entries for w in brute if word_to_matrix(w).trace <= cap}
            got = {r.word.entries for r in direct if r.trace <= cap}
            assert got == expect, f"mismatch at cap {cap}"

    def test_exactly_five_classes_at_cap_five(self):
        assert len(enumerate_by_trace(5)) == 5
        assert len(brute_force_classes(5)) == 5


class TestCountingStatistics:
    def test_winding_symmetry(self, census14):
        records, _ = census14
        for T in (8.0, 10.0, 12.0, 14.0):
            hist = winding_histogram(records, T)
            for n, count in hist.counts.items():
                assert hist.counts.get(-n) == count, f"asymmetry at n={n}, T={T}"

    def test_prime_geodesic_theorem(self, census14):
        records, elapsed = census14
        assert elapsed < 120.0
        total = sum(r.length for r in records)
        assert abs(total / math.exp(14.0) - 1.0) <= 0.10

    def test_winding_density(self, census14):
        records, _ = census14
        hist = winding_histogram(records, 14.0)
        for n in (0, 1, -1, 2, -2):
            empirical = hist.counts.get(n, 0) / hist.total
            predicted = limiting_density(n, 14.0)
            assert abs(empirical / predicted - 1.0) <= 0.25, f"density off at n={n}"
        peak = hist.counts.get(0, 0)
        assert peak > hist.counts.get(3, 0)
        assert peak > hist.counts.get(-3, 0)

    def test_cauchy_limit_law(self, census14):
        records, _ = census14
        ks14 = cauchy_compare(records, 14.0).ks_statistic
        ks11 = cauchy_compare(records, 11.0).ks_statistic
        assert ks14 <= 0.10
        assert ks14 < ks11

    def test_equidistribution_mod_q(self, census14):
        records, _ = census14
        for q in (2, 3, 5):
            table = equidistribution(records, 14.0, q)
            for residue, density in table.items():
                assert abs(density - 1.0 / q) <= 0.10, f"q={q}, residue={residue}"


class TestTwistedSums:
    def test_quarter_twist_matches_main_term(self, census14):
        records, _ = census14
        report = twisted_sum(records, 14.0, 0.25)
        assert 0.65 <= abs(report.sum) / report.main_term <= 1.35

    def test_error_shrinks_across_window(self, census14):
        # the T = 11 snapshot carries the largest relative error; every
        # later snapshot in the window sits strictly below it
        records, _ = census14
        errors = [twisted_sum(records, t, 0.25).relative_error for t in (11, 12, 13, 14)]
        assert all(e < errors[0] for e in errors[1:])
        assert errors[-1] == min(errors)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "pairwise monotonicity fails between T=12 and T=13: measured "
            "relative errors are 0.0242, 0.0008, 0.0024, 0.000017, an "
            "oscillation inside the expected exp(-T/8) noise envelope"
        ),
    )
    def test_error_strictly_monotone(self, census14):
        records, _ = census14
        errors = [twisted_sum(records, t, 0.25).relative_error for t in (11, 12, 13, 14)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_weight_twelve_is_trivial_character(self, census14):
        records, _ = census14
        a = twisted_sum(records, 14.0, 12.0).sum
        b = twisted_sum(records, 14.0, 0.0).sum
        assert abs(a - b) <= 1e-9 * abs(b)


class TestVerificationSuites:
    def test_all_suites_pass(self):
        start = time.perf_counter()
        results = run_all()
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0
        for result in results:
            assert result.failed == 0, f"{result.suite}: {result.details}"
        assert {r.suite for r in results} == {
            "dedekind_reciprocity",
            "omega_cocycle",
            "multiplier_law",
            "s_cocycle",
            "psi_conjugacy",
            "psi_homogeneity",
            "phi_power_recursion",
            "phi_limit",
            "phi_word_vs_closed",
            "word_roundtrip",
            "word_census",
            "winding_sample",
        }
        # the report of the run_all that built the census once per suite and
        # sampled it by sorting
        report = json.dumps([asdict(r) for r in results])
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "9ccda9d9ffba30edec698763b009c398834c3ed0c59ca74c8513203e0b0a8653"
        )
