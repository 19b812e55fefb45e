import math

import pytest

from modwind.errors import DomainError, InsufficientData
from modwind.geodesics import EnumerationConfig, enumerate_by_trace, enumerate_geodesics
from modwind.stats import (
    cauchy_compare,
    density_table,
    equidistribution,
    li,
    predicted_pi_n,
    limiting_density,
    twisted_sum,
    winding_histogram,
)


@pytest.fixture(scope="module")
def census12():
    return enumerate_geodesics(EnumerationConfig(max_length=12.0))


class TestWindingHistogram:
    def test_cap_five_counts(self):
        records = enumerate_by_trace(5)
        hist = winding_histogram(records, 4.0)
        assert hist.counts == {0: 1, -1: 1, 1: 1, -2: 1, 2: 1}
        assert hist.total == 5

    def test_empty(self):
        hist = winding_histogram([], 5.0)
        assert hist.counts == {}
        assert hist.total == 0

    def test_mass_conservation(self, census12):
        hist = winding_histogram(census12, 12.0)
        assert sum(hist.counts.values()) == hist.total == len(census12)

    def test_symmetry(self, census12):
        hist = winding_histogram(census12, 12.0)
        for n, count in hist.counts.items():
            assert hist.counts.get(-n) == count


class TestPredictedPiN:
    def test_zero_winding_is_li_over_3t(self):
        # at n = 0 the integrand collapses to 1/log t
        value = predicted_pi_n(0, 14.0)
        assert value == pytest.approx(li(math.exp(14.0)) / 42.0, rel=1e-8)

    def test_even_in_n(self):
        for n in (1, 2, 5):
            assert predicted_pi_n(n, 10.0) == predicted_pi_n(-n, 10.0)

    def test_partial_sums_approach_total_count(self):
        # summing the per-winding predictions over |n| <= N recovers the
        # plain prime geodesic count as N grows; the tail decays like 1/N
        target = li(math.exp(14.0))
        partial = [
            sum(predicted_pi_n(n, 14.0) for n in range(-bound, bound + 1))
            for bound in (35, 70, 140)
        ]
        assert partial == sorted(partial)
        assert 0.80 < partial[-1] / target < 1.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            predicted_pi_n(0, 1.0)


class TestDensityTable:
    def test_reference_density(self):
        assert limiting_density(0, 14.0) == pytest.approx(14.0 / (3 * 196.0))

    def test_symmetric_and_peaked(self):
        for n in (1, 2, 3):
            assert limiting_density(n, 12.0) == limiting_density(-n, 12.0)
        values = [limiting_density(n, 12.0) for n in range(0, 6)]
        assert values == sorted(values, reverse=True)

    def test_rows(self, census12):
        hist = winding_histogram(census12, 12.0)
        rows = density_table(hist, range(-2, 3))
        assert len(rows) == 5
        for n, emp, pred in rows:
            assert emp == hist.counts.get(n, 0) / hist.total
            assert pred == limiting_density(n, 12.0)

    def test_empty_guard(self):
        with pytest.raises(InsufficientData):
            density_table(winding_histogram([], 5.0), range(-1, 2))


class TestCauchyCompare:
    def test_reference_cdf_values(self, census12):
        report = cauchy_compare(census12, 12.0)
        ref = dict(report.reference_cdf)
        assert ref[0.0] == pytest.approx(0.5)
        assert ref[1.0] == pytest.approx(0.75)

    def test_ks_in_unit_interval(self, census12):
        report = cauchy_compare(census12, 12.0)
        assert 0.0 <= report.ks_statistic <= 1.0

    def test_small_sample_rejected(self):
        records = enumerate_by_trace(10)
        with pytest.raises(InsufficientData):
            cauchy_compare(records, 10.0)


class TestEquidistribution:
    def test_trivial_modulus(self, census12):
        assert equidistribution(census12, 12.0, 1) == {0: 1.0}

    def test_densities_sum_to_one(self, census12):
        for q in (2, 3, 5):
            table = equidistribution(census12, 12.0, q)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_small_sample_rejected(self):
        with pytest.raises(InsufficientData):
            equidistribution(enumerate_by_trace(8), 8.0, 2)

    def test_bad_modulus(self, census12):
        with pytest.raises(DomainError):
            equidistribution(census12, 12.0, 0)


class TestTwistedSum:
    def test_r_zero_is_length_sum(self, census12):
        report = twisted_sum(census12, 12.0, 0.0)
        assert report.sum.imag == pytest.approx(0.0, abs=1e-9)
        assert report.sum.real == pytest.approx(
            sum(r.length for r in census12), rel=1e-12
        )
        assert report.main_term == pytest.approx(math.exp(12.0))

    def test_period_twelve(self, census12):
        a = twisted_sum(census12, 12.0, 0.0)
        b = twisted_sum(census12, 12.0, 12.0)
        assert abs(a.sum - b.sum) <= 1e-9 * abs(a.sum)

    def test_conjugate_symmetry(self, census12):
        a = twisted_sum(census12, 12.0, 0.3)
        b = twisted_sum(census12, 12.0, -0.3)
        assert abs(a.sum - b.sum.conjugate()) < 1e-9 * abs(a.sum)

    def test_main_term_only_below_half(self, census12):
        assert twisted_sum(census12, 12.0, 0.49).main_term is not None
        assert twisted_sum(census12, 12.0, 0.5).main_term is None
        assert twisted_sum(census12, 12.0, 0.5).relative_error is None

    def test_weight_guard(self, census12):
        with pytest.raises(DomainError):
            twisted_sum(census12, 12.0, 12.5)


class TestLi:
    def test_lower_limit(self):
        assert li(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_bracketing(self):
        # 1/log t is between 1/2 and 1 on [e, e^2]
        value = li(math.e**2) - li(math.e)
        assert (math.e**2 - math.e) / 2 < value < (math.e**2 - math.e)

    def test_million(self):
        assert li(1e6) == pytest.approx(78626.503996, rel=1e-9)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            li(1.5)
