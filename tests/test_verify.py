import hashlib
import math
import time

import pytest

from modwind import verify
from modwind.errors import CapExceeded, DomainError
from modwind.geodesics import EnumerationConfig, enumerate_by_trace, enumerate_geodesics
from modwind.verify import VERIFY_MAX_CLASSES, run_all, stratified_sample


@pytest.fixture(scope="module")
def census12():
    return enumerate_geodesics(EnumerationConfig(max_length=12.0))


class TestStratifiedSample:
    def test_deterministic(self, census12):
        a = stratified_sample(census12, 200, seed=3)
        b = stratified_sample(census12, 200, seed=3)
        assert a == b

    def test_size_and_uniqueness(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        assert len(picked) == 200
        assert len({r.word.entries for r in picked}) == 200

    def test_forces_large_entries(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        assert any(max(r.word.entries) >= 50 for r in picked)

    def test_small_pool_returned_whole(self, census12):
        pool = [r for r in census12 if r.trace <= 5]
        assert stratified_sample(enumerate_by_trace(5), 50, seed=0) == pool

    @pytest.mark.parametrize(
        "T, digest",
        [
            (12.0, "6f483510a0b57160bcff1419687a2e500a9c387c52d0e04804b569a7219d675e"),
            (14.0, "88d9a86bfb11431d9a7019b2592542bc30e00536754b8ede061ca2a91052d1fc"),
        ],
    )
    def test_picks_pinned(self, T, digest):
        # the picks of the sort-based sampler this one replaced
        picked = stratified_sample(enumerate_geodesics(EnumerationConfig(T)), 500, 0)
        text = repr([(r.word.entries, r.trace, r.psi) for r in picked])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("size", range(1, 12))
    def test_small_sizes_exact(self, census12, size):
        # T = 12 has 1,938 rows with an entry >= 50, and at least 10 of them are forced in
        picked = stratified_sample(census12, size, seed=0)
        assert len({r.word.entries for r in picked}) == len(picked) == size
        assert picked == stratified_sample(census12, size, seed=0)

    @pytest.mark.parametrize("T, size", [(8.0, 200), (12.0, 1000), (14.0, 3000)])
    def test_exact_when_strata_repeat_forced_rows(self, T, size):
        census = enumerate_geodesics(EnumerationConfig(T))
        picked = stratified_sample(census, size, seed=0)
        assert len({r.word.entries for r in picked}) == len(picked) == size

    @pytest.mark.parametrize("size", [-1, -5])
    def test_negative_size_refused(self, census12, size):
        with pytest.raises(DomainError, match="negative"):
            stratified_sample(census12, size, seed=0)

    def test_size_zero_is_empty(self, census12):
        assert stratified_sample(census12, 0, seed=0) == []

    def test_spreads_over_traces(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        traces = sorted(r.trace for r in picked)
        median = traces[len(traces) // 2]
        assert traces[0] < median < traces[-1]


class TestRunAllBound:
    @pytest.mark.parametrize("T", [710.0, math.inf, math.nan, -1.0])
    def test_bad_length_refused_before_any_suite(self, monkeypatch, T):
        monkeypatch.setattr(verify, "suite_dedekind_reciprocity", lambda rng: pytest.fail("ran"))
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            run_all(max_length=T)
        assert time.perf_counter() - start < 1.0

    def test_guard_reads_the_estimate(self, monkeypatch):
        monkeypatch.setattr(verify, "estimated_census_size", lambda T: VERIFY_MAX_CLASSES + 1)
        with pytest.raises(CapExceeded):
            run_all(max_length=5.0)

    def test_negative_sample_refused_before_any_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "suite_dedekind_reciprocity", lambda rng: pytest.fail("ran"))
        with pytest.raises(DomainError, match="negative"):
            run_all(max_length=5.0, sample=-1)
