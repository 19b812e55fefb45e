import hashlib
import math
import time
from dataclasses import asdict

import pytest

from modwind import verify
from modwind.errors import CapExceeded, DomainError
from modwind.geodesics import EnumerationConfig, enumerate_by_trace, enumerate_geodesics
from modwind.matrices import geodesic_length
from modwind.verify import VERIFY_MAX_TRACE_CAP, run_all, stratified_sample, suite_word_census


@pytest.fixture(scope="module")
def census12():
    return enumerate_geodesics(EnumerationConfig(max_length=12.0))


class TestStratifiedSample:
    def test_deterministic(self, census12):
        a = stratified_sample(census12, 200, seed=3)
        b = stratified_sample(census12, 200, seed=3)
        assert a == b == sorted(a)
        assert all(type(i) is int for i in a)

    def test_size_and_uniqueness(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        assert len(picked) == 200
        assert len({entries for entries, _, _, _ in census12.rows(picked)}) == 200

    def test_forces_large_entries(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        assert any(max(entries) >= 50 for entries, _, _, _ in census12.rows(picked))

    def test_small_pool_returned_whole(self, census12):
        pool = [row for row in census12.rows() if row[1] <= 5]
        census5 = enumerate_by_trace(5)
        picked = stratified_sample(census5, 50, seed=0)
        assert picked == list(range(len(census5)))
        assert list(census5.rows(picked)) == pool

    @pytest.mark.parametrize(
        "T, digest",
        [
            (12.0, "6f483510a0b57160bcff1419687a2e500a9c387c52d0e04804b569a7219d675e"),
            (14.0, "88d9a86bfb11431d9a7019b2592542bc30e00536754b8ede061ca2a91052d1fc"),
        ],
    )
    def test_picks_pinned(self, T, digest):
        # the picks of the sort-based sampler this one replaced
        census = enumerate_geodesics(EnumerationConfig(T))
        picked = stratified_sample(census, 500, 0)
        text = repr([(entries, trace, psi) for entries, trace, _, psi in census.rows(picked)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("size", range(1, 12))
    def test_small_sizes_exact(self, census12, size):
        # T = 12 has 1,938 rows with an entry >= 50, and at least 10 of them are forced in
        picked = stratified_sample(census12, size, seed=0)
        assert len({entries for entries, _, _, _ in census12.rows(picked)}) == len(picked) == size
        assert picked == stratified_sample(census12, size, seed=0)

    @pytest.mark.parametrize("T, size", [(8.0, 200), (12.0, 1000), (14.0, 3000)])
    def test_exact_when_strata_repeat_forced_rows(self, T, size):
        census = enumerate_geodesics(EnumerationConfig(T))
        picked = stratified_sample(census, size, seed=0)
        assert len({entries for entries, _, _, _ in census.rows(picked)}) == len(picked) == size

    @pytest.mark.parametrize("size", [-1, -5])
    def test_negative_size_refused(self, census12, size):
        with pytest.raises(DomainError, match="negative"):
            stratified_sample(census12, size, seed=0)

    @pytest.mark.parametrize("size", [2.5, 2.0, "10"], ids=repr)
    def test_non_integer_size_refused(self, census12, size):
        with pytest.raises(DomainError, match="sample sizes must be integers"):
            stratified_sample(census12, size, seed=0)

    def test_size_zero_is_empty(self, census12):
        assert stratified_sample(census12, 0, seed=0) == []

    def test_spreads_over_traces(self, census12):
        picked = stratified_sample(census12, 200, seed=3)
        traces = sorted(trace for _, trace, _, _ in census12.rows(picked))
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

    def test_guard_reads_the_trace_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "VERIFY_MAX_TRACE_CAP", 4)
        with pytest.raises(CapExceeded, match="classes"):
            run_all(max_length=geodesic_length(5))

    def test_verdict_follows_the_trace_cap(self, monkeypatch):
        # 15.0664 and 15.0672 name the same census, of cap 1,869; a run that
        # passes the guard reaches the census
        class Reached(Exception):
            pass

        def reached(config):
            raise Reached

        for name in dir(verify):
            if name.startswith("suite_"):
                monkeypatch.setattr(verify, name, lambda *args: None)
        monkeypatch.setattr(verify, "enumerate_geodesics", reached)
        for T in (15.0664, 15.0672):
            with pytest.raises(Reached):
                run_all(max_length=T)
        with pytest.raises(CapExceeded, match="classes"):
            run_all(max_length=geodesic_length(VERIFY_MAX_TRACE_CAP + 1))
        assert len(enumerate_by_trace(VERIFY_MAX_TRACE_CAP)) == 249_076

    def test_negative_sample_refused_before_any_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "suite_dedekind_reciprocity", lambda rng: pytest.fail("ran"))
        with pytest.raises(DomainError, match="negative"):
            run_all(max_length=5.0, sample=-1)

    @pytest.mark.parametrize("sample", [1.5, 2.0, "10", None], ids=repr)
    def test_non_integer_sample_refused_before_any_suite(self, monkeypatch, sample):
        monkeypatch.setattr(verify, "suite_dedekind_reciprocity", lambda rng: pytest.fail("ran"))
        with pytest.raises(DomainError, match="sample sizes must be integers"):
            run_all(max_length=5.0, sample=sample)


class EditedRows:
    """What word_census reads of a census, len() and rows(), over given rows."""

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def rows(self):
        return map(tuple, self._rows)


class TestFailureReport:
    """word_census on the rows of the census of trace <= 30 (151 classes),
    one of them or their psi edited: the counts and notes of the failing
    checks."""

    @staticmethod
    def census30(edit):
        # the rows as lists (entries, trace, length, psi), which the edit changes
        rows = [list(row) for row in enumerate_by_trace(30).rows()]
        edit(rows)
        return EditedRows(rows)

    def test_sound_census_passes(self):
        res = suite_word_census(self.census30(lambda rows: None))
        assert (res.passed, res.failed, res.details) == (610, 0, [])

    def test_one_wrong_psi(self):
        # row 5 is (1, 4), of psi -3, and row 7 its reversal (4, 1)
        def flip(rows):
            rows[5][3] *= -1

        res = suite_word_census(self.census30(flip))
        assert (res.passed, res.failed) == (607, 3)
        assert res.details == [
            "psi mismatch at (1, 4)",
            "reversal psi not negated at (1, 4)",
            "reversal psi not negated at (4, 1)",
        ]

    def test_one_missing_reversal(self):
        # without row 7, (4, 1), its reversal (1, 4) finds no partner
        def drop(rows):
            del rows[7]

        res = suite_word_census(self.census30(drop))
        assert (res.passed, res.failed) == (604, 2)
        assert res.details == ["reversal missing for (1, 4)", "reversal psi not negated at (1, 4)"]

    def test_details_capped_at_twenty(self):
        def shift(rows):
            for row in rows:
                row[3] += 1

        res = suite_word_census(self.census30(shift))
        assert (res.passed, res.failed, len(res.details)) == (303, 307, 20)
        assert res.details[:3] == [
            "psi mismatch at (1, 1)",
            "reversal psi not negated at (1, 1)",
            "inert class with psi != 0: (1, 1)",
        ]
        assert asdict(res)["details"] == res.details
