"""Tests of the benchmark's own input generation and references.

Run with: python3 -m pytest perfbench
"""

import bisect
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import hostclock
import run

HERE = Path(__file__).resolve().parent


def test_same_seed_same_inputs():
    assert gen.routes_words(5) == gen.routes_words(5)
    assert gen.symbols_queries(5, 2, 100) == gen.symbols_queries(5, 2, 100)
    assert gen.routes_words(5) != gen.routes_words(6)
    assert gen.symbols_queries(5, 1, 100) != gen.symbols_queries(6, 1, 100)


def test_routes_strata_quotas():
    for seed in (0, 1, 2):
        words = gen.routes_words(seed)
        assert Counter(s for s, _ in words) == {s: gen.ROUTES_PER_STRATUM for s in gen.STRATA}
        assert len({gen.min_even_rotation(w) for _, w in words}) == len(words)
        for stratum, w in words:
            assert gen.is_primitive(w)
            assert gen.geodesic_length(w) <= gen.ROUTES_MAX_LENGTH
            if stratum == "generic":
                assert len(w) in (2, 4, 6) and all(1 <= a <= 6 for a in w)
            elif stratum == "long":
                assert len(w) in (8, 10, 12) and all(1 <= a <= 3 for a in w)
            else:
                big = [a for a in w if a >= 50]
                assert len(w) in (2, 4) and len(big) == 1 and big[0] <= 400
                assert all(1 <= a <= 6 for a in w if a < 50)
        # generic and long: equal quotas in each length bin
        for stratum, (lo, hi) in gen.LENGTH_RANGE.items():
            width = (hi - lo) / gen.LENGTH_BINS
            bins = Counter(
                min(int((gen.geodesic_length(w) - lo) / width), gen.LENGTH_BINS - 1)
                for s, w in words
                if s == stratum
            )
            assert bins == {b: gen.ROUTES_PER_STRATUM // gen.LENGTH_BINS for b in range(gen.LENGTH_BINS)}
        # cusp: one large entry in each of the equal sub-intervals of CUSP_ENTRY
        edges = gen.cusp_edges()
        slots = [bisect.bisect_right(edges, max(w)) - 1 for s, w in words if s == "cusp"]
        assert slots == list(range(gen.ROUTES_PER_STRATUM))
        assert edges[0] == gen.CUSP_ENTRY[0] and edges[-1] == gen.CUSP_ENTRY[1] + 1


def test_symbols_repeat_share_and_conjugates():
    blocks = gen.symbols_queries(3, 3, 200)
    seen_blocks = []
    for block in blocks:
        assert sum(q["repeat"] for q in block) == len(block) // 2
        fresh = set()
        for q in block:
            if q["repeat"]:
                assert q["cls"] in fresh
            else:
                assert q["cls"] not in fresh
                fresh.add(q["cls"])
            a, b, c, d = q["g"]
            assert a * d - b * c == 1
            p, _, _, s = gen.word_product(q["word"])
            assert abs(a + d) == p + s
        assert all(not (fresh & other) for other in seen_blocks)
        seen_blocks.append(fresh)


def test_reference_psi_and_class():
    assert gen.alternating_sum((3, 7)) == -4
    assert gen.alternating_sum((7, 3)) == 4
    assert gen.alternating_sum((1, 1)) == 0
    assert gen.alternating_sum((2, 1, 1, 5)) == -3
    assert gen.min_even_rotation((5, 1, 2, 3)) == (2, 3, 5, 1)
    assert gen.min_even_rotation((7, 3)) == (7, 3)
    assert not gen.is_primitive((1, 2, 1, 2))
    assert gen.is_primitive((1, 2, 1, 2, 1, 3))
    assert gen.word_product((3, 7)) == (22, 3, 7, 1)


def test_census_reference_small_caps():
    assert gen.census_reference(5) == {((1, 1), 3), ((1, 2), 4), ((2, 1), 4), ((1, 3), 5), ((3, 1), 5)}
    for cap in (10, 40):
        for word, trace in gen.census_reference(cap):
            p, _, _, s = gen.word_product(word)
            assert p + s == trace <= cap and word == gen.min_even_rotation(word)


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(run.PROBES)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_speed_scales_a_stretch_by_the_samples_around_it():
    clock = hostclock.HostClock()
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    clock.speeds = [1.0, 0.5, 0.5, 0.5, 1.0]
    # half speed throughout: 0.2 s of work is 0.1 s at the reference speed
    assert clock.at_reference((1.9, 2.1, 0.2)) == pytest.approx(0.1)
    # between two samples: the nearest one on each side
    assert clock.at_reference((0.4, 0.5, 0.1)) == pytest.approx(0.075)
    assert clock.at_reference((0.0, 4.0, 1.0)) == pytest.approx(0.7)


def test_armed_clock_samples_and_leaves_out_its_own_time():
    clock = hostclock.HostClock()
    clock.arm()
    try:
        mark = clock.mark()
        while clock.mark()[0] - mark[0] < 0.3:
            gen.census_reference(20)
        t0, t1, seconds = clock.since(mark)
    finally:
        clock.disarm()
    assert len(clock.speeds) >= 5 and clock.stolen > 0
    assert 0 < seconds < t1 - t0
