import importlib.util
import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench.py"
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_the_schema_on_two_words(bench, tmp_path, monkeypatch):
    words = [("generic", (1, 2)), ("cusp", (3, 150, 2, 5))]
    monkeypatch.setattr(bench, "routes_words", lambda: words)
    monkeypatch.setattr(bench, "RUNS", 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    bench.main(["--tag", "tiny"])
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert set(record) == {"tag", "fingerprint", "config", "trees"} and record["tag"] == "tiny"
    fp = record["fingerprint"]
    assert set(fp) == {"cpu_count", "machine", "python", "numpy", "blas", "openblas_num_threads"}
    assert fp["cpu_count"] >= 1 and fp["numpy"] == np.__version__ and set(fp["blas"]) == {"name", "version"}
    assert record["config"] == {"runs": 1, "repeats": 7, "seed": 1, "words": {"generic": 1, "cusp": 1}}
    (label, tree), = record["trees"].items()
    assert label == "head" and set(tree) == {"commit", "dirty", "source_lines", "routes_us", "winding_steps"}
    assert (tree["commit"], tree["dirty"]) == (None, None) or (
        re.fullmatch("[0-9a-f]{40}", tree["commit"]) and tree["dirty"] in (True, False)
    )
    lines = tree["source_lines"]
    modules = sorted(p.name for p in (ROOT / "src" / "modwind").glob("*.py"))
    assert sorted(lines) == sorted(modules + ["total"])
    assert lines["total"] == sum(lines[m] for m in modules)
    assert lines["winding.py"] == len((ROOT / "src" / "modwind" / "winding.py").read_text().splitlines())
    assert set(tree["routes_us"]) == {"winding_index", "e2_period", "both"}
    for strata in tree["routes_us"].values():
        assert set(strata) == {"generic", "cusp"}
        for q in strata.values():
            # one run: its median and quartiles are its one figure
            assert 0 < q["q1"] == q["median"] == q["q3"] < 1e6
    # a class's best time of both routes together is at least each route's best
    for stratum in ("generic", "cusp"):
        both = tree["routes_us"]["both"][stratum]["median"]
        assert both >= max(tree["routes_us"][r][stratum]["median"] for r in ("winding_index", "e2_period"))
    # one word a stratum: its median is that word's steps
    from modwind.geodesics import word_to_matrix
    from modwind.winding import winding_index

    assert tree["winding_steps"] == {s: winding_index(word_to_matrix(w)).steps for s, w in words}


def test_times_the_benchmark_routes_words(bench, tmp_path, monkeypatch):
    # the words handed to each run are perfbench's own, and reading them
    # leaves nothing under perfbench/
    before = set(PERFBENCH.rglob("*"))
    runs = []
    monkeypatch.setattr(bench, "child_run", lambda tree, words: runs.append(words) or {})
    monkeypatch.setattr(bench, "OUT", tmp_path)
    bench.main(["--tag", "tiny"])
    expect = runpy.run_path(str(PERFBENCH / "gen.py"))["routes_words"](bench.SEED)
    assert len(expect) == 120 and bench.RUNS == 10 and runs == [expect] * 10
    # no __pycache__ (nor anything else) appears there
    assert set(PERFBENCH.rglob("*")) == before


def test_base_without_the_package_refused_before_any_run(bench, tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    runs = []
    monkeypatch.setattr(bench, "child_run", lambda tree, words: runs.append(tree))
    monkeypatch.setattr(bench, "OUT", tmp_path)
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--tag", "tiny", "--base", str(tmp_path)])
    assert exit_.value.code == 2 and runs == []
    assert "holds no src/modwind" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*"))


def test_only_tag_and_base_accepted(bench, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(bench, "child_run", lambda tree, words: runs.append(tree))
    for option in ("--runs", "--out"):
        with pytest.raises(SystemExit) as exit_:
            bench.main(["--tag", "tiny", option, "1"])
        assert exit_.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert runs == []


def test_quartiles(bench):
    assert bench.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
