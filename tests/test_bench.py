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
    assert record["config"] == {
        "runs": 1,
        "repeats": 7,
        "seed": 1,
        "words": {"generic": 1, "cusp": 1},
        "queries": 1000,
        "spread_limit": bench.SPREAD,
    }
    (label, tree), = record["trees"].items()
    assert label == "head" and set(tree) == {
        "commit",
        "dirty",
        "source_lines",
        "code_lines",
        "routes_us",
        "exact_us",
        "winding_steps",
        "first_round_nodes",
        "cpu_pressure",
        "spread",
    }
    # one run: the host's CPU pressure before and after it, null where it cannot be read
    (pressure,) = tree["cpu_pressure"]
    assert set(pressure) == {"before", "after"}
    for value in pressure.values():
        assert value is None if not bench.PRESSURE.exists() else 0.0 <= value <= 100.0
    # one run a tree spreads nothing
    assert tree["spread"] == []
    assert (tree["commit"], tree["dirty"]) == (None, None) or (
        re.fullmatch("[0-9a-f]{40}", tree["commit"]) and tree["dirty"] in (True, False)
    )
    lines = tree["source_lines"]
    modules = sorted(p.name for p in (ROOT / "src" / "modwind").glob("*.py"))
    assert sorted(lines) == sorted(modules + ["total"])
    assert lines["total"] == sum(lines[m] for m in modules)
    assert lines["winding.py"] == len((ROOT / "src" / "modwind" / "winding.py").read_text().splitlines())
    # the lines that hold code: fewer in each module, and the same modules and total
    code = tree["code_lines"]
    assert sorted(code) == sorted(lines) and code["total"] == sum(code[m] for m in modules)
    assert all(0 < code[m] < lines[m] for m in modules)
    assert code["winding.py"] == bench.code_lines((ROOT / "src" / "modwind" / "winding.py").read_text())
    assert set(tree["routes_us"]) == {"winding_index", "e2_period", "both"}
    for strata in tree["routes_us"].values():
        assert set(strata) == {"generic", "cusp"}
        for q in strata.values():
            # one run: its median and quartiles are its one figure
            assert 0 < q["q1"] == q["median"] == q["q3"] < 1e6
    # the exact layer: each function's median over its calls, one run's figure
    assert set(tree["exact_us"]) == set(bench.EXACT) == {
        "matrix_to_word",
        "psi",
        "psi_cocycle",
        "psi_cf",
        "s_symbol",
        "omega",
        "dedekind_sum",
    }
    for q in tree["exact_us"].values():
        assert 0 < q["q1"] == q["median"] == q["q3"] < 1e3
    # a class's best time of both routes together is at least each route's best
    for stratum in ("generic", "cusp"):
        both = tree["routes_us"]["both"][stratum]["median"]
        assert both >= max(tree["routes_us"][r][stratum]["median"] for r in ("winding_index", "e2_period"))
    # one word a stratum: its medians are that word's steps and first-round nodes
    from modwind.geodesics import word_to_matrix
    from modwind.winding import _first_round, winding_index

    assert tree["winding_steps"] == {s: winding_index(word_to_matrix(w)).steps for s, w in words}
    assert tree["first_round_nodes"] == {s: _first_round(word_to_matrix(w)).t.size for s, w in words}


def test_code_lines_skip_blanks_comments_and_docstrings(bench):
    source = (
        '"""Module docstring,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        '        return """a string\n        on two lines"""\n'
    )
    # X, class C, def f and the two lines of the return
    assert bench.code_lines(source) == 5
    assert bench.code_lines("") == 0


def test_times_the_benchmark_routes_words(bench, tmp_path, monkeypatch):
    # the words handed to each run are perfbench's own, and reading them
    # leaves nothing under perfbench/
    before = set(PERFBENCH.rglob("*"))
    runs = []
    exact = dict.fromkeys(bench.EXACT, 1.0)
    monkeypatch.setattr(bench, "child_run", lambda tree, words: runs.append(words) or {"routes": {}, "exact": exact})
    monkeypatch.setattr(bench, "OUT", tmp_path)
    bench.main(["--tag", "tiny"])
    gen = runpy.run_path(str(PERFBENCH / "gen.py"))
    expect = gen["routes_words"](bench.SEED)
    assert len(expect) == 120 and bench.RUNS == 10 and runs == [expect] * 10
    # the exact layer's queries are the symbols workload's first block
    assert bench.symbols_queries() == gen["symbols_queries"](bench.SEED, 1)[0]
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


def test_cpu_pressure_reads_some_avg10(bench, tmp_path, monkeypatch):
    path = tmp_path / "cpu"
    monkeypatch.setattr(bench, "PRESSURE", path)
    assert bench.cpu_pressure() is None
    path.write_text(
        "some avg10=1.04 avg60=1.78 avg300=2.40 total=1416931707\n"
        "full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n"
    )
    assert bench.cpu_pressure() == 1.04
    for text in ("", "full avg10=3.00\n", "some avg60=1.78\n"):
        path.write_text(text)
        assert bench.cpu_pressure() is None


def test_each_run_records_the_pressure_around_it(bench, tmp_path, monkeypatch):
    # the pressure is read just before and just after each child run, in turn
    readings, events = iter(range(100)), []
    monkeypatch.setattr(bench, "cpu_pressure", lambda: events.append("read") or float(next(readings)))
    monkeypatch.setattr(bench, "RUNS", 2)
    run = {
        "routes": {"cusp": {"winding_index": 1.0, "e2_period": 1.0, "both": 2.0, "steps": 5, "nodes": 7}},
        "exact": dict.fromkeys(bench.EXACT, 1.0),
    }
    monkeypatch.setattr(bench, "child_run", lambda tree, words: events.append(tree) or run)
    record = bench.report("t", [("base", "B"), ("head", "H")], [("cusp", (1, 2))])
    assert events == ["read", "B", "read", "read", "H", "read", "read", "H", "read", "read", "B", "read"]
    assert record["trees"]["base"]["cpu_pressure"] == [{"before": 0.0, "after": 1.0}, {"before": 6.0, "after": 7.0}]
    assert record["trees"]["head"]["cpu_pressure"] == [{"before": 2.0, "after": 3.0}, {"before": 4.0, "after": 5.0}]


def test_spread_flags_wide_quartiles(bench):
    limit = bench.SPREAD
    routes = {
        "both": {"cusp": {"median": 100.0, "q1": 95.0, "q3": 95.0 + 100.0 * limit}},
        "e2_period": {
            "cusp": {"median": 100.0, "q1": 95.0, "q3": 95.1 + 100.0 * limit},
            "long": {"median": 50.0, "q1": 50.0, "q3": 50.0},
        },
    }
    assert bench.spread(routes) == ["e2_period/cusp"]
