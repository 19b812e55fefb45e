import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_the_schema_on_two_words(bench, tmp_path, monkeypatch):
    words = [("generic", (1, 2)), ("cusp", (3, 150, 2, 5))]
    monkeypatch.setattr(bench, "draw_words", lambda seed, per_stratum: words)
    bench.main(["--tag", "tiny", "--runs", "1", "--out", str(tmp_path)])
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert set(record) == {"tag", "fingerprint", "config", "trees"} and record["tag"] == "tiny"
    fp = record["fingerprint"]
    assert set(fp) == {"cpu_count", "machine", "python", "numpy", "blas", "openblas_num_threads"}
    assert fp["cpu_count"] >= 1 and fp["numpy"] == np.__version__ and set(fp["blas"]) == {"name", "version"}
    assert record["config"] == {"runs": 1, "repeats": 7, "seed": 1, "words": {"generic": 1, "long": 0, "cusp": 1}}
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
    assert set(tree["routes_us"]) == {"winding_index", "e2_period"}
    for strata in tree["routes_us"].values():
        assert set(strata) == {"generic", "cusp"}
        for q in strata.values():
            # one run: its median and quartiles are its one figure
            assert 0 < q["q1"] == q["median"] == q["q3"] < 1e6
    # one word a stratum: its median is that word's steps
    from modwind.geodesics import word_to_matrix
    from modwind.winding import winding_index

    assert tree["winding_steps"] == {s: winding_index(word_to_matrix(w)).steps for s, w in words}


def refusal(bench, monkeypatch, capsys, *args):
    """The usage error of main(args), after checking that it exits with code 2
    before any timed run."""
    runs = []
    monkeypatch.setattr(bench, "child_run", lambda tree, words: runs.append(tree))
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--tag", "tiny", "--runs", "1", *args])
    assert exit_.value.code == 2 and runs == []
    return capsys.readouterr().err


def test_out_not_a_directory_refused_before_any_run(bench, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing", tmp_path / "file"):
        assert "is not a directory" in refusal(bench, monkeypatch, capsys, "--out", str(out))
    assert not (tmp_path / "missing").exists()


def test_base_without_the_package_refused_before_any_run(bench, tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    err = refusal(bench, monkeypatch, capsys, "--base", str(tmp_path), "--out", str(tmp_path))
    assert "holds no src/modwind" in err
    assert not list(tmp_path.glob("BENCH_*"))


def test_words_drawn_per_stratum(bench):
    words = bench.draw_words(1, 5)
    assert words == bench.draw_words(1, 5) != bench.draw_words(2, 5)
    assert [s for s, _ in words] == [s for s in bench.STRATA for _ in range(5)]
    assert len({w for _, w in words}) == 15
    for stratum, w in words:
        assert len(w) % 2 == 0 and 2.0 * math.acosh(bench.word_trace(w) / 2.0) <= bench.MAX_LENGTH
        assert (max(w) >= 50) == (stratum == "cusp")


def test_quartiles(bench):
    assert bench.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
