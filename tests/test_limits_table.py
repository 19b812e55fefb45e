import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "limits_table.py"


@pytest.fixture(scope="module")
def limits_table():
    spec = importlib.util.spec_from_file_location("limits_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_row_runs_in_fresh_children(limits_table):
    if not hasattr(os, "wait4"):
        pytest.skip("os.wait4 is POSIX only")
    argv = ("stats-density", "--max-length", "10")
    results = limits_table.measure_row(argv)
    assert len(results) == limits_table.RUNS == 2
    # the interpreter, numpy and click alone take about 30 MB, and the census
    # at T = 10 (2,451 classes) next to nothing
    assert all(0 < seconds < 30 and 10 < rss < 200 for seconds, rss in results)
    line = limits_table.table_line(argv, results)
    assert line.startswith("| `stats-density` | 10 | ") and line.endswith(" MB |")


def test_row_bound_met_and_missed(limits_table):
    if not hasattr(os, "wait4"):
        pytest.skip("os.wait4 is POSIX only")
    argv = ("stats-density", "--max-length", "10")
    assert len(limits_table.measure_row(argv, 30, 200)) == limits_table.RUNS
    # no child fits in 1 MB, so the first run passes the bound and names the row
    with pytest.raises(RuntimeError, match="stats-density --max-length 10 took .* past its bound of 30 s and 1 MB"):
        limits_table.measure_row(argv, 30, 1)


def test_script_exits_naming_the_row_past_its_bound(limits_table, monkeypatch):
    if not hasattr(os, "wait4"):
        pytest.skip("os.wait4 is POSIX only")
    monkeypatch.setattr(limits_table, "ROWS", [(("stats-density", "--max-length", "10"), 30, 1, 0)])
    with pytest.raises(SystemExit) as stop:
        limits_table.main()
    # a string exit code is printed to stderr, with exit status 1
    assert str(stop.value.code).startswith("modwind stats-density --max-length 10 took ")


def test_max_rss_is_the_childs_own(limits_table):
    # a child started straight from this process would report this process's
    # peak too, as exec keeps the old address space's; 128 MB is past the bound
    if not hasattr(os, "wait4"):
        pytest.skip("os.wait4 is POSIX only")
    import numpy as np

    held = np.ones(128 * 2**20 // 8)
    results = limits_table.measure_row(("stats-density", "--max-length", "10"), 30, 100)
    assert held.sum() > 0 and all(10 < rss < 100 for _, rss in results)


def test_row_expected_to_exit_3(limits_table):
    # winding_index refuses this word at its node cap, exit 3 (a resource
    # limit): the row passes with that code and stops the script with any other
    if not hasattr(os, "wait4"):
        pytest.skip("os.wait4 is POSIX only")
    argv = ("index", "--word", "2-1000000000-3-999999999")
    assert (argv, 1.5, 110, 3) in limits_table.ROWS
    results = limits_table.measure_row(argv, 30, 200, 3)
    assert len(results) == limits_table.RUNS
    assert limits_table.table_line(argv, results, 3).startswith(f"| `{' '.join(argv)}` | - | 3 | ")
    with pytest.raises(RuntimeError, match=r"exited 3 \(expected 0\): .*nodes"):
        limits_table.measure_row(argv, 30, 200)
