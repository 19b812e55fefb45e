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
