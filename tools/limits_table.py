"""Print README's limits table: each command at the largest bound it accepts,
with its wall time and peak RSS, each run in a fresh child process.

Usage, from the root of a checkout:

    python3 tools/limits_table.py

Each row runs RUNS times as a `python -m modwind.cli` child, in a temporary
directory that takes the `--out` file and is removed after the run.  The
child's max RSS is the ru_maxrss that os.wait4 returns for it, so no other
process counts.  A command that exits non-zero stops the script with its
stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from modwind.geodesics import MAX_LENGTH_BOUND  # noqa: E402
from modwind.matrices import geodesic_length  # noqa: E402
from modwind.verify import VERIFY_MAX_TRACE_CAP  # noqa: E402

RUNS = 2
T_MAX = repr(MAX_LENGTH_BOUND)
T_VERIFY = repr(geodesic_length(VERIFY_MAX_TRACE_CAP))
ROWS = [
    ("enumerate", "--max-length", T_MAX, "--out", "census.csv"),
    ("enumerate", "--max-length", T_MAX, "--format", "json", "--out", "census.json"),
    ("stats-density", "--max-length", T_MAX),
    ("stats-cauchy", "--max-length", T_MAX),
    ("stats-equidist", "--max-length", T_MAX, "--modulus", "3"),
    ("stats-twisted", "--max-length", T_MAX, "--r-grid", "-0.45:0.45:0.05"),
    ("verify", "--max-length", T_VERIFY),
    ("verify", "--max-length", T_VERIFY, "--sample", "10000"),
]


def measure_row(argv):
    """(seconds, max RSS in MB) of each of RUNS runs of `modwind argv`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    results = []
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as stderr:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "modwind.cli", *argv],
                env=env,
                cwd=cwd,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
            # reaped here, so Popen must not wait for it again
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                stderr.seek(0)
                message = stderr.read().decode(errors="replace")
                raise RuntimeError(f"modwind {' '.join(argv)} exited {child.returncode}: {message}")
        # ru_maxrss is in KiB on Linux
        results.append((seconds, usage.ru_maxrss / 1024))
    return results


def spread(values, digits, unit):
    """'lo-hi unit' of the values, or one value if they round alike."""
    lo, hi = (f"{x:.{digits}f}" for x in (min(values), max(values)))
    return f"{lo} {unit}" if lo == hi else f"{lo}-{hi} {unit}"


def table_line(argv, results):
    """The row's line of the table: the command without its length, T, time and peak RSS."""
    at = argv.index("--max-length")
    command = " ".join(argv[:at] + argv[at + 2 :])
    seconds, rss = zip(*results)
    return f"| `{command}` | {argv[at + 1]} | {spread(seconds, 2, 's')} | {spread(rss, 0, 'MB')} |"


def main():
    print("| command | T | time | peak RSS |")
    print("|---|---|---|---|")
    for row in ROWS:
        print(table_line(row, measure_row(row)), flush=True)


if __name__ == "__main__":
    main()
