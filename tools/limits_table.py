"""Print README's limits table: each command at the largest bound it accepts,
with its wall time and peak RSS, each run in a fresh child process.

Usage, from the root of a checkout:

    python3 tools/limits_table.py

Each row runs RUNS times as a `python -m modwind.cli` child, in a temporary
directory that takes the `--out` file and is removed after the run.  The
child's max RSS is the ru_maxrss that os.wait4 returns for it.  Linux counts
in it the peak RSS of the process that started it (exec keeps the old address
space's), so each child is started by a small launcher process, which times
it and reports its status and usage: no process of the caller's size counts.
Each row states the exit code it expects and a bound on the wall time and
the max RSS of every run.  A command that exits with another code, or a run
past its row's bound, stops the script with exit status 1 and a message that
names the row.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from modwind.geodesics import MAX_LENGTH_BOUND  # noqa: E402
from modwind.matrices import geodesic_length  # noqa: E402
from modwind.verify import VERIFY_MAX_TRACE_CAP  # noqa: E402

RUNS = 2
T_MAX = repr(MAX_LENGTH_BOUND)
T_VERIFY = repr(geodesic_length(VERIFY_MAX_TRACE_CAP))
# (argv, seconds, MB, exit code): each run of `modwind argv` exits with that
# code and takes at most that wall time and max RSS.  The time bounds are about
# three times the slowest run seen on a 2-core x86-64 box, whose speed varies
# by up to 2x.  The RSS bounds leave 40 MB or more above the largest run seen,
# because the allocator's layout alone moves a run's max RSS by 20-40 MB as
# the launch changes.  The numerical routes' rows are the hardest words seen:
# one that both compute, one that winding_index refuses by its residual and
# e2_period by its rounding witness, and one past winding_index's node cap.
ROWS = [
    (("enumerate", "--max-length", T_MAX, "--out", "census.csv"), 30, 300, 0),
    (("enumerate", "--max-length", T_MAX, "--format", "json", "--out", "census.json"), 30, 300, 0),
    (("stats-density", "--max-length", T_MAX), 2.5, 230, 0),
    (("stats-cauchy", "--max-length", T_MAX), 2.5, 230, 0),
    (("stats-equidist", "--max-length", T_MAX, "--modulus", "3"), 2.5, 230, 0),
    (("stats-twisted", "--max-length", T_MAX, "--r-grid", "-0.45:0.45:0.05"), 2.5, 230, 0),
    (("verify", "--max-length", T_VERIFY), 15, 100, 0),
    (("verify", "--max-length", T_VERIFY, "--sample", "10000"), 25, 120, 0),
    (("index", "--word", "2-5000-3-9000"), 1.5, 110, 0),
    (("psi", "--word", "2-5000-3-9000", "--method", "all"), 1.5, 110, 0),
    (("index", "--word", "7-20000-3-15000-9-19000"), 1.5, 110, 3),
    (("psi", "--word", "7-20000-3-15000-9-19000", "--method", "all"), 1.5, 110, 3),
    (("index", "--word", "2-1000000000-3-999999999"), 1.5, 110, 3),
    (("psi", "--word", "2-1000000000-3-999999999", "--method", "all"), 1.5, 110, 3),
]


# Run by `python -c` with the row's argv: starts `modwind argv` and prints its
# exit code, its wall time in seconds and its ru_maxrss.
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen([sys.executable, "-m", "modwind.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def measure_row(argv, seconds=math.inf, mb=math.inf, code=0):
    """(seconds, max RSS in MB) of each of RUNS runs of `modwind argv`;
    RuntimeError, naming the row, for a run that exits with a code other than
    `code` or takes more than `seconds` or `mb` MB of max RSS."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    results = []
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as stderr:
            launcher = subprocess.run(
                [sys.executable, "-c", LAUNCHER, *argv], env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr
            )
            # a launcher that fails before it prints exits non-zero itself
            exited, elapsed, maxrss = launcher.stdout.split() or (launcher.returncode, 0, 0)
            if int(exited) != code:
                stderr.seek(0)
                message = stderr.read().decode(errors="replace")
                raise RuntimeError(f"modwind {' '.join(argv)} exited {int(exited)} (expected {code}): {message}")
        # ru_maxrss is in KiB on Linux
        elapsed, rss = float(elapsed), int(maxrss) / 1024
        if elapsed > seconds or rss > mb:
            raise RuntimeError(
                f"modwind {' '.join(argv)} took {elapsed:.2f} s and {rss:.0f} MB, past its bound of {seconds} s and {mb} MB"
            )
        results.append((elapsed, rss))
    return results


def spread(values, digits, unit):
    """'lo-hi unit' of the values, or one value if they round alike."""
    lo, hi = (f"{x:.{digits}f}" for x in (min(values), max(values)))
    return f"{lo} {unit}" if lo == hi else f"{lo}-{hi} {unit}"


def table_line(argv, results, code=0):
    """The row's line of the table: the command without its length, T (- for a
    command that takes none), exit code, time and peak RSS."""
    T = "-"
    if "--max-length" in argv:
        at = argv.index("--max-length")
        argv, T = argv[:at] + argv[at + 2 :], argv[at + 1]
    seconds, rss = zip(*results)
    return f"| `{' '.join(argv)}` | {T} | {code} | {spread(seconds, 2, 's')} | {spread(rss, 0, 'MB')} |"


def main():
    print("| command | T | exit | time | peak RSS |")
    print("|---|---|---|---|---|")
    for argv, seconds, mb, code in ROWS:
        try:
            results = measure_row(argv, seconds, mb, code)
        except RuntimeError as exc:
            sys.exit(str(exc))
        print(table_line(argv, results, code), flush=True)


if __name__ == "__main__":
    main()
