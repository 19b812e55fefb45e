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
Each row states a bound on the wall time and the max RSS of every run.  A
command that exits non-zero, or a run past its row's bound, stops the script
with exit status 1 and a message that names the row.
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
# (argv, seconds, MB): each run of `modwind argv` takes at most that wall time
# and max RSS.  The time bounds are about three times the slowest run seen on
# a 2-core x86-64 box, whose speed varies by up to 2x.  The RSS bounds leave
# 40 MB or more above the largest run seen, because the allocator's layout
# alone moves a run's max RSS by 20-40 MB as the launch changes.
ROWS = [
    (("enumerate", "--max-length", T_MAX, "--out", "census.csv"), 30, 300),
    (("enumerate", "--max-length", T_MAX, "--format", "json", "--out", "census.json"), 30, 300),
    (("stats-density", "--max-length", T_MAX), 2.5, 230),
    (("stats-cauchy", "--max-length", T_MAX), 2.5, 230),
    (("stats-equidist", "--max-length", T_MAX, "--modulus", "3"), 2.5, 230),
    (("stats-twisted", "--max-length", T_MAX, "--r-grid", "-0.45:0.45:0.05"), 2.5, 230),
    (("verify", "--max-length", T_VERIFY), 15, 100),
    (("verify", "--max-length", T_VERIFY, "--sample", "10000"), 25, 120),
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


def measure_row(argv, seconds=math.inf, mb=math.inf):
    """(seconds, max RSS in MB) of each of RUNS runs of `modwind argv`;
    RuntimeError, naming the row, for a run that exits non-zero or takes
    more than `seconds` or `mb` MB of max RSS."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    results = []
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as stderr:
            launcher = subprocess.run(
                [sys.executable, "-c", LAUNCHER, *argv], env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr
            )
            # a launcher that fails before it prints exits non-zero itself
            code, elapsed, maxrss = launcher.stdout.split() or (launcher.returncode, 0, 0)
            if int(code) != 0:
                stderr.seek(0)
                message = stderr.read().decode(errors="replace")
                raise RuntimeError(f"modwind {' '.join(argv)} exited {int(code)}: {message}")
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


def table_line(argv, results):
    """The row's line of the table: the command without its length, T, time and peak RSS."""
    at = argv.index("--max-length")
    command = " ".join(argv[:at] + argv[at + 2 :])
    seconds, rss = zip(*results)
    return f"| `{command}` | {argv[at + 1]} | {spread(seconds, 2, 's')} | {spread(rss, 0, 'MB')} |"


def main():
    print("| command | T | time | peak RSS |")
    print("|---|---|---|---|")
    for argv, seconds, mb in ROWS:
        try:
            results = measure_row(argv, seconds, mb)
        except RuntimeError as exc:
            sys.exit(str(exc))
        print(table_line(argv, results), flush=True)


if __name__ == "__main__":
    main()
