"""Boundary sweep: every length, trace or winding entry point, at bounds far
past the census and past the float range, returns or raises a ModwindError
within 1 s.

All calls run in one child process that prints each outcome as it finishes,
so a call that hangs fails the sweep by timeout instead of hanging the suite.
The child interrupts a slow call with SIGALRM, so the sweep is skipped where
the platform has no setitimer.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

LENGTHS = ("84.0", "100.0", "710.0", "1500.0", "1e6", "10**400")
TRACES = ("2**53 + 1", "2**1024", "10**400")
# 10**200 and 2 * 10**307: the kernel width is finite, its square past the float range
WINDINGS = ("2**53 + 1", "10**200", "2 * 10**307", "2**1024", "10**400", "-10**400")
# the census of traces up to 30 stands in for any census: past its largest
# trace every window is the whole census
LENGTH_CALLS = {
    "trace_cap_for_length": "geodesics.trace_cap_for_length({})",
    "winding_histogram": "stats.winding_histogram(census, {})",
    "limiting_density": "stats.limiting_density(1, {})",
    "cauchy_compare": "stats.cauchy_compare(census, {})",
    "equidistribution": "stats.equidistribution(census, {}, 3)",
    "twisted_sums": "stats.twisted_sums(census, {}, (0.0, 0.3, 1.0))",
}
TRACE_CALLS = {
    "geodesic_length": "matrices.geodesic_length({})",
    "enumerate_by_trace": "geodesics.enumerate_by_trace({})",
}
WINDING_CALLS = {
    "limiting_density_winding": "stats.limiting_density({}, 5.0)",
}
CASES = {
    name: [call.format(x) for x in inputs]
    for calls, inputs in ((LENGTH_CALLS, LENGTHS), (TRACE_CALLS, TRACES), (WINDING_CALLS, WINDINGS))
    for name, call in calls.items()
}
CALL_SECONDS = 1.0
SWEEP_SECONDS = 60.0

# Each call gets a real-time alarm at CALL_SECONDS, which interrupts a loop in
# Python, so one slow call does not hide the calls after it.
CHILD = """
import json, signal, sys, time
from modwind import geodesics, matrices, stats
from modwind.errors import ModwindError
class Late(Exception):
    pass
def late(signum, frame):
    raise Late
signal.signal(signal.SIGALRM, late)
census = geodesics.enumerate_by_trace(30)
for expr in json.loads(sys.argv[1]):
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, float(sys.argv[2]))
    try:
        eval(expr)
        outcome = "returned"
    except Late:
        outcome = "interrupted"
    except ModwindError as exc:
        outcome = type(exc).__name__
    except Exception as exc:
        outcome = f"bare {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    print(json.dumps([expr, outcome, time.perf_counter() - start]), flush=True)
"""


pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


@pytest.fixture(scope="module")
def outcomes():
    """{expression: (outcome, seconds)} of every call the child finished."""
    calls = [expr for exprs in CASES.values() for expr in exprs]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(calls), str(CALL_SECONDS)],
            env=env, capture_output=True, text=True, timeout=SWEEP_SECONDS,
        ).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode()
    return {expr: (outcome, seconds) for expr, outcome, seconds in map(json.loads, out.splitlines())}


@pytest.mark.parametrize("name", list(CASES))
def test_returns_or_refuses_at_once(outcomes, name):
    for expr in CASES[name]:
        assert expr in outcomes, f"{expr} did not finish within the {SWEEP_SECONDS:g} s sweep"
        outcome, seconds = outcomes[expr]
        assert outcome != "interrupted" and not outcome.startswith("bare"), f"{expr}: {outcome}"
        assert seconds < CALL_SECONDS, f"{expr} took {seconds:.2f} s"
