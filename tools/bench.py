"""Write BENCH_<tag>.json: the machine, the source lines, the numerical routes' times
and the exact layer's.

Usage, from the root of a checkout:

    python3 tools/bench.py --tag TAG [--base PATH]

It times winding_index and e2_period, in us a class, on the routes workload's
own words: perfbench/gen.py's routes_words(SEED), 40 generic, long and cusp
words each, run from source so that no bytecode is written under perfbench/.
Each of the RUNS runs is a fresh child process that imports modwind from one
tree's src/, calls both routes on each class in turn, as every caller does,
REPEATS times over the whole set, and keeps each class's best time of each
route and of the two together ("both"); a run's figure for a stratum is the
mean of those bests.  Work that the routes share, such as a class's first
round, falls to whichever route runs first (winding_index here), so the
split between the two routes compares only across trees that share the
same work; "both" compares across any two.  The file gives the median
and quartiles over the runs, and the medians over a stratum's words of
winding_index's steps (its grid's intervals) and of the nodes of the first
round that both routes share, which do not change from run to run.

Each run then times the exact layer as the symbols workload calls it, on
the first block of perfbench/gen.py's symbols_queries(SEED, 1), also run
from source: matrix_to_word on each query's matrix g of trace > 0, psi and
psi_cocycle on g, psi_cf on its word, s_symbol on g, tau and g tau, omega on
(g, tau) and dedekind_sum on (d, |c|) of g.  Each call is timed alone,
REPEATS times, its clock reads included; a run's figure for a function is
the median over its calls of each call's best, in us, and the file gives
their median and quartiles over the runs.

With --base, the runs alternate between the tree at PATH ("base") and
this one ("head"), so one file holds a change's before and after on one
machine.  PATH must hold src/modwind, checked before the first run.  The file
is written to the root of this checkout.

The fingerprint records the CPU count, the machine, Python, numpy, the BLAS
numpy was built with and OPENBLAS_NUM_THREADS; each tree records its git
commit, whether its src/ differs from that commit, and the lines of each
module under src/modwind, all of them and those that hold code (not blank,
not a comment, not in a docstring).  Other load on the host slows the runs,
so each run records the `some` avg10 of /proc/pressure/cpu (the percentage
of the last 10 s in which a runnable task waited for a CPU) just before and
just after it, or null where the file is absent; and a tree lists under
"spread" each route and stratum, and each exact function as "exact/NAME",
whose quartiles lie more than SPREAD of its median apart, whose figures a
reader should not compare.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import platform
import runpy
import statistics
import subprocess
import sys
import time
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT
SEED = 1
RUNS = 10
REPEATS = 7
# (q3 - q1) / median above which a tree's figure for a route and stratum is flagged
SPREAD = 0.1
PRESSURE = Path("/proc/pressure/cpu")
ROUTES = ("winding_index", "e2_period", "both")
EXACT = ("matrix_to_word", "psi", "psi_cocycle", "psi_cf", "s_symbol", "omega", "dedekind_sum")


def routes_words():
    """[(stratum, word)]: the routes workload's words at SEED.  run_path compiles
    gen.py from its source and writes no bytecode next to it."""
    return runpy.run_path(str(ROOT / "perfbench" / "gen.py"))["routes_words"](SEED)


def symbols_queries():
    """The queries of the symbols workload's first block at SEED, read as routes_words reads its words."""
    (block,) = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))["symbols_queries"](SEED, 1)
    return block


def time_routes(words):
    """{stratum: {route: mean over its words of each word's best us, for each of
    ROUTES, "steps": median over its words of winding_index's steps, "nodes": median
    over its words of the first round's nodes}} in this process."""
    from modwind.geodesics import word_to_matrix
    from modwind.winding import _first_round, e2_period, winding_index

    classes = [(stratum, word_to_matrix(w)) for stratum, w in words]
    warm = word_to_matrix((7, 58))
    winding_index(warm)
    e2_period(warm)
    best = [[math.inf] * len(ROUTES) for _ in classes]
    steps = [winding_index(g).steps for _, g in classes]
    nodes = [_first_round(g).t.size for _, g in classes]
    clock = time.perf_counter
    for _ in range(REPEATS):
        for k, (_, g) in enumerate(classes):
            start = clock()
            winding_index(g)
            middle = clock()
            e2_period(g)
            end = clock()
            for i, seconds in enumerate((middle - start, end - middle, end - start)):
                best[k][i] = min(best[k][i], seconds)
    out = {}
    for stratum in dict.fromkeys(s for s, _ in words):
        rows = [b for (s, _), b in zip(classes, best) if s == stratum]
        out[stratum] = {r: 1e6 * statistics.fmean(b[i] for b in rows) for i, r in enumerate(ROUTES)}
        out[stratum]["steps"] = statistics.median(n for (s, _), n in zip(classes, steps) if s == stratum)
        out[stratum]["nodes"] = statistics.median(n for (s, _), n in zip(classes, nodes) if s == stratum)
    return out


def time_exact(queries):
    """{function: median over its calls of each call's best us} for each of EXACT,
    on the symbols queries, in this process."""
    from modwind.geodesics import matrix_to_word
    from modwind.matrices import Mat2, dedekind_sum, omega
    from modwind.rademacher import psi, psi_cf, psi_cocycle, s_symbol

    calls = {name: [] for name in EXACT}
    for q in queries:
        g, tau = Mat2(*q["g"]), Mat2(*q["tau"])
        h = g if g.trace > 0 else -g  # matrix_to_word takes the trace > 2 sign
        calls["matrix_to_word"].append((matrix_to_word, (h,)))
        calls["psi"].append((psi, (g,)))
        calls["psi_cocycle"].append((psi_cocycle, (g,)))
        calls["psi_cf"].append((psi_cf, (matrix_to_word(h),)))
        calls["s_symbol"] += [(s_symbol, (m,)) for m in (g @ tau, g, tau)]
        calls["omega"].append((omega, (g, tau)))
        calls["dedekind_sum"].append((dedekind_sum, (g.d, abs(g.c))))
    clock = time.perf_counter
    out = {}
    for name, timed in calls.items():
        best = [math.inf] * len(timed)
        for _ in range(REPEATS):
            for k, (fn, args) in enumerate(timed):
                start = clock()
                fn(*args)
                best[k] = min(best[k], clock() - start)
        out[name] = 1e6 * statistics.median(best)
    return out


def child_run(tree, words):
    """{"routes": time_routes on the words, "exact": time_exact on symbols_queries()}
    in a fresh interpreter that imports modwind from tree/src."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2] + '/src');"
        "import bench, modwind; assert modwind.__file__.startswith(sys.argv[2]), modwind.__file__;"
        "routes = bench.time_routes(json.loads(sys.stdin.read()));"
        "print(json.dumps({'routes': routes, 'exact': bench.time_exact(bench.symbols_queries())}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools"), str(tree)],
        input=json.dumps(words),
        capture_output=True,
        text=True,
        check=True,
        cwd=tree,
    )
    return json.loads(done.stdout)


def cpu_pressure():
    """The `some` avg10 of PRESSURE, in percent, or None where it cannot be read."""
    try:
        some = PRESSURE.read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    fields = dict(field.split("=", 1) for field in some[1:])
    return float(fields["avg10"]) if some[0] == "some" and "avg10" in fields else None


def spread(figures):
    """["route/stratum"] of each figure {route: {stratum: quartiles}} whose quartiles
    lie more than SPREAD of its median apart."""
    return [
        f"{route}/{stratum}"
        for route, strata in figures.items()
        for stratum, q in strata.items()
        if q["q3"] - q["q1"] > SPREAD * q["median"]
    ]


def quartiles(values):
    """{median, q1, q3} of the values; all three the value itself for one."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def git_state(tree):
    """(HEAD commit, whether src/ differs from it) of the checkout, or (None, None) outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
        status = ["git", "status", "--porcelain", "--", "src"]
        changes = subprocess.run(status, cwd=tree, capture_output=True, text=True)
    except OSError:
        return None, None
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(changes.stdout.strip())


def code_lines(text):
    """The number of lines of the Python source text that hold code: a token other
    than a comment, and outside the docstrings of the module, its classes and functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def source_lines(tree, count=lambda text: len(text.splitlines())):
    """{module: count(its text)} under tree/src/modwind, with their total: by
    default each module's lines."""
    modules = sorted((Path(tree) / "src" / "modwind").glob("*.py"))
    lines = {p.name: count(p.read_text()) for p in modules}
    lines["total"] = sum(lines.values())
    return lines


def fingerprint():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def report(tag, trees, words):
    """The BENCH record of the named trees [(label, path)] on the words
    [(stratum, word)] and the symbols queries, their RUNS runs alternating."""
    times = {label: [] for label, _ in trees}
    pressure = {label: [] for label, _ in trees}
    for k in range(RUNS):
        for label, tree in trees if k % 2 == 0 else trees[::-1]:
            before = cpu_pressure()
            times[label].append(child_run(tree, words))
            pressure[label].append({"before": before, "after": cpu_pressure()})
    out = {
        "tag": tag,
        "fingerprint": fingerprint(),
        "config": {
            "runs": RUNS,
            "repeats": REPEATS,
            "seed": SEED,
            "words": dict(Counter(s for s, _ in words)),
            "queries": len(symbols_queries()),
            "spread_limit": SPREAD,
        },
        "trees": {},
    }
    for label, tree in trees:
        runs = [run["routes"] for run in times[label]]
        strata = runs[0].keys()
        commit, dirty = git_state(tree)
        routes_us = {route: {s: quartiles([run[s][route] for run in runs]) for s in strata} for route in ROUTES}
        exact_us = {name: quartiles([run["exact"][name] for run in times[label]]) for name in EXACT}
        out["trees"][label] = {
            "commit": commit,
            "dirty": dirty,
            "source_lines": source_lines(tree),
            "code_lines": source_lines(tree, code_lines),
            "routes_us": routes_us,
            "exact_us": exact_us,
            "winding_steps": {s: runs[0][s]["steps"] for s in strata},
            "first_round_nodes": {s: runs[0][s]["nodes"] for s in strata},
            "cpu_pressure": pressure[label],
            "spread": spread({**routes_us, "exact": exact_us}),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--base", type=Path, help="a second checkout, timed as 'base' against this one")
    args = ap.parse_args(argv)
    # checked here, as a bad path would otherwise fail only after every timed run
    if args.base is not None and not (args.base / "src" / "modwind").is_dir():
        ap.error(f"--base {args.base} holds no src/modwind")
    trees = [("head", ROOT)] if args.base is None else [("base", args.base.resolve()), ("head", ROOT)]
    record = report(args.tag, trees, routes_words())
    path = OUT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for label, tree in record["trees"].items():
        if tree["spread"]:
            print(f"{label}: quartiles over {SPREAD:.0%} of the median apart: {', '.join(tree['spread'])}", file=sys.stderr)
    print(path)


if __name__ == "__main__":
    main()
