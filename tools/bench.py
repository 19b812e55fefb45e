"""Write BENCH_<tag>.json: the machine, the source lines and the numerical routes' times.

Usage, from the root of a checkout:

    python3 tools/bench.py --tag TAG [--base PATH] [--runs K] [--out DIR]

It times winding_index and e2_period, in us a class, on PER_STRATUM seeded
words a stratum that it draws itself: generic (2 to 6 digits in 1..6), long
(8 to 12 digits in 1..3) and cusp (2 or 4 digits in 1..6, one of them raised
to 50..400), each of geodesic length at most 14.  Each of the K runs is a
fresh child process that imports modwind from one tree's src/, calls both
routes on each class in turn, as every caller does, REPEATS times over the
whole set, and keeps each class's best time; a run's figure for a stratum is
the mean of those bests.  The file gives the median and quartiles over the K runs,
and the median over a stratum's words of winding_index's steps (its grid's
intervals), which do not change from run to run.  With --base, the runs
alternate between the tree at PATH ("base") and this one ("head"), so one file
holds a change's before and after on one machine.  PATH must hold src/modwind
and DIR must be a directory, both checked before the first run.

The fingerprint records the CPU count, the machine, Python, numpy, the BLAS
numpy was built with and OPENBLAS_NUM_THREADS; each tree records its git
commit, whether its src/ differs from that commit, and the lines of each
module under src/modwind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATA = ("generic", "long", "cusp")
MAX_LENGTH = 14.0
PER_STRATUM = 40
SEED = 1
REPEATS = 7
ROUTES = ("winding_index", "e2_period")


def word_trace(word):
    """Trace of A_a1 ... A_an, A_a = (a 1; 1 0), in plain integers."""
    p, q, r, s = 1, 0, 0, 1
    for a in word:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p + s


def draw_words(seed, per_stratum):
    """[(stratum, word)]: per_stratum distinct words a stratum, each of geodesic
    length at most MAX_LENGTH, from random.Random(f"bench-{seed}")."""
    rng = random.Random(f"bench-{seed}")
    words, seen = [], set()
    for stratum in STRATA:
        count = 0
        while count < per_stratum:
            if stratum == "generic":
                w = [rng.randint(1, 6) for _ in range(rng.choice((2, 4, 6)))]
            elif stratum == "long":
                w = [rng.randint(1, 3) for _ in range(rng.choice((8, 10, 12)))]
            else:
                w = [rng.randint(1, 6) for _ in range(rng.choice((2, 4)))]
                w[rng.randrange(len(w))] = rng.randint(50, 400)
            w = tuple(w)
            if w in seen or 2.0 * math.acosh(word_trace(w) / 2.0) > MAX_LENGTH:
                continue
            seen.add(w)
            words.append((stratum, w))
            count += 1
    return words


def time_routes(words):
    """{stratum: {route: mean over its words of each word's best us, "steps": median
    over its words of winding_index's steps}} in this process."""
    from modwind.geodesics import word_to_matrix
    from modwind.winding import e2_period, winding_index

    classes = [(stratum, word_to_matrix(w)) for stratum, w in words]
    warm = word_to_matrix((7, 58))
    winding_index(warm)
    e2_period(warm)
    best = [[math.inf, math.inf] for _ in classes]
    steps = [winding_index(g).steps for _, g in classes]
    clock = time.perf_counter
    for _ in range(REPEATS):
        for k, (_, g) in enumerate(classes):
            start = clock()
            winding_index(g)
            middle = clock()
            e2_period(g)
            end = clock()
            best[k][0] = min(best[k][0], middle - start)
            best[k][1] = min(best[k][1], end - middle)
    out = {}
    for stratum in dict.fromkeys(s for s, _ in words):
        rows = [b for (s, _), b in zip(classes, best) if s == stratum]
        out[stratum] = {r: 1e6 * statistics.fmean(b[i] for b in rows) for i, r in enumerate(ROUTES)}
        out[stratum]["steps"] = statistics.median(n for (s, _), n in zip(classes, steps) if s == stratum)
    return out


def child_run(tree, words):
    """time_routes in a fresh interpreter that imports modwind from tree/src."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2] + '/src');"
        "import bench, modwind; assert modwind.__file__.startswith(sys.argv[2]), modwind.__file__;"
        "print(json.dumps(bench.time_routes(json.loads(sys.stdin.read()))))"
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


def source_lines(tree):
    """{module: line count} under tree/src/modwind, with their total."""
    modules = sorted((Path(tree) / "src" / "modwind").glob("*.py"))
    lines = {p.name: len(p.read_text().splitlines()) for p in modules}
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


def report(tag, trees, words, runs):
    """The BENCH record of the named trees [(label, path)] on the words
    [(stratum, word)], their runs alternating."""
    times = {label: [] for label, _ in trees}
    for k in range(runs):
        for label, tree in trees if k % 2 == 0 else trees[::-1]:
            times[label].append(child_run(tree, words))
    out = {
        "tag": tag,
        "fingerprint": fingerprint(),
        "config": {
            "runs": runs,
            "repeats": REPEATS,
            "seed": SEED,
            "words": {s: sum(1 for t, _ in words if t == s) for s in STRATA},
        },
        "trees": {},
    }
    for label, tree in trees:
        strata = times[label][0].keys()
        commit, dirty = git_state(tree)
        out["trees"][label] = {
            "commit": commit,
            "dirty": dirty,
            "source_lines": source_lines(tree),
            "routes_us": {
                route: {s: quartiles([run[s][route] for run in times[label]]) for s in strata} for route in ROUTES
            },
            "winding_steps": {s: times[label][0][s]["steps"] for s in strata},
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--base", type=Path, help="a second checkout, timed as 'base' against this one")
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    # checked here, as a bad path would otherwise fail only after every timed run
    if not args.out.is_dir():
        ap.error(f"--out {args.out} is not a directory")
    if args.base is not None and not (args.base / "src" / "modwind").is_dir():
        ap.error(f"--base {args.base} holds no src/modwind")
    trees = [("head", ROOT)] if args.base is None else [("base", args.base.resolve()), ("head", ROOT)]
    record = report(args.tag, trees, draw_words(SEED, PER_STRATUM), args.runs)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
