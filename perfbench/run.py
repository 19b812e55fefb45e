"""Run one benchmark workload of modwind and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|routes|symbols --seed N \
        --seconds S --trace 0|1

The program is imported from the checkout's own src/.  The amount of work
is a fixed number of rounds, derived from --seconds and each workload's
nominal round time; no loop is bounded by the clock.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, taken from spans around every call into the
program, plus the tracing overhead.  The line before it holds the machine
fingerprint, the sample counts and every failing input.  End-to-end times
are in seconds at the reference host speed of hostclock.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-up is repeated in child processes, each with a fresh interpreter, and
# the median of this many samples (this process included) is reported, in
# seconds at the reference speed of hostclock.py like every end-to-end time
SETUP_SAMPLES = 3

END_TO_END = {
    "classes_per_s": "1/s",
    "class_ms_p50": "ms",
    "class_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "1",
}

PER_LAYER = {
    "geodesics.enumerate_s": "s",
    "geodesics.records_per_s": "1/s",
    "geodesics.rss_bytes_per_record": "B",
    "stats.histogram_ms": "ms",
    "stats.density_ms": "ms",
    "stats.cauchy_ms": "ms",
    "stats.equidistribution_ms": "ms",
    "stats.twisted_ms": "ms",
    **{
        f"winding.{route}_ms{suffix}": "ms"
        for route in ("winding_index", "e2_period")
        for suffix in ("", ".generic", ".long", ".cusp")
    },
    "winding.steps_per_class": "count",
    "winding.delta_eval_us": "us",
    "winding.e2_completed_us": "us",
    "winding.residual_max": "turns",
    "rademacher.psi_us": "us",
    "rademacher.psi_cocycle_us": "us",
    "rademacher.psi_cf_us": "us",
    "rademacher.s_symbol_us": "us",
    "matrices.dedekind_sum_us": "us",
    "matrices.omega_us": "us",
    "matrices.mat2_matmul_us": "us",
    "geodesics.matrix_to_word_us.fresh": "us",
    "geodesics.matrix_to_word_us.repeat": "us",
    "trace.overhead_pct": "%",
}

# In a traced run the layers that the chosen workload does not load are
# measured on a small traced run of the workload that does.
PROBES = {
    "census": {"rounds": 1, "T": 11.0},
    "routes": {"rounds": 1, "per_stratum": 1},
    "symbols": {"rounds": 1, "block_size": 200},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROBES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time set-up, print it, exit")
    return ap.parse_args(argv)


def rounds_for(cls, seconds):
    return max(2, round(seconds / cls.nominal_round_s))


def fingerprint(args, rounds):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
    }


def child_setup_seconds(args):
    """Set-up time of a fresh interpreter doing this run's set-up and nothing else."""
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def set_up(args):
    """Import the program, build the workload and warm it; None without the program."""
    if not (SRC / "modwind" / "__init__.py").is_file():
        print(f"perfbench: no modwind source at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import modwind

    if Path(modwind.__file__).resolve().parent != SRC / "modwind":
        print(f"perfbench: modwind imported from {modwind.__file__}, not {SRC}", file=sys.stderr)
        return None
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, rounds_for(cls, args.seconds))
    wl.warm()
    return wl


def main(argv=None):
    clock = hostclock.HostClock()
    clock.arm()
    try:
        mark = clock.mark()
        args = parse_args(argv)
        wl = set_up(args)
        setup = clock.since(mark)
    finally:
        clock.disarm()
    if wl is None:
        return 2
    setup_s = clock.at_reference(setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = wl.rounds
    run = [wl]
    if args.trace:
        # alternate untraced and traced rounds of the same size; the ratio of
        # their medians is the tracing overhead
        traced_rounds = set(range(1, rounds, 2))
        records, tracer = wl.run(traced_rounds)
        plain = [rec["seconds"] for rec in records if not rec["traced"]]
        traced = [rec["seconds"] for rec in records if rec["traced"]]
        metrics = wl.layer_metrics(records, tracer)
        metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
        tracers = {args.workload: tracer}
        import workloads

        for name, kwargs in PROBES.items():
            if name == args.workload:
                continue
            probe = workloads.WORKLOADS[name](args.seed, **kwargs)
            probe.warm()
            precords, ptracer = probe.run({0})
            metrics.update(probe.layer_metrics(precords, ptracer))
            tracers[f"probe:{name}"] = ptracer
            run.append(probe)
        units = PER_LAYER
        info = {"rounds_traced": sorted(traced_rounds)}
    else:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        records, _ = wl.run()
        metrics, info = wl.end_to_end(records)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setups)
        metrics["success_rate"] = (wl.attempted - wl.failed) / wl.attempted
        info["setup_samples_s"] = setups
        info["setup_s_raw"] = setup[2]
        units = END_TO_END

    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric names do not match the benchmark's list: {sorted(missing)}")
    failures = [f for w in run for f in w.failures]
    for f in failures:
        print(f"perfbench: FAILED {f['input']}: {f['problem']}", file=sys.stderr)
    head = {"fingerprint": fingerprint(args, rounds), "samples": info, "failures": failures[:100]}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            for source, tracer in tracers.items():
                for span in tracer.spans:
                    fh.write(json.dumps([source, *span]) + "\n")
        head["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(head))
    result = {
        "correct": not failures,
        "attempted": sum(w.attempted for w in run),
        "failed": sum(w.failed for w in run),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
