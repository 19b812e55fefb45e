"""The three workloads: census, routes and symbols.

Each workload does a fixed amount of work in rounds.  A round is one census
repetition, one pass over the routes words, or one block of symbol queries.
Every unit is timed on its own, as a stretch of hostclock.HostClock, and
checked against the references of gen.py; a wrong value or a raised
ModwindError counts against the unit.
Calls into the program go through `call(name, fn, *args)`, which is either
the untraced `spans.call` or `Tracer.call`.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
from collections import Counter

import numpy as np

import gen
import hostclock
import spans
from modwind import (
    EnumerationConfig,
    Mat2,
    ModwindError,
    axis_point,
    cauchy_compare,
    delta_eval,
    dedekind_sum,
    density_table,
    e2_completed,
    e2_period,
    enumerate_geodesics,
    equidistribution,
    matrix_to_word,
    omega,
    psi,
    psi_cf,
    psi_cocycle,
    s_symbol,
    twisted_sum,
    winding_histogram,
    winding_index,
)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _current_rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _batch(call, name, fn, args_list):
    """One span around fn over every argument tuple; returns the call count."""

    def loop():
        for args in args_list:
            fn(*args)

    call(name, loop)
    return len(args_list)


class Workload:
    """Shared round loop and failure accounting."""

    name = ""
    nominal_round_s = 0.0  # --seconds over this is the number of rounds

    def __init__(self, rounds):
        self.rounds = rounds
        self.failures = []  # every failing input with what went wrong
        self.attempted = 0
        self.failed = 0
        self.clock = hostclock.HostClock()

    def fail(self, unit_input, problem, units=1):
        self.failures.append({"input": repr(unit_input), "problem": problem})
        self.failed += units

    def run(self, traced_rounds=()):
        """Run every round; rounds listed in traced_rounds go through a Tracer.

        An untraced run samples the host speed throughout (a traced run
        reports raw times).  Returns (per-round records, tracer or None).
        """
        tracer = spans.Tracer() if traced_rounds else None
        records = []
        if not traced_rounds:
            self.clock.arm()
        try:
            for r in range(self.rounds):
                gc.collect()
                traced = r in traced_rounds
                rec = self.round(r, tracer.call if traced else spans.call, tracer if traced else None)
                rec["traced"] = traced
                records.append(rec)
        finally:
            if self.clock.armed:
                self.clock.disarm()
        return records, tracer

    def reference_ms(self, stretches):
        """Milliseconds at the reference speed of each stretch, and raw."""
        return [self.clock.at_reference(st) * 1e3 for st in stretches], [st[2] * 1e3 for st in stretches]


# --------------------------------------------------------------------------
# census


class Census(Workload):
    """enumerate_geodesics at T = 15 and the demo's statistics on its records."""

    name = "census"
    nominal_round_s = 7.0
    T = 15.0
    N_RANGE = range(-5, 6)
    MODULI = (2, 3, 5)
    R_GRID = tuple(round(-0.45 + 0.05 * k, 2) for k in range(19))
    # classes up to this trace are compared with gen.census_reference
    REFERENCE_CAP = 300

    def __init__(self, seed, rounds, T=None):
        # seed is unused: the census has no random input
        super().__init__(rounds)
        if T is not None:
            self.T = T
        self.cap = math.floor(2.0 * math.cosh(self.T / 2.0))
        self.reference_cap = min(self.REFERENCE_CAP, self.cap)
        self.reference = gen.census_reference(self.reference_cap)
        self.first = None  # digest of the first round, later rounds must match

    def warm(self):
        records = enumerate_geodesics(EnumerationConfig(max_length=10.0))
        self._stats(spans.call, records)

    def _stats(self, call, records):
        T = self.T
        hist = call("stats.winding_histogram", winding_histogram, records, T)
        dens = call("stats.density_table", density_table, hist, self.N_RANGE)
        cauchy = call("stats.cauchy_compare", cauchy_compare, records, T)
        equi = [call("stats.equidistribution", equidistribution, records, T, q) for q in self.MODULI]
        twisted = [call("stats.twisted_sum", twisted_sum, records, T, r) for r in self.R_GRID]
        return hist, dens, cauchy, equi, twisted

    def round(self, r, call, tracer):
        stages = []  # stretch of each call, in call order
        clock = self.clock

        def stage(name, fn, *args):
            mark = clock.mark()
            out = call(name, fn, *args)
            stages.append(clock.since(mark))
            return out

        def work():
            rss0 = _current_rss_bytes() if tracer else 0
            records = stage("geodesics.enumerate_geodesics", enumerate_geodesics, EnumerationConfig(max_length=self.T))
            rss = _current_rss_bytes() - rss0 if tracer else 0
            return records, self._stats(stage, records), rss

        try:
            if tracer:
                records, stats, rss = tracer.unit(f"census:r{r}", work)
            else:
                records, stats, rss = work()
        except ModwindError as exc:
            self.attempted += 1
            self.fail(f"census T={self.T} round {r}", repr(exc))
            return {"units": 0, "seconds": 0.0}
        self.attempted += len(records)
        self._check(r, records, stats)
        rec = {"units": len(records), "seconds": sum(st[2] for st in stages), "stages": stages, "rss_delta": rss}
        del records, stats
        gc.collect()
        return rec

    def _check(self, r, records, stats):
        """The first round is checked in full, later rounds against its digest."""
        digest = (
            hash(tuple(hash((x.word.entries, x.trace, x.psi, x.length)) for x in records)),
            repr(stats),
        )
        if self.first is not None:
            if digest != self.first:
                self.fail(f"census T={self.T} round {r}", "differs from round 0", units=len(records))
            return
        self.first = digest
        prev = None
        by_trace = {}
        for x in records:
            entries = x.word.entries
            key = (x.trace, entries)
            p, _, _, s = gen.word_product(entries)
            problems = []
            if entries != gen.min_even_rotation(entries) or not gen.is_primitive(entries):
                problems.append("not a canonical primitive word")
            if p + s != x.trace or x.trace > self.cap:
                problems.append(f"trace {x.trace}, expected {p + s} <= {self.cap}")
            if x.psi != gen.alternating_sum(entries):
                problems.append(f"psi {x.psi}, expected {gen.alternating_sum(entries)}")
            if not abs(x.length - 2.0 * math.acosh(x.trace / 2.0)) <= 1e-12 * x.length or x.length > self.T + 1e-9:
                problems.append(f"length {x.length}")
            if prev is not None and not prev < key:
                problems.append("out of (trace, word) order or repeated")
            prev = key
            if problems:
                self.fail(entries, "; ".join(problems))
            by_trace.setdefault(x.trace, set()).add(entries)
        # the census is closed under reversal of the word
        for x in records:
            rev = gen.min_even_rotation(tuple(reversed(x.word.entries)))
            if rev not in by_trace.get(x.trace, ()):
                self.fail(x.word.entries, "reversed class missing")
        got = {(x.word.entries, x.trace) for x in records if x.trace <= self.reference_cap}
        for entries, trace in self.reference ^ got:
            self.fail(entries, f"trace {trace}: " + ("missing" if (entries, trace) in self.reference else "not a class"))
        self._check_stats(records, stats)

    def _check_stats(self, records, stats):
        """Compare the statistics with numpy recomputations of the same formulas."""
        hist, dens, cauchy, equi, twisted = stats
        T = self.T
        psi_arr = np.array([x.psi for x in records], dtype=np.int64)
        length = np.array([x.length for x in records])
        keep = length <= T
        psi_arr, length = psi_arr[keep], length[keep]
        n = len(psi_arr)
        problems = []
        counts = Counter(psi_arr.tolist())
        if hist.counts != dict(counts) or hist.total != n:
            problems.append("winding_histogram")
        for (k, emp, pred), k_ref in zip(dens, self.N_RANGE):
            c = 4.0 * math.pi * k_ref / 12
            if k != k_ref or emp != counts.get(k_ref, 0) / n or not math.isclose(pred, (4 / 12) * T / (T * T + c * c), rel_tol=1e-12):
                problems.append(f"density_table n={k_ref}")
        u = np.sort(3.0 / math.pi * psi_arr / length)
        f = 0.5 + np.arctan(u) / math.pi
        i = np.arange(n)
        ks = max(np.max(np.abs((i + 1) / n - f)), np.max(np.abs(i / n - f)))
        if not abs(cauchy.ks_statistic - ks) <= 1e-12:
            problems.append(f"cauchy_compare ks {cauchy.ks_statistic} vs {ks}")
        for q, table in zip(self.MODULI, equi):
            ref = np.bincount(psi_arr % q, minlength=q) / n
            if sorted(table) != list(range(q)) or any(not math.isclose(table[a], ref[a], rel_tol=1e-12) for a in range(q)):
                problems.append(f"equidistribution q={q}")
        for r, rep in zip(self.R_GRID, twisted):
            ref = complex(np.sum(np.exp(2j * math.pi * r * psi_arr / 12.0) * length))
            if rep.r != r or not abs(rep.sum - ref) <= 1e-9 * abs(ref):
                problems.append(f"twisted_sum r={r}")
        for p in problems:
            self.fail(f"census T={T} statistics", p, units=0)

    def end_to_end(self, records):
        # The census hands over every class at once, so a repetition is the
        # unit, and p50 = p90 = its median time per class.
        done = [rec for rec in records if rec["units"]]
        ms, raw = zip(*(map(sum, self.reference_ms(rec["stages"])) for rec in done))
        seconds = statistics.median(ms) * 1e-3
        n = done[0]["units"]
        return {
            "classes_per_s": n / seconds,
            "class_ms_p50": seconds / n * 1e3,
            "class_ms_p90": seconds / n * 1e3,
        }, {
            "unit": "census repetition, median over rounds", "samples": len(done), "classes_per_round": n,
            "round_s_at_reference": [x * 1e-3 for x in ms], "round_s_raw": [x * 1e-3 for x in raw],
        }

    def layer_metrics(self, records, tracer):
        traced = [rec for rec in records if rec["traced"]]
        enum_s = statistics.median(tracer.durations("geodesics.enumerate_geodesics"))
        n = traced[0]["units"]

        def ms_per_round(name):
            d = tracer.durations(name)
            per_round = len(d) // len(traced)
            return statistics.median(sum(d[i:i + per_round]) for i in range(0, len(d), per_round)) * 1e3

        return {
            "geodesics.enumerate_s": enum_s,
            "geodesics.records_per_s": n / enum_s,
            "geodesics.rss_bytes_per_record": statistics.median(rec["rss_delta"] / rec["units"] for rec in traced),
            "stats.histogram_ms": ms_per_round("stats.winding_histogram"),
            "stats.density_ms": ms_per_round("stats.density_table"),
            "stats.cauchy_ms": ms_per_round("stats.cauchy_compare"),
            "stats.equidistribution_ms": ms_per_round("stats.equidistribution"),
            "stats.twisted_ms": ms_per_round("stats.twisted_sum"),
        }


# --------------------------------------------------------------------------
# routes


class Routes(Workload):
    """winding_index and e2_period on generated words in three strata."""

    name = "routes"
    nominal_round_s = 7.0
    PERIOD_TOL = 1e-6  # the acceptance tests' tolerance on e2_period
    AXIS_POINTS = 8  # per class, for the per-point form evaluation costs

    def __init__(self, seed, rounds, per_stratum=gen.ROUTES_PER_STRATUM):
        super().__init__(rounds)
        self.classes = [
            (stratum, word, Mat2(*gen.word_product(word)), gen.alternating_sum(word))
            for stratum, word in gen.routes_words(seed, per_stratum)
        ]
        self.steps = {}
        self.residual_max = 0.0

    def warm(self):
        g = Mat2(*gen.word_product(gen.WARMUP_WORD))
        winding_index(g)
        e2_period(g)  # the first call imports scipy.integrate
        z, _ = axis_point(g, 0.5)
        delta_eval(z)
        e2_completed(z)

    def _one(self, call, k):
        stratum, word, g, ref = self.classes[k]
        mark = self.clock.mark()
        res = call("winding.winding_index", winding_index, g)
        period = call("winding.e2_period", e2_period, g)
        stretch = self.clock.since(mark)
        problems = []
        if res.index != ref:
            problems.append(f"winding_index {res.index}, expected {ref}")
        if not abs(period - ref) <= self.PERIOD_TOL:
            problems.append(f"e2_period {period!r}, expected {ref}")
        self.steps[k] = res.steps
        self.residual_max = max(self.residual_max, res.residual)
        return problems, stretch

    def round(self, r, call, tracer):
        latency = {}
        seconds = 0.0
        for k, (stratum, word, _, _) in enumerate(self.classes):
            self.attempted += 1
            try:
                if tracer:
                    problems, stretch = tracer.unit(f"{stratum}:{k}:r{r}", self._one, call, k)
                else:
                    problems, stretch = self._one(call, k)
            except ModwindError as exc:
                problems = [repr(exc)]
            if problems:
                self.fail((stratum, word), "; ".join(problems))
                continue
            latency[k] = stretch
            seconds += stretch[2]
        if tracer:
            self._points(call)
        return {"units": len(latency), "seconds": seconds, "latency": latency}

    def _points(self, call):
        points = []
        for _, word, g, _ in self.classes:
            ell = gen.geodesic_length(word)
            points += [(axis_point(g, ell * j / self.AXIS_POINTS)[0],) for j in range(self.AXIS_POINTS)]
        self.n_points = _batch(call, "winding.delta_eval.batch", delta_eval, points)
        _batch(call, "winding.e2_completed.batch", e2_completed, points)

    def end_to_end(self, records):
        per_class, raw = [], []
        for k in range(len(self.classes)):
            stretches = [rec["latency"][k] for rec in records if k in rec["latency"]]
            if stretches:
                ms, ms_raw = self.reference_ms(stretches)
                per_class.append(statistics.median(ms))
                raw.append(statistics.median(ms_raw))
        return {
            "classes_per_s": len(per_class) / sum(per_class) * 1e3,
            "class_ms_p50": statistics.median(per_class),
            "class_ms_p90": p90(per_class),
        }, {
            "unit": "class (winding_index + e2_period), median over rounds", "samples": len(per_class),
            "raw_ms_p50": statistics.median(raw), "raw_ms_p90": p90(raw),
        }

    def layer_metrics(self, records, tracer):
        out = {}
        for route in ("winding_index", "e2_period"):
            spans_by = {}
            for name, s, e, _, unit in tracer.spans:
                if name == f"winding.{route}":
                    spans_by.setdefault(unit.split(":")[0], []).append((e - s) * 1e-6)
            every = [d for ds in spans_by.values() for d in ds]
            out[f"winding.{route}_ms"] = statistics.fmean(every)
            for stratum in gen.STRATA:
                out[f"winding.{route}_ms.{stratum}"] = statistics.fmean(spans_by[stratum])
        out["winding.steps_per_class"] = statistics.fmean(self.steps.values())
        for name in ("delta_eval", "e2_completed"):
            d = tracer.durations(f"winding.{name}.batch")
            out[f"winding.{name}_us"] = statistics.median(d) / self.n_points * 1e6
        out["winding.residual_max"] = self.residual_max
        return out


# --------------------------------------------------------------------------
# symbols


class Symbols(Workload):
    """Exact symbols of random conjugates of generated words."""

    name = "symbols"
    nominal_round_s = 0.65

    def __init__(self, seed, rounds, block_size=gen.SYMBOLS_BLOCK):
        super().__init__(rounds)
        self.blocks = [
            [(q, Mat2(*q["g"]), Mat2(*q["tau"])) for q in block]
            for block in gen.symbols_queries(seed, rounds, block_size)
        ]

    def warm(self):
        q = gen.make_query(random.Random(0), gen.WARMUP_WORD, False)
        self._query(spans.call, Mat2(*q["g"]), Mat2(*q["tau"]))

    @staticmethod
    def _query(call, g, tau):
        h = g if g.trace > 0 else -g  # matrix_to_word takes the trace > 2 sign
        word = call("geodesics.matrix_to_word", matrix_to_word, h)
        p1 = call("rademacher.psi", psi, g)
        p2 = call("rademacher.psi_cocycle", psi_cocycle, g)
        p3 = call("rademacher.psi_cf", psi_cf, word)
        gt = g @ tau
        defect = (
            call("rademacher.s_symbol", s_symbol, gt)
            - call("rademacher.s_symbol", s_symbol, g)
            - call("rademacher.s_symbol", s_symbol, tau)
        )
        w = call("matrices.omega", omega, g, tau)
        return word.entries, (p1, p2, p3), defect, 12 * w

    def round(self, r, call, tracer):
        latency = []
        seconds = 0.0
        for j, (q, g, tau) in enumerate(self.blocks[r]):
            self.attempted += 1
            mark = self.clock.mark()
            try:
                if tracer:
                    out = tracer.unit(f"{'R' if q['repeat'] else 'F'}:{j}:r{r}", self._query, call, g, tau)
                else:
                    out = self._query(call, g, tau)
            except ModwindError as exc:
                self.fail(q["g"], repr(exc))
                continue
            stretch = self.clock.since(mark)
            entries, psis, defect, twelve_omega = out
            problems = []
            if entries != q["cls"]:
                problems.append(f"matrix_to_word {entries}, expected {q['cls']}")
            if psis != (q["psi"],) * 3:
                problems.append(f"psi, psi_cocycle, psi_cf = {psis}, expected {q['psi']}")
            if defect != twelve_omega:
                problems.append(f"S cocycle defect {defect} != 12 omega = {twelve_omega}")
            if problems:
                self.fail(q["g"], "; ".join(problems))
                continue
            latency.append(stretch)
            seconds += stretch[2]
        if tracer:
            self._probes(call, r)
        return {"units": len(latency), "seconds": seconds, "latency": latency}

    def _probes(self, call, r):
        block = self.blocks[r]
        self.n_probe = _batch(call, "matrices.dedekind_sum.batch", dedekind_sum, [(g.d, abs(g.c)) for _, g, _ in block])
        _batch(call, "matrices.mat2_matmul.batch", Mat2.__matmul__, [(g, tau) for _, g, tau in block])

    def end_to_end(self, records):
        # every query of the run, each asked once (the class cache would
        # remember a query asked twice)
        ms, raw = self.reference_ms([st for rec in records for st in rec["latency"]])
        return {
            "classes_per_s": len(ms) / sum(ms) * 1e3,
            "class_ms_p50": statistics.median(ms),
            "class_ms_p90": p90(ms),
        }, {
            "unit": "query", "samples": len(ms), "blocks": len(records),
            "raw_ms_p50": statistics.median(raw), "raw_ms_p90": p90(raw),
        }

    def layer_metrics(self, records, tracer):
        def us(name):
            return statistics.median(tracer.durations(name)) * 1e6

        fresh, repeat = [], []
        for name, s, e, _, unit in tracer.spans:
            if name == "geodesics.matrix_to_word":
                (repeat if unit[0] == "R" else fresh).append((e - s) * 1e-3)
        out = {f"rademacher.{f}_us": us(f"rademacher.{f}") for f in ("psi", "psi_cocycle", "psi_cf", "s_symbol")}
        out["matrices.omega_us"] = us("matrices.omega")
        for name in ("dedekind_sum", "mat2_matmul"):
            out[f"matrices.{name}_us"] = statistics.median(tracer.durations(f"matrices.{name}.batch")) / self.n_probe * 1e6
        out["geodesics.matrix_to_word_us.fresh"] = statistics.median(fresh)
        out["geodesics.matrix_to_word_us.repeat"] = statistics.median(repeat)
        return out


WORKLOADS = {w.name: w for w in (Census, Routes, Symbols)}
