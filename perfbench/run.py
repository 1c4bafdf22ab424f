"""surfslide benchmark: four seeded workloads, output checks, end-to-end
metrics and, with ``--trace 1``, per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cold-random --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed. One process, one thread, closed loop. The last line of standard
output is the result object; the line before it is a report with every
metric the benchmark computes, each with its unit.

Timing. Wall time on a shared two-core machine drifts by up to 2x over
seconds at a time, and the drift slows the program and any other code
alike. So before every operation the benchmark times a fixed reference loop
of its own, divides the operation's time by the median reference time
within half a second of it and multiplies by the loop's nominal time: every
time metric reads as seconds on a machine that runs the reference loop in
its nominal time. A workload whose operations spend their time in pure
Python uses a pure-Python loop; one whose operations spend it in NumPy
array code uses a NumPy loop, because the drift hits the two differently.
Set-up and the isolation loops are scaled the same way. The report line
also gives the unscaled wall times, as ``*_wall``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

import layers
from tracer import Tracer
from workloads import WORKLOADS, random_separated_pair

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
LAYER_MODULES = ("geometry", "slider", "contact", "oracle", "scenarios", "cli")

# Operations per second of --seconds, sized so that on a 2-core Intel Xeon
# an untraced run, checks included, takes about --seconds and the median op
# time of ten seeds spreads by less than a third of its bound.
OPS_PER_SECOND = {
    "cold-random": 80,
    "warm-track": 100,
    "overlap-analyze": 20,
    "cli-verify": 7,
}
SETUP_REPEATS = 3
WARMUP_OPS = 3
# Warm-up inputs come from a fixed seed, so set-up does the same work
# whatever --seed is.
WARMUP_SEED = 0
TRACE_SHARE = 0.25  # share of the operations a traced run uses
REFERENCE_WINDOW_S = 0.5
TAIL_OPS_BEYOND = 10

END_TO_END = {"op_ms_p50": "ms", "setup_s": "s"}
PER_LAYER_TRACED = {
    "slider.solve.self_ms": "ms",
    "slider.initial_state.self_ms": "ms",
    "slider.iterate_once.calls": "count",
    "slider.iterate_once.self_ms": "ms",
    "slider.convergence_metrics.self_ms": "ms",
    "slider.overshoot_share": "fraction",
    "geometry.line_surface_entry.calls": "count",
    "contact.classify.calls": "count",
    "contact.penetration_depth.calls": "count",
    "contact.continuation_steps": "count",
    "contact.implicit_value.calls": "count",
    "trace.overhead_share": "fraction",
}
# Self times of layers some workloads never call. They are 0 there, so they
# appear in the report line only.
REPORT_ONLY_TRACED = {
    "contact.penetration_depth.self_ms": "ms",
    "contact.implicit_value.self_ms": "ms",
    "oracle.min_distance.self_ms": "ms",
    "scenarios.load_scenario.self_ms": "ms",
    "cli.main.self_ms": "ms",
}
ISOLATION_UNITS = {"_ns": "ns", "_us": "us", "_ms": "ms"}


def python_loop():
    """Scalar float work in the style of the solver's frame math."""
    acc = 0.0
    x = 0.1
    for _ in range(300):
        sp, cp = math.sin(x), math.cos(x)
        v = (sp * cp, sp * sp, cp)
        acc += math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        x += 0.001
    return acc


_AXES = np.array([1.0, 0.6, 0.4])
_POINTS = np.linspace(0.5, 2.0, 512 * 3).reshape(-1, 3)


def numpy_loop():
    """Array work in the style of the oracle's lattice foot-point solve."""
    t = np.full(len(_POINTS), 0.5)
    for _ in range(3):
        r = np.sum((_AXES * _POINTS / (_AXES**2 + t[:, None])) ** 2, axis=1) - 1.0
        t = np.where(r > 0.0, t * 1.5, t * 0.75)
    return t


# Reference loops and their nominal times: the median over 12 s of
# back-to-back runs on a 2-core Intel Xeon.
REFERENCES = {"python": (python_loop, 85e-6), "numpy": (numpy_loop, 120e-6)}


def speed_scale(reference, samples=7):
    """Nominal over median time of a few reference loops run now: multiply
    a wall time by it to get seconds at reference speed."""
    loop, nominal = REFERENCES[reference]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return nominal / statistics.median(times)


def import_program():
    """Import every layer module afresh from ``src/``."""
    for name in [m for m in sys.modules if m == "surfslide" or m.startswith("surfslide.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"surfslide.{m}") for m in LAYER_MODULES}
    )


def set_up(workload_cls, seed, count, workdir):
    """Import, build the inputs and warm up on WARMUP_OPS operations of a
    fixed seed. Returns the wall time it took, that time at reference speed,
    the modules, the workload and the warm-up outcomes."""
    before = speed_scale(workload_cls.reference)
    t0 = time.perf_counter()
    mods = import_program()
    wl = workload_cls(mods, seed, count, workdir)
    warm_wl = workload_cls(mods, WARMUP_SEED, WARMUP_OPS, workdir)
    warm = run_pass(warm_wl, range(WARMUP_OPS), warm_wl.call)
    wall = time.perf_counter() - t0
    scaled = wall * (before + speed_scale(workload_cls.reference)) / 2
    return wall, scaled, mods, wl, warm.outcomes


class Pass:
    """Per-operation times, reference-loop times and outcomes of one pass."""

    def __init__(self, reference):
        self.reference = reference
        self.op_start, self.op_s = [], []
        self.ref_start, self.ref_s = [], []
        self.outcomes = []

    def scales(self):
        """Per operation: the reference loop's nominal time over its median
        time within REFERENCE_WINDOW_S of the operation's start."""
        nominal = REFERENCES[self.reference][1]
        out = []
        for start in self.op_start:
            lo = bisect.bisect_left(self.ref_start, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(self.ref_start, start + REFERENCE_WINDOW_S)
            out.append(nominal / statistics.median(self.ref_s[lo:hi]))
        return out

    def scaled_s(self):
        """Operation times in seconds at reference speed."""
        return [t * k for t, k in zip(self.op_s, self.scales())]


def run_pass(wl, indices, call):
    """One closed-loop pass. Only ``call`` and the reference loop are
    timed; an exception from the program is kept as the op's result."""
    clock = time.perf_counter
    p = Pass(wl.reference)
    loop = REFERENCES[wl.reference][0]
    wl.reset()
    for i in indices:
        r0 = clock()
        loop()
        t0 = clock()
        try:
            result = call(i)
        except Exception as exc:  # counted as a failed op, never fatal
            result = exc
        t1 = clock()
        p.ref_start.append(r0)
        p.ref_s.append(t0 - r0)
        p.op_start.append(t0)
        p.op_s.append(t1 - t0)
        wl.after(i, result)
        p.outcomes.append(wl.summarize(i, result))
    return p


def check_all(wl, outcomes):
    """(failed flags, relative errors) for every operation."""
    failed, rel_errs = [], []
    for i, o in enumerate(outcomes):
        ok, rel = wl.check(i, o)
        failed.append(not ok)
        if rel is not None:
            rel_errs.append(rel)
    return failed, rel_errs


def tail_value(values):
    """(value, percentile, values beyond it) at the highest percentile with
    TAIL_OPS_BEYOND values beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_OPS_BEYOND - 1, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def end_to_end_metrics(p, failed, rel_errs, setup_wall, setup_scaled):
    """Latencies count a failed operation as infinitely slow, so a fix that
    turns a fast failure into a slower answer reads as a gain, never as a
    loss; ops_per_s counts operations that succeeded."""
    n = len(p.op_s)
    out = {}
    for suffix, times in (("", p.scaled_s()), ("_wall", p.op_s)):
        op_ms = [math.inf if bad else t * 1e3 for t, bad in zip(times, failed)]
        tail_ms, tail_pct, beyond = tail_value(op_ms)
        out.update(
            {
                "ops_per_s" + suffix: metric((n - sum(failed)) / sum(times), "1/s"),
                "op_ms_p50" + suffix: metric(statistics.median(op_ms), "ms"),
                "op_ms_tail" + suffix: metric(
                    tail_ms, "ms", percentile=tail_pct, ops=n, ops_beyond=beyond
                ),
            }
        )
    out.update(
        {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "setup_s_wall": metric(statistics.median(setup_wall), "s"),
            "fail_share": metric(sum(failed) / n, "fraction"),
            "max_rel_err": metric(max(rel_errs) if rel_errs else None, "fraction"),
        }
    )
    iters = [o.iterations for o in p.outcomes if o.iterations is not None]
    if iters:  # contact.analyze results carry no iteration count
        tail_it, tail_pct, _ = tail_value(iters)
        converged = [o for o in p.outcomes if o.status == "converged"]
        uncertified = sum("eps_n" not in o.criteria for o in converged)
        out.update(
            {
                "iters_mean": metric(sum(iters) / len(iters), "count"),
                "iters_tail": metric(tail_it, "count", percentile=tail_pct),
                "iters_max": metric(max(iters), "count"),
                "uncertified_share": metric(uncertified / max(len(converged), 1), "fraction"),
            }
        )
    return out


def per_layer_metrics(tracer, ops, untraced, traced, layer_metrics):
    calls, self_ns, advance_in_depth = tracer.summary(traced.scales())
    out = {}
    for name, value in layer_metrics.items():
        unit = ISOLATION_UNITS[name[name.rindex("_"):]]
        out[name] = metric(value, unit)
    for name, unit in {**PER_LAYER_TRACED, **REPORT_ONLY_TRACED}.items():
        span, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = metric(calls.get(span, 0) / ops, unit)
        elif what == "self_ms":
            out[name] = metric(self_ns.get(span, 0) / ops / 1e6, unit)
    iterations = calls.get("slider.iterate_once", 0)
    out["slider.overshoot_share"] = metric(tracer.overshoots / max(iterations, 1), "fraction")
    out["contact.continuation_steps"] = metric(advance_in_depth / 2 / ops, "count")
    overhead = sum(traced.scaled_s()) / sum(untraced.scaled_s()) - 1.0
    out["trace.overhead_share"] = metric(overhead, "fraction")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "surfslide", "__init__.py")):
        print(f"perfbench: no surfslide package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    cls = WORKLOADS[args.workload]
    count = max(1, round(OPS_PER_SECOND[args.workload] * args.seconds))
    if args.trace:
        count = max(1, round(count * TRACE_SHARE))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setup_wall, setup_scaled, warm_runs = [], [], []
        for _ in range(SETUP_REPEATS):
            wall, scaled, mods, wl, warm = set_up(cls, args.seed, count, workdir)
            setup_wall.append(wall)
            setup_scaled.append(scaled)
            warm_runs.append([repr(o) for o in warm])
        indices = range(len(wl))
        # the same inputs must give the same answers every time
        deterministic = all(w == warm_runs[0] for w in warm_runs)

        if not args.trace:
            p = run_pass(wl, indices, wl.call)
            again = run_pass(wl, range(min(WARMUP_OPS, len(wl))), wl.call)
            deterministic &= [repr(o) for o in again.outcomes] == [
                repr(o) for o in p.outcomes[:WARMUP_OPS]
            ]
            failed, rel_errs = check_all(wl, p.outcomes)
            report = end_to_end_metrics(p, failed, rel_errs, setup_wall, setup_scaled)
            names = END_TO_END
        else:
            rng = np.random.default_rng(args.seed)
            separated = [random_separated_pair(mods.geometry, rng) for _ in range(4)]
            layer_metrics = layers.measure(
                mods, wl.pairs, separated, workdir, lambda n: speed_scale("python", n)
            )
            untraced = run_pass(wl, indices, wl.call)
            tracer = Tracer()
            tracer.install(mods)
            try:
                p = run_pass(wl, indices, lambda i: tracer.run_op(i, wl.call, i))
            finally:
                tracer.uninstall()
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz"))
            # the wrappers must not change a single answer
            deterministic &= [repr(o) for o in p.outcomes] == [repr(o) for o in untraced.outcomes]
            failed, _ = check_all(wl, p.outcomes)
            report = per_layer_metrics(tracer, len(p.op_s), untraced, p, layer_metrics)
            names = [*layer_metrics, *PER_LAYER_TRACED]

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "report": report}))
    result = {
        "correct": deterministic,
        "attempted": len(p.op_s),
        "failed": sum(failed),
        "metrics": {k: {"value": report[k]["value"], "unit": report[k]["unit"]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
