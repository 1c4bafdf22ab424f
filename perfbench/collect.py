"""Run the benchmark on several seeds per workload and record a baseline.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs one process at a time, each with a different seed, for every workload
in BENCHMARK.json (or those given with --workloads), untraced and then once
traced. Writes every run's report and result lines, the machine, and per
end-to-end metric the median and the spread: the distance between the first
and third quartile over the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return {
        "seed": seed,
        "wall_s": time.perf_counter() - t0,
        "report": json.loads(report)["report"],
        "result": json.loads(result),
    }


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for a spread")
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, spec["run_seconds"], 0))
            metrics = runs[-1]["result"]["metrics"]
            print(name, seed, f"{runs[-1]['wall_s']:.1f} s",
                  {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        summary = {
            m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]
        }
        print(name, json.dumps(summary), flush=True)
        doc["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
