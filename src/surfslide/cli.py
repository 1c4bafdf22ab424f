"""Command-line front end.

Subcommands
-----------
solve
    Run one scenario (builtin name or file path), print a result record as
    JSON, optionally write the per-iteration CSV trace and cross-check the
    distance against the lattice oracle.
sweep
    Re-solve a scenario over a list of lambda0 values or over seeded random
    initializations and report the distance spread.
bench
    Drive a seeded random walk of small rigid perturbations of E2, solving
    each step cold (two rounds of alternating projections when the center
    line separates the bodies, the ray exits between the centers
    otherwise) and warm (previous step's closest points), and compare
    iteration counts.
list
    Print the builtin scenarios.

Exit codes: 0 converged, 1 warm/cold distance mismatch during bench,
2 max-iter (of the solve or of the depth continuation), 3 lambda-floor,
4 input error, 5 overlap during bench, 6 contact, 7 overlap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from dataclasses import replace

# perfbench/tracer.py wraps cli.contact_analyze by that name
from .contact import analyze as contact_analyze, separated
from .geometry import NoIntersectionError, SurfaceParam
from .oracle import OracleRangeError, OverlapSuspectedError, oracle_min_distance
from .scenarios import (
    _CONFIG_KEYS,
    Scenario,
    ScenarioFormatError,
    builtin_scenario,
    builtin_scenarios,
    load_scenario,
)
from .slider import SolverConfig, solve

EXIT_CONVERGED = 0
EXIT_MAX_ITER = 2
EXIT_LAMBDA_FLOOR = 3
EXIT_INPUT = 4
EXIT_BENCH_OVERLAP = 5
EXIT_CONTACT = 6
EXIT_OVERLAP = 7

# solve statuses, then the contact kinds of a pair that is not separated
_STATUS_EXIT = {
    "converged": EXIT_CONVERGED,
    "max-iter": EXIT_MAX_ITER,
    "lambda-floor": EXIT_LAMBDA_FLOOR,
    "contact": EXIT_CONTACT,
    "overlap": EXIT_OVERLAP,
    "in-contact": EXIT_CONTACT,
    "overlapping": EXIT_OVERLAP,
}

TRACE_COLUMNS = (
    "k,theta1,phi1,theta2,phi2,distance,lambda1,lambda2,eps_d,eps_n,overshoot"
)
# one StepRecord, field by field, floats to 17 digits; the overshoot flag
# prints as 1 or 0
TRACE_ROW = "%d" + ",%.17g" * 9 + ",%d"


class CliError(Exception):
    """Input-level failure mapped to exit code 4."""


def _g17(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{x:.17g}"


def _print_json(doc) -> None:
    """Print ``doc`` as strict JSON (RFC 8259 has no NaN or Infinity): every
    non-finite float prints as null, finite ones round-trip exactly."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: finite(x) for key, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return v

    print(json.dumps(finite(doc), indent=2, allow_nan=False))


def _record(name: str, res, wall: float) -> dict:
    """One solve, serialized loss-free (floats survive a JSON round trip)."""
    p1, p2 = res.params
    eps_d, eps_n, eps_lam = res.final_eps
    return {
        "scenario": name,
        "status": res.status,
        "distance": res.distance,
        "params1": [p1.theta, p1.phi],
        "params2": [p2.theta, p2.phi],
        "closest_points": [list(p) for p in res.closest_points],
        "normals": [list(n) for n in res.normals],
        "iterations": res.iterations,
        "final_eps": {"eps_d": eps_d, "eps_n": eps_n, "eps_lambda": eps_lam},
        "stop_criteria": list(res.stop_criteria),
        "wall_time_s": wall,
    }


def write_trace(path: str, trace) -> None:
    rows = (TRACE_ROW % r for r in trace)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([TRACE_COLUMNS, *rows]) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse with input errors mapped to exit code 4."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda0", type=float, default=None, metavar="X")
    p.add_argument("--max-iter", type=int, default=None, metavar="N")
    p.add_argument("--tol-d", type=float, default=None, metavar="X")
    p.add_argument("--tol-n", type=float, default=None, metavar="X")
    p.add_argument("--tol-lambda", type=float, default=None, metavar="X")
    p.add_argument("--mode", choices=("accept", "revert"), default=None)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call, so no flag carries over between calls."""
    parser = _Parser(prog="surfslide", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="solve one scenario")
    p.add_argument("scenario", help="builtin name or scenario file path")
    p.add_argument("--trace", metavar="FILE", default=None)
    p.add_argument("--verify", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("sweep", help="sweep lambda0 or random initializations")
    p.add_argument("scenario")
    p.add_argument("--param", choices=("lambda0", "init-seed"), required=True)
    p.add_argument("--values", default=None, metavar="X,Y,...")
    p.add_argument("--count", type=int, default=8, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--json", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("bench", help="warm vs cold solves under perturbation")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=1000, metavar="N")
    p.add_argument("--perturbation", type=float, default=1e-3, metavar="X")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    _add_config_flags(p)

    sub.add_parser("list", help="print the builtin scenarios")
    return parser


def resolve_scenario(ref: str) -> Scenario:
    try:
        return builtin_scenario(ref)
    except KeyError:
        pass
    try:
        return load_scenario(ref)
    except FileNotFoundError:
        raise CliError(
            f"unknown scenario {ref!r}: not a builtin and not a readable file"
        ) from None
    except OSError as exc:
        raise CliError(f"cannot read {ref!r}: {exc}") from exc
    except ScenarioFormatError as exc:
        raise CliError(str(exc)) from exc


def build_config(sc: Scenario, args, record_trace: bool = False) -> SolverConfig:
    """Defaults, then scenario overrides, then command-line flags."""
    flags = {key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key) is not None}
    if args.mode is not None:
        flags["overshoot_mode"] = (
            "accept-and-continue" if args.mode == "accept" else "revert-and-retry"
        )
    try:
        return replace(sc.config(), record_trace=record_trace, **flags)
    except ValueError as exc:
        raise CliError(f"invalid solver configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    sc = resolve_scenario(args.scenario)
    config = build_config(sc, args, record_trace=args.trace is not None)
    t0 = time.perf_counter()
    report = contact_analyze(sc.e1, sc.e2, config, sc.init)
    wall = time.perf_counter() - t0
    res = report.result
    if args.trace is not None:
        write_trace(args.trace, res.trace)
    record = _record(sc.name, res, wall)
    exit_code = _STATUS_EXIT[res.status]
    if report.kind != "separated":  # 'max-iter' here: the depth continuation failed
        exit_code = _STATUS_EXIT[report.kind]
        value = report.distance_or_depth
        record["contact_kind"] = report.kind
        record["contact_value"] = -value if report.kind == "overlapping" else value
    if args.verify:
        try:
            oracle_d, _ = oracle_min_distance(sc.e1, sc.e2)
            record["oracle_distance"] = oracle_d
            record["oracle_gap"] = abs(res.distance - oracle_d)
        except (OverlapSuspectedError, OracleRangeError) as exc:
            record["oracle_distance"] = None
            record["oracle_error"] = str(exc)
    if sc.expected is not None:
        record["expected_distance"] = sc.expected[0]
    _print_json(record)
    return exit_code


def _random_init(rng: random.Random) -> tuple[SurfaceParam, SurfaceParam]:
    return (
        SurfaceParam(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi)),
        SurfaceParam(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi)),
    )


def cmd_sweep(args) -> int:
    sc = resolve_scenario(args.scenario)
    base = build_config(sc, args)

    runs: list[tuple[str, SolverConfig, object]] = []
    if args.param == "lambda0":
        if args.values is None:
            raise CliError("--param lambda0 requires --values X,Y,...")
        try:
            values = [float(v) for v in args.values.split(",") if v]
        except ValueError as exc:
            raise CliError(f"bad --values list: {exc}") from exc
        if not values:
            raise CliError("--values list is empty")
        for v in values:
            try:
                cfg = replace(base, lambda0=v)
            except ValueError as exc:
                raise CliError(f"invalid lambda0 {v!r}: {exc}") from exc
            runs.append((f"lambda0={v:g}", cfg, sc.init))
    else:
        if args.count < 1:
            raise CliError("--count must be >= 1")
        rng = random.Random(args.seed)
        for i in range(args.count):
            runs.append((f"init-seed={args.seed}/{i}", base, _random_init(rng)))

    records = []
    worst = EXIT_CONVERGED
    for label, cfg, init in runs:
        t0 = time.perf_counter()
        res = solve(sc.e1, sc.e2, init, cfg)
        wall = time.perf_counter() - t0
        rec = _record(sc.name, res, wall)
        rec["run"] = label
        records.append(rec)
        worst = max(worst, _STATUS_EXIT[res.status])

    distances = [r["distance"] for r in records if r["status"] == "converged"]
    spread = (max(distances) - min(distances)) if distances else math.nan

    if args.json:
        _print_json({"scenario": sc.name, "runs": records, "distance_spread": spread})
    else:
        print(f"{'run':24s} {'status':12s} {'iterations':>10s} {'distance':>22s}")
        for r in records:
            print(
                f"{r['run']:24s} {r['status']:12s} {r['iterations']:10d} "
                f"{_g17(r['distance']):>22s}"
            )
        print(f"distance spread: {_g17(spread)}")
    return worst


def _perturbed(e2, rng: random.Random, magnitude: float):
    center = tuple(c + rng.uniform(-magnitude, magnitude) for c in e2.center)
    euler = tuple(a + rng.uniform(-magnitude, magnitude) for a in e2.euler)
    try:
        return type(e2)(e2.semi_axes, center, euler)
    except ValueError as exc:  # the draw's width, 2 * magnitude, can overflow
        raise CliError(f"--perturbation {magnitude:g} moved E2 out of range: {exc}") from exc


def cmd_bench(args) -> int:
    sc = resolve_scenario(args.scenario)
    config = build_config(sc, args)
    if args.steps < 0:
        raise CliError("--steps must be >= 0")
    if not 0.0 <= args.perturbation < math.inf:
        raise CliError("--perturbation must be finite and >= 0")

    report = {
        "scenario": sc.name,
        "steps": args.steps,
        "perturbation": args.perturbation,
        "seed": args.seed,
    }
    if args.steps == 0:
        _print_json(report)
        return EXIT_CONVERGED

    rng = random.Random(args.seed)
    base = solve(sc.e1, sc.e2, sc.init, config)
    if not separated(sc.e1, sc.e2, base):
        print("bench: initial configuration is not separated", file=sys.stderr)
        return EXIT_BENCH_OVERLAP
    warm_init = base.params

    e2 = sc.e2
    cold_iters = warm_iters = 0
    cold_time = warm_time = 0.0
    max_gap = 0.0
    for step in range(args.steps):
        e2 = _perturbed(e2, rng, args.perturbation)

        t0 = time.perf_counter()
        cold = solve(sc.e1, e2, None, config)
        cold_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = solve(sc.e1, e2, warm_init, config)
        warm_time += time.perf_counter() - t0

        if not (separated(sc.e1, e2, cold) and separated(sc.e1, e2, warm)):
            print(
                f"bench: perturbation drove the pair into contact/overlap "
                f"at step {step}",
                file=sys.stderr,
            )
            return EXIT_BENCH_OVERLAP

        gap = abs(cold.distance - warm.distance)
        max_gap = max(max_gap, gap)
        if gap > 1e-8:
            print(
                f"bench: warm/cold distance mismatch {gap:.3e} at step {step}",
                file=sys.stderr,
            )
            return 1
        cold_iters += cold.iterations
        warm_iters += warm.iterations
        warm_init = warm.params

    report.update(
        {
            "cold_mean_iterations": cold_iters / args.steps,
            "warm_mean_iterations": warm_iters / args.steps,
            "cold_mean_wall_s": cold_time / args.steps,
            "warm_mean_wall_s": warm_time / args.steps,
            "max_distance_gap": max_gap,
        }
    )
    _print_json(report)
    return EXIT_CONVERGED


def cmd_list(_args) -> int:
    for sc in builtin_scenarios():
        expected = ""
        if sc.expected is not None:
            expected = f"  expected={sc.expected[0]:g} ({sc.expected[1]})"
        print(f"{sc.name:20s}{expected}")
    return EXIT_CONVERGED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "bench": cmd_bench,
        "list": cmd_list,
    }[args.command]
    try:
        return handler(args)
    except (CliError, OSError, NoIntersectionError) as exc:
        # NoIntersectionError: a center line that is 0 or overflows has no ray to start on
        print(f"surfslide: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
