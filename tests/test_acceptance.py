"""Acceptance criteria, one test per criterion.

Every test prints exactly one summary line (even under plain pytest output
capture) of the form

    [ACCEPTANCE n] label: PASS|FAIL (clause: PASS|FAIL; ...)

and then asserts, so a criterion the solver does not meet shows up both as
a FAIL line with the measured numbers of each clause and as a failing test.
Bounds are graded as stated, never widened to pass.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import random_separated_pair
from surfslide.cli import main
from surfslide.contact import analyze
from surfslide.geometry import (
    Ellipsoid,
    SurfaceParam,
    euler_from_rotation,
    rotation_matrix,
)
from surfslide.oracle import oracle_min_distance
from surfslide.scenarios import builtin_scenario
from surfslide.slider import SolverConfig, solve
from test_properties import (
    run_fixed_point_alignment,
    run_frame_orthogonality,
    run_on_surface_closure,
    run_rigid_motion_invariance,
    run_rotation_orthonormality,
    run_scale_invariance,
    run_symmetry,
    run_warm_start_idempotence,
)

PI = math.pi


def _report(capsys, num, label, clauses):
    ok = all(flag for _, flag in clauses)
    detail = "; ".join(f"{d}: {'PASS' if f else 'FAIL'}" for d, f in clauses)
    with capsys.disabled():
        print(f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _solve_scenario(name, **config_overrides):
    sc = builtin_scenario(name)
    cfg = sc.config()
    if config_overrides:
        from dataclasses import replace

        cfg = replace(cfg, **config_overrides)
    return sc, solve(sc.e1, sc.e2, sc.init, cfg)


# ---------------------------------------------------------------------------


def test_criterion_1_system_i_reproduction(capsys):
    sc, res = _solve_scenario("system-I")
    oracle_d, _ = oracle_min_distance(sc.e1, sc.e2)
    gap = abs(res.distance - oracle_d)
    dist_ok = res.status == "converged" and gap < 1e-5
    iter_ok = res.status == "converged" and res.iterations <= 200

    # the tabulated 1.2856 is the distance when body 2's orientation is
    # read as a rotation about x by -pi/4 (README, "System I reference
    # value"); no axis order of the documented convention reproduces it
    target, tol = 1.2856, 5e-4
    e2_about_x = Ellipsoid(sc.e2.semi_axes, sc.e2.center, (-PI / 4, 0.0, 0.0))
    ref = solve(sc.e1, e2_about_x, sc.init, sc.config())
    ref_ok = ref.status == "converged" and abs(ref.distance - target) <= tol

    # the stop rules only decide where the path is cut, so the trace clause
    # reads the same run with no stop able to fire before k = 150
    _, uncut = _solve_scenario(
        "system-I",
        record_trace=True,
        max_iter=150,
        tol_d=1e-300,
        tol_n=1e-300,
        tol_lambda=1e-300,
    )
    first_k = next(
        (r.k for r in uncut.trace if not math.isnan(r.eps_d) and r.eps_d < 1e-10),
        None,
    )
    if first_k is not None and first_k <= 150:
        at = uncut.trace[first_k]
        max_lambda = max(at.lambda1, at.lambda2)
        trace_ok = max_lambda <= 1e-5
        trace_note = f"eps_d<1e-10 first at k={first_k}, max lambda there {max_lambda:.2e} <= 1e-5"
    else:
        trace_ok = False
        trace_note = f"no k<=150 with eps_d<1e-10 (uncut run ended at k={uncut.iterations})"

    t0 = time.perf_counter()
    solve(sc.e1, sc.e2, sc.init, sc.config())
    runtime = time.perf_counter() - t0

    _report(
        capsys,
        1,
        "System I reproduction",
        [
            (f"distance {res.distance:.10f} vs oracle {oracle_d:.10f}: gap {gap:.2e} < 1e-5", dist_ok),
            (
                f"about-x reading distance {ref.distance:.5f} = {target}+-{tol}",
                ref_ok,
            ),
            (f"converged in {res.iterations} <= 200 iterations", iter_ok),
            (trace_note, trace_ok),
            (f"runtime {1e3 * runtime:.2f} ms < 10 ms", runtime < 0.010),
        ],
    )


def test_criterion_2_system_i_robustness(capsys):
    distances = []
    all_converged = True
    sc = builtin_scenario("system-I")
    for lam in (0.5, 0.1, 0.05, 0.01):
        res = solve(sc.e1, sc.e2, sc.init, SolverConfig(lambda0=lam))
        all_converged &= res.status == "converged"
        distances.append(res.distance)
    rng = np.random.default_rng(7)
    for _ in range(8):
        init = (
            SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0, PI)),
            SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0, PI)),
        )
        res = solve(sc.e1, sc.e2, init, SolverConfig(lambda0=0.05))
        all_converged &= res.status == "converged"
        distances.append(res.distance)
    spread = max(distances) - min(distances)
    _report(
        capsys,
        2,
        "System I robustness",
        [
            ("all 12 runs converged", all_converged),
            (f"distance spread {spread:.3e} < 1e-6", spread < 1e-6),
        ],
    )


def test_criterion_3_system_ii_analytic(capsys):
    clauses = []
    for name in ("system-II-aligned", "system-II-rotated"):
        sc, res = _solve_scenario(name)
        expected = sc.expected[0]  # support-point arithmetic
        gap = abs(res.distance - expected)
        clauses.append(
            (
                f"{name} distance within 1e-6 of analytic {expected:.7f}",
                res.status == "converged" and gap < 1e-6,
            )
        )
        p1, p2 = res.params
        theta1 = min(p1.theta, 2 * PI - p1.theta)  # |theta1| on the circle
        clauses.append(
            (
                f"{name} final params at (0, pi/2) / (*, pi)",
                theta1 < 1e-4
                and abs(p1.phi - PI / 2) < 1e-4
                and abs(p2.phi - PI) < 1e-4,
            )
        )
    _report(capsys, 3, "System II analytic check", clauses)


def _exact_rotated_system_ii():
    """System II-aligned rotated exactly (not via the 4-digit printed
    centers) by the quarter-turn about y that the rotated variant uses."""
    base = builtin_scenario("system-II-aligned")
    Q = rotation_matrix(0.0, -PI / 4, 0.0)
    out = []
    for e in (base.e1, base.e2):
        out.append(
            Ellipsoid(
                e.semi_axes,
                tuple(Q @ np.asarray(e.center)),
                euler_from_rotation(Q @ e.rotation),
            )
        )
    return base, out[0], out[1]


def test_criterion_4_spatial_isotropy(capsys):
    base, r1, r2 = _exact_rotated_system_ii()
    # a common off-optimum start makes the compared sequences non-trivial
    init = (SurfaceParam(7 * PI / 6, 2 * PI / 3), SurfaceParam(11 * PI / 6, PI / 2))
    cfg = SolverConfig(lambda0=0.05, record_trace=True)
    a = solve(base.e1, base.e2, init, cfg)
    b = solve(r1, r2, init, cfg)
    both = a.status == b.status == "converged"
    worst = max(
        abs(ra.distance - rb.distance) / ra.distance
        for ra, rb in zip(a.trace, b.trace)
    )
    same_len = len(a.trace) == len(b.trace)

    # the shipped rotated scenario stores the 4-digit printed centers; its
    # sequence differs from the aligned one by that printing round-off
    printed = builtin_scenario("system-II-rotated")
    c = solve(printed.e1, printed.e2, init, cfg)
    worst_printed = max(
        abs(ra.distance - rc.distance) / ra.distance
        for ra, rc in zip(a.trace, c.trace)
    )
    _report(
        capsys,
        4,
        "Spatial isotropy",
        [
            ("aligned and exactly-rotated runs converged", both),
            ("equal sequence lengths", same_len),
            (f"elementwise rel gap {worst:.3e} < 1e-6", worst < 1e-6),
            (
                f"printed-center variant within round-off {worst_printed:.3e} < 1e-3",
                worst_printed < 1e-3,
            ),
        ],
    )


def test_criterion_5_system_iii_robustness(capsys):
    clauses = []
    for label in ("ABC", "aBC", "abC", "abc"):
        sc, res = _solve_scenario(f"system-III-{label}")
        converged = res.status == "converged"
        clauses.append(
            (
                f"{label} converged in {res.iterations} <= 100 iterations",
                converged and res.iterations <= 100,
            )
        )
        phi2 = res.params[1].phi
        clauses.append((f"{label} final phi2 within 1e-3 of pi", abs(phi2 - PI) < 1e-3))
        oracle_d, _ = oracle_min_distance(sc.e1, sc.e2)
        gap = abs(res.distance - oracle_d)
        clauses.append((f"{label} distance vs oracle gap {gap:.2e} < 1e-5", gap < 1e-5))
    _report(capsys, 5, "System III robustness", clauses)


def test_criterion_6_oracle_cross_validation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    nonconverged = 0
    for case in range(200):
        e1, e2 = random_separated_pair(rng)
        res = solve(e1, e2)
        if res.status != "converged":
            nonconverged += 1
            failures.append((case, "status " + res.status))
            continue
        oracle_d, _ = oracle_min_distance(e1, e2)
        gap = abs(res.distance - oracle_d)
        if gap > 1e-5 * max(1.0, res.distance):
            failures.append((case, f"gap {gap:.3e} at d={res.distance:.6f}"))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        for case, why in failures:  # individually logged, per the criterion
            print(f"    oracle cross-validation case {case}: {why}")
    _report(
        capsys,
        6,
        "Oracle cross-validation",
        [
            (f"gap <= 1e-5*max(1,d) on {200 - len(failures)}/200 >= 198", len(failures) <= 2),
            (f"non-converged: {nonconverged} = 0", nonconverged == 0),
            (f"runtime {elapsed:.1f} s < 60 s", elapsed < 60.0),
        ],
    )


def test_criterion_7_property_suites(capsys, property_outcome):
    clauses = []
    for name, runner in (
        ("on-surface closure", run_on_surface_closure),
        ("frame orthogonality", run_frame_orthogonality),
        ("rotation orthonormality", run_rotation_orthonormality),
        ("fixed-point/alignment", run_fixed_point_alignment),
        ("rigid-motion invariance", run_rigid_motion_invariance),
        ("scale invariance", run_scale_invariance),
        ("warm-start idempotence", run_warm_start_idempotence),
    ):
        try:
            property_outcome(runner)
            clauses.append((name, True))
        except AssertionError as exc:
            clauses.append((f"{name} [{exc}]", False))

    # symmetry graded strictly at the stated 1e-12 on every case
    stats = property_outcome(run_symmetry)
    n_bad = len(stats["violations"])
    sym_ok = n_bad == 0
    note = f"symmetry 1e-12 on {stats['cases'] - n_bad}/{stats['cases']}"
    if not sym_ok:
        worst = max(v["rel_gap"] for v in stats["violations"])
        note += f", worst rel gap {worst:.3e}"
        with capsys.disabled():
            for v in stats["violations"]:
                print(
                    f"    symmetry case {v['case']}: statuses {v['status']}, "
                    f"rel gap {v['rel_gap']:.3e}, stop {v['stop']}, "
                    f"max lambda {v['max_lambda']:.2e}"
                )
    clauses.append((note, sym_ok))
    _report(capsys, 7, "Property suites", clauses)


def test_criterion_8_contact_module(capsys):
    clauses = []
    s = lambda r, c: Ellipsoid((r, r, r), c, (0, 0, 0))

    report = analyze(s(1.0, (0, 0, 0)), s(1.0, (2, 0, 0)))
    clauses.append(("tangent spheres classified in-contact", report.kind == "in-contact"))

    report = analyze(s(1.0, (0, 0, 0)), s(1.0, (1, 0, 0)))
    clauses.append(
        (
            f"unit spheres 1 apart: depth {report.distance_or_depth:.6f} = 1 +- 1e-4",
            report.kind == "overlapping"
            and abs(report.distance_or_depth - 1.0) < 1e-4,
        )
    )

    ok = True
    for axes in ((0.5, 0.3, 0.2), (1.0, 0.6, 0.4), (0.2, 0.4, 0.6), (0.02, 0.04, 0.06)):
        e1 = Ellipsoid(axes, (0, 0, 0), (0, 0, 0))
        e2 = Ellipsoid(axes, (axes[0], 0, 0), (0, 0, 0))
        report = analyze(e1, e2)
        ok &= (
            report.kind == "overlapping"
            and abs(report.distance_or_depth - axes[0]) < 1e-4 * axes[0]
        )
    clauses.append(("congruent coaxial ellipsoids: depth = a +- 1e-4 (4 shapes)", ok))
    _report(capsys, 8, "Contact module", clauses)


def test_criterion_9_warm_start_benefit(capsys):
    code = main(
        ["bench", "system-I", "--steps", "1000", "--perturbation", "1e-3", "--seed", "1"]
    )
    doc = json.loads(capsys.readouterr().out)
    warm, cold = doc["warm_mean_iterations"], doc["cold_mean_iterations"]
    _report(
        capsys,
        9,
        "Warm-start benefit",
        [
            ("bench exit code 0", code == 0),
            (f"warm mean {warm:.1f} < cold mean {cold:.1f}", warm < cold),
            (
                f"max warm/cold distance gap {doc['max_distance_gap']:.2e} <= 1e-8",
                doc["max_distance_gap"] <= 1e-8,
            ),
        ],
    )
