"""Unit tests for the sliding iteration: projections, parameter updates,
overshoot handling, convergence metrics, and the full solve loop."""

import math

import numpy as np
import pytest

from helpers import random_separated_pair
from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceParam,
    line_surface_entry,
    surface_frame,
    surface_point_global,
)
from surfslide.scenarios import builtin_scenario
from surfslide.slider import (
    CHART_POLE_MARGIN,
    ZERO_PROJECTION_FACTOR,
    SolverConfig,
    advance_param,
    apply_overshoot_schedule,
    convergence_metrics,
    initial_state,
    iterate_once,
    project_tension,
    solve,
    step_increments,
)

PI = math.pi


def _spheres(r1, c1, r2, c2):
    return (
        Ellipsoid((r1, r1, r1), c1, (0, 0, 0)),
        Ellipsoid((r2, r2, r2), c2, (0, 0, 0)),
    )


# ---------------------------------------------------------------------------
# elementary operations


def test_project_tension_at_pole_has_no_theta_component():
    e = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    f = surface_frame(e, SurfaceParam(0.3, 0.0))
    dth, dph = project_tension(f, [0.7, -0.2, 0.5])
    assert dth == 0.0


def test_project_tension_and_step_increments_give_the_solver_step():
    # the public projection and step rule must not drift from the solver's
    rng = np.random.default_rng(12)
    e1, e2 = random_separated_pair(rng)
    cfg = SolverConfig()
    s0 = initial_state(e1, e2, None, cfg)
    for p in s0.params:
        assert CHART_POLE_MARGIN < p.phi < PI - CHART_POLE_MARGIN
    s1 = iterate_once(s0, cfg, (e1, e2))
    d12 = np.asarray(s0.d12)
    guard = ZERO_PROJECTION_FACTOR * s0.distance
    for e, p, moved, d in zip((e1, e2), s0.params, s1.params, (d12, -d12)):
        step = step_increments(*project_tension(surface_frame(e, p), d), cfg.lambda0, guard)
        assert math.hypot(*step) == pytest.approx(cfg.lambda0, rel=1e-12)
        expected = advance_param(p, *step)
        assert abs(moved.theta - expected.theta) <= 1e-15
        assert abs(moved.phi - expected.phi) <= 1e-15


def test_step_increments_normalizes_to_lambda():
    assert step_increments(3.0, 4.0, 0.05) == pytest.approx((0.03, 0.04))
    assert step_increments(0.0, 0.0, 0.05) == (0.0, 0.0)
    assert step_increments(-1.0, 0.0, 0.05) == pytest.approx((-0.05, 0.0))
    dth, dph = step_increments(0.1, -0.7, 0.02)
    assert math.isclose(math.hypot(dth, dph), 0.02, rel_tol=1e-12)


def test_advance_param_wraps_theta():
    p = advance_param(SurfaceParam(6.2, PI / 2), 0.2, 0.0)
    assert math.isclose(p.theta, 6.4 - 2 * PI, abs_tol=1e-12)
    assert math.isclose(p.phi, PI / 2, abs_tol=1e-15)


def test_advance_param_reflects_through_pole():
    p = advance_param(SurfaceParam(0.0, 0.02), 0.0, -0.05)
    assert math.isclose(p.theta, PI, abs_tol=1e-12)
    assert math.isclose(p.phi, 0.03, abs_tol=1e-12)


def test_advance_param_interior_is_pure_addition():
    p = advance_param(SurfaceParam(1.0, 1.0), 0.05, 0.05)
    assert math.isclose(p.theta, 1.05, abs_tol=1e-15)
    assert math.isclose(p.phi, 1.05, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# convergence metrics and overshoot schedule


def _state_for_metrics(**kw):
    e1, e2 = _spheres(1.0, (-1.5, 0, 0), 1.0, (1.5, 0, 0))
    base = initial_state(e1, e2, None, SolverConfig())
    import dataclasses

    return dataclasses.replace(base, **kw)


def test_metrics_identical_distances_give_zero_eps_d():
    s = _state_for_metrics(prev_distance=1.0, distance=1.0)
    eps_d, _, _ = convergence_metrics(s)
    assert eps_d == 0.0


def test_metrics_eps_d_is_larger_of_last_two_changes():
    # an oscillation whose last two values tie is not a stalled distance
    prev = _state_for_metrics(prev_distance=1.2, distance=1.0)
    s = _state_for_metrics(prev_distance=1.0, distance=1.0)
    eps_d, _, _ = convergence_metrics(s, prev)
    assert eps_d == pytest.approx(0.2)
    settled = _state_for_metrics(prev_distance=1.0, distance=1.0)
    eps_d, _, _ = convergence_metrics(s, settled)
    assert eps_d == 0.0


def test_metrics_perfect_alignment_gives_zero_eps_n():
    # two unit spheres facing each other across the x axis: d12 = n1 = -n2
    s = _state_for_metrics()
    eps_d, eps_n, _ = convergence_metrics(s)
    assert eps_d is None  # no previous iteration yet
    assert eps_n < 1e-12


def test_metrics_coincident_witnesses_are_nan_without_dividing():
    s = _state_for_metrics(prev_distance=1.0, distance=0.0)
    eps_d, eps_n, _ = convergence_metrics(s)
    assert math.isnan(eps_d) and math.isnan(eps_n)
    eps_d, eps_n, _ = convergence_metrics(_state_for_metrics(distance=0.0))
    assert eps_d is None and math.isnan(eps_n)


def test_metrics_eps_lambda_is_max():
    s = _state_for_metrics(lambdas=(0.05, 0.00625))
    _, _, eps_l = convergence_metrics(s)
    assert eps_l == 0.05


def test_overshoot_schedule_no_growth_leaves_state():
    s = _state_for_metrics(prev_distance=2.0, distance=1.5)
    assert apply_overshoot_schedule(s, SolverConfig()) is s


def test_overshoot_schedule_alternates():
    cfg = SolverConfig()
    s = _state_for_metrics(prev_distance=1.0, distance=1.1, lambdas=(0.05, 0.05))
    s = apply_overshoot_schedule(s, cfg)
    assert s.lambdas == (0.025, 0.05) and s.halve_toggle == 1
    import dataclasses

    s = dataclasses.replace(s, prev_distance=1.1, distance=1.2)
    s = apply_overshoot_schedule(s, cfg)
    assert s.lambdas == (0.025, 0.025) and s.halve_toggle == 0


# ---------------------------------------------------------------------------
# iterate_once


def test_iterate_once_stationary_fixed_point():
    e1, e2 = _spheres(1.0, (-1.5, 0, 0), 1.0, (1.5, 0, 0))
    cfg = SolverConfig()
    s0 = initial_state(e1, e2, None, cfg)  # mutual nearest points
    s1 = iterate_once(s0, cfg, (e1, e2))
    assert s1.k == s0.k + 1
    assert s1.params == s0.params
    assert s1.distance == s0.distance == pytest.approx(1.0)


def test_iterate_once_decreases_system_i_distance():
    sc = builtin_scenario("system-I")
    cfg = SolverConfig()
    s0 = initial_state(sc.e1, sc.e2, sc.init, cfg)
    s1 = iterate_once(s0, cfg, (sc.e1, sc.e2))
    assert s1.distance < s0.distance


def _bits(*values):
    return tuple(math.nan.hex() if v is None else float(v).hex() for v in values)


@pytest.mark.parametrize("mode", ["accept-and-continue", "revert-and-retry"])
def test_step_views_reproduce_the_solve_trace(mode):
    # iterate_once and convergence_metrics are views of the kernels solve
    # loops on: driven by hand they give its trace rows bit for bit
    rng = np.random.default_rng(2024)
    cfg = SolverConfig(overshoot_mode=mode, record_trace=True)
    checked = 0
    while checked < 10:
        e1, e2 = random_separated_pair(rng)
        res = solve(e1, e2, None, cfg)
        phis = [r.phi1 for r in res.trace] + [r.phi2 for r in res.trace]
        if min(min(phi, PI - phi) for phi in phis) < CHART_POLE_MARGIN:
            continue  # a re-charted path is not a plain chain of rounds
        checked += 1
        state, prev = initial_state(e1, e2, None, cfg), None
        for row in res.trace:
            eps_d, eps_n, _ = convergence_metrics(state, prev)
            p1, p2 = state.params
            assert (state.k, state.overshoot) == (row.k, row.overshoot_flag)
            assert _bits(
                p1.theta, p1.phi, p2.theta, p2.phi, state.distance,
                *state.lambdas, eps_d, eps_n,
            ) == _bits(
                row.theta1, row.phi1, row.theta2, row.phi2, row.distance,
                row.lambda1, row.lambda2, row.eps_d, row.eps_n,
            ), f"step {row.k}"
            state, prev = iterate_once(state, cfg, (e1, e2)), state


def test_results_and_rows_hold_plain_floats():
    e1, e2 = random_separated_pair(np.random.default_rng(2024))
    assert all(type(v) is float for row in e1._rows for v in row)
    res = solve(e1, e2, config=SolverConfig(record_trace=True))
    assert all(type(v) is float for v in res.final_eps)
    assert all(type(r.eps_n) is float for r in res.trace)


def test_revert_mode_distance_is_monotone():
    sc = builtin_scenario("system-I")
    cfg = SolverConfig(overshoot_mode="revert-and-retry", record_trace=True)
    res = solve(sc.e1, sc.e2, sc.init, cfg)
    assert res.status == "converged"
    d = [r.distance for r in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(d, d[1:]))


# ---------------------------------------------------------------------------
# solve


def test_solve_unit_spheres():
    e1, e2 = _spheres(1.0, (0, 0, 0), 1.0, (3, 0, 0))
    res = solve(e1, e2)
    assert res.status == "converged"
    assert res.distance == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.closest_points[0], [1, 0, 0], atol=1e-6)
    assert np.allclose(res.closest_points[1], [2, 0, 0], atol=1e-6)


def test_solve_system_ii_aligned_support_point():
    sc = builtin_scenario("system-II-aligned")
    res = solve(sc.e1, sc.e2, sc.init, sc.config())
    assert res.status == "converged"
    # |X02 - X01| - a1 - c2 = 3 - 1 - 0.4
    assert res.distance == pytest.approx(1.6, abs=1e-6)
    p1, p2 = res.params
    assert abs(p1.theta) < 1e-4
    assert abs(p1.phi - PI / 2) < 1e-4
    assert abs(p2.phi - PI) < 1e-4


def test_solve_system_i_multistart_agrees():
    sc = builtin_scenario("system-I")
    rng = np.random.default_rng(42)
    distances = []
    for _ in range(4):
        init = (
            SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0, PI)),
            SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0, PI)),
        )
        res = solve(sc.e1, sc.e2, init, sc.config())
        assert res.status == "converged"
        distances.append(res.distance)
    assert max(distances) - min(distances) < 1e-6


def test_center_inside_other_body_is_reported_as_overlap():
    # e2's center lies inside e1, which proves the bodies overlap and leaves
    # the center-to-center segment inside e1: the witnesses sit where the
    # ray from each center toward the other center leaves its surface
    e1, e2 = _spheres(1.0, (0, 0, 0), 0.5, (0.6, 0, 0))
    res = solve(e1, e2, config=SolverConfig(record_trace=True))
    assert res.status == "overlap"
    assert res.iterations == 0 and len(res.trace) == 1
    assert np.allclose(res.closest_points[0], [1.0, 0, 0], atol=1e-12)
    assert np.allclose(res.closest_points[1], [0.1, 0, 0], atol=1e-12)


def test_contained_body_is_not_a_separated_pair():
    # a small sphere wholly inside a big one: the ray points (1, 0, 0) and
    # (0.2, 0, 0) lie 0.8 apart, which is no separation
    for e1, e2 in (
        _spheres(1.0, (0, 0, 0), 0.3, (0.5, 0, 0)),
        _spheres(0.3, (0.5, 0, 0), 1.0, (0, 0, 0)),
    ):
        assert solve(e1, e2).status == "overlap"


def test_start_below_contact_threshold_is_contact():
    # the center-line start is already optimal, 1e-7 apart, below sigma =
    # 1e-6: the contact hand-off precedes the eps_n stop, cold and warm
    e1, e2 = _spheres(1.0, (0, 0, 0), 1.0, (2 + 1e-7, 0, 0))
    cold = solve(e1, e2)
    assert cold.status == "contact" and cold.iterations == 0
    assert solve(e1, e2, cold.params).status == "contact"


def test_concentric_bodies_have_no_center_line_start():
    e1, e2 = _spheres(1.0, (0, 0, 0), 0.5, (0, 0, 0))
    with pytest.raises(NoIntersectionError):
        solve(e1, e2)


def test_solve_rejects_non_canonical_init():
    e1, e2 = _spheres(1.0, (0, 0, 0), 1.0, (3, 0, 0))
    with pytest.raises(ValueError):
        solve(e1, e2, (SurfaceParam(0.0, 4.0), SurfaceParam(0.0, 1.0)))


def test_solve_converged_via_eps_n_satisfies_signature():
    sc = builtin_scenario("system-I")
    res = solve(sc.e1, sc.e2, sc.init, sc.config())
    assert res.status == "converged"
    if "eps_n" in res.stop_criteria:
        d = res.closest_points[1] - res.closest_points[0]
        dhat = d / np.linalg.norm(d)
        cfg = sc.config()
        assert 1.0 - res.normals[0] @ dhat < cfg.tol_n
        assert 1.0 + res.normals[1] @ dhat < cfg.tol_n


def test_max_iter_status():
    sc = builtin_scenario("system-I")
    res = solve(sc.e1, sc.e2, sc.init, SolverConfig(max_iter=3))
    assert res.status == "max-iter"
    assert res.iterations == 3


# ---------------------------------------------------------------------------
# pole charts


def _symmetry_pair(case, seed=105):
    """The pair that the symmetry property suite draws as ``case``."""
    rng = np.random.default_rng(seed)
    for _ in range(case + 1):
        e1, e2 = random_separated_pair(rng)
    return e1, e2


def test_needle_tip_pair_mirrored_runs_agree():
    # case 419's witness on the needle-like body ends 0.02 rad from a pole of
    # the canonical chart, where a theta step barely moves the point
    e1, e2 = _symmetry_pair(419)
    p1 = line_surface_entry(e1, e1.center, e2.center)
    p2 = line_surface_entry(e2, e1.center, e2.center)
    tight = SolverConfig(tol_d=1e-18, tol_n=1e-18, tol_lambda=1e-8)
    a = solve(e1, e2, (p1, p2), tight)
    b = solve(e2, e1, (p2, p1), tight)
    assert a.status == b.status == "converged"
    assert max(a.iterations, b.iterations) <= 500
    assert abs(a.distance - b.distance) / max(1.0, a.distance) < 1e-12


def test_needle_tip_pair_default_config_converges_quickly():
    e1, e2 = _symmetry_pair(419)
    a = solve(e1, e2)
    b = solve(e2, e1)
    assert a.status == b.status == "converged"
    assert max(a.iterations, b.iterations) <= 300
    assert a.distance == pytest.approx(b.distance, abs=1e-9)


def test_recharted_run_reports_canonical_params():
    e1, e2 = _symmetry_pair(419)
    res = solve(e1, e2, config=SolverConfig(record_trace=True))
    assert res.status == "converged"
    phis = [r.phi1 for r in res.trace] + [r.phi2 for r in res.trace]
    assert min(min(phi, PI - phi) for phi in phis) < CHART_POLE_MARGIN
    scale = max(e1.max_semi_axis, e2.max_semi_axis)
    for p, e, point in zip(res.params, (e1, e2), res.closest_points):
        assert p.is_canonical()
        assert np.linalg.norm(surface_point_global(e, p) - point) < 1e-12 * scale
    for r in res.trace:
        p1, p2 = SurfaceParam(r.theta1, r.phi1), SurfaceParam(r.theta2, r.phi2)
        assert p1.is_canonical() and p2.is_canonical()
        gap = surface_point_global(e2, p2) - surface_point_global(e1, p1)
        assert np.linalg.norm(gap) == pytest.approx(r.distance, rel=1e-12)


# ---------------------------------------------------------------------------
# warm start


def test_warm_restart_unchanged_configuration():
    sc = builtin_scenario("system-II-aligned")
    first = solve(sc.e1, sc.e2, sc.init, sc.config())
    second = solve(sc.e1, sc.e2, first.params, sc.config())
    assert second.status == "converged"
    assert second.iterations <= 2
    assert second.distance == pytest.approx(first.distance, abs=1e-10)


def test_warm_start_after_center_shift():
    sc = builtin_scenario("system-II-aligned")
    first = solve(sc.e1, sc.e2, sc.init, sc.config())
    shifted = Ellipsoid(
        sc.e2.semi_axes,
        (sc.e2.center[0] + 0.01, sc.e2.center[1], sc.e2.center[2]),
        sc.e2.euler,
    )
    res = solve(sc.e1, shifted, first.params, sc.config())
    assert res.status == "converged"
    # support-point distance with the new separation 3.01
    assert res.distance == pytest.approx(3.01 - 1.0 - 0.4, abs=1e-6)


def test_warm_start_beats_cold_after_small_rotation():
    sc = builtin_scenario("system-I")
    first = solve(sc.e1, sc.e2, sc.init, sc.config())
    rotated = Ellipsoid(
        sc.e2.semi_axes,
        sc.e2.center,
        (sc.e2.euler[0] + 0.01, sc.e2.euler[1], sc.e2.euler[2] - 0.01),
    )
    warm = solve(sc.e1, rotated, first.params, sc.config())
    cold = solve(sc.e1, rotated, None, sc.config())
    assert warm.status == cold.status == "converged"
    assert warm.iterations < cold.iterations
    assert warm.distance == pytest.approx(cold.distance, abs=1e-7)


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lambda0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_n=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(overshoot_mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(lambda0=1e-13)
