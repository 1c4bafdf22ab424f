"""Unit tests for the sliding iteration: projections, parameter updates,
overshoot handling, convergence metrics, and the full solve loop."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    assert_float_triples,
    body_offset_numpy,
    center_chords_numpy,
    evaluate,
    nth_separated_pair,
    points_outside,
    random_overlap_pair,
    random_separated_pair,
    support_reach,
    surface_point,
)
from surfslide import slider
from surfslide.contact import analyze
from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceParam,
    implicit_value,
    line_surface_entry,
    surface_frame,
)
from surfslide.oracle import point_to_ellipsoid
from surfslide.scenarios import builtin_scenario, builtin_scenarios
from surfslide.slider import (
    CHART_POLE_MARGIN,
    LAMBDA_FLOOR,
    WARM_STEP_SCALE,
    ZERO_PROJECTION_FACTOR,
    DistanceResult,
    SolverConfig,
    advance_param,
    apply_overshoot_schedule,
    convergence_metrics,
    initial_state,
    iterate_once,
    _foot,
    _warm_step,
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


def test_pull_at_pole_has_no_theta_component():
    e1 = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid((0.5, 0.3, 0.2), (0.7, -0.2, 2.0), (0.4, 0.1, -0.3))
    p1, p2 = SurfaceParam(0.3, 0.0), SurfaceParam(1.1, PI)
    assert surface_frame(e1, p1).tangent_theta is None
    assert surface_frame(e2, p2).tangent_theta is None
    _, _, w1, w2 = evaluate(e1, p1, e2, p2)
    assert w1[0] == 0.0 and w2[0] == 0.0


def test_pull_and_step_increments_give_the_solver_step():
    # the evaluator's pulls and the public step rule must not drift from the
    # solver's round
    rng = np.random.default_rng(12)
    e1, e2 = random_separated_pair(rng)
    cfg = SolverConfig()
    # a start off the answer, where both witnesses have a tangential pull
    # (the cold start's second projection leaves e2's witness aligned)
    s0 = initial_state(e1, e2, (SurfaceParam(1.0, 1.2), SurfaceParam(4.0, 2.0)), cfg)
    assert s0.lambdas == (cfg.lambda0, cfg.lambda0)
    for p in s0.params:
        assert CHART_POLE_MARGIN < p.phi < PI - CHART_POLE_MARGIN
    s1 = iterate_once(s0, cfg, (e1, e2))
    _, dist, *pulls = evaluate(e1, s0.params[0], e2, s0.params[1])
    assert dist == s0.distance
    guard = ZERO_PROJECTION_FACTOR * s0.distance
    for p, moved, (dth, dph, _) in zip(s0.params, s1.params, pulls):
        step = step_increments(dth, dph, cfg.lambda0, guard)
        assert math.hypot(*step) == pytest.approx(cfg.lambda0, rel=1e-12)
        expected = advance_param(p, *step)
        assert abs(moved.theta - expected.theta) <= 1e-15
        assert abs(moved.phi - expected.phi) <= 1e-15


@pytest.mark.parametrize("zero_axis, seed", [(None, 41), (0, 42), (1, 43), (2, 44)])
def test_start_foot_matches_oracle(zero_axis, seed):
    # the projection start's scalar foot solve, on 625 points per case at
    # 1e-10 to 1e4 outside bodies with semi-axes 1e-3 to 1e3, a body-frame
    # coordinate exactly 0 in three of the cases: the foot is on the
    # surface and as far from the point as the oracle's foot. |Q - P|
    # carries round-off of a few ulps of |Q|, which decides the relative
    # error of the smallest distances from the largest bodies.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    for _ in range(25):
        axes = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        e = Ellipsoid(tuple(axes), (0, 0, 0), (0, 0, 0))
        for Q in points_outside(rng, axes, 25, zero_axis):
            if zero_axis is not None:
                assert Q[zero_axis] == 0.0
            unit, P = _foot(e._flat, tuple(Q.tolist()))
            assert abs(implicit_value(e, P)) <= 1e-12
            assert np.allclose(np.asarray(unit) * axes, P, rtol=0.0, atol=4 * eps * max(axes))
            dist, want = float(np.linalg.norm(Q - np.asarray(P))), point_to_ellipsoid(e, Q)[0]
            assert abs(dist - want) <= 1e-12 * want + 4 * eps * np.linalg.norm(Q)


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
def test_step_view_round_across_the_theta_wrap(mode):
    # witness 1 starts just below theta = 2 pi and its pull carries it past:
    # advance_param wraps it, as solve's round canonicalizes it
    rng = np.random.default_rng(3)
    e1 = Ellipsoid(tuple(rng.uniform(0.5, 1.0, 3)), (0, 0, 0), (0, 0, 0))
    center2 = (3.0 * math.cos(0.3), 3.0 * math.sin(0.3), 0.0)  # off e1's theta = 0.3
    e2 = Ellipsoid(tuple(rng.uniform(0.3, 0.8, 3)), center2, tuple(rng.uniform(0, 2 * PI, 3)))
    theta2, phi2 = rng.uniform((0, 1), (2 * PI, 2)).tolist()
    init = (SurfaceParam(2 * PI - 0.01, 1.4), SurfaceParam(theta2, phi2))
    cfg = SolverConfig(overshoot_mode=mode, record_trace=True)
    s0 = initial_state(e1, e2, init, cfg)
    s1 = iterate_once(s0, cfg, (e1, e2))
    assert s1.params[0].theta < s0.params[0].theta - PI  # wrapped
    res = solve(e1, e2, init, cfg)
    assert all(CHART_POLE_MARGIN < r.phi1 < PI - CHART_POLE_MARGIN
               and CHART_POLE_MARGIN < r.phi2 < PI - CHART_POLE_MARGIN for r in res.trace[:2])
    row = res.trace[1]
    p1, p2 = s1.params
    assert (s1.k, s1.overshoot) == (row.k, row.overshoot_flag)
    assert _bits(p1.theta, p1.phi, p2.theta, p2.phi, s1.distance, *s1.lambdas) == _bits(
        row.theta1, row.phi1, row.theta2, row.phi2, row.distance, row.lambda1, row.lambda2)
    assert _bits(*convergence_metrics(s1, s0)[:2]) == _bits(row.eps_d, row.eps_n)


def _stop_decision(cfg, k, eps):
    """What ``solve`` decides at step ``k`` of a separated pair from its
    metrics ``eps`` and the tolerances of ``cfg``: (status, criteria), or
    None to go on."""
    eps_d, eps_n, eps_lambda = eps
    met = tuple(name for name, hit in (
        ("eps_d", eps_d is not None and eps_d < cfg.tol_d),
        ("eps_n", eps_n < cfg.tol_n),
        ("eps_lambda", k > 0 and eps_lambda < cfg.tol_lambda),
    ) if hit)
    if met:
        return "converged", met
    if eps_lambda < LAMBDA_FLOOR:
        return "lambda-floor", ()
    if k == cfg.max_iter:
        return "max-iter", ()
    return None


@pytest.mark.parametrize("mode", ["accept-and-continue", "revert-and-retry"])
def test_step_views_reproduce_the_solve_trace(mode):
    # iterate_once and convergence_metrics are views of the rules solve's
    # loop repeats inline (step_increments, advance_param, _halved, _metrics):
    # driven by hand they give its trace rows bit for bit, and at the last
    # row the stop solve reported
    rng = np.random.default_rng(2024)
    cfg = SolverConfig(overshoot_mode=mode, record_trace=True)
    checked = 0
    for _ in range(60):
        e1, e2 = random_separated_pair(rng)
        res = solve(e1, e2, None, cfg)
        phis = [r.phi1 for r in res.trace] + [r.phi2 for r in res.trace]
        if min(min(phi, PI - phi) for phi in phis) < CHART_POLE_MARGIN:
            continue  # a re-charted path is not a plain chain of rounds
        checked += 1
        sigma = cfg.resolve_sigma(e1, e2)
        state, prev = initial_state(e1, e2, None, cfg), None
        for i, row in enumerate(res.trace):
            if i:
                state, prev = iterate_once(state, cfg, (e1, e2)), state
            eps = convergence_metrics(state, prev)
            eps_d, eps_n, _ = eps
            p1, p2 = state.params
            assert (state.k, state.overshoot) == (row.k, row.overshoot_flag)
            assert _bits(
                p1.theta, p1.phi, p2.theta, p2.phi, state.distance,
                *state.lambdas, eps_d, eps_n,
            ) == _bits(
                row.theta1, row.phi1, row.theta2, row.phi2, row.distance,
                row.lambda1, row.lambda2, row.eps_d, row.eps_n,
            ), f"step {row.k}"
            assert state.distance >= sigma  # no contact hand-off
            decision = _stop_decision(cfg, state.k, eps)
            if i < len(res.trace) - 1:
                assert decision is None, f"step {row.k}"
        assert (res.status, res.stop_criteria) == decision
        assert res.iterations == state.k
        assert _bits(*res.final_eps) == _bits(*eps)
        assert (res.final_eps[0] is None) == (eps[0] is None)
    assert checked >= 30


def test_results_and_rows_hold_plain_floats():
    e1, e2 = random_separated_pair(np.random.default_rng(2024))
    assert len(e1._flat) == 15 and all(type(v) is float for v in e1._flat)
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


def test_result_records_keep_their_dataclass_behaviour():
    # SurfaceParam and DistanceResult store their fields with one
    # instance-dict update; everything a frozen dataclass gives must remain
    p = SurfaceParam(0.5, 1.0)
    assert p == SurfaceParam(theta=0.5, phi=1.0) != SurfaceParam(0.5, 1.5)
    assert hash(p) == hash(SurfaceParam(0.5, 1.0)) == hash((0.5, 1.0))
    assert repr(p) == "SurfaceParam(theta=0.5, phi=1.0)"
    assert [f.name for f in dataclasses.fields(p)] == ["theta", "phi"]
    assert dataclasses.replace(p, phi=2.0) == SurfaceParam(0.5, 2.0)
    assert dataclasses.astuple(p) == (0.5, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = 1.0
    with pytest.raises(TypeError):
        SurfaceParam(0.5)

    fields = dataclasses.fields(DistanceResult)
    assert [f.name for f in fields] == [
        "status", "distance", "params", "closest_points", "normals",
        "iterations", "final_eps", "trace", "stop_criteria",
    ]
    assert [f.default for f in fields[-2:]] == [None, ()]
    args = ("converged", 1.5, (p, p), ((1.0, 0.0, 0.0), (2.5, 0.0, 0.0)),
            ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), 7, (None, 1e-11, 0.05))
    r = DistanceResult(*args)
    assert (r.trace, r.stop_criteria) == (None, ())
    named = DistanceResult(
        status="converged", distance=1.5, params=(p, p), closest_points=args[3],
        normals=args[4], iterations=7, final_eps=args[6], stop_criteria=(),
    )
    assert r == named and hash(r) == hash(named)
    assert repr(r) == (
        "DistanceResult(status='converged', distance=1.5, params=(" + repr(p) + ", "
        + repr(p) + "), closest_points=((1.0, 0.0, 0.0), (2.5, 0.0, 0.0)), "
        "normals=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), iterations=7, "
        "final_eps=(None, 1e-11, 0.05), trace=None, stop_criteria=())"
    )
    moved = dataclasses.replace(r, status="max-iter", stop_criteria=("eps_n",))
    assert (moved.status, moved.stop_criteria, moved.distance, moved.params) == (
        "max-iter", ("eps_n",), 1.5, (p, p))
    assert moved != r
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.distance = 0.0
    with pytest.raises(TypeError):
        DistanceResult(*args[:-1])
    with pytest.raises(TypeError):
        DistanceResult(*args, bogus=1)
    res = solve(*_spheres(1.0, (0, 0, 0), 1.0, (3, 0, 0)))
    assert type(res.params[0]) is SurfaceParam and res.trace is None
    assert dataclasses.replace(res).distance == res.distance


def test_solve_answer_is_a_plain_value():
    # the points and normals are float triples, so two solves of one pair
    # compare equal field by field and, with no trace recorded, hash alike
    e1, e2 = nth_separated_pair(2024, 0)
    a, b = solve(e1, e2), solve(e1, e2)
    assert a.status == "converged" and a is not b
    assert a == b and hash(a) == hash(b)
    assert_float_triples((*a.closest_points, *a.normals))
    traced = solve(e1, e2, None, SolverConfig(record_trace=True))
    assert dataclasses.replace(traced, trace=None) == a


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
        res = solve(e1, e2)
        assert res.status == "overlap" and res.iterations == 0
        with pytest.raises(NoIntersectionError):
            initial_state(e1, e2, None, SolverConfig())


def _certified(e1, e2) -> bool:
    """Whether the cold start proves the pair overlapping, which leaves
    ``initial_state`` no start to give."""
    try:
        initial_state(e1, e2, None, SolverConfig())
    except NoIntersectionError:
        return True
    return False


def _strictly_inside(e, X) -> bool:
    w = body_offset_numpy(e, X)
    return float(w @ w) < 1.0


def test_chord_test_certifies_a_stretch_inside_both_bodies():
    # The overlap recipe, seeds 1-5 (2,000 pairs). The center line holds e1
    # on (-rho1, rho1) from c1 and e2 on (r - rho2, r + rho2); at the middle
    # of their shared stretch, found here in numpy, every certified pair
    # has a point strictly inside both bodies. Every pair with a center
    # inside the other body is certified, and swapping the arguments
    # certifies the same pairs. Counts pinned: the chord test proves 1,079
    # overlaps, where a center inside the other body proves 528.
    certified = centers_inside = 0
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        for i in range(400):
            e1, e2 = random_overlap_pair(rng, (0.3, 0.6, 0.9)[i % 3])
            got = _certified(e1, e2)
            assert _certified(e2, e1) == got, (seed, i)
            inside = _strictly_inside(e1, e2.center) or _strictly_inside(e2, e1.center)
            assert got or not inside, (seed, i)
            if got:
                r, rho1, rho2 = center_chords_numpy(e1, e2)
                mid = 0.5 * (max(-rho1, r - rho2) + min(rho1, r + rho2))
                c1, c2 = np.asarray(e1.center), np.asarray(e2.center)
                X = c1 + (mid / r) * (c2 - c1)
                assert _strictly_inside(e1, X) and _strictly_inside(e2, X), (seed, i)
            certified += got
            centers_inside += inside
    assert (certified, centers_inside) == (1079, 528)


def test_touching_spheres_are_never_certified():
    # 2,000 tangent sphere pairs: radii log-uniform in [0.01, 100], the
    # second center at r1 + r2 in a random direction, random rotations.
    # Their chords meet only to round-off, which the sigma margin keeps
    # from counting as a shared stretch: none is certified, and analyze
    # calls every one in-contact.
    rng = np.random.default_rng(7)
    for i in range(2000):
        r1, r2 = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        c1 = rng.uniform(-1.0, 1.0, 3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        e1 = Ellipsoid((r1, r1, r1), tuple(c1), tuple(rng.uniform(-math.pi, math.pi, 3)))
        e2 = Ellipsoid((r2, r2, r2), tuple(c1 + (r1 + r2) * u),
                       tuple(rng.uniform(-math.pi, math.pi, 3)))
        assert not _certified(e1, e2), i
        assert analyze(e1, e2).kind == "in-contact", i


def test_an_underflowing_body_offset_is_certified():
    # c2 lies 1e-150 from c1, inside a sphere of radius 1e200: the body
    # offset 1e-350 underflows to 0, so the ray from c1 stays inside e1
    # without end. That proves the overlap instead of dividing by zero.
    e1, e2 = _spheres(1e200, (0, 0, 0), 1.0, (1e-150, 0, 0))
    for a, b in ((e1, e2), (e2, e1)):
        assert slider._ray_exit(a, b.center)[1] == (math.inf if a is e1 else 1.0)
        with pytest.raises(NoIntersectionError, match="inside both bodies"):
            initial_state(a, b, None, SolverConfig())
        res = solve(a, b)
        assert res.status == "overlap" and res.iterations == 0


def test_only_the_ray_exit_start_tests_for_a_center_inside(monkeypatch):
    # the cold start certifies overlap from its ray exits, whose reaches
    # along the center line give the chord test; a positive support gap
    # along the center line already proves the pair disjoint, so the
    # projection start never takes a ray exit
    calls = []

    def counted(e, toward):
        calls.append((e, toward))
        return ray_exit(e, toward)

    ray_exit = slider._ray_exit
    monkeypatch.setattr(slider, "_ray_exit", counted)
    sc = builtin_scenario("system-I")
    assert solve(sc.e1, sc.e2).status == "converged"
    assert calls == []
    e1, e2 = _spheres(1.0, (0, 0, 0), 1.0, (1.5, 0, 0))
    solve(e1, e2)
    assert calls == [(e1, e2.center), (e2, e1.center)]


def test_start_below_contact_threshold_is_contact():
    # s(u) = 1e-7 > 0, so the cold start's two projection rounds land on the
    # optimum, 1e-7 apart, below sigma = 1e-6: the contact hand-off precedes
    # the eps_n stop, cold and warm
    e1, e2 = _spheres(1.0, (0, 0, 0), 1.0, (2 + 1e-7, 0, 0))
    cold = solve(e1, e2)
    assert cold.status == "contact" and cold.iterations == 0
    assert solve(e1, e2, cold.params).status == "contact"


def test_start_stops_on_eps_n_alone():
    # the start's eps_lambda is lambda0, below tol_lambda here, but the
    # start has taken no step: the first round runs and then stops on it
    sc = builtin_scenario("system-I")
    for init in (sc.init, None):
        res = solve(sc.e1, sc.e2, init, SolverConfig(lambda0=1e-9))
        assert res.status == "converged"
        assert res.iterations == 1 and res.stop_criteria == ("eps_lambda",)


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
        P1, P2 = np.asarray(res.closest_points)
        d = P2 - P1
        dhat = d / np.linalg.norm(d)
        cfg = sc.config()
        assert 1.0 - res.normals[0] @ dhat < cfg.tol_n
        assert 1.0 + res.normals[1] @ dhat < cfg.tol_n


def test_max_iter_status():
    sc = builtin_scenario("system-I")
    res = solve(sc.e1, sc.e2, sc.init, SolverConfig(max_iter=3))
    assert res.status == "max-iter"
    assert res.iterations == 3


def test_lambda_floor_status():
    # pair 4 of seed 5: with every tolerance at 1e-300 the revert-mode steps
    # fall below LAMBDA_FLOOR before any stop criterion fires
    cfg = SolverConfig(tol_d=1e-300, tol_n=1e-300, tol_lambda=1e-300,
                       overshoot_mode="revert-and-retry")
    res = solve(*nth_separated_pair(5, 4), None, cfg)
    assert res.status == "lambda-floor"
    assert res.iterations == 27
    assert res.stop_criteria == ()
    assert res.final_eps[2] < LAMBDA_FLOOR


# ---------------------------------------------------------------------------
# pole charts


def _symmetry_pair(case, seed=105):
    """The pair that the symmetry property suite draws as ``case``."""
    return nth_separated_pair(seed, case)


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
    scale = max(*e1.semi_axes, *e2.semi_axes)
    for p, e, point in zip(res.params, (e1, e2), res.closest_points):
        assert p.is_canonical()
        assert np.linalg.norm(surface_point(e, p) - point) < 1e-12 * scale
    for r in res.trace:
        p1, p2 = SurfaceParam(r.theta1, r.phi1), SurfaceParam(r.theta2, r.phi2)
        assert p1.is_canonical() and p2.is_canonical()
        gap = surface_point(e2, p2) - surface_point(e1, p1)
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


def test_warm_step_follows_start_misalignment():
    # a warm start 1e-3 off the answer starts both steps at
    # WARM_STEP_SCALE * sqrt(2 eps_n) of its k = 0 row, below lambda0
    sc = builtin_scenario("system-I")
    cfg = SolverConfig(record_trace=True)
    first = solve(sc.e1, sc.e2, sc.init, cfg)
    init = tuple(SurfaceParam.canonical(p.theta + 1e-3, p.phi - 1e-3) for p in first.params)
    res = solve(sc.e1, sc.e2, init, cfg)
    row = res.trace[0]
    want = min(cfg.lambda0, WARM_STEP_SCALE * math.sqrt(2.0 * row.eps_n))
    assert row.lambda1 == row.lambda2 == want < cfg.lambda0
    assert res.status == "converged"
    assert res.distance == pytest.approx(first.distance, rel=1e-9)


def test_builtin_inits_keep_lambda0():
    # the builtin inits are far from aligned (eps_n between 1.75 and 1.99),
    # so their k = 0 steps stay at lambda0
    inits = [sc for sc in builtin_scenarios() if sc.init is not None]
    assert len(inits) == 5
    for sc in inits:
        cfg = dataclasses.replace(sc.config(), record_trace=True, max_iter=1)
        row = solve(sc.e1, sc.e2, sc.init, cfg).trace[0]
        assert row.lambda1 == row.lambda2 == cfg.lambda0, sc.name


def test_warm_step_keeps_lambda0_without_a_misalignment():
    lam, eps_n = _warm_step(0.05, 0.0, 0.0, 0.0)  # coincident: eps_n NaN
    assert lam == 0.05 and math.isnan(eps_n)
    assert _warm_step(0.05, 1.0, 1.0, 1.0) == (0.05, 0.0)  # aligned: eps_n 0
    assert _warm_step(0.05, 1.0, 0.5, 1.0) == (0.05, 0.5)  # far off: capped
    lam, eps_n = _warm_step(0.05, 1.0, 1.0 - 2e-6, 1.0)
    assert lam == pytest.approx(1e-3) and eps_n == pytest.approx(2e-6)
    assert _warm_step(0.05, 1.0, 1.0 - 2.0**-53, 1.0)[0] > LAMBDA_FLOOR


def test_cold_start_steps_at_lambda0():
    # trace row 0 of a cold solve has both steps at lambda0, on seeded
    # pairs that take each of _start's three starts, told apart in numpy:
    # the projections (positive center-line support gap), the uncertified
    # ray exits, and the chord-certified overlaps (solve's k = 0 overlap)
    cfg = SolverConfig(lambda0=0.03, max_iter=1, record_trace=True)
    rng = np.random.default_rng(11)
    starts = [0, 0, 0]  # projections, ray exits, certified overlaps
    for case in range(150):
        e1, e2 = random_overlap_pair(rng, rng.uniform(0.1, 1.5))
        r = np.asarray(e2.center) - np.asarray(e1.center)
        u = r / np.linalg.norm(r)
        gap = float(np.linalg.norm(r)) - support_reach(e1, u) - support_reach(e2, -u)
        length, rho1, rho2 = center_chords_numpy(e1, e2)
        certified = rho1 + rho2 > length + cfg.resolve_sigma(e1, e2)
        start = 0 if gap > 0.0 else 2 if certified else 1
        starts[start] += 1
        res = solve(e1, e2, None, cfg)
        assert (res.status == "overlap" and res.iterations == 0) == (start == 2), case
        row = res.trace[0]
        assert row.k == 0 and row.lambda1 == row.lambda2 == cfg.lambda0, case
    assert starts == [82, 16, 52]


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
    # pi is the whole phi range
    SolverConfig(lambda0=math.pi)
    for big in (math.pi * (1 + 2**-52), 4.0, 1e308):
        with pytest.raises(ValueError, match="at most pi"):
            SolverConfig(lambda0=big)
    for bad in ({"lambda0": math.inf}, {"tol_n": math.nan}, {"tol_d": math.inf},
                {"tol_lambda": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**bad)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, "10"])
def test_solver_config_rejects_max_iter_that_is_not_an_integer(max_iter):
    # range(max_iter + 1) in solve would raise TypeError
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverConfig(max_iter=max_iter)


@pytest.mark.parametrize("field", ["lambda0", "max_iter", "tol_d", "tol_n", "tol_lambda"])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_solver_config_rejects_booleans(field, flag):
    # True == 1 would pass every range check and run with max_iter=True
    with pytest.raises(ValueError, match="not booleans"):
        SolverConfig(**{field: flag})


def test_solver_config_accepts_numpy_integers_for_max_iter():
    cfg = SolverConfig(max_iter=np.int64(50))
    assert cfg.max_iter == 50 and type(cfg.max_iter) is int
    assert type(SolverConfig(max_iter=np.uint8(3)).max_iter) is int


def test_solver_config_stores_plain_floats():
    cfg = SolverConfig(lambda0=np.float64(0.05), tol_d=np.float32(1e-12), tol_n=1,
                       tol_lambda=np.float64(1e-8))
    values = (cfg.lambda0, cfg.tol_d, cfg.tol_n, cfg.tol_lambda)
    assert all(type(v) is float for v in values)
    assert values == (0.05, float(np.float32(1e-12)), 1.0, 1e-8)
    assert dataclasses.replace(cfg, lambda0=np.float64(0.1)).lambda0.hex() == (0.1).hex()


def test_numpy_scalar_settings_give_plain_float_results():
    e1, e2 = random_separated_pair(np.random.default_rng(2024))
    want = solve(e1, e2, config=SolverConfig(record_trace=True))
    res = solve(e1, e2, config=SolverConfig(lambda0=np.float64(0.05), max_iter=np.int64(10_000),
                                            record_trace=True))
    assert res.distance.hex() == want.distance.hex() and res.iterations == want.iterations
    assert all(v is None or type(v) is float for v in res.final_eps)
    for row, want_row in zip(res.trace, want.trace):
        assert row == want_row
        assert all(type(v) is float for v in row[1:10])
