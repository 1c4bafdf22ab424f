"""Tests for the reference solvers: exact point projection, the two-way
coarse-to-fine lattice search and the support-function dual."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    disk_pair,
    high_aspect_pair,
    points_outside,
    random_overlap_pair,
    random_separated_pair,
    surface_point,
)
from surfslide import geometry, oracle
from surfslide.geometry import Ellipsoid, implicit_value, surface_frame
from surfslide.oracle import (
    OracleRangeError,
    OverlapSuspectedError,
    dual_distance,
    oracle_min_distance,
    point_to_ellipsoid,
)
from surfslide.scenarios import builtin_scenario, builtin_scenarios
from surfslide.slider import solve

PI = math.pi


# ---------------------------------------------------------------------------
# point_to_ellipsoid


def test_point_projection_unit_sphere():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    dist, foot = point_to_ellipsoid(e, [3, 0, 0])
    assert dist == pytest.approx(2.0, abs=1e-12)
    assert foot.theta == pytest.approx(0.0, abs=1e-10)
    assert foot.phi == pytest.approx(PI / 2, abs=1e-10)


def test_point_projection_on_axis():
    e = Ellipsoid((2, 1, 1), (0, 0, 0), (0, 0, 0))
    dist, foot = point_to_ellipsoid(e, [5, 0, 0])
    assert dist == pytest.approx(3.0, abs=1e-10)
    assert foot.phi == pytest.approx(PI / 2, abs=1e-8)

    e = Ellipsoid((1, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    dist, foot = point_to_ellipsoid(e, [0, 0, 2])
    assert dist == pytest.approx(1.6, abs=1e-10)
    assert foot.phi == pytest.approx(0.0, abs=1e-6)


def test_point_projection_rejects_interior():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        point_to_ellipsoid(e, [0.5, 0, 0])


def test_foot_normal_alignment_random():
    rng = np.random.default_rng(21)
    e = Ellipsoid((1.2, 0.5, 0.8), (0.3, -0.4, 0.7), (0.5, -0.9, 1.3))
    for _ in range(100):
        Q = np.asarray(e.center) + rng.uniform(-5, 5, 3)
        r = np.linalg.norm(Q - np.asarray(e.center))
        if r < 1.5:  # keep strictly exterior
            Q = np.asarray(e.center) + (Q - np.asarray(e.center)) * (2.0 / max(r, 0.1))
        dist, foot = point_to_ellipsoid(e, Q)
        F = surface_point(e, foot)
        n = np.asarray(surface_frame(e, foot).normal)
        seg = Q - F
        assert np.linalg.norm(np.cross(seg, n)) < 1e-8 * np.linalg.norm(seg)
        assert dist == pytest.approx(np.linalg.norm(seg), rel=1e-12)


def _spy_feet(monkeypatch):
    """Record the raw local foot of every point_to_ellipsoid call."""
    feet = []
    solve_feet = oracle._foot_points_local

    def spy(axes, q):
        foot = solve_feet(axes, q)
        feet.append(foot.reshape(3))
        return foot

    monkeypatch.setattr(oracle, "_foot_points_local", spy)
    return feet


@pytest.mark.parametrize("zero_axis, seed", [(None, 31), (0, 32), (1, 33), (2, 34)])
def test_foot_points_extreme_axes_and_distances(monkeypatch, zero_axis, seed):
    feet = _spy_feet(monkeypatch)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        axes = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        e = Ellipsoid(tuple(axes), (0, 0, 0), (0, 0, 0))  # local frame = global
        for Q in points_outside(rng, axes, 25, zero_axis):
            if zero_axis is not None:
                assert Q[zero_axis] == 0.0
            dist, _ = point_to_ellipsoid(e, Q)
            foot = feet[-1]
            assert abs(implicit_value(e, foot)) <= 1e-12
            assert dist == pytest.approx(np.linalg.norm(Q - foot), rel=1e-12)


def test_sphere_foot_matches_closed_form(monkeypatch):
    feet = _spy_feet(monkeypatch)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(37)
    for _ in range(200):
        r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        c = rng.uniform(-10, 10, 3)
        e = Ellipsoid((r, r, r), tuple(c), (0, 0, 0))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        Q = c + (r + math.exp(rng.uniform(math.log(1e-10), math.log(1e4)))) * u
        dist, p = point_to_ellipsoid(e, Q)
        closed = r * (Q - c) / np.linalg.norm(Q - c)
        assert np.linalg.norm(feet[-1] - closed) <= 1e-14 * r
        # |Q - c| carries round-off of a few ulps of |Q|
        expected = np.linalg.norm(Q - c) - r
        assert abs(dist - expected) <= 1e-12 * expected + 4 * eps * np.linalg.norm(Q)
        F = surface_point(e, p)
        assert np.linalg.norm(F - (c + closed)) <= 1e-14 * (r + np.linalg.norm(c))


def test_foot_point_solve_raises_at_pass_cap(monkeypatch):
    e = Ellipsoid((1.2, 0.5, 0.8), (0, 0, 0), (0, 0, 0))
    Q = [3.0, -2.0, 1.5]
    assert point_to_ellipsoid(e, Q)[0] > 0.0
    monkeypatch.setattr(oracle, "NEWTON_MAX_PASSES", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        point_to_ellipsoid(e, Q)
    with pytest.raises(RuntimeError, match="did not converge"):
        oracle_min_distance(e, Ellipsoid((1, 1, 1), (5, 0, 0), (0, 0, 0)))


def test_sphere_foot_takes_one_newton_step(monkeypatch):
    # on a sphere the solved function is linear in t: one step lands on the
    # root, and the second pass only confirms it
    monkeypatch.setattr(oracle, "NEWTON_MAX_PASSES", 2)
    rng = np.random.default_rng(38)
    for _ in range(50):
        r = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        c = rng.uniform(-10, 10, 3)
        e = Ellipsoid((r, r, r), tuple(c), (0, 0, 0))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        Q = c + r * math.exp(rng.uniform(math.log(1.1), math.log(100.0))) * u
        dist, _ = point_to_ellipsoid(e, Q)
        assert dist == pytest.approx(np.linalg.norm(Q - c) - r, rel=1e-12)


def test_point_projection_rejects_non_finite_points():
    # 1e200 out, the implicit value overflows to inf, which is rejected
    e = Ellipsoid((1.2, 0.5, 0.8), (0, 0, 0), (0, 0, 0))
    for Q in ([math.nan, 3.0, 0.0], [math.inf, 0.0, 0.0], [1e200, 0.0, 0.0]):
        with pytest.raises(ValueError, match="not a finite point"):
            point_to_ellipsoid(e, Q)


# ---------------------------------------------------------------------------
# oracle_min_distance


def test_oracle_unit_spheres():
    e1 = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid((1, 1, 1), (3, 0, 0), (0, 0, 0))
    dist, _ = oracle_min_distance(e1, e2)
    assert dist == pytest.approx(1.0, abs=1e-6)


def test_oracle_system_ii_support_point_arithmetic():
    # |X02 - X01| - a1 - c2 for both variants of the aligned support family
    for name in ("system-II-aligned", "system-II-rotated"):
        sc = builtin_scenario(name)
        dx = np.asarray(sc.e2.center) - np.asarray(sc.e1.center)
        expected = np.linalg.norm(dx) - sc.e1.semi_axes[0] - sc.e2.semi_axes[2]
        dist, _ = oracle_min_distance(sc.e1, sc.e2)
        assert dist == pytest.approx(expected, abs=1e-6)


def test_oracle_grid_doubling_self_consistency(monkeypatch):
    sc = builtin_scenario("system-I")
    d1, _ = oracle_min_distance(sc.e1, sc.e2)
    monkeypatch.setattr(oracle, "GRID_THETA", 128)
    monkeypatch.setattr(oracle, "GRID_PHI", 64)
    d2, _ = oracle_min_distance(sc.e1, sc.e2)
    assert abs(d1 - d2) < 1e-6


def test_oracle_detects_overlap():
    e1 = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid((1, 1, 1), (1.0, 0, 0), (0, 0, 0))
    with pytest.raises(OverlapSuspectedError):
        oracle_min_distance(e1, e2)


def test_oracle_detects_a_contained_body_in_both_orders():
    # only the inner body's lattice has samples inside the other body, so
    # each order needs the interior test on its own half of the lattice
    outer = Ellipsoid((3.0, 2.0, 2.5), (0.1, -0.2, 0.3), (0.3, 0.2, 0.1))
    inner = Ellipsoid((0.5, 0.3, 0.4), (0.4, 0.1, 0.2), (-0.7, 0.4, 1.1))
    for e1, e2 in ((outer, inner), (inner, outer)):
        with pytest.raises(OverlapSuspectedError, match="sampled surface point"):
            oracle_min_distance(e1, e2)


def test_oracle_overlap_exit_runs_no_foot_solve(monkeypatch):
    # each level tests both lattices before either is foot-solved: a search
    # that ran body by body would pay 7 foot solves on (outer, inner), and
    # one that solved body 1 before testing body 2's lattice would pay 1
    calls = []
    solve_feet = oracle._foot_points_local

    def counted(axes, q):
        calls.append(q.shape)
        return solve_feet(axes, q)

    monkeypatch.setattr(oracle, "_foot_points_local", counted)
    outer = Ellipsoid((3.0, 2.0, 2.5), (0.1, -0.2, 0.3), (0.3, 0.2, 0.1))
    inner = Ellipsoid((0.5, 0.3, 0.4), (0.4, 0.1, 0.2), (-0.7, 0.4, 1.1))
    spheres = (Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0)),
               Ellipsoid((1, 1, 1), (1.0, 0, 0), (0, 0, 0)))
    for e1, e2 in ((outer, inner), (inner, outer), spheres, spheres[::-1]):
        with pytest.raises(OverlapSuspectedError, match="a sampled surface point"):
            oracle_min_distance(e1, e2)
        assert calls == []


def test_oracle_answer_does_not_depend_on_the_argument_order():
    # both searches run whichever body comes first, so swapping the
    # arguments swaps the params and keeps the distance bit for bit, or
    # raises the same error
    rng = np.random.default_rng(41)
    pairs = [high_aspect_pair(rng) for _ in range(20)]
    pairs += [disk_pair(rng) for _ in range(20)]
    pairs += [random_overlap_pair(rng, (0.3, 0.6, 0.9)[i % 3]) for i in range(20)]
    pairs += [random_separated_pair(rng) for _ in range(20)]
    raised = 0
    for e1, e2 in pairs:
        found = []
        for a, b in ((e1, e2), (e2, e1)):
            try:
                dist, params = oracle_min_distance(a, b)
                found.append((dist.hex(), params if a is e1 else params[::-1]))
            except RuntimeError as exc:
                found.append((type(exc), str(exc)))
        assert found[0] == found[1]
        raised += isinstance(found[0][0], type)
    # both kinds of exit are compared
    assert raised == 13


@pytest.mark.parametrize(
    "semi_axis, center2",
    [(1e120, 3e120), (1.0, 1e300), (1e-100, 3e-100)],
    ids=["huge", "far", "tiny"],
)
def test_oracle_rejects_lengths_it_cannot_keep_finite(semi_axis, center2):
    # a^2 q overflows past a scale of about 5e102, and the distances of
    # unit spheres 1e300 apart square to inf: the oracle raises before any
    # array arithmetic, so no RuntimeWarning is emitted
    e1 = Ellipsoid((semi_axis,) * 3, (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid((semi_axis,) * 3, (center2, 0, 0), (0, 0, 0))
    for a, b in ((e1, e2), (e2, e1)):
        for search in (oracle_min_distance, dual_distance):
            with pytest.raises(OracleRangeError, match="lattice arithmetic"):
                search(a, b)


@pytest.mark.parametrize("sc", builtin_scenarios(), ids=lambda sc: sc.name)
def test_oracle_zero_point_tol_terminates(monkeypatch, sc):
    # with no tolerance the foot solves stop only when a step no longer
    # changes t or is clamped to 0
    expected, _ = oracle_min_distance(sc.e1, sc.e2)
    monkeypatch.setattr(oracle, "POINT_TOL", 0.0)
    dist, _ = oracle_min_distance(sc.e1, sc.e2)
    assert dist == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed, draw", [(0, 77), (10, 6)])
def test_oracle_searches_both_surfaces(seed, draw):
    # a lattice on e1 alone refines into the wrong basin on these pairs
    # (by 8.9e-5 and 5.1e-4); the lattice on e2 finds the slider's basin
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        e1, e2 = random_separated_pair(rng)
    res = solve(e1, e2)
    assert res.status == "converged"
    dist, (p1, p2) = oracle_min_distance(e1, e2)
    assert abs(dist - res.distance) < 1e-9
    P1, P2 = surface_point(e1, p1), surface_point(e2, p2)
    assert np.linalg.norm(P1 - P2) == pytest.approx(dist, rel=1e-9)
    swapped, _ = oracle_min_distance(e2, e1)
    assert abs(swapped - res.distance) < 1e-9


# ---------------------------------------------------------------------------
# dual_distance

EPS = np.finfo(float).eps


@functools.cache
def _dual_suite(family):
    """The separated pairs of one suite of the dual's property tests."""
    if family == "builtins":
        return [(sc.e1, sc.e2) for sc in builtin_scenarios()]
    if family == "random-2024":
        rng = np.random.default_rng(2024)
        return [random_separated_pair(rng) for _ in range(200)]
    if family == "aspect-300":
        rng = np.random.default_rng(112)
        return [random_separated_pair(rng, lo=0.002, hi=2.0, max_aspect=300.0)
                for _ in range(200)]
    if family == "aspect-1000":
        rng = np.random.default_rng(113)
        return [random_separated_pair(rng, lo=1e-3, hi=1e3, max_aspect=1000.0)
                for _ in range(150)]
    rng = np.random.default_rng(114)
    return [disk_pair(rng) for _ in range(30)]


# The worst relative bracket (upper - lower) / upper of each suite, over
# both argument orders, as measured; a change that widens one shows. The
# disk's comes from its lower bound's round-off allowance, which grows
# with the support offsets (up to about 200 along the disk) against gaps
# down to 1e-2.
DUAL_WORST_BRACKET = {
    "builtins": 3.9e-15,
    "random-2024": 1.3e-14,
    "aspect-300": 1.4e-14,
    "aspect-1000": 8.8e-15,
    "disk": 5.9e-12,
}

# Separated pairs on which dual_distance finds no direction of positive
# gap, as (suite, case, order): none.
DUAL_NONE_CASES = []


@pytest.mark.parametrize("family", list(DUAL_WORST_BRACKET))
def test_dual_brackets_every_separated_pair(family):
    nones, worst = [], 0.0
    for case, (e1, e2) in enumerate(_dual_suite(family)):
        found = []
        for order, (a, b) in enumerate(((e1, e2), (e2, e1))):
            res = dual_distance(a, b)
            if res is None:
                nones.append((family, case, order))
                continue
            lower, upper, x1, x2, u = res
            assert lower <= upper, (case, order)
            assert abs(implicit_value(a, x1)) <= 1e-12
            assert abs(implicit_value(b, x2)) <= 1e-12
            worst = max(worst, (upper - lower) / upper)
            found.append(res)
        if len(found) == 2:
            (lo12, up12, _, _, u12), (lo21, up21, _, _, u21) = found
            assert abs(lo21 - lo12) <= 1e-12 * up12 and abs(up21 - up12) <= 1e-12 * up12
            assert max(abs(p + q) for p, q in zip(u12, u21)) <= 1e-12
    assert nones == [c for c in DUAL_NONE_CASES if c[0] == family]
    assert worst <= DUAL_WORST_BRACKET[family]


@pytest.mark.parametrize("family", list(DUAL_WORST_BRACKET))
def test_dual_bracket_scales_exactly(family):
    # every operation is homogeneous in length: a power-of-two scale
    # carries through bit for bit
    for e1, e2 in _dual_suite(family):
        lower, upper, x1, x2, u = dual_distance(e1, e2)
        for f in (2.0**20, 2.0**-20):
            scaled = [Ellipsoid(tuple(f * a for a in e.semi_axes),
                                tuple(f * c for c in e.center), e.euler) for e in (e1, e2)]
            got = dual_distance(*scaled)
            assert got == (f * lower, f * upper, tuple(f * c for c in x1),
                           tuple(f * c for c in x2), u)


def test_dual_bracket_holds_the_lattice_distance():
    # about 200 pairs: the lattice's exact surface-point distance is never
    # below the dual's lower bound and agrees with its upper one at the
    # lattice's resolution, and the lattice's params rebuild that distance
    pairs = [*_dual_suite("builtins"), *_dual_suite("random-2024")[:60],
             *_dual_suite("aspect-300")[:50], *_dual_suite("aspect-1000")[:50],
             *_dual_suite("disk")]
    assert len(pairs) == 197
    for e1, e2 in pairs:
        lower, upper, _, _, _ = dual_distance(e1, e2)
        lattice, (p1, p2) = oracle_min_distance(e1, e2)
        assert lower <= lattice * (1.0 + 4.0 * EPS)
        assert abs(upper - lattice) <= 1e-5 * max(1.0, lattice)
        P1, P2 = surface_point(e1, p1), surface_point(e2, p2)
        assert np.linalg.norm(P2 - P1) == pytest.approx(lattice, rel=1e-9)


def test_dual_finds_no_bracket_where_a_center_is_inside(monkeypatch):
    # a center inside the other body makes g(u) < 0 for every u, and the
    # call ends before the ascent computes any tangent terms; the pairs
    # with no center inside may be separated (mostly at frac 0.9)
    steps = []
    tangent_terms = oracle._tangent_terms

    def spy(*args):
        steps.append(args)
        return tangent_terms(*args)

    monkeypatch.setattr(oracle, "_tangent_terms", spy)
    rng = np.random.default_rng(1)
    inside = 0
    for case in range(450):
        e1, e2 = random_overlap_pair(rng, (0.3, 0.6, 0.9)[case % 3])
        steps.clear()
        res = dual_distance(e1, e2)
        if implicit_value(e1, e2.center) < 0.0 or implicit_value(e2, e1.center) < 0.0:
            inside += 1
            assert res is None and steps == [], case
        elif res is not None:
            assert 0.0 < res[0] <= res[1], case
    assert inside == 122


def test_dual_finds_no_bracket_for_touching_or_concentric_pairs():
    sphere = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    assert dual_distance(sphere, Ellipsoid((1, 1, 1), (2, 0, 0), (0, 0, 0))) is None
    assert dual_distance(sphere, Ellipsoid((0.5, 0.3, 0.2), (0, 0, 0), (0.1, 0.2, 0.3))) is None


def test_dual_step_cap(monkeypatch):
    # without steps, only the start r/|r| counts: a pair whose start has
    # a negative gap gets None, one whose start is the answer its bracket
    disk, body = _dual_suite("disk")[0]
    spheres = (Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0)),
               Ellipsoid((0.5, 0.5, 0.5), (3, 4, 0), (0, 0, 0)))
    assert dual_distance(disk, body) is not None
    monkeypatch.setattr(oracle, "DUAL_MAX_STEPS", 0)
    assert dual_distance(disk, body) is None
    lower, upper, _, _, _ = dual_distance(*spheres)
    assert lower <= 3.5 <= upper <= 3.5 * (1.0 + EPS)


def _imported_names(module) -> set[str]:
    """The last dotted part of every module that ``module``'s source
    imports, and the names a relative ``from . import`` takes."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[-1])
            if node.level:
                names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[-1] for a in node.names)
    return names


def test_oracle_imports_nothing_from_the_solver():
    # the oracle grades the solver, so it must not reach its iteration; it
    # shares only geometry's kernels (see the next test)
    assert not _imported_names(oracle) & {"slider", "contact"}


def test_geometry_is_a_leaf():
    # the oracle and the solver share geometry's support kernels, so the
    # oracle could reach the solver through geometry if it imported one
    assert not _imported_names(geometry) & {"slider", "contact", "oracle", "scenarios", "cli"}
