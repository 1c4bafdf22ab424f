"""Tests for the reference solvers: exact point projection and the
two-way coarse-to-fine lattice search."""

import math

import numpy as np
import pytest

from helpers import random_separated_pair
from surfslide import oracle
from surfslide.geometry import (
    Ellipsoid,
    implicit_value,
    surface_frame,
    surface_point_global,
)
from surfslide.oracle import (
    OracleConfig,
    OverlapSuspectedError,
    oracle_min_distance,
    point_to_ellipsoid,
)
from surfslide.scenarios import builtin_scenario
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
        F = surface_point_global(e, foot)
        n = np.asarray(surface_frame(e, foot).normal)
        seg = Q - F
        assert np.linalg.norm(np.cross(seg, n)) < 1e-8 * np.linalg.norm(seg)
        assert dist == pytest.approx(np.linalg.norm(seg), rel=1e-12)


def _points_outside(rng, axes, n, zero_axis=None):
    """``n`` points at distances log-uniform in [1e-10, 1e4] outside an
    axis-aligned body at the origin, each on the normal at a random surface
    point, with coordinate ``zero_axis`` exactly 0."""
    u = rng.normal(size=(n, 3))
    if zero_axis is not None:
        u[:, zero_axis] = 0.0
    s = u / np.sqrt(np.sum((u / axes) ** 2, axis=1))[:, None]
    normal = s / axes**2
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    dist = np.exp(rng.uniform(math.log(1e-10), math.log(1e4), n))
    return s + dist[:, None] * normal


def _spy_feet(monkeypatch):
    """Record the raw local foot of every point_to_ellipsoid call."""
    feet = []
    solve_feet = oracle._foot_points_local

    def spy(e, q, point_tol):
        foot = solve_feet(e, q, point_tol)
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
        for Q in _points_outside(rng, axes, 25, zero_axis):
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
        F = surface_point_global(e, p)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_point_projection_rejects_non_finite_points():
    e = Ellipsoid((1.2, 0.5, 0.8), (0, 0, 0), (0, 0, 0))
    for Q in ([math.nan, 3.0, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
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


def test_oracle_grid_doubling_self_consistency():
    sc = builtin_scenario("system-I")
    d1, _ = oracle_min_distance(sc.e1, sc.e2)
    d2, _ = oracle_min_distance(
        sc.e1, sc.e2, OracleConfig(grid_theta=128, grid_phi=64)
    )
    assert abs(d1 - d2) < 1e-6


def test_oracle_detects_overlap():
    e1 = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid((1, 1, 1), (1.0, 0, 0), (0, 0, 0))
    with pytest.raises(OverlapSuspectedError):
        oracle_min_distance(e1, e2)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_theta=4)
    with pytest.raises(ValueError):
        OracleConfig(refine_shrink=1.5)
    for tol in (-1e-12, math.nan):
        with pytest.raises(ValueError):
            OracleConfig(point_tol=tol)
    OracleConfig(point_tol=0.0)


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
    P1, P2 = surface_point_global(e1, p1), surface_point_global(e2, p2)
    assert np.linalg.norm(P1 - P2) == pytest.approx(dist, rel=1e-9)
    swapped, _ = oracle_min_distance(e2, e1)
    assert abs(swapped - res.distance) < 1e-9
