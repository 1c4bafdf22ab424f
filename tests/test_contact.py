"""Tests for contact classification and the penetration-depth
continuation."""

import math

import numpy as np
import pytest

from surfslide.contact import analyze, classify, penetration_depth
from surfslide.geometry import Ellipsoid, SurfaceParam, implicit_value, surface_frame
from surfslide.scenarios import builtin_scenario
from surfslide.slider import SolverConfig, initial_state, solve


def _sphere(r, center):
    return Ellipsoid((r, r, r), center, (0, 0, 0))


# ---------------------------------------------------------------------------
# classify


def test_tangent_spheres_classified_in_contact():
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (2, 0, 0))
    report = analyze(e1, e2)
    assert report.kind == "in-contact"
    assert abs(report.distance_or_depth) < 1e-6


def test_classify_overlapping_on_interior_witnesses():
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (1, 0, 0))
    # witness points straddling the lens region: both inside the other body
    state = initial_state(e1, e2, None, SolverConfig())
    sigma = SolverConfig().resolve_sigma(e1, e2)
    P1, P2 = state.points_global
    assert implicit_value(e2, P1) < 0 or implicit_value(e1, P2) < 0
    kind = classify(state, e1, e2, sigma)
    assert kind in ("overlapping", "in-contact", "separated")  # smoke: total


def test_converged_separated_state_classified_separated():
    sc = builtin_scenario("system-II-aligned")
    res = solve(sc.e1, sc.e2, sc.init, sc.config())
    assert res.status == "converged"
    report = analyze(sc.e1, sc.e2, sc.config(), sc.init)
    assert report.kind == "separated"
    assert report.distance_or_depth == pytest.approx(res.distance, abs=1e-12)


# ---------------------------------------------------------------------------
# penetration depth


def test_unit_spheres_one_apart_depth():
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (1, 0, 0))
    report = analyze(e1, e2)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(1.0, abs=1e-4)


def test_penetration_depth_from_solve_params():
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (1, 0, 0))
    report = penetration_depth(e1, e2, solve(e1, e2).params)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(1.0, abs=1e-4)


def test_centers_inside_each_other_depth():
    # each center lies inside the other sphere, which proves the overlap;
    # the continuation starts where the center rays leave the spheres
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (0.8, 0, 0))
    report = analyze(e1, e2)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(1.2, abs=1e-4)


def test_contained_sphere_is_never_separated():
    # a radius-0.3 sphere inside a unit sphere overlaps it wholly; its center
    # inside the other body settles that before any sliding
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(0.3, (0.5, 0, 0))
    assert analyze(e1, e2).kind != "separated"
    assert analyze(e2, e1).kind != "separated"


def test_sphere_overlap_generic_offset():
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (1.5, 0, 0))
    report = analyze(e1, e2)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(0.5, abs=1e-4)


@pytest.mark.parametrize(
    "axes", [(0.5, 0.3, 0.2), (1.0, 0.6, 0.4), (0.2, 0.4, 0.6), (0.02, 0.04, 0.06)]
)
def test_congruent_coaxial_ellipsoids_depth_a(axes):
    e1 = Ellipsoid(axes, (0, 0, 0), (0, 0, 0))
    e2 = Ellipsoid(axes, (axes[0], 0, 0), (0, 0, 0))
    report = analyze(e1, e2)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(axes[0], abs=1e-4 * axes[0])


def test_overlap_witnesses_generic_pair():
    # for a generic pair the continuation guarantees anti-aligned witness
    # normals and interpenetrating witness points; segment alignment is only
    # pinned when the configuration is symmetric (see the axis-aligned test)
    e1 = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0.1, 0.2, 0.3))
    e2 = Ellipsoid((0.8, 0.5, 0.3), (0.9, 0.2, 0.1), (0.3, -0.1, 0.2))
    report = analyze(e1, e2)
    assert report.kind == "overlapping"
    n1, n2 = report.witness_normals
    assert abs(float(n1 @ n2) + 1.0) < 1e-6
    from surfslide.geometry import surface_point_global

    P1 = surface_point_global(e1, report.witness_params[0])
    P2 = surface_point_global(e2, report.witness_params[1])
    assert implicit_value(e2, P1) < 0
    assert implicit_value(e1, P2) < 0


def test_overlap_witnesses_anti_parallel_to_segment_axis_aligned():
    for e1, e2, depth in (
        (_sphere(1.0, (0, 0, 0)), _sphere(1.0, (1.3, 0, 0)), 0.7),
        (
            Ellipsoid((0.5, 0.3, 0.2), (0, 0, 0), (0, 0, 0)),
            Ellipsoid((0.5, 0.3, 0.2), (0.5, 0, 0), (0, 0, 0)),
            0.5,
        ),
    ):
        report = analyze(e1, e2)
        assert report.kind == "overlapping"
        assert report.distance_or_depth == pytest.approx(depth, abs=1e-4)
        n1, n2 = report.witness_normals
        from surfslide.geometry import surface_point_global

        P1 = surface_point_global(e1, report.witness_params[0])
        P2 = surface_point_global(e2, report.witness_params[1])
        d = P2 - P1
        dhat = d / np.linalg.norm(d)
        # the segment runs against n1 and along n2
        assert abs(float(dhat @ n1) + 1.0) < 1e-6
        assert abs(float(dhat @ n2) - 1.0) < 1e-6


def test_shrinking_spheres_distance_continuous_to_tangency():
    # scale two overlapping spheres down about their centers; the reported
    # separation must approach 0 from above as s passes the tangency value
    c1, c2 = (0, 0, 0), (3, 0, 0)
    prev = None
    for s in (0.9, 0.95, 0.99, 0.999):
        r = 1.5 * s
        res = solve(_sphere(r, c1), _sphere(r, c2))
        assert res.status == "converged"
        d = res.distance
        assert d == pytest.approx(3 - 2 * r, abs=1e-6)
        if prev is not None:
            assert d < prev
        prev = d


def test_penetration_depth_entry_from_overlap_status():
    # drive the solver into an overlap handoff and continue to the depth
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = _sphere(1.0, (1.2, 0, 0))
    cfg = SolverConfig()
    report = analyze(e1, e2, cfg)
    assert report.kind == "overlapping"
    assert report.distance_or_depth == pytest.approx(0.8, abs=1e-4)


def test_penetration_depth_from_pole_entries():
    # the entry sits at phi = 0 on e1 and at phi = pi on e2, where neither
    # witness has a theta tangent; the tilted e2 makes both steps leave the
    # poles along phi alone
    e1 = _sphere(1.0, (0, 0, 0))
    e2 = Ellipsoid((1.0, 0.8, 0.6), (0.3, 0.1, 1.2), (0.3, 0.2, 0.0))
    entry = (SurfaceParam(0.0, 0.0), SurfaceParam(0.0, math.pi))
    report = penetration_depth(e1, e2, entry)
    assert report.kind == "overlapping"
    assert report.witness_params != entry
    n1, n2 = report.witness_normals
    assert abs(float(n1 @ n2) + 1.0) < 1e-6


@pytest.mark.parametrize(
    "e1, e2, config, kind",
    [
        (
            Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0.1, 0.2, 0.3)),
            Ellipsoid((0.8, 0.5, 0.3), (0.9, 0.2, 0.1), (0.3, -0.1, 0.2)),
            SolverConfig(),
            "overlapping",
        ),
        (_sphere(1.0, (0, 0, 0)), _sphere(0.3, (0.5, 0, 0)), SolverConfig(max_iter=50), "max-iter"),
    ],
)
def test_report_params_and_normals_agree(e1, e2, config, kind):
    # the report's params are canonical, and its normals are the surface
    # normals at those params, bit for bit, at either exit of the loop
    report = analyze(e1, e2, config)
    assert report.kind == kind
    for e, p, n in zip((e1, e2), report.witness_params, report.witness_normals):
        assert type(p) is SurfaceParam and p.is_canonical()
        assert n.tolist() == surface_frame(e, p).normal.tolist()
