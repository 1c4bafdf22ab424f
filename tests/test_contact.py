"""Tests for contact classification and the penetration-depth
continuation."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from helpers import (
    assert_float_triples,
    penetration_depth_by_frames,
    random_overlap_pair,
    random_separated_pair,
    support_reach,
)
from surfslide import contact
from surfslide.contact import ALIGN_TOL, analyze, classify, penetration_depth, separated
from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceParam,
    _canonical,
    implicit_value,
    surface_frame,
)
from surfslide.scenarios import builtin_scenario
from surfslide.slider import SolverConfig, SolverState, _chart, initial_state, solve


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
    # witness points straddling the lens region: both inside the other body.
    # The chord test certifies this pair, so initial_state has no start to
    # give; the state sits at the ray exits, where solve reports the overlap
    with pytest.raises(NoIntersectionError):
        initial_state(e1, e2, None, SolverConfig())
    res = solve(e1, e2)
    assert res.status == "overlap" and res.iterations == 0
    zero = (0.0, 0.0, 0.0)
    state = SolverState(0, res.params, res.distance, (0.05, 0.05), math.nan, 0,
                        (_chart(e1, 0), _chart(e2, 0)), (zero, zero))
    sigma = SolverConfig().resolve_sigma(e1, e2)
    (P1, *_), (P2, *_) = state.frames
    assert implicit_value(e2, P1) < 0 and implicit_value(e1, P2) < 0
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
    n1, n2 = np.asarray(report.witness_normals)
    assert abs(float(n1 @ n2) + 1.0) < 1e-6
    P1 = surface_frame(e1, report.witness_params[0]).position
    P2 = surface_frame(e2, report.witness_params[1]).position
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
        P1 = surface_frame(e1, report.witness_params[0]).position
        P2 = surface_frame(e2, report.witness_params[1]).position
        d = np.subtract(P2, P1)
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
    n1, n2 = np.asarray(report.witness_normals)
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
        assert n == surface_frame(e, p).normal


def _scaled(e, s):
    return Ellipsoid(tuple(s * a for a in e.semi_axes), tuple(s * c for c in e.center), e.euler)


def test_depth_scales_exactly_with_the_pair():
    # Scaling both bodies by a power of two scales every length exactly, so
    # a continuation whose every guard is in the units of what it guards
    # gives the same verdict and exactly the scaled depth.
    rng = np.random.default_rng(1)
    fracs = (0.3, 0.6, 0.9)
    config = SolverConfig(max_iter=2000)
    for i in range(90):
        e1, e2 = random_overlap_pair(rng, fracs[i % 3])
        base = analyze(e1, e2, config)
        for k in (-40, -20, 20, 40):
            s = 2.0 ** k
            report = analyze(_scaled(e1, s), _scaled(e2, s), config)
            assert report.kind == base.kind, (i, k)
            assert report.distance_or_depth == s * base.distance_or_depth, (i, k)


def test_analyze_answer_is_a_plain_value():
    # the witness normals, like the search result's points and normals, are
    # float triples, so two analyses of one pair compare equal field by
    # field and, with no trace recorded, hash alike
    e1, e2 = random_overlap_pair(np.random.default_rng(3), 0.3)
    a, b = analyze(e1, e2), analyze(e1, e2)
    assert a.kind == "overlapping" and a is not b
    assert a == b and hash(a) == hash(b)
    depth = penetration_depth(e1, e2, a.result.params)
    assert depth == dataclasses.replace(a, result=None)
    assert_float_triples((*a.witness_normals, *a.result.closest_points, *a.result.normals))


# ---------------------------------------------------------------------------
# the fused step kernel against the frame-by-frame reference


def _hex(kind, depth, params, normals):
    return (
        kind,
        depth.hex(),
        [(p.theta.hex(), p.phi.hex()) for p in params],
        [[float(v).hex() for v in n] for n in normals],
    )


def _assert_matches_reference(e1, e2, entry, config):
    report = penetration_depth(e1, e2, entry, config)
    got = _hex(report.kind, report.distance_or_depth, report.witness_params,
               report.witness_normals)
    assert got == _hex(*penetration_depth_by_frames(e1, e2, entry, config))
    return report.kind


def test_continuation_matches_frame_reference_on_overlap_pairs(monkeypatch):
    # every continuation that analyze runs on 300 overlap-recipe pairs in
    # both argument orders, center-inside starts included; max_iter 300
    # keeps the runs that never settle short and still ends them at the
    # max-iter exit. The set also covers the loop's pull steps (neither
    # witness inside the other body, as the reference reads it) and its
    # calls of _canonical, which it makes only when a step leaves the
    # canonical range.
    inside, wraps = [], []

    def interior(e, X):
        value = implicit_value(e, X)
        inside.append(value < 0.0)
        return value

    def wrap(theta, phi):
        wraps.append((theta, phi))
        return _canonical(theta, phi)

    monkeypatch.setattr(helpers, "implicit_value", interior)
    monkeypatch.setattr(contact, "_canonical", wrap)
    config = SolverConfig(max_iter=300)
    rng = np.random.default_rng(7)
    kinds = []
    center_inside = 0
    for i in range(300):
        pair = random_overlap_pair(rng, (0.3, 0.6, 0.9)[i % 3])
        for e1, e2 in (pair, pair[::-1]):
            res = solve(e1, e2, None, config)
            if res.status == "contact" or separated(e1, e2, res):
                continue
            center_inside += implicit_value(e2, e1.center) < 0 or implicit_value(e1, e2.center) < 0
            kinds.append(_assert_matches_reference(e1, e2, res.params, config))
    assert len(kinds) >= 300 and center_inside >= 100
    assert set(kinds) == {"overlapping", "max-iter"}
    # the reference reads both interior tests on every step
    neither = sum(not a and not b for a, b in zip(inside[::2], inside[1::2]))
    assert (neither, len(wraps)) == (102, 45)


@pytest.mark.parametrize("swap", [False, True])
def test_continuation_matches_frame_reference_at_poles_and_max_iter(swap):
    # pole entries, where neither witness has a theta tangent, and the
    # contained sphere, whose continuation ends at max_iter
    tilted = Ellipsoid((1.0, 0.8, 0.6), (0.3, 0.1, 1.2), (0.3, 0.2, 0.0))
    entry = (SurfaceParam(0.0, 0.0), SurfaceParam(0.0, math.pi))
    bodies = (_sphere(1.0, (0, 0, 0)), tilted)
    if swap:
        bodies, entry = bodies[::-1], entry[::-1]
    assert _assert_matches_reference(*bodies, entry, SolverConfig()) == "overlapping"

    bodies = (_sphere(1.0, (0, 0, 0)), _sphere(0.3, (0.5, 0, 0)))
    if swap:
        bodies = bodies[::-1]
    config = SolverConfig(max_iter=200)
    entry = solve(*bodies, None, config).params
    assert _assert_matches_reference(*bodies, entry, config) == "max-iter"


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("max_iter", [1, 2])
def test_continuation_matches_frame_reference_at_its_first_passes(max_iter, swap):
    # a chord-certified pair, whose continuation starts from the ray exits:
    # the loop breaks at k == max_iter after one or two steps, and its
    # report's normals are the ones read there
    tilted = Ellipsoid((1.0, 0.8, 0.6), (0.3, 0.1, 1.2), (0.3, 0.2, 0.0))
    bodies = (_sphere(1.0, (0, 0, 0)), tilted)
    if swap:
        bodies = bodies[::-1]
    res = solve(*bodies)
    assert (res.status, res.iterations) == ("overlap", 0)
    config = SolverConfig(max_iter=max_iter)
    assert _assert_matches_reference(*bodies, res.params, config) == "max-iter"


@pytest.mark.parametrize("swap", [False, True])
def test_continuation_exits_at_a_fixed_point(monkeypatch, swap):
    # A sphere inside another: once the pushes fall below their guard, the
    # steps leave both witnesses in place while the stop test is not in
    # force, so every later step would repeat the same null move. The loop
    # reads the moved witnesses once more and ends there with the report
    # that all max_iter steps give. Each pass reads sin twice per witness,
    # and nothing else that analyze runs calls contact's math.sin.
    calls = []

    def sin(x):
        calls.append(x)
        return math.sin(x)

    monkeypatch.setattr(contact, "math", SimpleNamespace(**{**vars(math), "sin": sin}))
    bodies = (_sphere(1.0, (0, 0, 0)), _sphere(0.3, (0.5, 0, 0)))
    if swap:
        bodies = bodies[::-1]
    config = SolverConfig()
    report = analyze(*bodies, config)
    assert report.kind == "max-iter"
    assert len(calls) % 4 == 0 and 1 <= len(calls) // 4 <= 2
    got = _hex(report.kind, report.distance_or_depth, report.witness_params,
               report.witness_normals)
    assert got == _hex(*penetration_depth_by_frames(*bodies, report.result.params, config))


def test_overlap_witness_normals_are_not_always_anti_parallel():
    # The continuation stops wherever its halving ladder ends (eps_n at the
    # stop, read as its stop test reads it, has median 0.079 and max 0.86
    # on this set), and the pairs with anti-parallel normals form a 2-D
    # family, so nothing makes its normals anti-parallel. This pins the overlapping reports of the benchmark's
    # overlap-analyze seed 1 (400 pairs, fracs 0.3/0.6/0.9) whose normals
    # miss it by more than ALIGN_TOL. max_iter=300 cuts the max-iter
    # continuations short; every overlapping report of this set is then
    # the default config's bit for bit (checked here for the two pinned).
    rng = np.random.default_rng(1)
    fracs = (0.3, 0.6, 0.9)
    pairs = [random_overlap_pair(rng, fracs[i % 3]) for i in range(400)]
    overlapping, misaligned = 0, {}
    for i, (e1, e2) in enumerate(pairs):
        report = analyze(e1, e2, SolverConfig(max_iter=300))
        if report.kind == "overlapping":
            overlapping += 1
            n1, n2 = np.asarray(report.witness_normals)
            gap = abs(float(n1 @ n2) + 1.0)
            if gap > ALIGN_TOL:
                misaligned[i] = (gap, report)
    assert overlapping == 178
    assert sorted(misaligned) == [156, 237]
    assert misaligned[156][0] == pytest.approx(1.01e-3, rel=1e-2)
    assert misaligned[237][0] == pytest.approx(5.65e-3, rel=1e-2)
    for i, (_, report) in misaligned.items():
        default = analyze(*pairs[i])
        assert default.distance_or_depth == report.distance_or_depth
        assert default.witness_params == report.witness_params


def test_separated_verdicts_carry_a_positive_support_gap():
    # A slider stop on the intersection curve (d ~ 1e-8) has neither
    # witness strictly inside the other body, so interiority alone once let
    # 16 overlapping pairs of overlap-analyze seed 1 pass as separated. A
    # positive support gap s(u) = (c2 - c1).u - |M1^T u| - |M2^T u| along
    # the witness segment proves the pair disjoint; it is read here with
    # numpy, not with the program's support function. Truly separated
    # pairs keep their verdict and solve's distance.
    rng = np.random.default_rng(1)
    config = SolverConfig(max_iter=300)
    verdicts = 0
    for i in range(400):
        e1, e2 = random_overlap_pair(rng, (0.3, 0.6, 0.9)[i % 3])
        report = analyze(e1, e2, config)
        if report.kind == "separated":
            P1, P2 = np.asarray(report.result.closest_points)
            u = (P2 - P1) / np.linalg.norm(P2 - P1)
            r = np.asarray(e2.center) - np.asarray(e1.center)
            gap = float(r @ u) - support_reach(e1, u) - support_reach(e2, u)
            assert gap > 0.0, f"pair {i}: separated with support gap {gap:.3e}"
            verdicts += 1
    assert verdicts > 100
    rng = np.random.default_rng(2024)
    for i in range(200):
        e1, e2 = random_separated_pair(rng)
        report = analyze(e1, e2)
        assert report.kind == "separated", f"pair {i}: {report.kind}"
        assert report.distance_or_depth == solve(e1, e2).distance


def test_separated_reads_no_interior_test(monkeypatch):
    # Witnesses inside each other mean overlapping bodies, whose signed
    # distance, and with it every support gap, is negative; so the support
    # gap alone decides `separated`, and it makes no implicit-value read.
    reads = []

    def counted(e, X):
        reads.append(X)
        return implicit_value(e, X)

    monkeypatch.setattr(contact, "implicit_value", counted)
    rng = np.random.default_rng(2024)
    for i in range(200):
        e1, e2 = random_separated_pair(rng)
        assert separated(e1, e2, solve(e1, e2)), f"pair {i}"
    assert reads == []


@pytest.mark.parametrize("swap", [False, True], ids=["e1-e2", "e2-e1"])
def test_penetration_depth_survives_a_segment_whose_square_overflows(swap):
    # spheres of radius 1e155 with centers 1.5e155 apart: the witness
    # segment's squared length overflows to inf, which the continuation must
    # carry as a float instead of raising OverflowError. The depth at this
    # scale is not pinned.
    e1 = _sphere(1e155, (0, 0, 0))
    e2 = _sphere(1e155, (1.5e155, 0, 0))
    pair = (e2, e1) if swap else (e1, e2)
    entry = (SurfaceParam(0.0, math.pi / 2), SurfaceParam(math.pi, math.pi / 2))
    report = penetration_depth(*pair, entry)
    assert isinstance(report, contact.ContactReport)
    assert report.kind in ("overlapping", "max-iter")
