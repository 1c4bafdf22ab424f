"""Unit tests for the geometric kernel: rotations, parametric surface
evaluation, frames, frame conversions and the support function."""

import math

import numpy as np
import pytest

from helpers import (
    assert_float_triples,
    line_surface_entry_numpy,
    random_ellipsoid,
    random_overlap_pair,
    ray_exit_numpy,
    rotation_matrix_numpy,
    support_reach,
    support_vector,
    surface_point,
)
from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceFrame,
    SurfaceParam,
    _frame_fast,
    _reach,
    _support_gap,
    euler_from_rotation,
    implicit_value,
    line_surface_entry,
    param_from_local_point,
    rotation_matrix,
    surface_frame,
    to_local_point,
)
from surfslide.oracle import DUAL_TOL
from surfslide.slider import SolverConfig, _ray_exit, initial_state

PI = math.pi


# ---------------------------------------------------------------------------
# rotation_matrix


def test_rotation_identity():
    assert np.allclose(rotation_matrix(0, 0, 0), np.eye(3), atol=1e-15)


def test_rotation_y_quarter_turn_maps_z_to_x():
    R = rotation_matrix(0, PI / 2, 0)
    assert np.allclose(R[:, 2], [1, 0, 0], atol=1e-15)


def test_rotation_y_pi_over_6_exact_entries():
    R = rotation_matrix(0, PI / 6, 0)
    s3 = math.sqrt(3) / 2
    expected = np.array([[s3, 0, 0.5], [0, 1, 0], [-0.5, 0, s3]])
    assert np.allclose(R, expected, atol=1e-15)


def test_rotation_composition_order():
    # R = Rx(alpha) @ Ry(beta) @ Rz(gamma)
    a, b, g = 0.3, -0.7, 1.1
    Rx = rotation_matrix(a, 0, 0)
    Ry = rotation_matrix(0, b, 0)
    Rz = rotation_matrix(0, 0, g)
    assert np.allclose(rotation_matrix(a, b, g), Rx @ Ry @ Rz, atol=1e-14)


def test_rotation_orthonormal_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, g = rng.uniform(-2 * PI, 2 * PI, 3)
        R = rotation_matrix(a, b, g)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_euler_from_rotation_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        angles = rng.uniform(-1.4, 1.4, 3)
        R = rotation_matrix(*angles)
        back = euler_from_rotation(R)
        assert np.allclose(rotation_matrix(*back), R, atol=1e-10)


@pytest.mark.parametrize("beta", [PI / 2, -PI / 2])
def test_euler_from_rotation_gimbal_lock(beta):
    # |cos beta| = 0 couples alpha and gamma; the inverse sets gamma = 0 and
    # must still rebuild the same matrix
    R = rotation_matrix(0.7, beta, -0.4)
    back = euler_from_rotation(R)
    assert back[2] == 0.0
    assert np.allclose(rotation_matrix(*back), R, atol=1e-12)


# ---------------------------------------------------------------------------
# Ellipsoid and SurfaceParam


def test_ellipsoid_rejects_nonpositive_axis():
    with pytest.raises(ValueError):
        Ellipsoid((0.0, 1.0, 1.0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        Ellipsoid((1.0, -0.5, 1.0), (0, 0, 0), (0, 0, 0))


def _hex(values):
    return [float(v).hex() for v in values]


def test_construction_matches_numpy_rotation_reference():
    # seeded triples, the angles beyond +-pi as well, plus signed zeros and
    # the gimbal-lock betas
    rng = np.random.default_rng(21)
    triples = [tuple(rng.uniform(-2.5 * PI, 2.5 * PI, 3)) for _ in range(1000)]
    for beta in (PI / 2, -PI / 2, 0.0, -0.0):
        for other in (0.0, -0.0, 0.3, -2.9, 4.0, -7.5):
            triples += [(other, beta, -other), (other, beta, other)]
    triples += [(PI, PI, PI), (-PI, -PI, -PI), (3 * PI, -5 * PI / 2, 1e3)]
    for ang in triples:
        want = _hex(rotation_matrix_numpy(*ang).ravel())
        e = Ellipsoid((1.0, 0.6, 0.4), (0.1, -0.2, 0.3), ang)
        assert _hex(e._flat[3:12]) == want, ang
        assert _hex(rotation_matrix(*ang).ravel()) == want, ang
        assert _hex(e.rotation.ravel()) == want, ang
    assert rotation_matrix(0.3, 0.2, 0.1).shape == (3, 3)


@pytest.mark.parametrize("make", [
    lambda v: np.array(v),
    lambda v: tuple(np.float64(x) for x in v),
    lambda v: (x for x in v),
    lambda v: [int(round(x * 10)) if i == 0 else x for i, x in enumerate(v)],
], ids=["numpy-array", "numpy-scalars", "generator", "int-entries"])
def test_ellipsoid_accepts_any_numbers(make):
    axes, ctr, ang = (1.0, 0.6, 0.4), (0.5, -1.0, 2.0), (0.4, -1.2, 2.2)
    e = Ellipsoid(make(axes), make(ctr), make(ang))
    plain = Ellipsoid(*(tuple(float(x) for x in make(v)) for v in (axes, ctr, ang)))
    assert e == plain and e._flat == plain._flat
    for value in (e.semi_axes, e.center, e.euler, e._flat):
        assert type(value) is tuple and all(type(v) is float for v in value)


@pytest.mark.parametrize("args", [
    ((1.0, 1.0), (0, 0, 0), (0, 0, 0)),
    ((1.0, 1.0, 1.0), (0, 0, 0, 0), (0, 0, 0)),
    ((1.0, 1.0, 1.0), (0, 0, 0), ()),
    ((1.0, math.nan, 1.0), (0, 0, 0), (0, 0, 0)),
    ((1.0, 1.0, 1.0), (0, math.inf, 0), (0, 0, 0)),
    ((1.0, 1.0, 1.0), (0, 0, 0), (0, 0, -math.inf)),
    ((1.0, 1.0, math.inf), (0, 0, 0), (0, 0, 0)),
], ids=["short-axes", "long-center", "empty-euler", "nan-axis", "inf-center",
        "inf-angle", "inf-axis"])
def test_ellipsoid_rejects_wrong_length_and_non_finite(args):
    with pytest.raises(ValueError):
        Ellipsoid(*args)


def test_ellipsoid_rotation_is_orthonormal():
    e = Ellipsoid((1, 0.6, 0.4), (0, 0, 0), (0.4, -1.2, 2.2))
    R = e.rotation
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    assert np.allclose(R, rotation_matrix(*e.euler), atol=1e-15)


def test_surface_param_canonicalization():
    p = SurfaceParam.canonical(2 * PI + 0.25, PI / 3)
    assert math.isclose(p.theta, 0.25, abs_tol=1e-12)
    # phi beyond pi reflects with a theta half-turn
    p = SurfaceParam.canonical(0.0, PI + 0.2)
    assert math.isclose(p.phi, PI - 0.2, abs_tol=1e-12)
    assert math.isclose(p.theta, PI, abs_tol=1e-12)
    assert p.is_canonical()


def test_canonical_tiny_negative_theta_wraps_below_two_pi():
    # -1e-17 + 2*pi rounds to exactly 2*pi, which is not canonical
    p = SurfaceParam.canonical(-1e-17, 1.0)
    assert p.is_canonical()
    assert p.theta == 0.0


# ---------------------------------------------------------------------------
# surface points and conversions


def test_surface_frame_position_examples():
    # an unrotated body at the origin: global points are body points
    e = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    a, b, c = e.semi_axes
    assert np.allclose(
        surface_frame(e, SurfaceParam(0.0, PI / 2)).position, [a, 0, 0], atol=1e-15
    )
    for theta in (0.0, 1.0, 4.5):
        assert np.allclose(
            surface_frame(e, SurfaceParam(theta, 0.0)).position, [0, 0, c], atol=1e-15
        )
        assert np.allclose(
            surface_frame(e, SurfaceParam(theta, PI)).position, [0, 0, -c], atol=1e-12
        )


def test_to_local_point_center_maps_to_origin():
    e = Ellipsoid((1, 1, 1), (1, 2, 3), (0.3, -0.2, 0.9))
    assert np.allclose(to_local_point(e, [1, 2, 3]), [0, 0, 0], atol=1e-15)


def test_rotation_maps_directions_without_translation():
    e = Ellipsoid((1, 1, 1), (5, 5, 5), (0, PI / 2, 0))
    assert np.allclose(e.rotation @ [0, 0, 1], [1, 0, 0], atol=1e-15)


def test_system_ii_rotated_south_pole_support_point():
    # local south pole of the rotated body sits 0.4 from its center along
    # the direction -(1, 0, 1)/sqrt(2)
    e = Ellipsoid((1.0, 0.6, 0.4), (1.0607, 0.0, 1.0607), (0.0, PI / 4, 0.0))
    P = surface_frame(e, SurfaceParam(0.0, PI)).position
    center = np.array(e.center)
    d = P - center
    assert math.isclose(np.linalg.norm(d), 0.4, abs_tol=1e-12)
    assert np.allclose(d / 0.4, -np.array([1, 0, 1]) / math.sqrt(2), atol=1e-12)


def test_local_global_round_trip():
    rng = np.random.default_rng(5)
    e = Ellipsoid((0.7, 0.3, 1.2), (0.4, -0.8, 2.0), (0.3, 0.9, -1.4))
    for _ in range(50):
        x = rng.normal(size=3)
        X = e.rotation @ x + np.asarray(e.center)
        assert np.allclose(to_local_point(e, X), x, atol=1e-12)


# ---------------------------------------------------------------------------
# surface_frame


def test_sphere_normal_is_radial():
    e = Ellipsoid((0.8, 0.8, 0.8), (0, 0, 0), (0, 0, 0))
    f = surface_frame(e, SurfaceParam(1.1, 0.9))
    assert np.allclose(f.normal, np.asarray(f.position) / 0.8, atol=1e-12)


def test_frame_at_equator_front_point():
    e = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    f = surface_frame(e, SurfaceParam(0.0, PI / 2))
    assert np.allclose(f.normal, [1, 0, 0], atol=1e-12)
    assert np.allclose(f.tangent_theta, [0, 1, 0], atol=1e-12)
    assert np.allclose(f.tangent_phi, [0, 0, -1], atol=1e-12)


def test_frame_pole_has_no_theta_tangent():
    e = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    for phi in (0.0, PI):
        f = surface_frame(e, SurfaceParam(0.7, phi))
        assert f.tangent_theta is None
        assert np.allclose(f.normal, [0, 0, 1 if phi == 0.0 else -1], atol=1e-12)


@pytest.mark.parametrize(
    "init",
    [
        (SurfaceParam(1.1, 0.9), SurfaceParam(4.0, 2.2)),
        (SurfaceParam(0.3, 0.0), SurfaceParam(1.2, PI)),  # both at a pole
    ],
)
def test_frame_is_one_plain_value(init):
    # surface_frame, the frame kernel and a state's frames give one value:
    # a SurfaceFrame of Python-float triples that compares with == and
    # hashes, with no theta tangent at a pole
    e1 = Ellipsoid((1.3, 0.5, 0.9), (1, -2, 0.5), (0.2, -0.6, 1.9))
    e2 = Ellipsoid((0.4, 0.7, 0.2), (4, 1, -1), (-1.0, 0.4, 0.3))
    state = initial_state(e1, e2, init, SolverConfig())
    assert state.params == init
    for e, p, from_state in zip((e1, e2), init, state.frames):
        f = surface_frame(e, p)
        assert type(f) is SurfaceFrame and type(from_state) is SurfaceFrame
        assert f == SurfaceFrame(*_frame_fast(e._flat, p.theta, p.phi)) == from_state
        assert hash(f) == hash(from_state)
        assert (f.tangent_theta is None) == (p.phi in (0.0, PI))
        assert_float_triples(v for v in f if v is not None)


def test_frame_unit_and_orthogonal():
    rng = np.random.default_rng(6)
    e = Ellipsoid((1.3, 0.5, 0.9), (1, -2, 0.5), (0.2, -0.6, 1.9))
    for _ in range(100):
        p = SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0.05, PI - 0.05))
        f = surface_frame(e, p)
        n = np.asarray(f.normal)
        et = np.asarray(f.tangent_theta)
        ep = np.asarray(f.tangent_phi)
        for v in (n, et, ep):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(n @ et) < 1e-10
        assert abs(n @ ep) < 1e-10


def test_normal_is_outward():
    # normal must be a positive multiple of the implicit-function gradient
    rng = np.random.default_rng(7)
    e = Ellipsoid((1.1, 0.4, 0.7), (0, 0, 0), (0, 0, 0))
    a, b, c = e.semi_axes
    for _ in range(100):
        p = SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0.05, PI - 0.05))
        f = surface_frame(e, p)
        x, y, z = f.position
        grad = np.array([2 * x / a**2, 2 * y / b**2, 2 * z / c**2])
        assert np.asarray(f.normal) @ grad > 0.0


# ---------------------------------------------------------------------------
# implicit_value


def test_implicit_value_examples():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    assert math.isclose(implicit_value(e, [0, 0, 0]), -1.0, abs_tol=1e-15)
    assert math.isclose(implicit_value(e, [2, 0, 0]), 3.0, abs_tol=1e-15)

    e = Ellipsoid((1.0, 0.6, 0.4), (0.3, -0.2, 0.9), (0.5, 0.1, -0.8))
    assert math.isclose(implicit_value(e, e.center), -1.0, abs_tol=1e-15)
    P = surface_frame(e, SurfaceParam(2.3, 1.1)).position
    assert abs(implicit_value(e, P)) < 1e-12
    # past overflow the value is inf, with no warning and no OverflowError
    for X in ((1e200, 0, 0), [0.0, -1e300, 1e300], np.array([1e160, 1e160, 0.0])):
        assert implicit_value(e, X) == math.inf
    assert math.isnan(implicit_value(e, (math.nan, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# param_from_local_point


def test_param_from_local_point_examples():
    e = Ellipsoid((1.0, 0.6, 0.4), (0, 0, 0), (0, 0, 0))
    a, b, c = e.semi_axes
    p = param_from_local_point(e, [a, 0, 0])
    assert math.isclose(p.theta, 0.0, abs_tol=1e-12)
    assert math.isclose(p.phi, PI / 2, abs_tol=1e-12)
    p = param_from_local_point(e, [0, 0, -c])
    assert p.theta == 0.0 and math.isclose(p.phi, PI, abs_tol=1e-12)
    p = param_from_local_point(e, [0, b, 0])
    assert math.isclose(p.theta, PI / 2, abs_tol=1e-12)
    assert math.isclose(p.phi, PI / 2, abs_tol=1e-12)


def test_param_round_trip():
    # an unrotated body at the origin: the reference's global points are
    # body points
    rng = np.random.default_rng(8)
    e = Ellipsoid((1.4, 0.3, 0.8), (0, 0, 0), (0, 0, 0))
    scale = max(e.semi_axes)
    for _ in range(200):
        p = SurfaceParam(rng.uniform(0, 2 * PI), rng.uniform(0, PI))
        x = surface_point(e, p)
        q = param_from_local_point(e, x)
        assert np.allclose(surface_point(e, q), x, atol=1e-10 * scale)


@pytest.mark.parametrize("phi", [1e-9, 5e-9, 2e-8, 1e-6])
def test_param_round_trip_keeps_precision_at_the_poles(phi):
    # acos(z/c) reads these as 0, 0, 2.107e-8 and 1.0000444e-6
    e = Ellipsoid((1.0, 0.7, 0.5), (0, 0, 0), (0, 0, 0))
    for theta in (0.0, 0.7, 2.5, 4.0):
        q = param_from_local_point(e, surface_point(e, SurfaceParam(theta, phi)))
        assert abs(q.theta - theta) <= 1e-15 * theta
        assert abs(q.phi - phi) <= 1e-15 * phi, (theta, q.phi)
        # near the south pole phi itself is stored only to pi's ulp
        q = param_from_local_point(e, surface_point(e, SurfaceParam(theta, PI - phi)))
        assert abs(q.phi - (PI - phi)) <= 4.5e-16, (theta, q.phi)


def test_param_rejects_off_surface_points():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        param_from_local_point(e, [2.0, 0.0, 0.0])


@pytest.mark.parametrize("x", [(1e200, 0.0, 0.0), (0.0, -1e300, 1e300)])
def test_param_rejects_overflowing_points_with_value_error(x):
    # squares as products: the implicit value reads inf, not OverflowError
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="off the surface"):
        param_from_local_point(e, x)


@pytest.mark.parametrize("x", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.nan), (1.0, math.nan, 0.0)])
def test_param_rejects_nan_coordinates(x):
    # a NaN residual fails ``<= tol``; it must not come back as SurfaceParam(nan, nan)
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="off the surface"):
        param_from_local_point(e, x)


# ---------------------------------------------------------------------------
# support function


def test_support_kernels_match_numpy():
    # 1,000 seeded pairs, semi-axes 1e-3 to 1e3 at aspect <= 1000, centers
    # spread over 1e-3 to 1e3, against the numpy M^T u. A component of w
    # may cancel, so its round-off is a few ulps of its semi-axis, and s's
    # and the gap's are bounded by DUAL_TOL times the terms that they sum
    # (the budget dual_distance's lower end subtracts). A plain 1e-15
    # relative bound on s does not hold here: where w cancels, s and the
    # numpy reach differ by up to 3.0e-15 relative.
    eps = 2.0**-52
    rng = np.random.default_rng(38)
    for i in range(1000):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        e1, e2 = (Ellipsoid(e.semi_axes, tuple(rng.uniform(-scale, scale, 3)), e.euler)
                  for e in (random_ellipsoid(rng, 1e-3, 1e3, 1000.0) for _ in range(2)))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        spreads = []
        for e in (e1, e2):
            *w, s = _reach(e._flat, *u.tolist())
            assert type(s) is float and all(type(x) is float for x in w)
            a = np.asarray(e.semi_axes)
            assert (np.abs(np.array(w) - support_vector(e, u)) <= 4 * eps * a).all(), (i, w)
            spreads.append(float(a @ np.abs(w)) / s)
            assert abs(s - support_reach(e, u)) <= DUAL_TOL * spreads[-1], (i, s)
            assert _reach(e._flat, *(-u).tolist()) == (-w[0], -w[1], -w[2], s), i
        g, h1, h2 = _support_gap(e1._flat, e2._flat, *u.tolist())
        assert (h1, h2) == (_reach(e1._flat, *u.tolist()), _reach(e2._flat, *u.tolist()))
        r = np.asarray(e2.center) - np.asarray(e1.center)
        want = float(r @ u) - support_reach(e1, u) - support_reach(e2, u)
        assert abs(g - want) <= DUAL_TOL * (float(np.abs(r * u).sum()) + sum(spreads)), (i, g)


# ---------------------------------------------------------------------------
# line_surface_entry


def test_line_entry_unit_sphere():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    p = line_surface_entry(e, [-3, 0, 0], [3, 0, 0])
    assert math.isclose(p.theta, PI, abs_tol=1e-12)
    assert math.isclose(p.phi, PI / 2, abs_tol=1e-12)


def test_line_entry_center_line_system_ii():
    e1 = Ellipsoid((1.0, 0.6, 0.4), (-1.5, 0, 0), (0, 0, 0))
    p = line_surface_entry(e1, [-1.5, 0, 0], [1.5, 0, 0])
    assert math.isclose(p.theta, 0.0, abs_tol=1e-12)
    assert math.isclose(p.phi, PI / 2, abs_tol=1e-12)


def test_line_entry_miss_raises():
    e = Ellipsoid((1, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(NoIntersectionError):
        line_surface_entry(e, [0, 0, 5], [0, 0, 3])
    with pytest.raises(NoIntersectionError):
        line_surface_entry(e, [5, 5, 5], [5, 5, -5])
    with pytest.raises(NoIntersectionError, match="degenerate segment"):
        line_surface_entry(e, [0, 0, 5], [0, 0, 5])


def test_ray_exit_matches_numpy_reference():
    # the ray-exit starts of 400 overlap-recipe pairs on each of four seeds,
    # both bodies' (swapping the pair gives the same two): the closed form
    # agrees with the all-numpy segment entry to 1e-14 rad, puts its exit
    # on the surface, and reaches as far from the center as the numpy exit
    # does, to 1e-14 relative, so past the other center exactly where
    # implicit_value puts that center inside. Each exit segment, in both
    # directions, stays bit for bit on the all-numpy formula.
    for seed in (1, 2, 3, 2024):
        rng = np.random.default_rng(seed)
        for i in range(400):
            pair = random_overlap_pair(rng, (0.3, 0.6, 0.9)[i % 3])
            for e, other in (pair, pair[::-1]):
                got, reach = _ray_exit(e, other.center)
                want = ray_exit_numpy(e, other.center)
                dtheta = abs(got.theta - want.theta)
                assert min(dtheta, 2 * PI - dtheta) <= 1e-14, (seed, i, got, want)
                assert abs(got.phi - want.phi) <= 1e-14, (seed, i, got, want)
                assert abs(implicit_value(e, surface_point(e, got))) <= 1e-14, (seed, i)
                c = np.asarray(e.center)
                d = np.asarray(other.center) - c
                reach_numpy = float(np.linalg.norm(surface_point(e, want) - c))
                assert abs(reach - reach_numpy) <= 1e-14 * reach_numpy, (seed, i, reach)
                inside = implicit_value(e, other.center) < 0.0
                assert (reach > np.linalg.norm(d)) == inside, (seed, i)
                far = c + (2.0 * max(e.semi_axes) / np.linalg.norm(d)) * d
                for A, B in ((far, c), (c, far)):
                    got, want = line_surface_entry(e, A, B), line_surface_entry_numpy(e, A, B)
                    assert (got.theta.hex(), got.phi.hex()) == (want.theta.hex(), want.phi.hex())
