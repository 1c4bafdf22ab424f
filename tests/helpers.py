"""Shared randomized-case generators for the property and acceptance
suites, and reference versions of kernels that the program runs fused or
trimmed."""

import math

import numpy as np

from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceParam,
    _canonical,
    _frame_fast,
    implicit_value,
    param_from_local_point,
    surface_frame,
    to_local_point,
)
from surfslide.slider import (
    ZERO_PROJECTION_FACTOR,
    _chart,
    _evaluate,
    _halved,
    _metrics,
    step_increments,
)

PI = math.pi


def random_ellipsoid(rng, lo=0.02, hi=2.0, max_aspect=30.0, center_box=0.0):
    """Ellipsoid with semi-axes log-uniform in [lo, hi], aspect ratio capped
    at max_aspect, uniform orientation angles."""
    while True:
        axes = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
        if axes.max() / axes.min() <= max_aspect:
            break
    center = rng.uniform(-center_box, center_box, 3) if center_box else np.zeros(3)
    euler = rng.uniform(-PI, PI, 3)
    return Ellipsoid(tuple(axes), tuple(center), tuple(euler))


def random_separated_pair(rng, lo=0.02, hi=2.0, max_aspect=30.0):
    """Two random ellipsoids guaranteed separated: the center gap exceeds
    the sum of the enclosing-sphere radii."""
    e1 = random_ellipsoid(rng, lo, hi, max_aspect)
    e2 = random_ellipsoid(rng, lo, hi, max_aspect)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    gap = (max(e1.semi_axes) + max(e2.semi_axes)) * (1.05 + rng.uniform(0.0, 1.0))
    c1 = rng.uniform(-1.0, 1.0, 3)
    c2 = c1 + gap * u
    e1 = Ellipsoid(e1.semi_axes, tuple(c1), e1.euler)
    e2 = Ellipsoid(e2.semi_axes, tuple(c2), e2.euler)
    return e1, e2


def nth_separated_pair(seed, case):
    """Pair ``case`` (counting from 0) of the ``random_separated_pair``
    sequence drawn from ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(case + 1):
        pair = random_separated_pair(rng)
    return pair


def evaluate(e1, p1, e2, p2):
    """The segment d12 from ``p1`` on ``e1`` to ``p2`` on ``e2``, from
    surface_frame's positions, followed by what the solver's round
    evaluator gives there on the canonical charts: d12's length and both
    witnesses' pulls (d_theta, d_phi, d_n), of d12 and of -d12."""
    d12 = tuple(np.asarray(surface_frame(e2, p2).position) - surface_frame(e1, p1).position)
    return (d12, *_evaluate(_chart(e1, 0).flat, _chart(e2, 0).flat,
                            p1.theta, p1.phi, p2.theta, p2.phi))


def surface_point(e, p):
    """The forward map in numpy, a reference independent of the solver's
    float kernels: the body point (a sin phi cos theta, b sin phi sin theta,
    c cos phi), rotated by ``e.rotation`` and moved to ``e.center``."""
    a, b, c = e.semi_axes
    sp = math.sin(p.phi)
    local = np.array(
        (a * sp * math.cos(p.theta), b * sp * math.sin(p.theta), c * math.cos(p.phi))
    )
    return e.rotation @ local + np.asarray(e.center)


def assert_float_triples(vectors):
    """Each of ``vectors`` is an (x, y, z) tuple of Python floats."""
    for v in vectors:
        assert type(v) is tuple and len(v) == 3
        assert all(type(x) is float for x in v), v


def random_param(rng) -> SurfaceParam:
    return SurfaceParam(rng.uniform(0.0, 2.0 * PI), rng.uniform(0.0, PI))


def support_vector(e, u) -> np.ndarray:
    """M^T u = diag(semi-axes) R^T u in numpy, the body-axis vector whose
    length is e's support reach along u."""
    return (e.rotation * np.asarray(e.semi_axes)).T @ u


def support_reach(e, u) -> float:
    """|M^T u|, the reach of e's support function in the unit direction u,
    M = R diag(semi-axes)."""
    return float(np.linalg.norm(support_vector(e, u)))


def random_overlap_pair(rng, frac):
    """Semi-axes log-uniform in [0.2, 1], aspect ratio at most 5, both
    bodies centered at the origin; then e2's center moves to
    frac * (max a1 + max a2) in a random direction. Small fracs put one
    center inside the other body. The benchmark's overlap-analyze workload
    draws its pairs with the same recipe and RNG calls."""
    e1 = random_ellipsoid(rng, lo=0.2, hi=1.0, max_aspect=5.0)
    e2 = random_ellipsoid(rng, lo=0.2, hi=1.0, max_aspect=5.0)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    c2 = frac * (max(e1.semi_axes) + max(e2.semi_axes)) * u
    return e1, Ellipsoid(e2.semi_axes, tuple(c2), e2.euler)


def high_aspect_ellipsoid(rng):
    """A body of aspect A = 10^U(4, 8) at the origin: semi-axes 1, A^-u
    with u ~ U(0, 1), and 1/A, log-uniform between the extremes, in random
    order, and uniform orientation angles."""
    aspect = 10.0 ** rng.uniform(4.0, 8.0)
    axes = rng.permutation([1.0, aspect ** -rng.uniform(0.0, 1.0), 1.0 / aspect])
    return Ellipsoid(tuple(axes.tolist()), (0.0, 0.0, 0.0), tuple(rng.uniform(-PI, PI, 3)))


def high_aspect_pair(rng):
    """Two ``high_aspect_ellipsoid`` bodies, e2's center moved to
    U(0, 1.5) * (max a1 + max a2) in a random direction: from concentric
    through overlapping to separated."""
    e1, e2 = high_aspect_ellipsoid(rng), high_aspect_ellipsoid(rng)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    c2 = rng.uniform(0.0, 1.5) * (max(e1.semi_axes) + max(e2.semi_axes)) * u
    return e1, Ellipsoid(e2.semi_axes, tuple(c2.tolist()), e2.euler)


def disk_pair(rng):
    """A (300, 300, 0.5) disk centered at the origin in the xy plane, and
    a random body (semi-axes log-uniform in [1e-3, 1], aspect ratio at
    most 30) whose center lies above the disk's top face, within 200 of
    its axis and higher than the body reaches."""
    disk = Ellipsoid((300.0, 300.0, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    e = random_ellipsoid(rng, lo=1e-3, hi=1.0)
    x, y = rng.uniform(-200.0, 200.0, 2)
    z = 0.5 + max(e.semi_axes) * (1.05 + rng.uniform(0.0, 1.0))
    return disk, Ellipsoid(e.semi_axes, (x, y, z), e.euler)


def points_outside(rng, axes, n, zero_axis=None):
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


def rotation_matrix_numpy(alpha, beta, gamma):
    """Rx(alpha) @ Ry(beta) @ Rz(gamma) written out as a numpy 3x3, a
    reference for ``geometry.rotation_matrix`` and the rotation rows that
    ``Ellipsoid`` caches."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array(
        [
            [cb * cg, -cb * sg, sb],
            [ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb],
            [sa * sg - ca * sb * cg, sa * cg + ca * sb * sg, ca * cb],
        ]
    )


def body_offset_numpy(e, X):
    """The offset of the global point X from e's center, rotated into e's
    body frame by ``rotation_matrix_numpy`` and divided by the semi-axes:
    X lies strictly inside e when its squared norm is below 1."""
    R = rotation_matrix_numpy(*e.euler)
    return R.T @ (np.asarray(X, dtype=float) - np.asarray(e.center)) / np.asarray(e.semi_axes)


def center_chords_numpy(e1, e2):
    """The center line's length r = |c2 - c1| and how far it runs inside
    each body, all in numpy, a reference for the chord test of the cold
    start: the line holds e1 from c1 out to rho1 = r / |w1|, w1 the body
    offset of c2 in e1, and e2 from c2 back to rho2 = r / |w2|. An offset
    of length 0 gives an unbounded reach."""
    r = float(np.linalg.norm(np.asarray(e2.center) - np.asarray(e1.center)))
    reaches = []
    for e, other in ((e1, e2), (e2, e1)):
        w = float(np.linalg.norm(body_offset_numpy(e, other.center)))
        reaches.append(r / w if w > 0.0 else math.inf)
    return r, reaches[0], reaches[1]


def line_surface_entry_numpy(e, A, B):
    """The segment-entry parameters computed all in numpy, a reference for
    ``geometry.line_surface_entry``: both ends rotated into the body, the
    quadratic in the segment parameter from numpy dot products of the
    scaled points, and the entry point's parameters."""
    a, b, c = e.semi_axes
    A_loc = to_local_point(e, A)
    B_loc = to_local_point(e, B)
    inv = np.array((1.0 / a, 1.0 / b, 1.0 / c))
    p = A_loc * inv
    d = (B_loc - A_loc) * inv
    qa = float(d @ d)
    qb = 2.0 * float(p @ d)
    qc = float(p @ p) - 1.0
    if qa == 0.0:
        raise NoIntersectionError("degenerate segment (A == B)")
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoIntersectionError("segment does not intersect the ellipsoid")
    sq = math.sqrt(disc)
    roots = sorted(((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)))
    for t in roots:
        if 0.0 <= t <= 1.0:
            return param_from_local_point(e, A_loc + t * (B_loc - A_loc))
    raise NoIntersectionError("both intersections lie outside the segment")


def ray_exit_numpy(e, toward):
    """Where the ray from e's center toward ``toward`` leaves e's surface,
    all in numpy, a reference for ``slider._ray_exit``."""
    c = np.asarray(e.center)
    d = np.asarray(toward, dtype=float) - c
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise NoIntersectionError("concentric bodies have no center line")
    return line_surface_entry_numpy(e, c + (2.0 * max(e.semi_axes) / n) * d, c)


def penetration_depth_by_frames(e1, e2, entry_params, config):
    """The depth continuation built from the shared frame and interior
    kernels, a reference for ``contact.penetration_depth``: every step
    reads both global frames from ``_frame_fast`` and both interior tests
    from ``implicit_value``. Returns (kind, depth, params, normals), the
    normals as float triples."""
    sigma = config.resolve_sigma(e1, e2)
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    p1, p2 = entry_params
    t1, h1, t2, h2 = p1.theta, p1.phi, p2.theta, p2.phi
    lam1 = lam2 = config.lambda0
    toggle = 0
    d_1 = d_2 = math.nan
    prev_push = False
    K1, K2 = e1._flat, e2._flat

    for k in range(config.max_iter + 1):
        P1, n1, et1, ep1 = _frame_fast(K1, t1, h1)
        P2, n2, et2, ep2 = _frame_fast(K2, t2, h2)
        dx, dy, dz = P2[0] - P1[0], P2[1] - P1[1], P2[2] - P1[2]
        dist = math.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
        if k == config.max_iter:
            break
        inside1 = implicit_value(e2, P1) < 0.0
        inside2 = implicit_value(e1, P2) < 0.0
        push = dist < sigma or inside1 or inside2

        if push == prev_push and d_1 == d_1:
            wrong_way = dist < d_1 if push else dist > d_1
            if wrong_way:
                lam1, lam2, toggle = _halved(lam1, lam2, toggle)

        # the push goal is a unit normal, the pull goal the segment
        guard = ZERO_PROJECTION_FACTOR * (1.0 if push else dist)
        if push:
            g1x, g1y, g1z = -n2[0], -n2[1], -n2[2]
            g2x, g2y, g2z = -n1[0], -n1[1], -n1[2]
        else:
            g1x, g1y, g1z = dx, dy, dz
            g2x, g2y, g2z = -dx, -dy, -dz
        th1 = 0.0 if et1 is None else g1x * et1[0] + g1y * et1[1] + g1z * et1[2]
        th2 = 0.0 if et2 is None else g2x * et2[0] + g2y * et2[1] + g2z * et2[2]
        ph1 = g1x * ep1[0] + g1y * ep1[1] + g1z * ep1[2]
        ph2 = g2x * ep2[0] + g2y * ep2[1] + g2z * ep2[2]
        dth1, dph1 = step_increments(th1, ph1, lam1, guard)
        dth2, dph2 = step_increments(th2, ph2, lam2, guard)

        if inside1 and inside2 and dist > sigma:
            eps_d, eps_n, eps_lambda = _metrics(
                dist, d_1, d_2, -(dx * n1[0] + dy * n1[1] + dz * n1[2]),
                dx * n2[0] + dy * n2[1] + dz * n2[2], lam1, lam2,
            )
            if (
                (dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0)
                or (eps_d is not None and eps_d < tol_d)
                or eps_n < tol_n
                or eps_lambda < tol_lambda
            ):
                break

        t1, h1 = _canonical(t1 + dth1, h1 + dph1)
        t2, h2 = _canonical(t2 + dth2, h2 + dph2)
        d_2, d_1, prev_push = d_1, dist, push

    kind = "overlapping" if k < config.max_iter else "max-iter"
    return kind, dist, (SurfaceParam(t1, h1), SurfaceParam(t2, h2)), (n1, n2)
