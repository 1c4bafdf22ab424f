"""Reference solvers used to validate the sliding iteration.

Three layers. In numpy: an exact point-to-ellipsoid projection (Newton's
method on a concave form of the foot-point equation in the body's axis
frame, started from a lower bound of its root so that it needs no
bracket), and a coarse-to-fine lattice search run over both surfaces at
once, with an exact foot solve for every lattice point. In plain floats:
the support-function dual of :func:`dual_distance`.

Each lattice answer is the exact distance between two surface points, so
it bounds the true distance from above; the smaller of the two searches
is kept, and the lattice limits the resolution by design. The dual
brackets the distance of a separated pair from both sides, to within
6e-12 relative on every tested suite, in a small fraction of the
lattice's time. It gives no answer for overlapping or touching pairs, and
neither does the lattice: on all 1,209 such pairs measured (the overlap
recipe and high-aspect pairs) it raised :class:`OverlapSuspectedError`.

Nothing here imports the slider. The dual shares ``geometry._reach`` and
``geometry._support_gap`` with the solver's start and its disjointness
certificate, as both share ``implicit_value``; ``solve``'s distance and
witnesses never pass through them, so ``--verify``'s distance check stays
independent. Verdicts are graded against numpy references of their own
(``tests/helpers.support_reach``, ``perfbench/checks.support_gap``).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Ellipsoid,
    SurfaceParam,
    _reach,
    _support_gap,
    implicit_value,
    param_from_local_point,
    to_local_point,
)

# Cap on the Newton passes of a foot-point solve. From the lower bound a
# solve took at most 7 passes (mean 2.6) on the 4,000 points 1e-10 to 1e4
# outside bodies with semi-axes from 1e-3 to 1e3 of
# test_foot_points_extreme_axes_and_distances; the cap only turns a runaway
# loop into an error.
NEWTON_MAX_PASSES = 100

# Cap on the ascent steps of dual_distance; reaching it without a
# direction of positive gap gives None.
DUAL_MAX_STEPS = 100

# dual_distance's round-off level, relative to the size of the terms it
# sums (about 4.5 ulps): it stops once the tangential gradient of its gap
# function is at most DUAL_TOL * (|r| + s1 + s2), and its lower bound is
# g less DUAL_TOL times the sum of |r_k u_k| and both bodies' 1-norm
# support offsets, which bounds g's own round-off. On the 587 separated
# pairs of tests/test_oracle.py, g came within 2.8e-16 times that sum of
# its value in 40-digit arithmetic.
DUAL_TOL = 1e-15

# Sufficient-increase factor of dual_distance's backtracking: a step of
# length t along the model step is taken once the gap has grown by at
# least DUAL_ARMIJO * t * (the model's predicted slope).
DUAL_ARMIJO = 1e-4

# Each foot-point solve stops once the Newton step on the multiplier t
# (units of length squared) has shrunk to at most POINT_TOL * t.
POINT_TOL = 1e-12

# oracle_min_distance accepts a pair only when every semi-axis, and the
# distance between the centers plus the largest semi-axis (a bound on every
# local coordinate), lie in [MIN_LENGTH, MAX_LENGTH]. Its arithmetic forms
# values such as a^2 q, (q / a)^2 and (q / a^2)^2, which stay between about
# 1e-240 and 1e180 in this range, so none overflows or underflows.
MIN_LENGTH, MAX_LENGTH = 1e-30, 1e30

# The lattice of oracle_min_distance: GRID_THETA x GRID_PHI points per body,
# re-laid REFINE_LEVELS times around the best point so far, each time over a
# window REFINE_SHRINK times as wide.
GRID_THETA = 64
GRID_PHI = 32
REFINE_LEVELS = 6
REFINE_SHRINK = 0.25


class OverlapSuspectedError(RuntimeError):
    """A sampled surface point of one ellipsoid lies inside the other."""


class OracleRangeError(ValueError):
    """The pair's lengths lie outside [MIN_LENGTH, MAX_LENGTH], where the
    lattice search's arithmetic cannot be kept finite."""


def _foot_points_local(axes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Feet of the normals dropped from exterior local points ``q``, given
    as (..., 3, m) arrays of m points, onto bodies with semi-axes ``axes``
    (broadcast against ``q``, so each column may have its own); the feet
    come back in the layout of ``q``.

    The foot satisfies x_i = a_i^2 q_i / (a_i^2 + t) with t > 0 the unique
    root of F(t) = sum_i r_i^2 = 1, r_i = a_i q_i / (a_i^2 + t). Newton's
    method runs on k(t) = F^(-1/2) - 1 from the lower bound
    t0 = max(0, max_k(a_k |q_k| - a_k^2)): term k alone reaches 1 at t0,
    so k(t0) <= 0. k + 1 = (sum_i h_i^-2)^(-1/2) with h_i = 1 / |r_i|
    affine and increasing in t, and that power sum is concave and
    increasing in each h_i > 0, so k is concave and increasing: its tangent
    lies above it, every step from the left lands at or before the root,
    and no bracket is needed. For a sphere k is linear and one step is
    exact. The step is -k/k' = F (sqrt(F) - 1) / S with
    S = sum_i r_i^2 / (a_i^2 + t); one that round-off makes negative is
    clamped to 0. Stops once every step is at most ``POINT_TOL * t`` (a
    step too small to change t counts as stopped), and raises RuntimeError
    after NEWTON_MAX_PASSES passes.
    """
    # coordinates on axis -2: reductions over 3 contiguous rows are cheaper
    # than over a short last axis
    a2 = axes * axes
    aq = axes * q
    t = np.maximum(0.0, np.max(np.abs(aq) - a2, axis=-2, keepdims=True))
    d, r2 = np.empty_like(aq), np.empty_like(aq)
    for _ in range(NEWTON_MAX_PASSES):
        np.add(a2, t, out=d)
        np.divide(aq, d, out=r2)
        np.square(r2, out=r2)
        f = np.add.reduce(r2, axis=-2, keepdims=True)
        s = np.add.reduce(np.divide(r2, d, out=r2), axis=-2, keepdims=True)
        t_next = t + np.maximum(0.0, f * (np.sqrt(f) - 1.0) / s)
        if (t_next - t <= POINT_TOL * t_next).all():
            return a2 * q / (a2 + t_next)
        t = t_next
    raise RuntimeError(
        f"foot-point Newton solve did not converge in {NEWTON_MAX_PASSES} passes"
    )


def point_to_ellipsoid(e: Ellipsoid, Q) -> tuple[float, SurfaceParam]:
    """Distance from a strictly exterior global point to the ellipsoid, and
    the surface parameters of the closest point."""
    if not 0.0 < implicit_value(e, Q) < math.inf:
        raise ValueError("point is not a finite point strictly outside the ellipsoid")
    q = to_local_point(e, Q).reshape(3, 1)
    foot = _foot_points_local(np.asarray(e.semi_axes)[:, None], q)[:, 0]
    dist = float(np.linalg.norm(q[:, 0] - foot))
    return dist, param_from_local_point(e, foot)


def _check_range(e1: Ellipsoid, e2: Ellipsoid) -> None:
    """Raise :class:`OracleRangeError` when the pair's lengths leave
    [MIN_LENGTH, MAX_LENGTH]."""
    lengths = e1.semi_axes + e2.semi_axes
    reach = math.dist(e1.center, e2.center) + max(lengths)
    if not (MIN_LENGTH <= min(lengths) and reach <= MAX_LENGTH):
        raise OracleRangeError(
            f"the pair's lengths leave [{MIN_LENGTH:g}, {MAX_LENGTH:g}], "
            "where the lattice arithmetic stays finite"
        )


def oracle_min_distance(
    e1: Ellipsoid, e2: Ellipsoid
) -> tuple[float, tuple[SurfaceParam, SurfaceParam]]:
    """Brute-force minimum distance: search a refined lattice on e1 projected
    onto e2 and one on e2 projected onto e1, and keep the closer pair, with
    the params in (e1, e2) order. A lattice on one body alone can refine
    into the wrong basin when that body is needle-like; the other body's
    lattice finds it.

    Both searches run as one array pass per level: block h of every array
    holds body h's lattice, in the local frame of the other body. Each block
    refines around its own best point; lattices are flattened theta-major,
    so that np.argmin tie-breaks to the lowest (theta, phi) pair. Every
    point of every level gets an exact foot solve, and a block's best
    changes only on a strict improvement.

    Raises :class:`OracleRangeError`, before any arithmetic, when the pair's
    lengths leave [MIN_LENGTH, MAX_LENGTH], and
    :class:`OverlapSuspectedError` when, in either search, a sampled point
    falls inside the other body or the best foot falls inside the lattice's
    own body.
    """
    _check_range(e1, e2)
    gt, gp = GRID_THETA, GRID_PHI
    bodies, others = (e1, e2), (e2, e1)
    own_axes = np.array([e1.semi_axes, e2.semi_axes])
    # the semi-axes each block projects onto, per column: array ops with a
    # stride-0 operand are slower
    axes = np.repeat(own_axes[::-1, :, None], gt * gp, axis=2)
    R = np.array([e2.rotation.T @ e1.rotation, e1.rotation.T @ e2.rotation])
    T = np.array([to_local_point(e2, np.asarray(e1.center)),
                  to_local_point(e1, np.asarray(e2.center))])[:, :, None]

    theta_c = np.array([math.pi, math.pi])
    phi_c = np.array([math.pi / 2.0, math.pi / 2.0])
    theta_hw, phi_hw = math.pi, math.pi / 2.0
    i_theta, i_phi = np.arange(gt, dtype=float), np.arange(gp, dtype=float)
    pts = np.empty((2, 3, gt, gp))
    best = [None, None]  # per block: (distance, theta, phi, foot on the other body)
    q, w = np.empty_like(axes), np.empty_like(axes)  # reused by every level
    for _ in range(REFINE_LEVELS + 1):
        lo_t, hi_t = theta_c - theta_hw, theta_c + theta_hw
        lo_p, hi_p = np.maximum(0.0, phi_c - phi_hw), np.minimum(math.pi, phi_c + phi_hw)
        # np.linspace's arithmetic (endpoint=False for theta), without its overhead
        thetas = i_theta * ((hi_t - lo_t) / gt)[:, None] + lo_t[:, None]
        phis = i_phi * ((hi_p - lo_p) / (gp - 1))[:, None] + lo_p[:, None]
        phis[:, -1] = hi_p
        sin_ph = np.sin(phis)
        np.multiply(np.cos(thetas)[:, :, None],
                    (own_axes[:, 0, None] * sin_ph)[:, None, :], out=pts[:, 0])
        np.multiply(np.sin(thetas)[:, :, None],
                    (own_axes[:, 1, None] * sin_ph)[:, None, :], out=pts[:, 1])
        pts[:, 2] = (own_axes[:, 2, None] * np.cos(phis))[:, None, :]
        np.matmul(R, pts.reshape(2, 3, gt * gp), out=q)
        q += T
        if (np.square(np.divide(q, axes, out=w), out=w).sum(axis=1) <= 1.0).any():
            raise OverlapSuspectedError(
                "a sampled surface point of one body lies inside the other"
            )
        feet = _foot_points_local(axes, q)
        dists = np.sqrt(np.sum(np.square(q - feet, out=w), axis=1))
        for h, i in enumerate(np.argmin(dists, axis=1)):
            if best[h] is None or dists[h, i] < best[h][0]:
                best[h] = (float(dists[h, i]), float(thetas[h, i // gp]),
                           float(phis[h, i % gp]), feet[h, :, i])
                theta_c[h], phi_c[h] = best[h][1], best[h][2]
        theta_hw *= REFINE_SHRINK
        phi_hw *= REFINE_SHRINK

    found = []
    for body, other, (dist, th, ph, foot) in zip(bodies, others, best):
        if implicit_value(body, other.rotation @ foot + np.asarray(other.center)) <= 0.0:
            raise OverlapSuspectedError("a closest point of one body lies inside the other")
        found.append((dist, SurfaceParam.canonical(th, ph), param_from_local_point(other, foot)))
    (dist1, p1, p2), (dist2, q2, q1) = found
    if dist2 < dist1:
        return dist2, (q1, q2)
    return dist1, (p1, p2)


def _tangent_terms(K, h, b1, b2):
    """Derivatives of s along the orthonormal tangent vectors b1, b2 at u,
    for the body ``K`` with ``h = _reach(K, u)``: the slopes b_j . A u / s
    and the tangent Hessian entries (11, 12, 22) of s, p_j . p_k / s, with
    p_j = diag(a) R^T b_j less its component along w. Returned as
    (slope1, slope2, h11, h12, h22)."""
    wx, wy, wz, s = h
    wx, wy, wz = wx / s, wy / s, wz / s
    out = []
    for bx, by, bz in (b1, b2):
        px, py, pz, _ = _reach(K, bx, by, bz)
        along = px * wx + py * wy + pz * wz
        out.append((along, px - along * wx, py - along * wy, pz - along * wz))
    (c1, px, py, pz), (c2, qx, qy, qz) = out
    return (c1, c2, (px * px + py * py + pz * pz) / s,
            (px * qx + py * qy + pz * qz) / s, (qx * qx + qy * qy + qz * qz) / s)


def _support_offset(K, h):
    """A u / s = R diag(a) w / s for the body ``K`` with ``h = _reach(K,
    u)``: where the body's farthest point along u lies from its center.
    Also its body-frame 1-norm sum_k a_k |w_k| / s, which bounds how far
    the round-off of w moves s."""
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, _, _, _ = K
    wx, wy, wz, s = h
    px, py, pz = a * (wx / s), b * (wy / s), c * (wz / s)
    return (r00 * px + r01 * py + r02 * pz, r10 * px + r11 * py + r12 * pz,
            r20 * px + r21 * py + r22 * pz), abs(px) + abs(py) + abs(pz)


def dual_distance(e1: Ellipsoid, e2: Ellipsoid):
    """The distance of a separated pair as a bracket from the dual problem.

    For any unit u, g(u) = r . u - s1(u) - s2(u), with r = c2 - c1 and
    s_i(u) = sqrt(u^T A_i u), A_i = R_i diag(a_i^2) R_i^T, is at most the
    signed distance, with equality at the maximizer (Lin & Han, SIAM J.
    Optim. 2002; Eberly, "Distance between two ellipsoids"). The maximum over the unit sphere is found by a
    Riemannian Newton ascent from u0 = r/|r|, in an orthonormal tangent
    basis at u: the tangent gradient is P grad g, and since g is
    homogeneous of degree 1, u . grad g = g(u), so the Riemannian Hessian
    is P hess(g) P - g(u) I = -(H1 + H2 + g I), H_i the tangent Hessian of
    s_i, positive definite. Where g <= 0 that model need not be negative
    definite, and -(H1 + H2 + |g| I) replaces it: a step scaled by both
    bodies' support curvatures that still ascends. A tangent step is at
    most as long as u, is halved until g grows by DUAL_ARMIJO of its
    predicted gain, and is retracted onto the sphere by normalizing; a
    gain below g's round-off is not tested, and such a step is kept only
    if it halves the tangent gradient. The ascent stops once the tangent
    gradient is at most DUAL_TOL * (|r| + s1 + s2), or when u no longer
    moves or g no longer grows. Every operation is homogeneous in length,
    so scaling the pair by a power of two scales the bracket exactly.

    Returns (lower, upper, x1, x2, u): lower = g(u) less DUAL_TOL times
    the size of the terms it sums, which covers its round-off, bounds the
    distance from below; x1 = c1 + A1 u / s1 and x2 = c2 - A2 u / s2 are
    the support points of e1 along u and of e2 along -u, surface points,
    so upper = |x2 - x1| bounds it from above; u is the unit direction
    from e1 to e2. Points and u are float triples. Returns None, before any
    step, when either center lies on or inside the other body, which makes
    g < 0 for every u (concentric pairs among them), and otherwise when no
    direction with g > 0 is found within DUAL_MAX_STEPS steps: for an
    overlapping or touching pair g <= 0 everywhere.
    Raises :class:`OracleRangeError` on the pairs that
    :func:`oracle_min_distance` refuses.
    """
    _check_range(e1, e2)
    if implicit_value(e1, e2.center) <= 0.0 or implicit_value(e2, e1.center) <= 0.0:
        return None
    K1, K2 = e1._flat, e2._flat
    rx, ry, rz = K2[12] - K1[12], K2[13] - K1[13], K2[14] - K1[14]
    n = math.sqrt(rx * rx + ry * ry + rz * rz)
    ux, uy, uz = rx / n, ry / n, rz / n
    g, h1, h2 = _support_gap(K1, K2, ux, uy, uz)
    undo = None  # the state before a step whose gain g cannot resolve
    for _ in range(DUAL_MAX_STEPS):
        # b1 from the coordinate axis least aligned with u, b2 = u x b1
        ax, ay, az = abs(ux), abs(uy), abs(uz)
        if ax <= ay and ax <= az:
            m = math.sqrt(uy * uy + uz * uz)
            b1 = (0.0, -uz / m, uy / m)
        elif ay <= az:
            m = math.sqrt(ux * ux + uz * uz)
            b1 = (uz / m, 0.0, -ux / m)
        else:
            m = math.sqrt(ux * ux + uy * uy)
            b1 = (-uy / m, ux / m, 0.0)
        b2 = (uy * b1[2] - uz * b1[1], uz * b1[0] - ux * b1[2], ux * b1[1] - uy * b1[0])
        c1, c2, p11, p12, p22 = _tangent_terms(K1, h1, b1, b2)
        d1, d2, q11, q12, q22 = _tangent_terms(K2, h2, b1, b2)
        G1 = rx * b1[0] + ry * b1[1] + rz * b1[2] - c1 - d1
        G2 = rx * b2[0] + ry * b2[1] + rz * b2[2] - c2 - d2
        grad = math.sqrt(G1 * G1 + G2 * G2)
        floor = DUAL_TOL * (n + h1[3] + h2[3])
        if grad <= floor:
            break
        if undo is not None and not grad < 0.5 * undo[1]:
            (ux, uy, uz, g, h1, h2), _ = undo  # the step did not halve the gradient
            break
        # the step eta solves N eta = G, N = H1 + H2 + |g| I
        n11, n12, n22 = p11 + q11 + abs(g), p12 + q12, p22 + q22 + abs(g)
        det = n11 * n22 - n12 * n12
        eta1, eta2 = (n22 * G1 - n12 * G2) / det, (n11 * G2 - n12 * G1) / det
        slope = G1 * eta1 + G2 * eta2
        if not 0.0 < slope < math.inf:  # round-off left no ascent
            break
        length = math.sqrt(eta1 * eta1 + eta2 * eta2)
        if length > 1.0:
            eta1, eta2, slope = eta1 / length, eta2 / length, slope / length
        dx = eta1 * b1[0] + eta2 * b2[0]
        dy = eta1 * b1[1] + eta2 * b2[1]
        dz = eta1 * b1[2] + eta2 * b2[2]
        # a gain below g's round-off cannot be tested: the full step is
        # taken, and undone unless it halves the gradient
        undo = ((ux, uy, uz, g, h1, h2), grad) if slope <= floor else None
        t = 1.0
        while True:
            vx, vy, vz = ux + t * dx, uy + t * dy, uz + t * dz
            if vx == ux and vy == uy and vz == uz:
                break
            m = math.sqrt(vx * vx + vy * vy + vz * vz)
            vx, vy, vz = vx / m, vy / m, vz / m
            g_new, k1, k2 = _support_gap(K1, K2, vx, vy, vz)
            if undo is not None or g_new >= g + DUAL_ARMIJO * t * slope:
                break
            t *= 0.5
        if vx == ux and vy == uy and vz == uz:
            break  # u no longer moves
        if undo is None and not g_new > g:
            break
        ux, uy, uz, g, h1, h2 = vx, vy, vz, g_new, k1, k2
    if not g > 0.0:
        return None
    (y1, spread1), (y2, spread2) = _support_offset(K1, h1), _support_offset(K2, h2)
    x1 = (K1[12] + y1[0], K1[13] + y1[1], K1[14] + y1[2])
    x2 = (K2[12] - y2[0], K2[13] - y2[1], K2[14] - y2[2])
    # x2 - x1 = r - y1 - y2, formed without the centers' round-off
    dx, dy, dz = rx - y1[0] - y2[0], ry - y1[1] - y2[1], rz - y1[2] - y2[2]
    upper = math.sqrt(dx * dx + dy * dy + dz * dz)
    # g's round-off is at most a few ulps of the terms it sums: the
    # products r_k u_k, and per body the offset's body-frame components
    terms = abs(rx * ux) + abs(ry * uy) + abs(rz * uz) + spread1 + spread2
    lower = g - DUAL_TOL * terms
    return lower, upper, x1, x2, (ux, uy, uz)
