"""Reference solvers used to validate the sliding iteration.

Two layers, numpy only and sharing no code with the slider: an exact
point-to-ellipsoid projection (Newton's method on a concave form of the
foot-point equation in the body's axis frame, started from a lower bound of
its root so that it needs no bracket) and a coarse-to-fine lattice search
run over both surfaces at once. The lattice limits the resolution by
design. Each lattice answer is the exact distance between two surface
points, so it bounds the true distance from above, and the smaller of the
two searches is kept.

The search solves exactly only the lattice points that can still win. Each
level runs one warm Newton pass on every point, which lands at or before
the point's root and so gives a certified lower bound on its distance; only
the points whose bound does not exceed the best distance so far get an
exact foot solve.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Ellipsoid,
    SurfaceParam,
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


# Each foot-point solve stops once the Newton step on the multiplier t
# (units of length squared) has shrunk to at most POINT_TOL * t.
POINT_TOL = 1e-12

# Relative slack of the pruning test in oracle_min_distance: a lattice point
# is skipped only when its lower bound exceeds the best distance so far by
# more than this factor. Both sides carry round-off: the bound a few ulps
# from its pass and product, an exact distance |q - x| a few ulps of |q|
# from the subtraction. 1e-12 is about 4,500 ulps, so it covers points up
# to ~1e3 times farther from the other body's center than from its surface.
# It is a constant, not POINT_TOL, which may be set to 0.
BOUND_SLACK = 1e-12

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


def _foot_points_local(axes: np.ndarray, q: np.ndarray, t=None) -> np.ndarray:
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

    A start ``t`` (shape (..., 1, m)) replaces t0. It must come from one
    :func:`_bound_pass`, so it lies at or before each root, and that pass
    counts toward NEWTON_MAX_PASSES.
    """
    # coordinates on axis -2: reductions over 3 contiguous rows are cheaper
    # than over a short last axis
    a2 = axes * axes
    aq = axes * q
    passes = NEWTON_MAX_PASSES
    if t is None:
        t = np.maximum(0.0, np.max(np.abs(aq) - a2, axis=-2, keepdims=True))
    else:
        passes -= 1
    d, r2 = np.empty_like(aq), np.empty_like(aq)
    for _ in range(passes):
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


def _bound_pass(a2: np.ndarray, aq: np.ndarray, q: np.ndarray, t):
    """One Newton pass of :func:`_foot_points_local` on every column of the
    (..., 3, m) arrays ``a2`` (squared semi-axes), ``aq`` (semi-axes times
    ``q``) and ``q``, from a start ``t`` on either side of each root.
    Returns the new t, shape (..., 1, m), and L^2, shape (..., m).

    k is concave and increasing, so its tangent at any t lies above it and
    the step lands at or before the root; it is clamped at 0. The distance
    |q - x(t)| = t |q / (a^2 + t)| grows with t and is exact at the root,
    so L = t |q / (a^2 + t)| at the new t bounds the point's distance to
    the body from below.
    """
    d = a2 + t
    r2 = np.divide(aq, d)
    np.square(r2, out=r2)
    f = np.add.reduce(r2, axis=-2, keepdims=True)
    s = np.add.reduce(np.divide(r2, d, out=r2), axis=-2, keepdims=True)
    t = np.maximum(0.0, t + f * (np.sqrt(f) - 1.0) / s)
    w2 = np.square(np.divide(q, np.add(a2, t, out=d), out=d), out=d)
    return t, np.square(t[..., 0, :]) * np.add.reduce(w2, axis=-2)


def point_to_ellipsoid(e: Ellipsoid, Q) -> tuple[float, SurfaceParam]:
    """Distance from a strictly exterior global point to the ellipsoid, and
    the surface parameters of the closest point."""
    if not 0.0 < implicit_value(e, Q) < math.inf:
        raise ValueError("point is not a finite point strictly outside the ellipsoid")
    q = to_local_point(e, Q).reshape(3, 1)
    foot = _foot_points_local(np.asarray(e.semi_axes)[:, None], q)[:, 0]
    dist = float(np.linalg.norm(q[:, 0] - foot))
    return dist, param_from_local_point(e, foot)


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
    so that np.argmin tie-breaks to the lowest (theta, phi) pair.

    Each level runs one :func:`_bound_pass` on every point, from the root t
    of its block's best point so far (at level 0 from the lower bound t0 of
    :func:`_foot_points_local`). A point whose bound L exceeds the block's
    best distance (at level 0, the exact distance of the point with the
    lowest L) by more than BOUND_SLACK cannot beat it and is skipped; the
    rest get exact foot solves, started from their pass, in one call. The
    best changes only on a strict improvement, as if every point were
    solved.

    Raises :class:`OracleRangeError`, before any arithmetic, when the pair's
    lengths leave [MIN_LENGTH, MAX_LENGTH], and
    :class:`OverlapSuspectedError` when, in either search, a sampled point
    falls inside the other body or the best foot falls inside the lattice's
    own body.
    """
    lengths = e1.semi_axes + e2.semi_axes
    reach = math.dist(e1.center, e2.center) + max(lengths)
    if not (MIN_LENGTH <= min(lengths) and reach <= MAX_LENGTH):
        raise OracleRangeError(
            f"the pair's lengths leave [{MIN_LENGTH:g}, {MAX_LENGTH:g}], "
            "where the lattice arithmetic stays finite"
        )
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
    t_best = np.zeros((2, 1, 1))  # per block: the root t of its best point
    a2 = axes * axes
    q, aq = np.empty_like(axes), np.empty_like(axes)  # reused by every level
    blocks = np.arange(2)
    for level in range(REFINE_LEVELS + 1):
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
        # aq holds (q / a)^2 for the interior test, then a q
        if (np.square(np.divide(q, axes, out=aq), out=aq).sum(axis=1) <= 1.0).any():
            raise OverlapSuspectedError(
                "a sampled surface point of one body lies inside the other"
            )
        np.multiply(axes, q, out=aq)
        if level == 0:
            t0 = np.maximum(0.0, np.max(np.abs(aq) - a2, axis=1, keepdims=True))
            t, low2 = _bound_pass(a2, aq, q, t0)
            # no best yet: the cut is the exact distance of each block's
            # point with the lowest bound, which therefore always counts
            seed = np.argmin(low2, axis=1)
            q0 = q[blocks, :, seed].T
            feet = _foot_points_local(axes[blocks, :, seed].T, q0, t[blocks, :, seed].T)
            cut = np.sqrt(np.sum((q0 - feet) ** 2, axis=0))
        else:
            t, low2 = _bound_pass(a2, aq, q, t_best)
            cut = np.array([best[0][0], best[1][0]])
        keep = low2 <= np.square(cut * (1.0 + BOUND_SLACK))[:, None]
        if level == 0:
            keep[blocks, seed] = True
        hs, js = np.nonzero(keep)
        qs = q[hs, :, js].T
        feet = _foot_points_local(axes[hs, :, js].T, qs, t[hs, :, js].T)
        dists = np.sqrt(np.sum((qs - feet) ** 2, axis=0))
        split = int(np.searchsorted(hs, 1))
        for h, lo, hi in ((0, 0, split), (1, split, len(hs))):
            if lo == hi:
                continue
            i = lo + int(dists[lo:hi].argmin())
            dist = float(dists[i])
            if best[h] is None or dist < best[h][0]:
                j = int(js[i])
                best[h] = (dist, float(thetas[h, j // gp]), float(phis[h, j % gp]), feet[:, i])
                # q - x = t x / a^2 at the root
                t_best[h] = dist / math.hypot(*(feet[:, i] / a2[h, :, 0]).tolist())
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
