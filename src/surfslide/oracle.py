"""Reference solvers used to validate the sliding iteration.

Two layers, numpy only and sharing no code with the slider: an exact
point-to-ellipsoid projection (Newton's method on the foot-point equation in
the body's axis frame, started from a lower bound of its root so that it
needs no bracket) and a coarse-to-fine lattice search run over both
surfaces. The lattice limits the resolution by design. Each lattice answer
is the exact distance between two surface points, so it bounds the true
distance from above, and the smaller of the two searches is kept. A call
takes about 10 ms on a 2-core Xeon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ellipsoid,
    SurfaceParam,
    implicit_value,
    param_from_local_point,
    to_local_point,
)

# Cap on the Newton passes of a foot-point solve. From the lower bound a
# solve took at most 9 passes on 25,000 points 1e-10 to 1e4 outside bodies
# with semi-axes from 1e-3 to 1e3; the cap only turns a runaway loop into
# an error.
NEWTON_MAX_PASSES = 100


class OverlapSuspectedError(RuntimeError):
    """A sampled surface point of one ellipsoid lies inside the other."""


@dataclass(frozen=True)
class OracleConfig:
    """Lattice size and refinement of :func:`oracle_min_distance`.

    ``point_tol`` stops each foot-point solve: the Newton step on the
    multiplier t (units of length squared) must shrink to at most
    ``point_tol * t``.
    """

    grid_theta: int = 64
    grid_phi: int = 32
    refine_levels: int = 6
    refine_shrink: float = 0.25
    point_tol: float = 1e-12

    def __post_init__(self):
        if self.grid_theta < 8 or self.grid_phi < 8:
            raise ValueError("grid counts must be >= 8")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError("refine_shrink must lie in (0, 1)")
        if not self.point_tol >= 0.0:
            raise ValueError("point_tol must be >= 0")


def _foot_points_local(e: Ellipsoid, q: np.ndarray, point_tol: float) -> np.ndarray:
    """Feet of the normals dropped from exterior local points ``q``, given
    as 3 rows of n coordinates; the feet come back in the same layout.

    The foot satisfies x_i = a_i^2 q_i / (a_i^2 + t) with t > 0 the unique
    root of f(t) = sum_i (a_i q_i / (a_i^2 + t))^2 - 1, solved by Newton's
    method from the lower bound t0 = max(0, max_k(a_k |q_k| - a_k^2)): term
    k alone reaches 1 at t0, so f(t0) >= 0. f is convex and decreasing for
    t > -min a_i^2, so from the left every Newton step rises towards the
    root without passing it, and no bracket is needed; a step that round-off
    makes negative is clamped to 0. Stops once every step is at most
    ``point_tol * t`` (a step too small to change t counts as stopped), and
    raises RuntimeError after NEWTON_MAX_PASSES passes.
    """
    # rows, not an (n, 3) array: reductions over 3 contiguous rows are
    # cheaper than over a short last axis
    axes = np.asarray(e.semi_axes)[:, None]
    a2 = axes * axes
    aq = axes * q
    t = np.maximum(0.0, np.max(np.abs(aq) - a2, axis=0))
    for _ in range(NEWTON_MAX_PASSES):
        d = a2 + t
        r2 = (aq / d) ** 2
        # f / -f'(t), with -f'(t) = 2 sum_i (a_i q_i)^2 / (a_i^2 + t)^3
        step = np.maximum(0.0, (r2.sum(axis=0) - 1.0) / (2.0 * (r2 / d).sum(axis=0)))
        t_next = t + step
        if np.all(t_next - t <= point_tol * t_next):
            return a2 * q / (a2 + t_next)
        t = t_next
    raise RuntimeError(
        f"foot-point Newton solve did not converge in {NEWTON_MAX_PASSES} passes"
    )


def point_to_ellipsoid(
    e: Ellipsoid, Q, point_tol: float = 1e-12
) -> tuple[float, SurfaceParam]:
    """Distance from a strictly exterior global point to the ellipsoid, and
    the surface parameters of the closest point."""
    if not 0.0 < implicit_value(e, Q) < math.inf:
        raise ValueError("point is not a finite point strictly outside the ellipsoid")
    q = to_local_point(e, Q).reshape(3, 1)
    foot = _foot_points_local(e, q, point_tol)[:, 0]
    dist = float(np.linalg.norm(q[:, 0] - foot))
    return dist, param_from_local_point(e, foot)


def _surface_points_local(e: Ellipsoid, thetas: np.ndarray, phis: np.ndarray):
    """Lattice of local surface points as 3 rows, flattened theta-major so
    that np.argmin tie-breaks to the lowest (theta, phi) pair."""
    a, b, c = e.semi_axes
    th = thetas[:, None]
    ph = phis[None, :]
    x = a * np.sin(ph) * np.cos(th)
    y = b * np.sin(ph) * np.sin(th)
    z = c * np.cos(ph) * np.ones_like(th)
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()])
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return pts, tt.ravel(), pp.ravel()


def _lattice_search(
    e1: Ellipsoid, e2: Ellipsoid, cfg: OracleConfig
) -> tuple[float, SurfaceParam, SurfaceParam]:
    """One-way search: project a refined lattice of points on e1 onto e2
    and keep the best pair, returned as (distance, param on e1, param on
    e2)."""
    R12 = e2.rotation.T @ e1.rotation  # e1 local -> e2 local
    t12 = to_local_point(e2, np.asarray(e1.center))[:, None]
    axes2 = np.asarray(e2.semi_axes)[:, None]

    theta_c, theta_hw = math.pi, math.pi
    phi_c, phi_hw = math.pi / 2.0, math.pi / 2.0

    best = None  # (distance, theta1, phi1, foot_local2)
    for level in range(cfg.refine_levels + 1):
        thetas = np.linspace(
            theta_c - theta_hw, theta_c + theta_hw, cfg.grid_theta, endpoint=False
        )
        lo = max(0.0, phi_c - phi_hw)
        hi = min(math.pi, phi_c + phi_hw)
        phis = np.linspace(lo, hi, cfg.grid_phi)

        pts1, tt, pp = _surface_points_local(e1, thetas, phis)
        q = R12 @ pts1 + t12  # points of e1 in e2's local frame
        if np.any(np.sum((q / axes2) ** 2, axis=0) <= 1.0):
            raise OverlapSuspectedError(
                "a sampled surface point of one body lies inside the other"
            )
        feet = _foot_points_local(e2, q, cfg.point_tol)
        dists = np.sqrt(np.sum((q - feet) ** 2, axis=0))
        i = int(np.argmin(dists))
        if best is None or dists[i] < best[0]:
            best = (float(dists[i]), float(tt[i]), float(pp[i]), feet[:, i])

        theta_c, phi_c = best[1], best[2]
        theta_hw *= cfg.refine_shrink
        phi_hw *= cfg.refine_shrink

    dist, th1, ph1, foot2 = best
    foot_global = e2.rotation @ foot2 + np.asarray(e2.center)
    if implicit_value(e1, foot_global) <= 0.0:
        raise OverlapSuspectedError("a closest point of one body lies inside the other")
    return dist, SurfaceParam.canonical(th1, ph1), param_from_local_point(e2, foot2)


def oracle_min_distance(
    e1: Ellipsoid, e2: Ellipsoid, cfg: OracleConfig = OracleConfig()
) -> tuple[float, tuple[SurfaceParam, SurfaceParam]]:
    """Brute-force minimum distance: run the lattice search from e1 onto e2
    and from e2 onto e1, and keep the closer pair, with the params in
    (e1, e2) order. A lattice on one body alone can refine into the wrong
    basin when that body is needle-like; the other body's lattice finds it.

    Raises :class:`OverlapSuspectedError` when, in either search, a sampled
    point falls inside the other body or the best foot falls inside the
    lattice's own body.
    """
    d12, p1, p2 = _lattice_search(e1, e2, cfg)
    d21, q2, q1 = _lattice_search(e2, e1, cfg)
    if d21 < d12:
        return d21, (q1, q2)
    return d12, (p1, p2)
