"""Classification of near-contact and overlapping pairs, plus the
penetration-depth continuation.

When the sliding search drives the separation below the contact threshold
sigma, the configuration is either tangent (the two outward normals are
anti-aligned) or interpenetrating (each witness point sits inside the other
ellipsoid). For the overlap case the same stepping machinery is reused with
the pull replaced by a push along the other body's negated normal, which
drives the pair to the maximum-overlap points. Like ``solve``, that
continuation keeps its state in plain float locals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ellipsoid, SurfaceParam, _canonical, _frame_fast, implicit_value
from .slider import ZERO_PROJECTION_FACTOR, SolverConfig, SolverState, _halved, step_increments
from .slider import advance_param  # unused; perfbench/tracer.py wraps it by this name

# tolerance on |n1 . n2 + 1| for calling a sub-sigma pair tangent
ALIGN_TOL = 1e-6


@dataclass(frozen=True)
class ContactReport:
    """kind is 'separated', 'in-contact', 'overlapping', or 'max-iter'
    when the depth continuation ran out of iterations.

    distance_or_depth is positive separation, ~0 at tangency, and the
    penetration magnitude (reported positive, flagged by kind) for overlap;
    for 'max-iter' it is the witness distance where the continuation
    stopped.
    """

    kind: str
    distance_or_depth: float
    witness_params: tuple[SurfaceParam, SurfaceParam]
    witness_normals: tuple[np.ndarray, np.ndarray]


def interpenetrating(e1: Ellipsoid, e2: Ellipsoid, P1, P2) -> bool:
    """Whether each witness point lies strictly inside the other body."""
    return implicit_value(e2, P1) < 0.0 and implicit_value(e1, P2) < 0.0


def separated(e1: Ellipsoid, e2: Ellipsoid, result) -> bool:
    """True when a solve result describes a genuinely separated pair.
    Converged states can still interpenetrate (spurious stationary pairs on
    overlapping bodies), so interiority counts as well as the status."""
    if result.status in ("contact", "overlap"):
        return False
    return not interpenetrating(e1, e2, *result.closest_points)


def classify(
    state: SolverState,
    e1: Ellipsoid,
    e2: Ellipsoid,
    sigma: float,
) -> str:
    """Sort a sub-sigma (or converged) state into in-contact / overlapping /
    separated.

    Interpenetration is confirmed by interior tests on both witness points,
    not by distance alone: a small separation also occurs at near-tangency.
    """
    n1, n2 = state.normals
    dot = n1[0] * n2[0] + n1[1] * n2[1] + n1[2] * n2[2]
    if abs(dot + 1.0) < ALIGN_TOL:
        return "in-contact"
    if interpenetrating(e1, e2, *state.points_global):
        return "overlapping"
    return "separated"


def _report(kind: str, distance: float, params, normals) -> ContactReport:
    return ContactReport(
        kind=kind,
        distance_or_depth=distance,
        witness_params=params,
        witness_normals=(np.array(normals[0]), np.array(normals[1])),
    )


def penetration_depth(
    e1: Ellipsoid,
    e2: Ellipsoid,
    entry_params: tuple[SurfaceParam, SurfaceParam],
    config: SolverConfig = SolverConfig(),
) -> ContactReport:
    """Continue an overlapping search from the witness params
    ``entry_params`` to the maximum-overlap pair.

    While the witness points interpenetrate (or sit within sigma), each is
    pushed along the negated normal of the other body, re-read every step;
    once both points pop outside beyond sigma, the regular tension pull
    resumes. At the fixed point the connecting segment leaves each witness
    point against its own outward normal, and its length is the depth.

    The loop keeps (theta, phi), the segment and the lambdas in plain float
    locals, as ``solve`` does: each step reads both global frames from
    ``_frame_fast`` and advances (theta, phi) with ``_canonical``.
    ``SurfaceParam``s are built only for the report.
    """
    sigma = config.resolve_sigma(e1, e2)
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    p1, p2 = entry_params
    t1, h1, t2, h2 = p1.theta, p1.phi, p2.theta, p2.phi
    lam1 = lam2 = config.lambda0
    toggle = 0
    prev_dist = math.nan  # NaN until the first step; ``x == x`` tests for it
    prev_push = False

    for k in range(config.max_iter + 1):
        P1, n1, et1, ep1 = _frame_fast(e1, t1, h1)
        P2, n2, et2, ep2 = _frame_fast(e2, t2, h2)
        dx, dy, dz = P2[0] - P1[0], P2[1] - P1[1], P2[2] - P1[2]
        dist = math.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
        if k == config.max_iter:
            break
        inside1 = implicit_value(e2, P1) < 0.0
        inside2 = implicit_value(e1, P2) < 0.0
        push = dist < sigma or inside1 or inside2

        # overshoot = motion against the current goal; skip across mode flips
        if push == prev_push and prev_dist == prev_dist:
            wrong_way = dist < prev_dist if push else dist > prev_dist
            if wrong_way:
                lam1, lam2, toggle = _halved(lam1, lam2, toggle)

        guard = ZERO_PROJECTION_FACTOR * (sigma if sigma > dist else dist)
        if push:  # -n2 pushes the point on e1, -n1 the point on e2
            g1x, g1y, g1z = -n2[0], -n2[1], -n2[2]
            g2x, g2y, g2z = -n1[0], -n1[1], -n1[2]
        else:
            g1x, g1y, g1z = dx, dy, dz
            g2x, g2y, g2z = -dx, -dy, -dz
        # the goals' components along the unit tangents; no theta tangent at a pole
        th1 = 0.0 if et1 is None else g1x * et1[0] + g1y * et1[1] + g1z * et1[2]
        th2 = 0.0 if et2 is None else g2x * et2[0] + g2y * et2[1] + g2z * et2[2]
        ph1 = g1x * ep1[0] + g1y * ep1[1] + g1z * ep1[2]
        ph2 = g2x * ep2[0] + g2y * ep2[1] + g2z * ep2[2]
        dth1, dph1 = step_increments(th1, ph1, lam1, guard)
        dth2, dph2 = step_increments(th2, ph2, lam2, guard)

        if push and dist > 0.0:
            # at maximum overlap the segment runs against n1 and along n2
            dot1 = (dx * n1[0] + dy * n1[1] + dz * n1[2]) / dist
            dot2 = (dx * n2[0] + dy * n2[1] + dz * n2[2]) / dist
            align1, align2 = 1.0 + dot1, 1.0 - dot2
            done = (
                (dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0)
                or (align2 if align2 > align1 else align1) < tol_n
                or (prev_dist == prev_dist and abs((dist - prev_dist) / dist) < tol_d)
                or (lam2 if lam2 > lam1 else lam1) < tol_lambda
            )
            if done and inside1 and inside2 and dist > sigma:
                break

        t1, h1 = _canonical(t1 + dth1, h1 + dph1)
        t2, h2 = _canonical(t2 + dth2, h2 + dph2)
        prev_dist, prev_push = dist, push

    kind = "overlapping" if k < config.max_iter else "max-iter"
    return _report(kind, dist, (SurfaceParam(t1, h1), SurfaceParam(t2, h2)), (n1, n2))


def analyze(
    e1: Ellipsoid,
    e2: Ellipsoid,
    config: SolverConfig = SolverConfig(),
    init: tuple[SurfaceParam, SurfaceParam] | None = None,
) -> ContactReport:
    """Full pipeline: run the sliding search, which decides contact, and
    continue to the penetration depth when the pair is not separated."""
    from .slider import solve

    result = solve(e1, e2, init, config)
    if result.status == "contact":
        return _report("in-contact", result.distance, result.params, result.normals)
    if separated(e1, e2, result):
        return _report("separated", result.distance, result.params, result.normals)
    return penetration_depth(e1, e2, result.params, config)
