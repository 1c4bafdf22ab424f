"""Classification of near-contact and overlapping pairs, plus the
penetration-depth continuation.

When the sliding search drives the separation below the contact threshold
sigma, the configuration is either tangent (the two outward normals are
anti-aligned) or interpenetrating (each witness point sits inside the other
ellipsoid). For the overlap case the same stepping machinery is reused with
the pull replaced by a push along the other body's negated normal, which
drives the pair to the maximum-overlap points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ellipsoid, SurfaceParam, implicit_value
from .slider import (
    ZERO_PROJECTION_FACTOR,
    SolverConfig,
    SolverState,
    _evaluate,
    _halved,
    _project,
    advance_param,
    step_increments,
)

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
    """
    sigma = config.resolve_sigma(e1, e2)
    p1, p2 = entry_params
    f1, f2, d12, dist = _evaluate(e1, e2, p1.theta, p1.phi, p2.theta, p2.phi)
    lam1 = lam2 = config.lambda0
    toggle = 0
    prev_dist = math.nan
    prev_push = None

    for _ in range(config.max_iter):
        P1, P2 = f1[0], f2[0]
        inside1 = implicit_value(e2, P1) < 0.0
        inside2 = implicit_value(e1, P2) < 0.0
        push = dist < sigma or inside1 or inside2

        # overshoot = motion against the current goal; skip across mode flips
        if prev_push is not None and push == prev_push and not math.isnan(prev_dist):
            wrong_way = dist < prev_dist if push else dist > prev_dist
            if wrong_way:
                lam1, lam2, toggle = _halved(lam1, lam2, toggle)

        guard = ZERO_PROJECTION_FACTOR * max(dist, sigma)
        if push:
            g1 = (-f2[1][0], -f2[1][1], -f2[1][2])  # -n2 pushes the point on e1
            g2 = (-f1[1][0], -f1[1][1], -f1[1][2])
        else:
            g1 = d12
            g2 = (-d12[0], -d12[1], -d12[2])
        th1, ph1 = _project(f1, g1)
        th2, ph2 = _project(f2, g2)
        dth1, dph1 = step_increments(th1, ph1, lam1, guard)
        dth2, dph2 = step_increments(th2, ph2, lam2, guard)

        stationary = dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0
        eps_d = None if math.isnan(prev_dist) else abs((dist - prev_dist) / dist) if dist > 0 else None
        if push and dist > 0.0:
            # at maximum overlap the segment runs against n1 and along n2
            dot1 = (d12[0] * f1[1][0] + d12[1] * f1[1][1] + d12[2] * f1[1][2]) / dist
            dot2 = (d12[0] * f2[1][0] + d12[1] * f2[1][1] + d12[2] * f2[1][2]) / dist
            eps_align = max(1.0 + dot1, 1.0 - dot2)
            done = (
                stationary
                or eps_align < config.tol_n
                or (eps_d is not None and eps_d < config.tol_d)
                or max(lam1, lam2) < config.tol_lambda
            )
            if done and inside1 and inside2 and dist > sigma:
                return _report("overlapping", dist, (p1, p2), (f1[1], f2[1]))

        q1 = advance_param(p1, dth1, dph1)
        q2 = advance_param(p2, dth2, dph2)
        nf1, nf2, nd12, ndist = _evaluate(e1, e2, q1.theta, q1.phi, q2.theta, q2.phi)
        prev_dist, prev_push = dist, push
        p1, p2, f1, f2, d12, dist = q1, q2, nf1, nf2, nd12, ndist

    return _report("max-iter", dist, (p1, p2), (f1[1], f2[1]))


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
