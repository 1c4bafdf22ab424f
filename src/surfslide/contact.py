"""Classification of near-contact and overlapping pairs, plus the
penetration-depth continuation.

When the sliding search drives the separation below the contact threshold
sigma, the configuration is either tangent (the two outward normals are
anti-aligned) or interpenetrating (each witness point sits inside the other
ellipsoid). For the overlap case a continuation pushes each witness along
the other body's negated normal. Once both witnesses lie inside the other
body beyond sigma, it stops on a stationary step or on ``solve``'s stop
metrics, and it reports the witness distance there; that stop need not be
a point where the segment runs along both normals. It has its own step, on
global frames, read for both witnesses by one float kernel
(``_depth_evaluate``) that rounds as the frame kernel and
``implicit_value`` do. It calls the step scaling (``step_increments``),
the alternating halving (``_halved``) and the stop metrics (``_metrics``,
two-step eps_d included) whose arithmetic ``solve``'s loop repeats inline;
like ``solve``, it keeps its state in plain float locals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import POLE_TOL, TWO_PI, Ellipsoid, SurfaceParam, _canonical, _frame_fast
from .geometry import implicit_value
from .slider import ZERO_PROJECTION_FACTOR, SolverConfig, SolverState, _halved, _metrics
from .slider import DistanceResult, Vec3, _support, step_increments
from .slider import advance_param  # unused; perfbench/tracer.py wraps it by this name

# tolerance on |n1 . n2 + 1| for calling a sub-sigma pair tangent
ALIGN_TOL = 1e-6


@dataclass(frozen=True)
class ContactReport:
    """kind is 'separated', 'in-contact', 'overlapping', or 'max-iter'
    when the depth continuation ran out of iterations, or reached a fixed
    point that it would have held until then.

    distance_or_depth is positive separation, ~0 at tangency, and the
    penetration magnitude (reported positive, flagged by kind) for overlap;
    for 'max-iter' it is the witness distance where the continuation ended.

    result is the sliding search's ``DistanceResult`` that the verdict came
    from; ``analyze`` sets it on every report, and ``penetration_depth``,
    called directly, leaves it None.
    """

    kind: str
    distance_or_depth: float
    witness_params: tuple[SurfaceParam, SurfaceParam]
    witness_normals: tuple[Vec3, Vec3]
    result: DistanceResult | None = None


def separated(e1: Ellipsoid, e2: Ellipsoid, result) -> bool:
    """True when a solve result describes a genuinely separated pair: its
    status is not 'contact' or 'overlap', and the support gap along the unit
    witness segment u, s(u) = (c2 - c1).u - |M1^T u| - |M2^T u|, a lower
    bound on the signed distance (weak duality), is positive, which proves
    the bodies disjoint. That rejects interpenetrating witnesses (s < 0
    there) and stops on the intersection curve alike. A zero-length segment
    proves nothing."""
    if result.status in ("contact", "overlap"):
        return False
    P1, P2 = result.closest_points
    dx, dy, dz = P2[0] - P1[0], P2[1] - P1[1], P2[2] - P1[2]
    n = math.hypot(dx, dy, dz)  # a sum of squares overflows on far pairs
    if not n > 0.0:
        return False
    ux, uy, uz = dx / n, dy / n, dz / n
    (x1, y1, z1), (x2, y2, z2) = e1.center, e2.center
    gap = (x2 - x1) * ux + (y2 - y1) * uy + (z2 - z1) * uz
    return gap - _support(e1, ux, uy, uz) - _support(e2, ux, uy, uz) > 0.0


def classify(
    state: SolverState,
    e1: Ellipsoid,
    e2: Ellipsoid,
    sigma: float,
) -> str:
    """Sort a sub-sigma (or converged) state into in-contact / overlapping /
    separated.

    Interpenetration is confirmed by the interior test of each witness in
    the other body, not by distance alone: a small separation also occurs
    at near-tangency. ``sigma`` is never read, because the hand-off has
    already compared the distance with it; the argument stays only for the
    four-argument call that ``perfbench/layers.py`` makes.
    """
    (P1, n1, *_), (P2, n2, *_) = state.frames
    dot = n1[0] * n2[0] + n1[1] * n2[1] + n1[2] * n2[2]
    if abs(dot + 1.0) < ALIGN_TOL:
        return "in-contact"
    if implicit_value(e2, P1) < 0.0 and implicit_value(e1, P2) < 0.0:
        return "overlapping"
    return "separated"


def _depth_evaluate(K1, K2, t1: float, h1: float, t2: float, h2: float, sigma: float):
    """One continuation step's reading of the witnesses (t1, h1) on the body
    with flat layout ``K1`` and (t2, h2) on ``K2``: their distance; whether
    the step pushes (the witnesses within ``sigma``, or one inside the
    other body); each goal's components along its witness's unit theta
    tangent (0 where there is none) and phi tangent; and, when both
    witnesses lie inside the other body beyond ``sigma``, the segment's
    components against n1 and along n2 (else None, None). Every vector
    rounds as in ``_frame_fast``, and the interior tests as in
    ``implicit_value``."""
    a1, b1, c1, p00, p01, p02, p10, p11, p12, p20, p21, p22, px1, py1, pz1 = K1
    a2, b2, c2, q00, q01, q02, q10, q11, q12, q20, q21, q22, qx2, qy2, qz2 = K2
    # witness 1: position, unit normal, unit theta tangent (its zero z kept
    # in the rotation) and unit phi tangent, rotated into the global frame
    sp, cp, st, ct = math.sin(h1), math.cos(h1), math.sin(t1), math.cos(t1)
    x, y, z = a1 * sp * ct, b1 * sp * st, c1 * cp
    X1 = (p00 * x + p01 * y + p02 * z) + px1
    Y1 = (p10 * x + p11 * y + p12 * z) + py1
    Z1 = (p20 * x + p21 * y + p22 * z) + pz1
    x, y, z = b1 * c1 * sp * ct, a1 * c1 * sp * st, a1 * b1 * cp
    s = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / s, y / s, z / s
    n1x, n1y, n1z = (p00 * x + p01 * y + p02 * z, p10 * x + p11 * y + p12 * z,
                     p20 * x + p21 * y + p22 * z)
    x, y = -a1 * sp * st, b1 * sp * ct
    s = math.sqrt(x * x + y * y)
    pole1 = s < POLE_TOL * (a1 if a1 > b1 else b1)
    if not pole1:
        x, y = x / s, y / s
        u1x, u1y, u1z = (p00 * x + p01 * y + p02 * 0.0, p10 * x + p11 * y + p12 * 0.0,
                         p20 * x + p21 * y + p22 * 0.0)
    x, y, z = a1 * cp * ct, b1 * cp * st, -c1 * sp
    s = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / s, y / s, z / s
    v1x, v1y, v1z = (p00 * x + p01 * y + p02 * z, p10 * x + p11 * y + p12 * z,
                     p20 * x + p21 * y + p22 * z)
    # witness 2, the same way
    sp, cp, st, ct = math.sin(h2), math.cos(h2), math.sin(t2), math.cos(t2)
    x, y, z = a2 * sp * ct, b2 * sp * st, c2 * cp
    X2 = (q00 * x + q01 * y + q02 * z) + qx2
    Y2 = (q10 * x + q11 * y + q12 * z) + qy2
    Z2 = (q20 * x + q21 * y + q22 * z) + qz2
    x, y, z = b2 * c2 * sp * ct, a2 * c2 * sp * st, a2 * b2 * cp
    s = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / s, y / s, z / s
    n2x, n2y, n2z = (q00 * x + q01 * y + q02 * z, q10 * x + q11 * y + q12 * z,
                     q20 * x + q21 * y + q22 * z)
    x, y = -a2 * sp * st, b2 * sp * ct
    s = math.sqrt(x * x + y * y)
    pole2 = s < POLE_TOL * (a2 if a2 > b2 else b2)
    if not pole2:
        x, y = x / s, y / s
        u2x, u2y, u2z = (q00 * x + q01 * y + q02 * 0.0, q10 * x + q11 * y + q12 * 0.0,
                         q20 * x + q21 * y + q22 * 0.0)
    x, y, z = a2 * cp * ct, b2 * cp * st, -c2 * sp
    s = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / s, y / s, z / s
    v2x, v2y, v2z = (q00 * x + q01 * y + q02 * z, q10 * x + q11 * y + q12 * z,
                     q20 * x + q21 * y + q22 * z)
    # each witness in the other body's frame, over its semi-axes
    x, y, z = X1 - qx2, Y1 - qy2, Z1 - qz2
    x, y, z = ((q00 * x + q10 * y + q20 * z) / a2, (q01 * x + q11 * y + q21 * z) / b2,
               (q02 * x + q12 * y + q22 * z) / c2)
    inside1 = x * x + y * y + z * z - 1.0 < 0.0
    x, y, z = X2 - px1, Y2 - py1, Z2 - pz1
    x, y, z = ((p00 * x + p10 * y + p20 * z) / a1, (p01 * x + p11 * y + p21 * z) / b1,
               (p02 * x + p12 * y + p22 * z) / c1)
    inside2 = x * x + y * y + z * z - 1.0 < 0.0

    dx, dy, dz = X2 - X1, Y2 - Y1, Z2 - Z1
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    push = dist < sigma or inside1 or inside2
    if push:  # -n2 pushes the point on e1, -n1 the point on e2
        g1x, g1y, g1z = -n2x, -n2y, -n2z
        g2x, g2y, g2z = -n1x, -n1y, -n1z
    else:
        g1x, g1y, g1z = dx, dy, dz
        g2x, g2y, g2z = -dx, -dy, -dz
    if inside1 and inside2 and dist > sigma:
        dn1, dn2 = -(dx * n1x + dy * n1y + dz * n1z), dx * n2x + dy * n2y + dz * n2z
    else:
        dn1 = dn2 = None
    return (
        dist, push,
        0.0 if pole1 else g1x * u1x + g1y * u1y + g1z * u1z, g1x * v1x + g1y * v1y + g1z * v1z,
        0.0 if pole2 else g2x * u2x + g2y * u2y + g2z * u2z, g2x * v2x + g2y * v2y + g2z * v2z,
        dn1, dn2,
    )


def penetration_depth(
    e1: Ellipsoid,
    e2: Ellipsoid,
    entry_params: tuple[SurfaceParam, SurfaceParam],
    config: SolverConfig = SolverConfig(),
) -> ContactReport:
    """Continue an overlapping search from the witness params
    ``entry_params`` and report the distance between its last witnesses as
    the depth.

    While the witness points interpenetrate (or sit within sigma), each is
    pushed along the negated normal of the other body, re-read every step;
    once both points pop outside beyond sigma, the regular tension pull
    resumes. Once both points lie inside the other body, beyond sigma, the
    search stops on a stationary step or on ``solve``'s metrics
    (``_metrics``): eps_d, eps_n (the segment against n1 and along n2), or
    eps_lambda. The depth is the witness distance at that stop. The segment
    need not leave each witness against its own normal there, nor need the
    two normals be anti-parallel. Before that stop applies, a step that
    leaves both witnesses in place would repeat until ``max_iter``
    (the same reading, no halving), so the loop ends there as 'max-iter'.

    The loop keeps (theta, phi), the distances and the lambdas in plain
    float locals, as ``solve`` does: each step reads both witnesses from
    one kernel, ``_depth_evaluate``, and advances (theta, phi) with
    ``_canonical``'s fast path inline. ``SurfaceParam``s and the normals
    (from ``_frame_fast``) are built only for the report.
    """
    sigma = config.resolve_sigma(e1, e2)
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    p1, p2 = entry_params
    t1, h1, t2, h2 = p1.theta, p1.phi, p2.theta, p2.phi
    lam1 = lam2 = config.lambda0
    toggle = 0
    d_1 = d_2 = math.nan  # the distances one and two steps back; ``x == x`` tests for NaN
    prev_push = False
    K1, K2 = e1._flat, e2._flat
    kind = "max-iter"

    for k in range(config.max_iter + 1):
        dist, push, th1, ph1, th2, ph2, dn1, dn2 = _depth_evaluate(
            K1, K2, t1, h1, t2, h2, sigma
        )
        if k == config.max_iter:
            break

        # overshoot = motion against the current goal; skip across mode flips
        if push == prev_push and d_1 == d_1:
            wrong_way = dist < d_1 if push else dist > d_1
            if wrong_way:
                lam1, lam2, toggle = _halved(lam1, lam2, toggle)

        # the push goal is a unit normal, the pull goal the segment
        guard = ZERO_PROJECTION_FACTOR * (1.0 if push else dist)
        dth1, dph1 = step_increments(th1, ph1, lam1, guard)
        dth2, dph2 = step_increments(th2, ph2, lam2, guard)

        if dn1 is not None:
            # both witnesses inside beyond sigma; eps_n reads the segment
            # against n1 and along n2
            eps_d, eps_n, eps_lambda = _metrics(dist, d_1, d_2, dn1, dn2, lam1, lam2)
            if (
                (dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0)
                or (eps_d is not None and eps_d < tol_d)
                or eps_n < tol_n
                or eps_lambda < tol_lambda
            ):
                kind = "overlapping"
                break

        start = (t1, h1, t2, h2)
        t1, h1, t2, h2 = t1 + dth1, h1 + dph1, t2 + dth2, h2 + dph2
        if not (0.0 <= t1 < TWO_PI and 0.0 <= h1 <= math.pi):
            t1, h1 = _canonical(t1, h1)
        if not (0.0 <= t2 < TWO_PI and 0.0 <= h2 <= math.pi):
            t2, h2 = _canonical(t2, h2)
        if dn1 is None and (t1, h1, t2, h2) == start:
            break  # a fixed point with no stop test in force
        d_2, d_1, prev_push = d_1, dist, push

    params = (SurfaceParam(t1, h1), SurfaceParam(t2, h2))
    normals = (_frame_fast(K1, t1, h1)[1], _frame_fast(K2, t2, h2)[1])
    return ContactReport(kind, dist, params, normals)


def analyze(
    e1: Ellipsoid,
    e2: Ellipsoid,
    config: SolverConfig = SolverConfig(),
    init: tuple[SurfaceParam, SurfaceParam] | None = None,
) -> ContactReport:
    """Full pipeline: run the sliding search, which decides contact, and
    continue to the penetration depth when the pair is not separated. The
    report carries the search's result, trace included when ``config``
    records one."""
    from .slider import solve

    result = solve(e1, e2, init, config)
    if result.status == "contact":
        return ContactReport("in-contact", result.distance, result.params, result.normals, result)
    if separated(e1, e2, result):
        return ContactReport("separated", result.distance, result.params, result.normals, result)
    return replace(penetration_depth(e1, e2, result.params, config), result=result)
