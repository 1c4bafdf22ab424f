"""Classification of near-contact and overlapping pairs, plus the
penetration-depth continuation.

When the sliding search drives the separation below the contact threshold
sigma, the configuration is either tangent (the two outward normals are
anti-aligned) or interpenetrating (each witness point sits inside the other
ellipsoid). For the overlap case a continuation pushes each witness along
the other body's negated normal. Once both witnesses lie inside the other
body beyond sigma, it stops on a stationary step or on ``solve``'s stop
metrics, and it reports the witness distance there; that stop need not be
a point where the segment runs along both normals. Its step, on global
frames and plain float locals, is written out inside its loop, as
``solve``'s round is, with the arithmetic of ``step_increments``,
``_halved`` and ``_metrics`` (two-step eps_d included) in their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import POLE_TOL, TWO_PI, Ellipsoid, SurfaceParam, _canonical
from .geometry import implicit_value
from .slider import ZERO_PROJECTION_FACTOR, SolverConfig, SolverState
from .slider import DistanceResult, Vec3, _segment_gap
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
    the bodies disjoint (``slider._segment_gap``, which the warm start's
    projection round tests too). That rejects interpenetrating witnesses
    (s < 0 there) and stops on the intersection curve alike. A zero-length
    segment proves nothing."""
    if result.status in ("contact", "overlap"):
        return False
    return _segment_gap(e1, e2, *result.closest_points) > 0.0


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


def penetration_depth(
    e1: Ellipsoid,
    e2: Ellipsoid,
    entry_params: tuple[SurfaceParam, SurfaceParam],
    config: SolverConfig = SolverConfig(),
) -> ContactReport:
    """Continue an overlapping search from the witness params
    ``entry_params`` and report the distance between its last witnesses as
    the depth. ``analyze`` passes ``solve``'s last params: the ray exits
    between the centers when the cold start's chord test certified the
    overlap, else the witnesses where the slide stopped.

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
    (the same reading, no halving), so the loop reads the moved witnesses
    once more and ends there as 'max-iter'.

    Each pass reads both witnesses, rounding as ``_frame_fast`` and
    ``implicit_value`` do, and steps as ``step_increments``, ``_halved``,
    ``_metrics`` and ``_canonical``'s fast path do, on plain float locals.
    The report is built from the last reading.
    """
    sigma = config.resolve_sigma(e1, e2)
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    p1, p2 = entry_params
    t1, h1, t2, h2 = p1.theta, p1.phi, p2.theta, p2.phi
    lam1 = lam2 = config.lambda0
    toggle, prev_push = 0, False
    d_1 = d_2 = math.nan  # the distances one and two steps back; ``x == x`` tests for NaN
    a1, b1, c1, p00, p01, p02, p10, p11, p12, p20, p21, p22, px1, py1, pz1 = e1._flat
    a2, b2, c2, q00, q01, q02, q10, q11, q12, q20, q21, q22, qx2, qy2, qz2 = e2._flat
    # Python multiplies left to right, so b1 * c1 * sp * ct is
    # (b1 * c1) * sp * ct and each body's products can be taken once
    bc1, ac1, ab1, na1, nc1 = b1 * c1, a1 * c1, a1 * b1, -a1, -c1
    bc2, ac2, ab2, na2, nc2 = b2 * c2, a2 * c2, a2 * b2, -a2, -c2
    pole_tol1, pole_tol2 = POLE_TOL * (a1 if a1 > b1 else b1), POLE_TOL * (a2 if a2 > b2 else b2)
    last, kind = config.max_iter, "max-iter"

    for k in range(last + 1):
        # each witness's position and unit normal, rotated into the global frame
        sp1, cp1, st1, ct1 = math.sin(h1), math.cos(h1), math.sin(t1), math.cos(t1)
        x, y, z = a1 * sp1 * ct1, b1 * sp1 * st1, c1 * cp1
        X1 = (p00 * x + p01 * y + p02 * z) + px1
        Y1 = (p10 * x + p11 * y + p12 * z) + py1
        Z1 = (p20 * x + p21 * y + p22 * z) + pz1
        x, y, z = bc1 * sp1 * ct1, ac1 * sp1 * st1, ab1 * cp1
        s = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / s, y / s, z / s
        n1x, n1y, n1z = (p00 * x + p01 * y + p02 * z, p10 * x + p11 * y + p12 * z,
                         p20 * x + p21 * y + p22 * z)
        sp2, cp2, st2, ct2 = math.sin(h2), math.cos(h2), math.sin(t2), math.cos(t2)
        x, y, z = a2 * sp2 * ct2, b2 * sp2 * st2, c2 * cp2
        X2 = (q00 * x + q01 * y + q02 * z) + qx2
        Y2 = (q10 * x + q11 * y + q12 * z) + qy2
        Z2 = (q20 * x + q21 * y + q22 * z) + qz2
        x, y, z = bc2 * sp2 * ct2, ac2 * sp2 * st2, ab2 * cp2
        s = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / s, y / s, z / s
        n2x, n2y, n2z = (q00 * x + q01 * y + q02 * z, q10 * x + q11 * y + q12 * z,
                         q20 * x + q21 * y + q22 * z)
        dx, dy, dz = X2 - X1, Y2 - Y1, Z2 - Z1
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if k == last:
            break

        # each witness in the other body's frame, over its semi-axes
        x, y, z = X1 - qx2, Y1 - qy2, Z1 - qz2
        x, y, z = ((q00 * x + q10 * y + q20 * z) / a2, (q01 * x + q11 * y + q21 * z) / b2,
                   (q02 * x + q12 * y + q22 * z) / c2)
        inside1 = x * x + y * y + z * z - 1.0 < 0.0
        x, y, z = X2 - px1, Y2 - py1, Z2 - pz1
        x, y, z = ((p00 * x + p10 * y + p20 * z) / a1, (p01 * x + p11 * y + p21 * z) / b1,
                   (p02 * x + p12 * y + p22 * z) / c1)
        inside2 = x * x + y * y + z * z - 1.0 < 0.0
        push = dist < sigma or inside1 or inside2
        if push:  # -n2 pushes the point on e1, -n1 the point on e2
            g1x, g1y, g1z = -n2x, -n2y, -n2z
            g2x, g2y, g2z = -n1x, -n1y, -n1z
        else:
            g1x, g1y, g1z = dx, dy, dz
            g2x, g2y, g2z = -dx, -dy, -dz

        # each goal along its witness's unit theta tangent (0 at a pole; its
        # zero z kept in the rotation) and unit phi tangent
        x, y = na1 * sp1 * st1, b1 * sp1 * ct1
        s = math.sqrt(x * x + y * y)
        if s < pole_tol1:
            th1 = 0.0
        else:
            x, y = x / s, y / s
            th1 = (g1x * (p00 * x + p01 * y + p02 * 0.0) + g1y * (p10 * x + p11 * y + p12 * 0.0)
                   + g1z * (p20 * x + p21 * y + p22 * 0.0))
        x, y, z = a1 * cp1 * ct1, b1 * cp1 * st1, nc1 * sp1
        s = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / s, y / s, z / s
        ph1 = (g1x * (p00 * x + p01 * y + p02 * z) + g1y * (p10 * x + p11 * y + p12 * z)
               + g1z * (p20 * x + p21 * y + p22 * z))
        x, y = na2 * sp2 * st2, b2 * sp2 * ct2
        s = math.sqrt(x * x + y * y)
        if s < pole_tol2:
            th2 = 0.0
        else:
            x, y = x / s, y / s
            th2 = (g2x * (q00 * x + q01 * y + q02 * 0.0) + g2y * (q10 * x + q11 * y + q12 * 0.0)
                   + g2z * (q20 * x + q21 * y + q22 * 0.0))
        x, y, z = a2 * cp2 * ct2, b2 * cp2 * st2, nc2 * sp2
        s = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / s, y / s, z / s
        ph2 = (g2x * (q00 * x + q01 * y + q02 * z) + g2y * (q10 * x + q11 * y + q12 * z)
               + g2z * (q20 * x + q21 * y + q22 * z))

        # overshoot = motion against the current goal; skip across mode flips
        if push == prev_push and d_1 == d_1 and (dist < d_1 if push else dist > d_1):
            if toggle == 0:  # _halved
                lam1, toggle = lam1 * 0.5, 1
            else:
                lam2, toggle = lam2 * 0.5, 0

        # step_increments: the push goal is a unit normal, the pull goal the segment
        guard = ZERO_PROJECTION_FACTOR * (1.0 if push else dist)
        mag = math.hypot(th1, ph1)
        if mag <= guard or mag == 0.0:
            dth1 = dph1 = 0.0
        else:
            dth1, dph1 = th1 / mag * lam1, ph1 / mag * lam1
        mag = math.hypot(th2, ph2)
        if mag <= guard or mag == 0.0:
            dth2 = dph2 = 0.0
        else:
            dth2, dph2 = th2 / mag * lam2, ph2 / mag * lam2

        stop_test = inside1 and inside2 and dist > sigma
        if stop_test:
            # the stop metrics, as _metrics computes them; dist > sigma >= 0
            # leaves no coincident witnesses. eps_d is NaN, which compares
            # false, while d_1 does not exist yet, and so is the older change
            # while d_2 does not; eps_n reads the segment against n1 and along n2
            change, older = abs(dist - d_1), abs(d_1 - d_2)
            eps_d = (older if older > change else change) / dist
            dn1, dn2 = -(dx * n1x + dy * n1y + dz * n1z), dx * n2x + dy * n2y + dz * n2z
            m1, m2 = 1.0 - dn1 / dist, 1.0 - dn2 / dist
            if (
                (dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0)
                or eps_d < tol_d
                or (m2 if m2 > m1 else m1) < tol_n
                or (lam2 if lam2 > lam1 else lam1) < tol_lambda
            ):
                kind = "overlapping"
                break

        u1, v1, u2, v2 = t1 + dth1, h1 + dph1, t2 + dth2, h2 + dph2
        if not (0.0 <= u1 < TWO_PI and 0.0 <= v1 <= math.pi):
            u1, v1 = _canonical(u1, v1)
        if not (0.0 <= u2 < TWO_PI and 0.0 <= v2 <= math.pi):
            u2, v2 = _canonical(u2, v2)
        if not stop_test and u1 == t1 and v1 == h1 and u2 == t2 and v2 == h2:
            # a fixed point with no stop test in force; the next pass reads
            # the moved witnesses (only a zero's sign may differ) and ends
            last = k + 1
        t1, h1, t2, h2 = u1, v1, u2, v2
        d_2, d_1, prev_push = d_1, dist, push

    params = (SurfaceParam(t1, h1), SurfaceParam(t2, h2))
    return ContactReport(kind, dist, params, ((n1x, n1y, n1z), (n2x, n2y, n2z)))


def analyze(
    e1: Ellipsoid,
    e2: Ellipsoid,
    config: SolverConfig = SolverConfig(),
    init: tuple[SurfaceParam, SurfaceParam] | None = None,
) -> ContactReport:
    """Full pipeline: run the sliding search, which decides contact, and
    continue to the penetration depth when the pair is not separated. A
    cold pair whose center line runs inside both bodies for longer than
    sigma (``slider._start``'s chord test) is ``overlap`` at k = 0, so its
    continuation starts from the ray exits with no slide. The report
    carries the search's result, trace included when ``config`` records
    one."""
    from .slider import solve

    result = solve(e1, e2, init, config)
    if result.status == "contact":
        return ContactReport("in-contact", result.distance, result.params, result.normals, result)
    if separated(e1, e2, result):
        return ContactReport("separated", result.distance, result.params, result.normals, result)
    return replace(penetration_depth(e1, e2, result.params, config), result=result)
