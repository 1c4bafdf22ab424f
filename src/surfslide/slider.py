"""The surface-sliding iteration.

Two points, one per ellipsoid, slide in their (theta, phi) parameter spaces
under the pull of the segment connecting them. Both points step
simultaneously from the iteration-k positions; an increase in separation is
treated as overshoot and triggers alternating halving of the two angle
increment steps. A round is one call of ``_evaluate``: it rotates each new
point into the global frame and the segment between them back into each
body, where its tangential parts give the next step and its normal part
eps_n.

A witness that comes near a pole of its parametrization carries on in
another chart of the same body (its semi-axes cyclically shifted), whose
poles lie on a different body axis; results are reported in the canonical
chart.

Pass k = 0 starts cold from the center line (``_start``) or warm from
given witnesses (``_begin``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geometry import (
    POLE_TOL,
    TWO_PI,
    Ellipsoid,
    NoIntersectionError,
    SurfaceFrame,
    SurfaceParam,
    Vec3,
    _canonical,
    _frame_fast,
    _reach,
    _support_gap,
    _unit_param,
)
from .geometry import line_surface_entry  # unused; perfbench/tracer.py wraps it by this name

# Eq-style step normalization is singular exactly at the solution; treat the
# projection pair as zero below this fraction of the goal's length (the
# current separation, or 1 for the depth continuation's unit push).
ZERO_PROJECTION_FACTOR = 1e-15

# A witness within this angle (radians) of a pole of its chart, where a theta
# step of length lambda moves the point only about sin(phi) as far, moves on
# to the chart whose poles are farthest from it.
CHART_POLE_MARGIN = 0.1

# A warm start whose worse normal/segment misalignment is eps_n lies about
# sqrt(2 eps_n) radians from aligned; its first steps take this fraction of
# that angle when it is below lambda0.
WARM_STEP_SCALE = 0.5

# Smallest step: a revert retry halves no further, and a run whose steps have
# all shrunk below it ends with status ``lambda-floor``.
LAMBDA_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the sliding search.

    ``overshoot_mode`` is ``accept-and-continue`` (keep the overshooting
    step; matches the observed oscillate-then-settle behavior) or
    ``revert-and-retry`` (monotone distance sequence).
    """

    lambda0: float = 0.05
    max_iter: int = 10_000
    tol_d: float = 1e-12
    tol_n: float = 1e-10
    tol_lambda: float = 1e-8
    overshoot_mode: str = "accept-and-continue"
    record_trace: bool = False

    def __post_init__(self):
        reals = (self.lambda0, self.tol_d, self.tol_n, self.tol_lambda)
        if any(isinstance(v, (bool, np.bool_)) for v in (*reals, self.max_iter)):
            raise ValueError("lambda0, max_iter and the tolerances must be numbers, not booleans")
        if not all(map(math.isfinite, reals)):
            raise ValueError("lambda0 and the tolerances must be finite")
        lambda0, tol_d, tol_n, tol_lambda = map(float, reals)
        if not LAMBDA_FLOOR < lambda0 <= math.pi:
            # pi is the whole phi range; a longer step only gets halved
            raise ValueError(f"lambda0 must exceed {LAMBDA_FLOOR:g} and be at most pi")
        if min(tol_d, tol_n, tol_lambda) <= 0.0:
            raise ValueError("tolerances must be positive")
        try:
            max_iter = operator.index(self.max_iter)  # an exact int
        except TypeError:
            raise ValueError(f"max_iter must be an integer, not {self.max_iter!r}") from None
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.overshoot_mode not in ("accept-and-continue", "revert-and-retry"):
            raise ValueError(f"unknown overshoot_mode {self.overshoot_mode!r}")
        # plain numbers: numpy scalars would leak into every result and
        # slow the loop; frozen, so straight into the instance dict
        self.__dict__.update(lambda0=lambda0, max_iter=max_iter, tol_d=tol_d,
                             tol_n=tol_n, tol_lambda=tol_lambda)

    def resolve_sigma(self, e1: Ellipsoid, e2: Ellipsoid) -> float:
        """Contact threshold: 1e-6 times the mean semi-axis of the pair."""
        return 1e-6 * (sum(e1.semi_axes) + sum(e2.semi_axes)) / 6.0


@dataclass(frozen=True)
class SolverState:
    """Snapshot of the iteration after step ``k``.

    ``params`` are (theta, phi) in ``charts``. ``pulls`` holds each
    witness's (d_theta, d_phi, d_n), its tension projected onto its unit
    tangents and normal by ``_evaluate``: the next step reads the first
    two, eps_n the third. The global ``frames`` are computed on each
    read."""

    k: int
    params: tuple[SurfaceParam, SurfaceParam]
    distance: float
    lambdas: tuple[float, float]
    prev_distance: float  # nan before the first iteration
    halve_toggle: int  # index of the lambda halved on the next overshoot
    charts: tuple
    pulls: tuple
    overshoot: bool = False

    @property
    def frames(self) -> tuple[SurfaceFrame, SurfaceFrame]:
        """Both witnesses' ``SurfaceFrame``s at ``params`` in ``charts``."""
        return tuple(SurfaceFrame(*_frame_fast(c.flat, p.theta, p.phi))
                     for c, p in zip(self.charts, self.params))


class StepRecord(NamedTuple):
    """One trace row: the state after step ``k``, in the canonical chart.
    A plain tuple with named fields, in the trace CSV's column order."""

    k: int
    theta1: float
    phi1: float
    theta2: float
    phi2: float
    distance: float
    lambda1: float
    lambda2: float
    eps_d: float
    eps_n: float
    overshoot_flag: bool


@dataclass(frozen=True, init=False)
class DistanceResult:
    status: str
    distance: float
    params: tuple[SurfaceParam, SurfaceParam]
    closest_points: tuple[Vec3, Vec3]
    normals: tuple[Vec3, Vec3]
    iterations: int
    final_eps: tuple[float | None, float, float]
    trace: list[StepRecord] | None = None
    stop_criteria: tuple[str, ...] = ()

    def __init__(self, status, distance, params, closest_points, normals, iterations,
                 final_eps, trace=None, stop_criteria=()):
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(
            status=status, distance=distance, params=params, closest_points=closest_points,
            normals=normals, iterations=iterations, final_eps=final_eps, trace=trace,
            stop_criteria=stop_criteria,
        )


# ---------------------------------------------------------------------------
# elementary operations

def step_increments(
    delta_theta: float, delta_phi: float, lambda_i: float, guard: float = 0.0
) -> tuple[float, float]:
    """Scale the projection pair to Euclidean norm ``lambda_i``; (0, 0) when
    both projections vanish (below ``guard``)."""
    mag = math.hypot(delta_theta, delta_phi)
    if mag <= guard or mag == 0.0:
        return 0.0, 0.0
    return delta_theta / mag * lambda_i, delta_phi / mag * lambda_i


def advance_param(p: SurfaceParam, d_theta: float, d_phi: float) -> SurfaceParam:
    """Raw additive update followed by canonicalization (theta wrap, phi
    reflection through the poles)."""
    return SurfaceParam.canonical(p.theta + d_theta, p.phi + d_phi)


def _metrics(dist, d_1, d_2, dn1, dn2, lam1, lam2):
    """(eps_d, eps_n, eps_lambda) of witnesses at distance ``dist`` apart,
    whose tensions (the segment toward the other witness) have components
    ``dn1`` and ``dn2`` along their outward normals. ``d_1`` is the
    distance one step back and ``d_2`` the one before it, each NaN while it
    does not exist yet. Coincident witnesses (``dist`` zero) give no
    direction to compare: their eps_d and eps_n are NaN."""
    # ``x != x`` tests for NaN, and ``b if b > a else a`` is max(a, b),
    # NaNs included, without the calls
    eps_lambda = lam2 if lam2 > lam1 else lam1
    if dist == 0.0:
        return (None if d_1 != d_1 else math.nan), math.nan, eps_lambda
    eps_d = None
    if d_1 == d_1:
        change = abs(dist - d_1)
        if d_2 == d_2:
            older = abs(d_1 - d_2)
            if older > change:
                change = older
        eps_d = change / dist
    e1, e2 = 1.0 - dn1 / dist, 1.0 - dn2 / dist
    return eps_d, (e2 if e2 > e1 else e1), eps_lambda


def convergence_metrics(
    state: SolverState, prev_state: SolverState | None = None
) -> tuple[float | None, float, float]:
    """(eps_d, eps_n, eps_lambda) at ``state``.

    eps_d is the relative distance change: None before any previous distance
    exists, and given ``prev_state`` the larger of the last two one-step
    changes, so two values of an oscillation that happen to agree do not
    read as a distance that has stopped changing. eps_n is the worse of the
    two normal/segment misalignments; eps_lambda the larger step. Both are
    NaN when the witnesses coincide.
    """
    if prev_state is None:
        d_1, d_2 = state.prev_distance, math.nan
    else:
        d_1, d_2 = prev_state.distance, prev_state.prev_distance
    w1, w2 = state.pulls
    lam1, lam2 = state.lambdas
    return _metrics(state.distance, d_1, d_2, w1[2], w2[2], lam1, lam2)


def _warm_step(lambda0: float, dist: float, dn1: float, dn2: float) -> tuple[float, float]:
    """Both lambdas of a warm start at k = 0, and its eps_n, for witnesses
    ``dist`` apart whose pulls have normal parts ``dn1`` and ``dn2``:
    min(lambda0, WARM_STEP_SCALE * sqrt(2 eps_n)). Coincident witnesses
    (eps_n NaN) and aligned ones keep ``lambda0``. A positive eps_n is at
    least 2**-53, so the step is at least 7.4e-9, above LAMBDA_FLOOR."""
    eps_n = _metrics(dist, math.nan, math.nan, dn1, dn2, lambda0, lambda0)[1]
    if eps_n > 0.0:
        return min(lambda0, WARM_STEP_SCALE * math.sqrt(2.0 * eps_n)), eps_n
    return lambda0, eps_n


def _halved(lam1: float, lam2: float, toggle: int) -> tuple[float, float, int]:
    """Alternating step halving: halve the lambda the toggle selects and
    flip the toggle."""
    if toggle == 0:
        return lam1 * 0.5, lam2, 1
    return lam1, lam2 * 0.5, 0


def apply_overshoot_schedule(state: SolverState, config: SolverConfig) -> SolverState:
    """Alternating step halving: when the distance grew this round, halve
    the lambda selected by the toggle and flip the toggle. A NaN
    ``prev_distance`` (k = 0) compares false and halves nothing.
    ``iterate_once`` already halves on an overshoot, so applying this to
    its result halves a second time."""
    if not state.distance > state.prev_distance:
        return state
    lam1, lam2 = state.lambdas
    lam1, lam2, toggle = _halved(lam1, lam2, state.halve_toggle)
    return replace(state, lambdas=(lam1, lam2), halve_toggle=toggle, overshoot=True)


# ---------------------------------------------------------------------------
# charts

class _Chart(NamedTuple):
    """A body re-expressed with its semi-axes cyclically shifted by
    ``shift`` and its rotation's columns shifted to match: the same surface,
    with the parametrization poles on body axis z (shift 0), x (1) or y (2).

    ``flat`` has the 15-float layout of ``Ellipsoid._flat`` (semi-axes,
    rotation rows, center), which ``_evaluate`` and the frame kernel
    unpack; the shift-0 chart's is the body's own."""

    flat: tuple
    shift: int


def _chart(e: Ellipsoid, shift: int) -> _Chart:
    if shift == 0:
        return _Chart(e._flat, 0)
    f, i, j, k = e._flat, shift, (shift + 1) % 3, (shift + 2) % 3
    flat = (f[i], f[j], f[k], f[3 + i], f[3 + j], f[3 + k],
            f[6 + i], f[6 + j], f[6 + k], f[9 + i], f[9 + j], f[9 + k])
    return _Chart(flat + f[12:], shift)


def _unit_point(theta: float, phi: float, shift: int) -> list[float]:
    """Body-axis unit coordinates (x/a, y/b, z/c) of a point given by its
    parameters in the chart with ``shift``."""
    sp = math.sin(phi)
    w = (sp * math.cos(theta), sp * math.sin(theta), math.cos(phi))
    return [w[(i - shift) % 3] for i in range(3)]


def _param_in_chart(u, shift: int) -> tuple[float, float]:
    """Canonical (theta, phi), in the chart with ``shift``, of the point
    with body-axis unit coordinates ``u``."""
    return _unit_param(*(u[(shift + j) % 3] for j in range(3)))


def _near_pole(phi: float) -> bool:
    return phi < CHART_POLE_MARGIN or phi > math.pi - CHART_POLE_MARGIN


def _recharted(charts, bodies, params):
    """Move every witness (theta, phi) in ``params`` that sits near a pole
    of its chart to the chart whose poles are farthest from it."""
    charts, params = list(charts), list(params)
    for i in (0, 1):
        theta, phi = params[i]
        if _near_pole(phi):
            u = _unit_point(theta, phi, charts[i].shift)
            axis = min(range(3), key=lambda j: abs(u[j]))
            charts[i] = _chart(bodies[i], (axis + 1) % 3)
            params[i] = _param_in_chart(u, charts[i].shift)
    return tuple(charts), params


def _canonical_param(theta: float, phi: float, chart: _Chart) -> tuple[float, float]:
    """(theta, phi) of a point of ``chart`` in the canonical chart."""
    if chart.shift == 0:
        return theta, phi
    return _param_in_chart(_unit_point(theta, phi, chart.shift), 0)


# ---------------------------------------------------------------------------
# iteration engine

def _evaluate(K1, K2, t1: float, h1: float, t2: float, h2: float, bound: float = math.inf):
    """The length of the segment from the point (t1, h1) of chart K1 to
    (t2, h2) of chart K2 (flat layouts; points round as in ``_frame_fast``),
    and both witnesses' pulls: the tension toward the other witness
    rotated into the body and projected onto the unit theta and phi
    tangents and the outward normal, (d_theta, d_phi, d_n), d_theta 0
    exactly where ``_frame_fast`` has no theta tangent. A segment longer
    than ``bound`` comes back without pulls (None), so that a rejected step
    does not pay for them."""
    a1, b1, c1, p00, p01, p02, p10, p11, p12, p20, p21, p22, px1, py1, pz1 = K1
    a2, b2, c2, q00, q01, q02, q10, q11, q12, q20, q21, q22, qx2, qy2, qz2 = K2
    sp1, cp1, st1, ct1 = math.sin(h1), math.cos(h1), math.sin(t1), math.cos(t1)
    sp2, cp2, st2, ct2 = math.sin(h2), math.cos(h2), math.sin(t2), math.cos(t2)
    x, y, z = a1 * sp1 * ct1, b1 * sp1 * st1, c1 * cp1
    x1 = (p00 * x + p01 * y + p02 * z) + px1
    y1 = (p10 * x + p11 * y + p12 * z) + py1
    z1 = (p20 * x + p21 * y + p22 * z) + pz1
    x, y, z = a2 * sp2 * ct2, b2 * sp2 * st2, c2 * cp2
    dx = ((q00 * x + q01 * y + q02 * z) + qx2) - x1
    dy = ((q10 * x + q11 * y + q12 * z) + qy2) - y1
    dz = ((q20 * x + q21 * y + q22 * z) + qz2) - z1
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist > bound:
        return dist, None, None
    # witness 1 pulled along the segment, onto _frame_fast's unit vectors in its order
    x = p00 * dx + p10 * dy + p20 * dz
    y = p01 * dx + p11 * dy + p21 * dz
    z = p02 * dx + p12 * dy + p22 * dz
    tx, ty = -a1 * sp1 * st1, b1 * sp1 * ct1
    t = math.sqrt(tx * tx + ty * ty)
    dth = 0.0 if t < POLE_TOL * (a1 if a1 > b1 else b1) else x * (tx / t) + y * (ty / t)
    tx, ty, tz = a1 * cp1 * ct1, b1 * cp1 * st1, -c1 * sp1
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    nx, ny, nz = b1 * c1 * sp1 * ct1, a1 * c1 * sp1 * st1, a1 * b1 * cp1
    n = math.sqrt(nx * nx + ny * ny + nz * nz)
    w1 = (dth, x * (tx / t) + y * (ty / t) + z * (tz / t),
          x * (nx / n) + y * (ny / n) + z * (nz / n))
    gx, gy, gz = -dx, -dy, -dz  # witness 2 pulled against it
    x = q00 * gx + q10 * gy + q20 * gz
    y = q01 * gx + q11 * gy + q21 * gz
    z = q02 * gx + q12 * gy + q22 * gz
    tx, ty = -a2 * sp2 * st2, b2 * sp2 * ct2
    t = math.sqrt(tx * tx + ty * ty)
    dth = 0.0 if t < POLE_TOL * (a2 if a2 > b2 else b2) else x * (tx / t) + y * (ty / t)
    tx, ty, tz = a2 * cp2 * ct2, b2 * cp2 * st2, -c2 * sp2
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    nx, ny, nz = b2 * c2 * sp2 * ct2, a2 * c2 * sp2 * st2, a2 * b2 * cp2
    n = math.sqrt(nx * nx + ny * ny + nz * nz)
    w2 = (dth, x * (tx / t) + y * (ty / t) + z * (tz / t),
          x * (nx / n) + y * (ny / n) + z * (nz / n))
    return dist, w1, w2


def _ray_exit(e: Ellipsoid, toward) -> tuple[SurfaceParam, float]:
    """Where the ray from e's center toward ``toward`` leaves e's surface,
    and how far from the center it does: the (theta, phi) of w, the body
    offset R^T (toward - c) over the semi-axes, and the reach
    |toward - c| / |w|. A w.w that underflows to 0 reaches inf."""
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, cx, cy, cz = e._flat
    dx, dy, dz = float(toward[0]) - cx, float(toward[1]) - cy, float(toward[2]) - cz
    nn = dx * dx + dy * dy + dz * dz  # squares that underflow count as concentric
    if nn == 0.0:
        raise NoIntersectionError("concentric bodies have no center line")
    if nn == math.inf:
        raise NoIntersectionError("the center line's squared length overflows")
    x = (r00 * dx + r10 * dy + r20 * dz) / a
    y = (r01 * dx + r11 * dy + r21 * dz) / b
    z = (r02 * dx + r12 * dy + r22 * dz) / c
    ww = x * x + y * y + z * z
    reach = math.sqrt(nn) / math.sqrt(ww) if ww > 0.0 else math.inf
    return SurfaceParam(*_unit_param(x, y, z)), reach


def _foot(K, X):
    """Body-axis unit coordinates r and global position of the point of
    the body with flat layout ``K`` closest to the global point ``X``
    outside it: r_i = a_i q_i / (a_i^2 + t) for the body-frame q, t the
    root of F(t) = |r|^2 = 1. Newton on the concave k(t) = F^(-1/2) - 1
    from the oracle's lower bound max(0, max_i(a_i |q_i| - a_i^2)) needs no
    bracket. It stops on a step at most 1e-12 t or not positive, or after
    100 passes, never raises, and normalises r onto the surface."""
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, cx, cy, cz = K
    gx, gy, gz, _ = _reach(K, X[0] - cx, X[1] - cy, X[2] - cz)
    aa, bb, cc = a * a, b * b, c * c
    t = max(0.0, abs(gx) - aa, abs(gy) - bb, abs(gz) - cc)
    for _ in range(100):
        da, db, dc = aa + t, bb + t, cc + t
        x, y, z = gx / da, gy / db, gz / dc
        f = x * x + y * y + z * z
        step = f * (math.sqrt(f) - 1.0) / (x * x / da + y * y / db + z * z / dc)
        if not step > 1e-12 * t:
            break
        t += step
    n = math.sqrt(f)
    x, y, z = x / n, y / n, z / n
    px, py, pz = a * x, b * y, c * z
    return (x, y, z), (r00 * px + r01 * py + r02 * pz + cx, r10 * px + r11 * py + r12 * pz + cy,
                       r20 * px + r21 * py + r22 * pz + cz)


def _segment_gap(e1: Ellipsoid, e2: Ellipsoid, P1, P2) -> float:
    """The support gap s(u) of ``_support_gap`` along the unit segment u
    from the global point P1 to P2: a positive s(u) proves the bodies
    disjoint. NaN when the segment has no length, which proves nothing."""
    dx, dy, dz = P2[0] - P1[0], P2[1] - P1[1], P2[2] - P1[2]
    n = math.hypot(dx, dy, dz)  # a sum of squares overflows on far pairs
    if not n > 0.0:
        return math.nan
    return _support_gap(e1._flat, e2._flat, dx / n, dy / n, dz / n)[0]


def _projected(e1: Ellipsoid, e2: Ellipsoid, X, rounds: int) -> tuple[SurfaceParam, SurfaceParam]:
    """The witnesses after ``rounds`` rounds of alternating projections
    (Cheney & Goldstein, Proc. AMS 1959) from the global point ``X``, which
    must lie outside e1 of a disjoint pair: P1 = foot of X on e1, P2 = foot
    of P1 on e2, then P1 = foot of P2 on e1, and so on. Each projected
    point lies outside the other body, as ``_foot`` requires, and no round
    lengthens the segment."""
    for _ in range(rounds):
        u1, X = _foot(e1._flat, X)
        u2, X = _foot(e2._flat, X)
    return SurfaceParam(*_unit_param(*u1)), SurfaceParam(*_unit_param(*u2))


def _start(e1: Ellipsoid, e2: Ellipsoid, sigma: float) -> tuple[SurfaceParam, SurfaceParam, bool]:
    """The cold start (no ``init``), and whether the pair overlaps for
    certain. With r = c2 - c1 and u = r/|r|, the support gap
    s(u) = |r| - s1(u) - s2(-u) bounds the distance from below. When it is
    positive, the bodies are disjoint and the witnesses start after two
    rounds of ``_projected`` from c2. Otherwise each witness starts where
    the ray from its center toward the other center leaves its surface,
    and the chord test certifies overlap: e1 holds the center line from c1
    out to its reach rho1, e2 holds it from c2 back to rho2, so
    rho1 + rho2 > |r| + ``sigma`` (the contact threshold, which keeps
    round-off on touching pairs from counting) puts a stretch of the line
    inside both bodies, and ``solve`` reports ``overlap`` at k = 0 with no
    slide. That covers every pair with a center, or a ray exit, more than
    sigma inside the other body along the line. Both steps start at
    lambda0. Concentric pairs raise NoIntersectionError."""
    (x1, y1, z1), (x2, y2, z2) = e1.center, e2.center
    rx, ry, rz = x2 - x1, y2 - y1, z2 - z1
    r = math.sqrt(rx * rx + ry * ry + rz * rz)
    if r > 0.0:
        ux, uy, uz = rx / r, ry / r, rz / r
        if r - _reach(e1._flat, ux, uy, uz)[3] - _reach(e2._flat, -ux, -uy, -uz)[3] > 0.0:
            return (*_projected(e1, e2, e2.center, 2), False)
    p1, reach1 = _ray_exit(e1, e2.center)
    p2, reach2 = _ray_exit(e2, e1.center)
    return p1, p2, reach1 + reach2 > r + sigma


def _begin(e1: Ellipsoid, e2: Ellipsoid, init, config: SolverConfig, sigma: float):
    """Pass k = 0, shared by ``solve`` and ``initial_state``, evaluated on
    the canonical charts. Without ``init`` it is ``_start``'s cold start,
    whose chord test reads the contact threshold ``sigma``. A warm start
    from ``init``, which must be canonical (say the answer before a small
    move), is usually almost aligned already, so its steps start at the
    size of the correction it still needs (``_warm_step``). One that would
    take a step below lambda0, whose eps_n has not yet met tol_n, and
    whose own witness segment has a positive ``_segment_gap`` (the pair is
    disjoint) first runs one round of ``_projected`` from its P2, and is
    read and sized again there; any other warm start stays as given.
    Returns (p1, p2, dist, w1, w2, lam, overlap), with ``_start``'s
    certain ``overlap``: then p1 and p2 are the ray exits, and no later
    pass runs."""
    K1, K2 = e1._flat, e2._flat
    if init is None:
        p1, p2, overlap = _start(e1, e2, sigma)
        dist, w1, w2 = _evaluate(K1, K2, p1.theta, p1.phi, p2.theta, p2.phi)
        return p1, p2, dist, w1, w2, config.lambda0, overlap
    p1, p2 = init[0], init[1]
    if not (p1.is_canonical() and p2.is_canonical()):
        raise ValueError("initial surface parameters must be canonical")
    dist, w1, w2 = _evaluate(K1, K2, p1.theta, p1.phi, p2.theta, p2.phi)
    lam, eps_n = _warm_step(config.lambda0, dist, w1[2], w2[2])
    if lam < config.lambda0 and eps_n >= config.tol_n:
        P2 = _frame_fast(K2, p2.theta, p2.phi)[0]
        if _segment_gap(e1, e2, _frame_fast(K1, p1.theta, p1.phi)[0], P2) > 0.0:
            p1, p2 = _projected(e1, e2, P2, 1)
            dist, w1, w2 = _evaluate(K1, K2, p1.theta, p1.phi, p2.theta, p2.phi)
            lam = _warm_step(config.lambda0, dist, w1[2], w2[2])[0]
    return p1, p2, dist, w1, w2, lam, False


def initial_state(
    e1: Ellipsoid,
    e2: Ellipsoid,
    init: tuple[SurfaceParam, SurfaceParam] | None,
    config: SolverConfig,
) -> SolverState:
    """State at k = 0, from ``_begin``'s start. A cold pair that ``_start``
    finds overlapping for certain (its center line has a stretch inside
    both bodies) has no start to slide from: it raises NoIntersectionError
    (``solve`` reports it as ``overlap``). A step view of the first pass
    of ``solve``'s loop."""
    sigma = config.resolve_sigma(e1, e2)
    p1, p2, dist, w1, w2, lam, overlap = _begin(e1, e2, init, config, sigma)
    if overlap:
        raise NoIntersectionError("the center line runs inside both bodies")
    return SolverState(
        k=0,
        params=(p1, p2),
        distance=dist,
        lambdas=(lam, lam),
        prev_distance=math.nan,
        halve_toggle=0,
        charts=(_chart(e1, 0), _chart(e2, 0)),
        pulls=(w1, w2),
    )


def iterate_once(
    state: SolverState,
    config: SolverConfig,
    ellipsoids: tuple[Ellipsoid, Ellipsoid],
) -> SolverState:
    """One round of the sliding iteration on the canonical charts of
    ``ellipsoids``, built from the helper that defines each rule:
    ``step_increments`` scales both pulls' tangential parts to the lambdas,
    ``advance_param`` moves both iteration-k points and canonicalizes them,
    and ``_evaluate`` re-reads the segment and the pulls. On a longer
    segment, accept mode keeps the step and ``_halved`` halves a lambda for
    the next round; revert mode rejects it without its pulls (``bound``),
    halves a step and retries, down to LAMBDA_FLOOR. A stationary pair,
    whose pulls have no tangential part, comes back in place with its
    lambdas and toggle unchanged.

    ``solve``'s loop runs this round on plain locals, repeating these
    helpers' float operations (and ``_metrics``') in their order;
    ``test_step_views_reproduce_the_solve_trace`` pins it to this view and
    ``convergence_metrics`` bit for bit."""
    charts = (_chart(ellipsoids[0], 0), _chart(ellipsoids[1], 0))
    (p1, p2), (w1, w2), dist = state.params, state.pulls, state.distance
    lam1, lam2 = state.lambdas
    toggle, overshoot = state.halve_toggle, False
    revert = config.overshoot_mode == "revert-and-retry"
    guard = ZERO_PROJECTION_FACTOR * dist
    while True:
        s1 = step_increments(w1[0], w1[1], lam1, guard)
        s2 = step_increments(w2[0], w2[1], lam2, guard)
        if s1 == s2 == (0.0, 0.0):
            break
        q1, q2 = advance_param(p1, *s1), advance_param(p2, *s2)
        bound = dist if revert and max(lam1, lam2) > LAMBDA_FLOOR else math.inf
        ndist, nw1, nw2 = _evaluate(charts[0].flat, charts[1].flat,
                                    q1.theta, q1.phi, q2.theta, q2.phi, bound)
        if nw1 is None:  # rejected
            lam1, lam2, toggle = _halved(lam1, lam2, toggle)
            continue
        overshoot = ndist > dist and not revert
        if overshoot:
            lam1, lam2, toggle = _halved(lam1, lam2, toggle)
        p1, p2, dist, w1, w2 = q1, q2, ndist, nw1, nw2
        break
    return SolverState(
        k=state.k + 1,
        params=(p1, p2),
        distance=dist,
        lambdas=(lam1, lam2),
        prev_distance=state.distance,
        halve_toggle=toggle,
        charts=charts,
        pulls=(w1, w2),
        overshoot=overshoot,
    )


def solve(
    e1: Ellipsoid,
    e2: Ellipsoid,
    init: tuple[SurfaceParam, SurfaceParam] | None = None,
    config: SolverConfig = SolverConfig(),
) -> DistanceResult:
    """Run the sliding search until a stopping criterion fires.

    Pass k = 0 of the loop evaluates the start, cold (``_start``) or warm
    from ``init`` (``_begin``), with its steps; trace row 0 reads it. Pass
    k >= 1 runs round k. Any one of eps_d < tol_d, eps_n < tol_n,
    eps_lambda < tol_lambda ends the search as converged; the start has no
    eps_d and takes no step yet, so it stops on eps_n alone. Hitting
    max_iter or the lambda floor is reported as a status, not an
    exception. A cold pair that ``_start`` finds overlapping for certain
    is reported as ``overlap`` at k = 0 from its ray exits, for the
    contact continuation to start from (concentric pairs raise
    NoIntersectionError).
    Separations below the contact threshold, the start's included, hand
    off to the contact classifier before any stop test. A witness within
    CHART_POLE_MARGIN of a pole of its chart carries on in another chart;
    ``params`` and the trace rows are always in the canonical chart.
    """
    sigma = config.resolve_sigma(e1, e2)
    p1, p2, dist, w1, w2, lam1, certain_overlap = _begin(e1, e2, init, config, sigma)
    trace: list[StepRecord] | None = [] if config.record_trace else None

    # each round runs on plain locals, as ``iterate_once`` says; a
    # SolverState is built only for the contact hand-off
    charts = (_chart(e1, 0), _chart(e2, 0))
    K1, K2 = charts[0].flat, charts[1].flat
    t1, h1, t2, h2, lam2 = p1.theta, p1.phi, p2.theta, p2.phi, lam1
    toggle, overshoot = 0, False
    d_1 = d_2 = math.nan  # the distances one and two steps back
    revert = config.overshoot_mode == "revert-and-retry"
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    pi, low, high = math.pi, CHART_POLE_MARGIN, math.pi - CHART_POLE_MARGIN
    status = "max-iter"
    criteria: tuple[str, ...] = ()
    for k in range(config.max_iter + 1):
        if k:
            if h1 < low or h1 > high or h2 < low or h2 > high:  # _near_pole
                charts, ((t1, h1), (t2, h2)) = _recharted(charts, (e1, e2), ((t1, h1), (t2, h2)))
                K1, K2 = charts[0].flat, charts[1].flat
                dist, w1, w2 = _evaluate(K1, K2, t1, h1, t2, h2)
            d_2, d_1 = d_1, dist
            # round k. step_increments' delta / mag * lambda is
            # (delta / mag) * lambda, so each pull is divided once for every
            # retry; a pull at or below the guard steps by 0.0 * lambda = 0.0
            guard = ZERO_PROJECTION_FACTOR * dist
            x1, y1, _ = w1
            x2, y2, _ = w2
            mag = math.hypot(x1, y1)
            if mag <= guard or mag == 0.0:
                x1 = y1 = 0.0
            else:
                x1, y1 = x1 / mag, y1 / mag
            mag = math.hypot(x2, y2)
            if mag <= guard or mag == 0.0:
                x2 = y2 = 0.0
            else:
                x2, y2 = x2 / mag, y2 / mag
            overshoot = False
            # a stationary pair, whose pulls have no tangential part, stays put
            while x1 or y1 or x2 or y2:
                u1, v1 = t1 + x1 * lam1, h1 + y1 * lam1
                u2, v2 = t2 + x2 * lam2, h2 + y2 * lam2
                if not (0.0 <= u1 < TWO_PI and 0.0 <= v1 <= pi):
                    u1, v1 = _canonical(u1, v1)
                if not (0.0 <= u2 < TWO_PI and 0.0 <= v2 <= pi):
                    u2, v2 = _canonical(u2, v2)
                # revert mode rejects a longer segment without computing its
                # pulls, and halves a step and retries down to LAMBDA_FLOOR;
                # accept mode keeps it and halves a step for the next round
                retry = revert and (lam1 if lam1 > lam2 else lam2) > LAMBDA_FLOOR
                ndist, nw1, nw2 = _evaluate(K1, K2, u1, v1, u2, v2, dist if retry else math.inf)
                accepted = nw1 is not None
                overshoot = accepted and ndist > dist and not revert
                if overshoot or not accepted:  # _halved
                    if toggle == 0:
                        lam1, toggle = lam1 * 0.5, 1
                    else:
                        lam2, toggle = lam2 * 0.5, 0
                if accepted:
                    t1, h1, t2, h2, dist, w1, w2 = u1, v1, u2, v2, ndist, nw1, nw2
                    break
        # the stop metrics, as _metrics computes them
        eps_lambda = lam2 if lam2 > lam1 else lam1
        if dist == 0.0:
            eps_d, eps_n = (None if d_1 != d_1 else math.nan), math.nan
        else:
            eps_d = None
            if d_1 == d_1:
                change = abs(dist - d_1)
                if d_2 == d_2:
                    older = abs(d_1 - d_2)
                    if older > change:
                        change = older
                eps_d = change / dist
            n1, n2 = 1.0 - w1[2] / dist, 1.0 - w2[2] / dist
            eps_n = n2 if n2 > n1 else n1
        if trace is not None:
            (u1, v1), (u2, v2) = (_canonical_param(t1, h1, charts[0]),
                                  _canonical_param(t2, h2, charts[1]))
            trace.append(StepRecord(
                k, u1, v1, u2, v2, dist, lam1, lam2,
                math.nan if eps_d is None else eps_d, eps_n, overshoot,
            ))
        if certain_overlap:
            status = "overlap"
            break
        if dist < sigma:
            from .contact import classify  # local import; contact depends on us

            state = SolverState(
                k, (SurfaceParam(t1, h1), SurfaceParam(t2, h2)), dist,
                (lam1, lam2), d_1, toggle, charts, (w1, w2), overshoot,
            )
            kind = classify(state, e1, e2, sigma)
            if kind != "separated":
                status = "contact" if kind == "in-contact" else "overlap"
                break
        met_d = eps_d is not None and eps_d < tol_d
        met_n = eps_n < tol_n
        met_lambda = k > 0 and eps_lambda < tol_lambda
        if met_d or met_n or met_lambda:
            status = "converged"
            criteria = tuple(name for name, met in (
                ("eps_d", met_d), ("eps_n", met_n), ("eps_lambda", met_lambda)) if met)
            break
        if eps_lambda < LAMBDA_FLOOR:
            status = "lambda-floor"
            break
    f1, f2 = _frame_fast(K1, t1, h1), _frame_fast(K2, t2, h2)
    return DistanceResult(
        status=status,
        distance=dist,
        params=(SurfaceParam(*_canonical_param(t1, h1, charts[0])),
                SurfaceParam(*_canonical_param(t2, h2, charts[1]))),
        closest_points=(f1[0], f2[0]),
        normals=(f1[1], f2[1]),
        iterations=k,
        final_eps=(eps_d, eps_n, eps_lambda),
        trace=trace,
        stop_criteria=criteria,
    )
