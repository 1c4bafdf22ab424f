"""The surface-sliding iteration.

Two points, one per ellipsoid, slide in their (theta, phi) parameter spaces
under the pull of the segment connecting them. Both points step
simultaneously from the iteration-k positions; an increase in separation is
treated as overshoot and triggers alternating halving of the two angle
increment steps.

A witness that comes near a pole of its parametrization carries on in
another chart of the same body (its semi-axes cyclically shifted), whose
poles lie on a different body axis; results are reported in the canonical
chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    Ellipsoid,
    SurfaceFrame,
    NoIntersectionError,
    SurfaceParam,
    _canonical,
    _frame_fast,
    implicit_value,
    line_surface_entry,
)

# Eq-style step normalization is singular exactly at the solution; treat the
# projection pair as zero below this fraction of the current separation.
ZERO_PROJECTION_FACTOR = 1e-15

# A witness within this angle (radians) of a pole of its chart, where a theta
# step of length lambda moves the point only about sin(phi) as far, moves on
# to the chart whose poles are farthest from it.
CHART_POLE_MARGIN = 0.1

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
        if not self.lambda0 > LAMBDA_FLOOR:
            raise ValueError(f"lambda0 must exceed {LAMBDA_FLOOR:g}")
        if min(self.tol_d, self.tol_n, self.tol_lambda) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.overshoot_mode not in ("accept-and-continue", "revert-and-retry"):
            raise ValueError(f"unknown overshoot_mode {self.overshoot_mode!r}")

    def resolve_sigma(self, e1: Ellipsoid, e2: Ellipsoid) -> float:
        """Contact threshold: 1e-6 times the mean semi-axis of the pair."""
        return 1e-6 * (sum(e1.semi_axes) + sum(e2.semi_axes)) / 6.0


@dataclass(frozen=True)
class SolverState:
    """Snapshot of the iteration after step ``k``.

    ``frames`` holds both witnesses' (position, normal, tangent_theta,
    tangent_phi) float triples, as the frame kernel returns them;
    ``points_global`` and ``normals`` read from it."""

    k: int
    params: tuple[SurfaceParam, SurfaceParam]
    d12: tuple
    distance: float
    lambdas: tuple[float, float]
    prev_distance: float  # nan before the first iteration
    halve_toggle: int  # index of the lambda halved on the next overshoot
    frames: tuple
    overshoot: bool = False

    @property
    def points_global(self) -> tuple[tuple, tuple]:
        f1, f2 = self.frames
        return f1[0], f2[0]

    @property
    def normals(self) -> tuple[tuple, tuple]:
        f1, f2 = self.frames
        return f1[1], f2[1]


@dataclass(frozen=True)
class StepRecord:
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


@dataclass(frozen=True)
class DistanceResult:
    status: str
    distance: float
    params: tuple[SurfaceParam, SurfaceParam]
    closest_points: tuple[np.ndarray, np.ndarray]
    normals: tuple[np.ndarray, np.ndarray]
    iterations: int
    final_eps: tuple[float | None, float, float]
    trace: list[StepRecord] | None = None
    stop_criteria: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# elementary operations

def _project(frame, goal) -> tuple[float, float]:
    """Components of the goal vector along the two unit tangents of a
    float-tuple frame (position, normal, tangent_theta, tangent_phi). The
    theta component is zero at a pole."""
    _, _, et, ep = frame
    gx, gy, gz = goal
    dth = 0.0 if et is None else gx * et[0] + gy * et[1] + gz * et[2]
    return dth, gx * ep[0] + gy * ep[1] + gz * ep[2]


def project_tension(frame_i: SurfaceFrame, d_ij) -> tuple[float, float]:
    """Tangential projections of the connecting segment at one surface
    point, as the solver computes them. The theta projection is zero at a
    pole."""
    dth, dph = _project((None, None, frame_i.tangent_theta, frame_i.tangent_phi), d_ij)
    return float(dth), float(dph)


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


def _metrics(dist, d_1, d_2, d12, n1, n2, lam1, lam2):
    """(eps_d, eps_n, eps_lambda) of witnesses at distance ``dist`` apart,
    joined by ``d12``, with normals ``n1`` and ``n2``. ``d_1`` is the
    distance one step back and ``d_2`` the one before it, each NaN while it
    does not exist yet. Coincident witnesses (``dist`` zero) give no
    direction to compare: their eps_d and eps_n are NaN."""
    if dist == 0.0:
        return (None if math.isnan(d_1) else math.nan), math.nan, max(lam1, lam2)
    eps_d = None
    if not math.isnan(d_1):
        change = abs(dist - d_1)
        if not math.isnan(d_2):
            change = max(change, abs(d_1 - d_2))
        eps_d = change / dist
    dx, dy, dz = d12
    dot1 = (dx * n1[0] + dy * n1[1] + dz * n1[2]) / dist
    dot2 = (dx * n2[0] + dy * n2[1] + dz * n2[2]) / dist
    return eps_d, max(1.0 - dot1, 1.0 + dot2), max(lam1, lam2)


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
    f1, f2 = state.frames
    lam1, lam2 = state.lambdas
    return _metrics(state.distance, d_1, d_2, state.d12, f1[1], f2[1], lam1, lam2)


def _halved(lam1: float, lam2: float, toggle: int) -> tuple[float, float, int]:
    """Alternating step halving: halve the lambda the toggle selects and
    flip the toggle."""
    if toggle == 0:
        return lam1 * 0.5, lam2, 1
    return lam1, lam2 * 0.5, 0


def apply_overshoot_schedule(state: SolverState, config: SolverConfig) -> SolverState:
    """Alternating step halving: when the distance grew this round, halve
    the lambda selected by the toggle and flip the toggle. A NaN
    ``prev_distance`` (k = 0) compares false and halves nothing."""
    if not state.distance > state.prev_distance:
        return state
    lam1, lam2 = state.lambdas
    lam1, lam2, toggle = _halved(lam1, lam2, state.halve_toggle)
    return replace(state, lambdas=(lam1, lam2), halve_toggle=toggle, overshoot=True)


# ---------------------------------------------------------------------------
# charts

@dataclass(frozen=True)
class _Chart:
    """A body re-expressed with its semi-axes cyclically shifted by
    ``shift`` and its rotation's columns shifted to match: the same surface,
    with the parametrization poles on body axis z (shift 0), x (1) or y (2).
    Carries the fields the frame kernel reads, copied exactly, so shift 0
    evaluates bit for bit like the body itself."""

    semi_axes: tuple
    center: tuple
    _rows: tuple
    shift: int


def _chart(e: Ellipsoid, shift: int) -> _Chart:
    order = [(shift + j) % 3 for j in range(3)]
    return _Chart(
        tuple(e.semi_axes[i] for i in order),
        e.center,
        tuple(tuple(row[i] for i in order) for row in e._rows),
        shift,
    )


def _unit_point(theta: float, phi: float, shift: int) -> list[float]:
    """Body-axis unit coordinates (x/a, y/b, z/c) of a point given by its
    parameters in the chart with ``shift``."""
    sp = math.sin(phi)
    w = (sp * math.cos(theta), sp * math.sin(theta), math.cos(phi))
    return [w[(i - shift) % 3] for i in range(3)]


def _param_in_chart(u, shift: int) -> tuple[float, float]:
    """Canonical (theta, phi), in the chart with ``shift``, of the point
    with body-axis unit coordinates ``u``."""
    x, y, z = (u[(shift + j) % 3] for j in range(3))
    return _canonical(math.atan2(y, x), math.atan2(math.hypot(x, y), z))


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


def _canonical_params(params, charts) -> tuple[SurfaceParam, SurfaceParam]:
    return tuple(
        p if c.shift == 0
        else SurfaceParam(*_param_in_chart(_unit_point(p.theta, p.phi, c.shift), 0))
        for p, c in zip(params, charts)
    )


# ---------------------------------------------------------------------------
# iteration engine

def _evaluate(e1, e2, t1: float, h1: float, t2: float, h2: float):
    """Both witnesses' frames at (theta, phi) = (t1, h1) and (t2, h2), the
    segment from the first point to the second, and its length."""
    f1 = _frame_fast(e1, t1, h1)
    f2 = _frame_fast(e2, t2, h2)
    P1, P2 = f1[0], f2[0]
    d12 = (P2[0] - P1[0], P2[1] - P1[1], P2[2] - P1[2])
    dist = math.sqrt(d12[0] ** 2 + d12[1] ** 2 + d12[2] ** 2)
    return f1, f2, d12, dist


def _center_inside(e1: Ellipsoid, e2: Ellipsoid) -> bool:
    """Whether a center lies inside the other body. That proves the pair
    overlaps, and leaves the center-to-center segment without a crossing
    of one of the surfaces."""
    return implicit_value(e2, e1.center) < 0.0 or implicit_value(e1, e2.center) < 0.0


def _ray_exit(e: Ellipsoid, toward) -> SurfaceParam:
    """Where the ray from e's center toward ``toward`` leaves e's surface.
    Unlike the center-to-center segment, the ray reaches the surface even
    when ``toward`` lies inside e."""
    c = np.asarray(e.center)
    d = np.asarray(toward, dtype=float) - c
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise NoIntersectionError("concentric bodies have no center line")
    return line_surface_entry(e, c + (2.0 * e.max_semi_axis / n) * d, c)


def initial_state(
    e1: Ellipsoid,
    e2: Ellipsoid,
    init: tuple[SurfaceParam, SurfaceParam] | None,
    config: SolverConfig,
) -> SolverState:
    """State at k = 0. Without explicit parameters, both points start at
    the entry of the center-to-center segment into their own surface."""
    if init is None:
        A, B = e1.center, e2.center
        p1 = line_surface_entry(e1, A, B)
        p2 = line_surface_entry(e2, A, B)
    else:
        p1, p2 = init
        if not (p1.is_canonical() and p2.is_canonical()):
            raise ValueError("initial surface parameters must be canonical")
    f1, f2, d12, dist = _evaluate(e1, e2, p1.theta, p1.phi, p2.theta, p2.phi)
    return SolverState(
        k=0,
        params=(p1, p2),
        d12=d12,
        distance=dist,
        lambdas=(config.lambda0, config.lambda0),
        prev_distance=math.nan,
        halve_toggle=0,
        frames=(f1, f2),
    )


def _round(c1, c2, t1, h1, t2, h2, f1, f2, d12, dist, lam1, lam2, toggle, revert):
    """One round from the iteration-k witnesses (t1, h1) on ``c1`` and
    (t2, h2) on ``c2``: project the tension at both points, scale the
    steps to the lambdas, advance both parameter pairs simultaneously and
    re-evaluate. When the distance grows, ``revert`` halves a step and
    retries (down to LAMBDA_FLOOR); otherwise the step stands and a lambda
    is halved for the next round. Returns the new (t1, h1, t2, h2, f1, f2,
    d12, dist, lam1, lam2, toggle, overshoot); a stationary pair, whose
    tension has no tangential component anywhere, comes back unchanged."""
    guard = ZERO_PROJECTION_FACTOR * dist
    # a retry changes only the lambdas, not the frames or the segment
    th1, ph1 = _project(f1, d12)
    th2, ph2 = _project(f2, (-d12[0], -d12[1], -d12[2]))
    l1, l2, tog = lam1, lam2, toggle
    while True:
        dth1, dph1 = step_increments(th1, ph1, l1, guard)
        dth2, dph2 = step_increments(th2, ph2, l2, guard)
        if dth1 == 0.0 and dph1 == 0.0 and dth2 == 0.0 and dph2 == 0.0:
            return t1, h1, t2, h2, f1, f2, d12, dist, lam1, lam2, toggle, False
        u1, v1 = _canonical(t1 + dth1, h1 + dph1)
        u2, v2 = _canonical(t2 + dth2, h2 + dph2)
        g1, g2, nd12, ndist = _evaluate(c1, c2, u1, v1, u2, v2)
        if ndist > dist and revert and max(l1, l2) > LAMBDA_FLOOR:
            l1, l2, tog = _halved(l1, l2, tog)
            continue
        overshoot = ndist > dist and not revert
        if overshoot:
            l1, l2, tog = _halved(l1, l2, tog)
        return u1, v1, u2, v2, g1, g2, nd12, ndist, l1, l2, tog, overshoot


def iterate_once(
    state: SolverState,
    config: SolverConfig,
    ellipsoids: tuple[Ellipsoid, Ellipsoid],
) -> SolverState:
    """One full round: project the tension at both iteration-k points,
    advance both parameter pairs simultaneously, re-evaluate, and apply the
    overshoot schedule. A step-at-a-time view of the round ``solve`` runs."""
    e1, e2 = ellipsoids
    p1, p2 = state.params
    f1, f2 = state.frames
    lam1, lam2 = state.lambdas
    t1, h1, t2, h2, f1, f2, d12, dist, lam1, lam2, toggle, overshoot = _round(
        e1, e2, p1.theta, p1.phi, p2.theta, p2.phi, f1, f2, state.d12, state.distance,
        lam1, lam2, state.halve_toggle, config.overshoot_mode == "revert-and-retry",
    )
    return SolverState(
        k=state.k + 1,
        params=(SurfaceParam(t1, h1), SurfaceParam(t2, h2)),
        d12=d12,
        distance=dist,
        lambdas=(lam1, lam2),
        prev_distance=state.distance,
        halve_toggle=toggle,
        frames=(f1, f2),
        overshoot=overshoot,
    )


def solve(
    e1: Ellipsoid,
    e2: Ellipsoid,
    init: tuple[SurfaceParam, SurfaceParam] | None = None,
    config: SolverConfig = SolverConfig(),
) -> DistanceResult:
    """Run the sliding search until a stopping criterion fires.

    Any one of eps_d < tol_d, eps_n < tol_n, eps_lambda < tol_lambda ends
    the search as converged; hitting max_iter or the lambda floor is
    reported as a status, not an exception. Separations below the contact
    threshold, the start's included, hand off to the contact classifier
    before any stop test. Without ``init``, a pair where a center lies
    inside the other body overlaps for certain: it is reported as
    ``overlap`` at k = 0, its witnesses where the rays between the centers
    leave the bodies, for the contact continuation to start from
    (concentric pairs raise NoIntersectionError). A witness within
    CHART_POLE_MARGIN of a pole of its chart carries on in another chart;
    ``params`` and the trace rows are always in the canonical chart.
    """
    sigma = config.resolve_sigma(e1, e2)
    bodies = (e1, e2)
    charts = (_chart(e1, 0), _chart(e2, 0))
    certain_overlap = init is None and _center_inside(e1, e2)
    if certain_overlap:
        init = (_ray_exit(e1, e2.center), _ray_exit(e2, e1.center))
    state = initial_state(e1, e2, init, config)
    trace: list[StepRecord] | None = [] if config.record_trace else None

    eps = convergence_metrics(state)
    if trace is not None:
        trace.append(_step_record(state, charts, math.nan, eps[1]))
    if certain_overlap:
        return _result("overlap", state, charts, eps, trace, ())
    # the contact hand-off comes first, at k = 0 as in the loop
    status = _contact_status(state, e1, e2, sigma)
    if status is not None:
        return _result(status, state, charts, eps, trace, ())
    # a warm start (or an already-optimal init) may need no iteration at all
    if eps[1] < config.tol_n:
        return _result("converged", state, charts, eps, trace, ("eps_n",))

    # the loop runs on plain locals; a SolverState is built only to hand
    # over to the trace, the contact classifier and the result
    (p1, p2), (f1, f2) = state.params, state.frames
    t1, h1, t2, h2 = p1.theta, p1.phi, p2.theta, p2.phi
    d12, dist = state.d12, state.distance
    lam1, lam2 = state.lambdas
    toggle, overshoot = state.halve_toggle, False
    d_1 = state.prev_distance  # the distance one step back; d_2 two steps
    c1, c2 = charts
    revert = config.overshoot_mode == "revert-and-retry"
    tol_d, tol_n, tol_lambda = config.tol_d, config.tol_n, config.tol_lambda
    status = "max-iter"
    criteria: tuple[str, ...] = ()
    for k in range(1, config.max_iter + 1):
        if _near_pole(h1) or _near_pole(h2):
            charts, ((t1, h1), (t2, h2)) = _recharted(charts, bodies, ((t1, h1), (t2, h2)))
            c1, c2 = charts
            f1, f2, d12, dist = _evaluate(c1, c2, t1, h1, t2, h2)
        d_2, d_1 = d_1, dist
        t1, h1, t2, h2, f1, f2, d12, dist, lam1, lam2, toggle, overshoot = _round(
            c1, c2, t1, h1, t2, h2, f1, f2, d12, dist, lam1, lam2, toggle, revert
        )
        eps = _metrics(dist, d_1, d_2, d12, f1[1], f2[1], lam1, lam2)
        if trace is not None or dist < sigma:
            state = SolverState(
                k, (SurfaceParam(t1, h1), SurfaceParam(t2, h2)), d12, dist,
                (lam1, lam2), d_1, toggle, (f1, f2), overshoot,
            )
            if trace is not None:
                eps_d = eps[0] if eps[0] is not None else math.nan
                trace.append(_step_record(state, charts, eps_d, eps[1]))
            contact = _contact_status(state, e1, e2, sigma)
            if contact is not None:
                status = contact
                break
        eps_d, eps_n, eps_lambda = eps
        met = []
        if eps_d is not None and eps_d < tol_d:
            met.append("eps_d")
        if eps_n < tol_n:
            met.append("eps_n")
        if eps_lambda < tol_lambda:
            met.append("eps_lambda")
        if met:
            status = "converged"
            criteria = tuple(met)
            break
        if eps_lambda < LAMBDA_FLOOR:
            status = "lambda-floor"
            break
    state = SolverState(
        k, (SurfaceParam(t1, h1), SurfaceParam(t2, h2)), d12, dist,
        (lam1, lam2), d_1, toggle, (f1, f2), overshoot,
    )
    return _result(status, state, charts, eps, trace, criteria)


def _contact_status(state, e1, e2, sigma) -> str | None:
    """``contact`` or ``overlap`` for a state below the contact threshold
    that the classifier does not call separated; None otherwise."""
    if not state.distance < sigma:
        return None
    from .contact import classify  # local import; contact depends on us

    kind = classify(state, e1, e2, sigma)
    if kind == "separated":
        return None
    return "contact" if kind == "in-contact" else "overlap"


def _step_record(state, charts, eps_d, eps_n) -> StepRecord:
    p1, p2 = _canonical_params(state.params, charts)
    return StepRecord(
        state.k,
        p1.theta,
        p1.phi,
        p2.theta,
        p2.phi,
        state.distance,
        state.lambdas[0],
        state.lambdas[1],
        eps_d,
        eps_n,
        state.overshoot,
    )


def _result(status, state, charts, eps, trace, criteria) -> DistanceResult:
    f1, f2 = state.frames
    return DistanceResult(
        status=status,
        distance=state.distance,
        params=_canonical_params(state.params, charts),
        closest_points=(np.array(f1[0]), np.array(f2[0])),
        normals=(np.array(f1[1]), np.array(f2[1])),
        iterations=state.k,
        final_eps=eps,
        trace=trace,
        stop_criteria=criteria,
    )

