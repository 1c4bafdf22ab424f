"""Randomized property suites.

Each property is implemented as a ``run_*`` function returning nothing but
raising AssertionError with case context on the first violation, so the
acceptance suite can grade the exact same checks. Pytest wrappers at the
bottom invoke each runner with >= 500 cases, through the session fixture
``property_outcome`` (conftest.py), which runs each runner once for both.
The extreme-aspect and disk-family runners, which the acceptance suite
does not grade, run fewer and costlier cases and are called directly.
"""

import math

import numpy as np
import pytest

from helpers import (
    center_chords_numpy,
    disk_pair,
    evaluate,
    high_aspect_pair,
    random_ellipsoid,
    random_overlap_pair,
    random_param,
    random_separated_pair,
    support_reach,
    surface_point,
)
from surfslide.contact import analyze
from surfslide.geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceParam,
    euler_from_rotation,
    implicit_value,
    param_from_local_point,
    rotation_matrix,
    surface_frame,
    line_surface_entry,
)
from surfslide.oracle import point_to_ellipsoid
from surfslide.slider import (
    SolverConfig,
    _ray_exit,
    convergence_metrics,
    initial_state,
    iterate_once,
    solve,
)

PI = math.pi


# ---------------------------------------------------------------------------
# runners


def run_on_surface_closure(n=1000, seed=101):
    rng = np.random.default_rng(seed)
    for case in range(n):
        e = random_ellipsoid(rng, center_box=2.0)
        p = random_param(rng)
        X = surface_frame(e, p).position
        val = implicit_value(e, X)
        assert abs(val) < 1e-12, f"case {case}: implicit value {val:.3e}"


def run_implicit_value_matches_array_formula(n=2000, seed=109):
    """The float kernel against the array formula
    sum(((R^T (X - c)) / axes)^2) - 1: within 16 ulp of 1 + |v|, the same
    sign wherever |v| > 1e-12, and the same value for a tuple, a list and
    an ndarray. Points lie in the body's bounding box or near its surface."""
    rng = np.random.default_rng(seed)
    for case in range(n):
        e = random_ellipsoid(rng, center_box=2.0)
        if case % 2:
            X = np.asarray(e.center) + rng.uniform(-1.5, 1.5, 3) * max(e.semi_axes)
        else:
            P = surface_frame(e, random_param(rng)).position
            X = np.asarray(e.center) + (P - np.asarray(e.center)) * rng.uniform(0.99, 1.01)
        v = implicit_value(e, X)
        local = e.rotation.T @ (X - np.asarray(e.center))
        ref = float(np.sum((local / np.asarray(e.semi_axes)) ** 2) - 1.0)
        ulps = abs(v - ref) / math.ulp(1.0 + abs(ref))
        assert ulps <= 16.0, f"case {case}: {v!r} vs {ref!r}, {ulps:.1f} ulp"
        if abs(ref) > 1e-12:
            assert (v < 0.0) == (ref < 0.0), f"case {case}: sign of {v!r} vs {ref!r}"
        same = (implicit_value(e, tuple(X.tolist())), implicit_value(e, X.tolist()))
        assert same == (v, v), f"case {case}: {same} vs {v!r} by sequence type"


def run_frame_orthogonality(n=500, seed=102):
    rng = np.random.default_rng(seed)
    done = 0
    while done < n:
        e = random_ellipsoid(rng)
        p = random_param(rng)
        fr = surface_frame(e, p)
        if fr.tangent_theta is None:  # pole: theta tangent undefined
            continue
        normal, et, ep = map(np.asarray, (fr.normal, fr.tangent_theta, fr.tangent_phi))
        nt = abs(float(normal @ et))
        np_ = abs(float(normal @ ep))
        assert nt < 1e-10, f"case {done}: N.r_theta = {nt:.3e}"
        assert np_ < 1e-10, f"case {done}: N.r_phi = {np_:.3e}"
        for v in (normal, et, ep):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        done += 1


def run_pull_kernel_matches_frame(n=600, seed=110):
    """The solver's pulls (the segment rotated into each body and
    projected there) against the projections of d12 and -d12 onto
    surface_frame's global tangents and normal, for witnesses on two
    bodies of aspect up to 30. Every third case puts both phis within
    1e-9 of a pole, some exactly on it: there d_theta must be exactly 0
    wherever surface_frame has no theta tangent."""
    rng = np.random.default_rng(seed)
    poles = 0
    for case in range(n):
        bodies = (random_ellipsoid(rng, center_box=2.0), random_ellipsoid(rng, center_box=2.0))
        params = [random_param(rng), random_param(rng)]
        if case % 3 == 0:
            for i, p in enumerate(params):
                gap = 0.0 if case % 9 == 0 else 10.0 ** rng.uniform(-18.0, -9.0)
                params[i] = SurfaceParam(p.theta, gap if (case + i) % 2 else PI - gap)
        d12, dist, *pulls = evaluate(bodies[0], params[0], bodies[1], params[1])
        g = np.asarray(d12)
        assert dist == pytest.approx(float(np.linalg.norm(g)), rel=1e-15), f"case {case}: length"
        tol = 1e-13 * float(np.linalg.norm(g))
        for e, p, goal, (dth, dph, dn) in zip(bodies, params, (g, -g), pulls):
            fr = surface_frame(e, p)
            normal, ep = np.asarray(fr.normal), np.asarray(fr.tangent_phi)
            assert abs(dph - float(ep @ goal)) <= tol, f"case {case}: d_phi"
            assert abs(dn - float(normal @ goal)) <= tol, f"case {case}: d_n"
            if fr.tangent_theta is None:
                poles += 1
                assert dth == 0.0, f"case {case}: d_theta {dth!r} at a pole"
            else:
                et = np.asarray(fr.tangent_theta)
                assert abs(dth - float(et @ goal)) <= tol, f"case {case}: d_theta"
    assert poles > 0, "no case reached a pole"


def run_rotation_orthonormality(n=1000, seed=103):
    rng = np.random.default_rng(seed)
    eye = np.eye(3)
    for case in range(n):
        angles = rng.uniform(-2 * PI, 2 * PI, 3)
        R = rotation_matrix(*angles)
        err = np.abs(R.T @ R - eye).max()
        assert err < 1e-12, f"case {case}: |R^T R - I| = {err:.3e}"
        det = np.linalg.det(R)
        assert abs(det - 1.0) < 1e-12, f"case {case}: det = {det}"
        back = rotation_matrix(*euler_from_rotation(R))
        assert np.abs(back - R).max() < 1e-12, f"case {case}: round trip"


def _aligned_pair(rng):
    """An ellipsoid and a sphere placed along the surface normal of a random
    point on the ellipsoid, so the two closest points and both normals are
    known in closed form."""
    e1 = random_ellipsoid(rng)
    while True:
        p1 = random_param(rng)
        fr = surface_frame(e1, p1)
        if fr.tangent_theta is not None:
            break
    gap = rng.uniform(1.0, 2.0)
    r = rng.uniform(0.1, 0.5)
    normal = np.asarray(fr.normal)
    c2 = np.asarray(fr.position) + (gap + r) * normal
    # orient the sphere so its theta=0, phi=pi/2 point faces the ellipsoid:
    # first rotation column = -normal, completed to a right-handed frame
    x = -normal
    helper = np.array([1.0, 0.0, 0.0])
    if abs(float(x @ helper)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    z = np.cross(x, helper)
    z /= np.linalg.norm(z)
    y = np.cross(z, x)
    R2 = np.column_stack([x, y, z])
    e2 = Ellipsoid((r, r, r), tuple(c2), euler_from_rotation(R2))
    p2 = SurfaceParam(0.0, PI / 2)
    return e1, e2, p1, p2, gap


def run_fixed_point_alignment(n=500, seed=104):
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    for case in range(n):
        e1, e2, p1, p2, gap = _aligned_pair(rng)
        state = initial_state(e1, e2, (p1, p2), cfg)
        _, eps_n, _ = convergence_metrics(state)
        assert eps_n < 1e-10, f"case {case}: eps_n = {eps_n:.3e} at aligned state"
        # forward: the tension is normal to both tangent planes, so the
        # projections vanish and the state is a fixed point
        for dt, dp, _ in evaluate(e1, p1, e2, p2)[2:]:
            assert max(abs(dt), abs(dp)) < 1e-12 * state.distance, f"case {case}"
        after = iterate_once(state, cfg, (e1, e2))
        assert after.params == state.params, f"case {case}: fixed point moved"
        res = solve(e1, e2, (p1, p2), cfg)
        assert res.status == "converged" and res.iterations == 0, f"case {case}"
        assert res.stop_criteria == ("eps_n",)
        assert abs(res.distance - gap) < 1e-9 * gap, f"case {case}"
        # converse: a misaligned start is not stationary, and the search
        # restores alignment
        q2 = SurfaceParam.canonical(p2.theta + 0.05, p2.phi + 0.05)
        res = solve(e1, e2, (p1, q2), cfg)
        assert res.iterations > 0, f"case {case}: misaligned state was stationary"
        assert res.status == "converged"
        assert res.final_eps[1] < 1e-4, f"case {case}: eps_n = {res.final_eps[1]:.3e}"


# tight tolerances so the run stops only once the step length has collapsed;
# the looser disjunctive defaults can stop the two mirrored runs at slightly
# different points of the plateau
_TIGHT = SolverConfig(tol_d=1e-18, tol_n=1e-18, tol_lambda=1e-8)


def run_symmetry(n=500, seed=105, rel_tol=1e-12, point_tol=1e-6):
    """Mirrored-argument agreement. Returns per-case statistics instead of
    raising, so callers decide how strictly to grade them (see the wrapper
    below and the acceptance suite, which requires every case to agree).
    A violation records both statuses, stop criteria and the larger final
    step, the data needed to tell a plateau stall from a pole creep."""
    rng = np.random.default_rng(seed)
    violations = []
    worst_rel = worst_point = 0.0
    worst_rel_conv = worst_point_conv = 0.0
    for case in range(n):
        e1, e2 = random_separated_pair(rng)
        p1 = line_surface_entry(e1, e1.center, e2.center)
        p2 = line_surface_entry(e2, e1.center, e2.center)
        a = solve(e1, e2, (p1, p2), _TIGHT)
        b = solve(e2, e1, (p2, p1), _TIGHT)
        rel = abs(a.distance - b.distance) / max(1.0, a.distance)
        scale = max(1.0, max(e1.semi_axes), max(e2.semi_axes))
        point = max(
            float(np.linalg.norm(np.asarray(mine) - np.asarray(theirs))) / scale
            for mine, theirs in zip(a.closest_points, reversed(b.closest_points))
        )
        converged = a.status == b.status == "converged"
        worst_rel = max(worst_rel, rel)
        worst_point = max(worst_point, point)
        if converged:
            worst_rel_conv = max(worst_rel_conv, rel)
            worst_point_conv = max(worst_point_conv, point)
        if not converged or rel > rel_tol or point > point_tol:
            violations.append(
                {
                    "case": case,
                    "status": (a.status, b.status),
                    "rel_gap": rel,
                    "point_gap": point,
                    "stop": (a.stop_criteria, b.stop_criteria),
                    "max_lambda": max(a.final_eps[2], b.final_eps[2]),
                }
            )
    return {
        "cases": n,
        "violations": violations,
        "worst_rel": worst_rel,
        "worst_point": worst_point,
        "worst_rel_converged": worst_rel_conv,
        "worst_point_converged": worst_point_conv,
    }


def _rigid_motion(e: Ellipsoid, Q: np.ndarray, t: np.ndarray) -> Ellipsoid:
    center = Q @ np.asarray(e.center) + t
    euler = euler_from_rotation(Q @ e.rotation)
    return Ellipsoid(e.semi_axes, tuple(center), euler)


def run_rigid_motion_invariance(n=500, seed=106):
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(record_trace=True)
    for case in range(n):
        e1, e2 = random_separated_pair(rng)
        init = (
            line_surface_entry(e1, e1.center, e2.center),
            line_surface_entry(e2, e1.center, e2.center),
        )
        Q = rotation_matrix(*rng.uniform(-PI, PI, 3))
        t = rng.uniform(-3.0, 3.0, 3)
        a = solve(e1, e2, init, cfg)
        b = solve(_rigid_motion(e1, Q, t), _rigid_motion(e2, Q, t), init, cfg)
        assert a.status == "converged" and b.status == "converged", f"case {case}"
        for ra, rb in zip(a.trace, b.trace):
            rel = abs(ra.distance - rb.distance) / max(ra.distance, 1e-300)
            assert rel < 1e-9, f"case {case} k={ra.k}: rel gap {rel:.3e}"
        rel = abs(a.distance - b.distance) / max(a.distance, 1e-300)
        assert rel < 1e-9, f"case {case}: final rel gap {rel:.3e}"


def run_scale_invariance(n=500, seed=107):
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(record_trace=True)
    for case in range(n):
        e1, e2 = random_separated_pair(rng)
        init = (
            line_surface_entry(e1, e1.center, e2.center),
            line_surface_entry(e2, e1.center, e2.center),
        )
        # power-of-two scale factors: scaling then commutes exactly with
        # floating-point rounding, so the trajectories match bit for bit
        s = 2.0 ** rng.integers(-10, 11)
        scaled = tuple(
            Ellipsoid(
                tuple(s * v for v in e.semi_axes),
                tuple(s * v for v in e.center),
                e.euler,
            )
            for e in (e1, e2)
        )
        a = solve(e1, e2, init, cfg)
        b = solve(*scaled, init, cfg)
        assert a.status == b.status == "converged", f"case {case}"
        assert len(a.trace) == len(b.trace), f"case {case}"
        for ra, rb in zip(a.trace, b.trace):
            rel = abs(rb.distance - s * ra.distance) / (s * ra.distance)
            assert rel < 1e-12, f"case {case} k={ra.k}: rel gap {rel:.3e}"
            for va, vb in (
                (ra.theta1, rb.theta1),
                (ra.phi1, rb.phi1),
                (ra.theta2, rb.theta2),
                (ra.phi2, rb.phi2),
            ):
                assert abs(va - vb) < 1e-12, f"case {case} k={ra.k}: params differ"


def run_warm_start_idempotence(n=500, seed=108):
    """Re-solving from a converged solution's parameters must need no
    further iterations and return the identical distance whenever the first
    solve certifiably reached the aligned fixed point (stopped on eps_n).
    A stop on the distance-change criterion can instead fire mid-plateau;
    such a restart legitimately resumes refining, so there the requirement
    is only that it never makes the answer meaningfully worse."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    for case in range(n):
        e1, e2 = random_separated_pair(rng)
        cold = solve(e1, e2, None, cfg)
        assert cold.status == "converged", f"case {case}"
        warm = solve(e1, e2, cold.params, cfg)
        assert warm.status == "converged", f"case {case}"
        scale = max(1.0, cold.distance)
        if "eps_n" in cold.stop_criteria:
            assert warm.iterations <= 2, f"case {case}: {warm.iterations} iterations"
            gap = abs(warm.distance - cold.distance)
            assert gap <= 1e-12 * scale, f"case {case}: gap {gap:.3e}"
        else:
            excess = warm.distance - cold.distance
            assert excess <= 1e-8 * scale, f"case {case}: got worse by {excess:.3e}"


def _rigid_step(e: Ellipsoid, rng, size=1e-3) -> Ellipsoid:
    """``e`` with every center and Euler component moved by up to ``size``."""
    return Ellipsoid(
        e.semi_axes,
        tuple(np.asarray(e.center) + rng.uniform(-size, size, 3)),
        tuple(np.asarray(e.euler) + rng.uniform(-size, size, 3)),
    )


def run_warm_tracking(chains=20, steps=16, seed=115):
    """Chains of small rigid steps, each solved warm from the previous
    step's answer, as in contact tracking: every warm solve must end with
    the status of a cold solve of the same pose, and within 1e-9 relative
    of its distance. Returns the warm and cold iteration counts. The bound
    is not met on every seed: a stop on a bare eps_d plateau, warm or
    cold, can land about 1.5e-9 off (the benchmark's warm-track seed 11,
    op 706)."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    warm_iterations, cold_iterations = [], []
    for chain in range(chains):
        e1, e2 = random_separated_pair(rng)
        params = solve(e1, e2, None, cfg).params
        for step in range(steps):
            e1, e2 = _rigid_step(e1, rng), _rigid_step(e2, rng)
            warm = solve(e1, e2, params, cfg)
            cold = solve(e1, e2, None, cfg)
            where = f"chain {chain} step {step}"
            assert warm.status == cold.status, f"{where}: {warm.status} vs {cold.status}"
            gap = abs(warm.distance - cold.distance)
            assert gap <= 1e-9 * cold.distance, f"{where}: gap {gap:.3e}"
            warm_iterations.append(warm.iterations)
            cold_iterations.append(cold.iterations)
            params = warm.params
    return warm_iterations, cold_iterations


def _near_aligned_overlap(rng):
    """Two spheres (radii r1, r2 in [0.2, 1], random orientations) that
    overlap, and witnesses near their contact that are almost aligned: P1
    at angle alpha <= 0.08 from the center line u on the first sphere, P2
    at the angle beta on the second that puts P2 - P1 along u. The
    segment is then alpha and beta off the two normals (eps_n about
    max(alpha, beta)^2 / 2), and the centers are closer than r1 + r2 by
    half the segment's length, so the pair overlaps."""
    r1, r2 = rng.uniform(0.2, 1.0, 2)
    u, v = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
    alpha = rng.uniform(0.01, 0.08) * min(1.0, r2 / r1)
    beta = math.asin(r1 / r2 * math.sin(alpha))
    length = r1 * (1.0 - math.cos(alpha)) + r2 * (1.0 - math.cos(beta))
    c1 = rng.uniform(-1.0, 1.0, 3)
    c2 = c1 + (r1 + r2 - 0.5 * length) * u
    P1 = c1 + r1 * (math.cos(alpha) * u + math.sin(alpha) * v)
    P2 = c2 + r2 * (-math.cos(beta) * u + math.sin(beta) * v)
    pair, init = [], []
    for r, c, P in ((r1, c1, P1), (r2, c2, P2)):
        e = Ellipsoid((r, r, r), tuple(c), tuple(rng.uniform(-PI, PI, 3)))
        pair.append(e)
        init.append(param_from_local_point(e, e.rotation.T @ (P - c)))
    return (*pair, tuple(init))


def run_warm_start_projection(n=500, seed=116):
    """Warm starts near the answer: the answer of a separated pair before a
    rigid 1e-3 step of both bodies (even cases), or that answer with each
    parameter jittered by up to 1e-3 rad (odd cases). Their k = 0 state,
    after the warm start's projection round, is no farther apart than the
    init's own segment; ``solve`` starts from that same state; and it ends
    with the status of a cold solve, within 1e-9 relative of its distance.
    The round leaves three kinds of start as given: a near-aligned init on
    an overlapping pair (a non-positive support gap), a far init (whose
    step is lambda0), and an init certified by eps_n < tol_n. Returns how
    many of the n near-aligned starts the round moved. The 1e-9 bound is
    not met on every seed: a warm solve can stop at k = 1 on a bare eps_d
    (the benchmark's warm-track seed 2, op 1024, lands 2.1e-9 off)."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    traced = SolverConfig(record_trace=True)
    moved = 0
    for case in range(n):
        e1, e2 = random_separated_pair(rng)
        answer = solve(e1, e2, None, cfg)
        if case % 2 == 0:
            e1, e2 = _rigid_step(e1, rng), _rigid_step(e2, rng)
            init = answer.params
        else:
            init = tuple(SurfaceParam.canonical(p.theta + dt, p.phi + dp)
                         for p, (dt, dp) in zip(answer.params, rng.uniform(-1e-3, 1e-3, (2, 2))))
        state = initial_state(e1, e2, init, cfg)
        segment = evaluate(e1, init[0], e2, init[1])[1]
        assert state.distance <= segment, f"case {case}: {state.distance!r} > {segment!r}"
        moved += state.params != init
        warm, cold = solve(e1, e2, init, traced), solve(e1, e2, None, cfg)
        row = warm.trace[0]
        (p1, p2), (lam1, lam2) = state.params, state.lambdas
        assert row[1:8] == (p1.theta, p1.phi, p2.theta, p2.phi, state.distance, lam1, lam2), \
            f"case {case}: {row} vs {state}"
        assert warm.status == cold.status, f"case {case}: {warm.status} vs {cold.status}"
        gap = abs(warm.distance - cold.distance)
        assert gap <= 1e-9 * cold.distance, f"case {case}: gap {gap:.3e}"

        # starts the round leaves as given
        if "eps_n" in cold.stop_criteria:
            assert initial_state(e1, e2, cold.params, cfg).params == cold.params, f"case {case}"
        far = (random_param(rng), random_param(rng))
        assert initial_state(e1, e2, far, cfg).params == far, f"case {case}: far init moved"
        o1, o2, near = _near_aligned_overlap(rng)
        state = initial_state(o1, o2, near, cfg)
        assert state.lambdas[0] < cfg.lambda0, f"case {case}: overlap init not near-aligned"
        assert state.params == near, f"case {case}: overlap init moved"
    return moved


def _projections(e1: Ellipsoid, e2: Ellipsoid, rounds: int = 2):
    """``rounds`` rounds of alternating projections from e2's center, each
    foot from the oracle: P1 = foot of c2 (then of P2) on e1, P2 = foot of
    P1 on e2."""
    P2 = np.asarray(e2.center)
    for _ in range(rounds):
        P1 = surface_point(e1, point_to_ellipsoid(e1, P2)[1])
        P2 = surface_point(e2, point_to_ellipsoid(e2, P1)[1])
    return P1, P2


def run_cold_start_points(n=500, seed=111):
    """The start without init. Half the pairs are separated (aspect up to
    30), half are random_overlap_pair pairs with fracs in [0.1, 1.5], so
    every branch occurs. Where the support gap s(u) = |r| - |M1^T u| -
    |M2^T u| of the center direction u = r/|r| is positive, the witnesses
    are two rounds of alternating projections, rebuilt here from the
    oracle's foot points, on their surfaces and at least s apart.
    Elsewhere the params are the ray exits between the centers, bit for
    bit: those of the start state, or, where the center line's chords
    (from numpy) share more than sigma and ``initial_state`` has no start,
    those of ``solve``'s overlap verdict. Every pair with a center inside
    the other body is among the latter."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    branches = [0, 0, 0]  # ray exits, certified overlaps, projections
    for case in range(n):
        if case % 2:
            e1, e2 = random_overlap_pair(rng, rng.uniform(0.1, 1.5))
        else:
            e1, e2 = random_separated_pair(rng)
        r = np.asarray(e2.center) - np.asarray(e1.center)
        u = r / np.linalg.norm(r)
        gap = float(np.linalg.norm(r)) - support_reach(e1, u) - support_reach(e2, -u)
        inside = implicit_value(e1, e2.center) < 0.0 or implicit_value(e2, e1.center) < 0.0
        length, rho1, rho2 = center_chords_numpy(e1, e2)
        certified = rho1 + rho2 > length + cfg.resolve_sigma(e1, e2)
        branches[2 if gap > 0.0 else int(certified)] += 1
        if not gap > 0.0:
            assert certified or not inside, f"case {case}"
            want = (_ray_exit(e1, e2.center)[0], _ray_exit(e2, e1.center)[0])
            if certified:
                with pytest.raises(NoIntersectionError):
                    initial_state(e1, e2, None, cfg)
                res = solve(e1, e2, None, cfg)
                assert res.status == "overlap" and res.iterations == 0, f"case {case}"
                got = res.params
            else:
                got = initial_state(e1, e2, None, cfg).params
            assert got == want, f"case {case}: {got} vs {want}"
            continue
        state = initial_state(e1, e2, None, cfg)
        scale = max(*e1.semi_axes, *e2.semi_axes, float(np.linalg.norm(r)))
        for e, p, x in zip((e1, e2), state.params, _projections(e1, e2)):
            position = surface_frame(e, p).position
            val = implicit_value(e, position)
            assert abs(val) <= 1e-12, f"case {case}: implicit value {val:.3e}"
            miss = float(np.abs(position - x).max())
            assert miss <= 1e-12 * scale, f"case {case}: projection off by {miss:.3e}"
        assert state.distance >= gap * (1.0 - 1e-12), f"case {case}: {state.distance} < s {gap}"
    assert min(branches) > 0, f"branches (ray exits, certified, projections): {branches}"


def run_extreme_aspect(seed, lo, hi, max_aspect, n=150):
    """Cold solves of ``n`` separated pairs in both argument orders.
    Returns the (case, order, status) of every solve that did not
    converge, and two gaps, each as its worst over all converged solves
    and over the certified ones (stopped on eps_n): the relative gap
    between the distance and each witness's oracle foot-point distance to
    the other body, and the relative gap between the two orders (certified
    when both are)."""
    rng = np.random.default_rng(seed)
    unconverged = []
    worst = {"oracle": 0.0, "oracle_certified": 0.0, "swap": 0.0, "swap_certified": 0.0}

    def record(key, gap, certified):
        worst[key] = max(worst[key], gap)
        if certified:
            worst[key + "_certified"] = max(worst[key + "_certified"], gap)

    for case in range(n):
        e1, e2 = random_separated_pair(rng, lo=lo, hi=hi, max_aspect=max_aspect)
        runs = (solve(e1, e2), solve(e2, e1))
        for order, (res, (mine, other)) in enumerate(zip(runs, ((e1, e2), (e2, e1)))):
            if res.status != "converged":
                unconverged.append((case, order, res.status))
                continue
            for body, point in ((other, res.closest_points[0]), (mine, res.closest_points[1])):
                foot, _ = point_to_ellipsoid(body, point)
                gap = abs(foot - res.distance) / res.distance
                record("oracle", gap, "eps_n" in res.stop_criteria)
        a, b = runs
        if a.status == b.status == "converged":
            gap = abs(a.distance - b.distance) / a.distance
            record("swap", gap, "eps_n" in a.stop_criteria and "eps_n" in b.stop_criteria)
    return {"unconverged": unconverged, **worst}


def run_disk_family(n=300, solved=3, seed=114):
    """Small bodies above a (300, 300, 0.5) disk, in both argument orders:
    the cold start never raises and puts each witness on its surface, and
    the first ``solved`` pairs' solves end with a status."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    for case in range(n):
        disk, body = disk_pair(rng)
        for e1, e2 in ((disk, body), (body, disk)):
            state = initial_state(e1, e2, None, cfg)
            for e, p in zip((e1, e2), state.params):
                val = implicit_value(e, surface_frame(e, p).position)
                assert abs(val) <= 1e-9, f"case {case}: start off the surface by {val:.3e}"
            if case < solved:
                res = solve(e1, e2, None, cfg)
                assert res.status in ("converged", "max-iter", "lambda-floor"), f"case {case}"
                assert math.isfinite(res.distance), f"case {case}"


def run_high_aspect_analyze(n=300, seed=12):
    """``analyze`` of ``n`` ``high_aspect_pair`` pairs, aspect 10^4 to
    10^8, in both argument orders, at ``max_iter`` 300: no call raises.
    Returns the count of each report kind."""
    rng = np.random.default_rng(seed)
    config = SolverConfig(max_iter=300)
    kinds = {}
    for case in range(n):
        pair = high_aspect_pair(rng)
        for order, (e1, e2) in enumerate((pair, pair[::-1])):
            try:
                kind = analyze(e1, e2, config).kind
            except Exception as exc:
                raise AssertionError(f"case {case}, order {order}: {exc!r}") from exc
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


# ---------------------------------------------------------------------------
# pytest wrappers


def test_on_surface_closure(property_outcome):
    property_outcome(run_on_surface_closure)


def test_implicit_value_matches_array_formula(property_outcome):
    property_outcome(run_implicit_value_matches_array_formula)


def test_frame_orthogonality(property_outcome):
    property_outcome(run_frame_orthogonality)


def test_pull_kernel_matches_frame(property_outcome):
    property_outcome(run_pull_kernel_matches_frame)


def test_rotation_orthonormality(property_outcome):
    property_outcome(run_rotation_orthonormality)


def test_fixed_point_alignment(property_outcome):
    property_outcome(run_fixed_point_alignment)


def test_symmetry(property_outcome):
    # a looser grade than the acceptance suite's: it tolerates up to 1% of
    # cases at 1e-9, provided each is a converged pair stopped on the
    # distance-change criterion, so a regression that brings back such
    # stalls fails the stricter acceptance grade first
    stats = property_outcome(run_symmetry)
    assert len(stats["violations"]) <= stats["cases"] // 100, stats["violations"]
    assert stats["worst_rel_converged"] < 1e-9, stats["violations"]
    for v in stats["violations"]:
        if v["status"] == ("converged", "converged"):
            # every tolerated converged-pair violation is an exact-tie stall
            assert v["stop"] == (("eps_d",), ("eps_d",)), v


def test_rigid_motion_invariance(property_outcome):
    property_outcome(run_rigid_motion_invariance)


def test_scale_invariance(property_outcome):
    property_outcome(run_scale_invariance)


def test_warm_start_idempotence(property_outcome):
    property_outcome(run_warm_start_idempotence)


def test_cold_start_points(property_outcome):
    property_outcome(run_cold_start_points)


def test_warm_start_projection():
    # the round moves every near-aligned start
    assert run_warm_start_projection() == 500


def test_warm_tracking_matches_cold_solves():
    warm, cold = run_warm_tracking()
    assert len(warm) == len(cold) == 20 * 16
    # warm solves take 6,663 rounds in all (mean 20.82, max 232; 32.51 and
    # 214 before warm starts ran a projection round), cold ones 70.88 and
    # 480: pinned, so that a change giving the saving back shows
    assert (sum(warm), max(warm)) == (6663, 232), (sum(warm), max(warm))
    assert (sum(cold), max(cold)) == (22681, 480), (sum(cold), max(cold))


def test_extreme_aspect_up_to_300():
    stats = run_extreme_aspect(seed=112, lo=0.002, hi=2.0, max_aspect=300.0)
    assert stats["unconverged"] == [], stats
    assert stats["oracle"] <= 1e-9, stats
    assert stats["swap"] <= 1e-9, stats


def test_extreme_aspect_up_to_1000_over_six_decades():
    # No solve raises (the segment-entry start raised on 32 of these 300
    # starts), and every solve converges, in 84.5 rounds on average and at
    # most 2,062, pinned here so that any change to it shows. 114 of the
    # 300 solves stop on a bare eps_d plateau, which certifies nothing
    # about stationarity (the worst stops 2.9e-10 above its foot
    # distance). Certified solves are graded at 1e-9, plateau stops at the
    # lattice-oracle bound 1e-5.
    stats = run_extreme_aspect(seed=113, lo=1e-3, hi=1e3, max_aspect=1000.0)
    assert stats["unconverged"] == [], stats
    assert stats["oracle_certified"] <= 1e-9, stats
    assert stats["swap_certified"] <= 1e-9, stats
    assert stats["oracle"] <= 1e-5, stats
    assert stats["swap"] <= 1e-5, stats


def test_disk_family_does_not_raise():
    run_disk_family()


def test_high_aspect_analyze_does_not_raise():
    # thin bodies from concentric to separated: a ray exit found as a
    # segment's entry, through a quadratic whose discriminant cancels,
    # misses these surfaces and raises on 214 of the 600 calls
    kinds = run_high_aspect_analyze()
    assert sum(kinds.values()) == 600 and set(kinds) <= {"separated", "max-iter"}, kinds
