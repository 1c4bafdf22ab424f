"""Output checks, run outside the timed regions.

None of them aborts a run: each returns ``(ok, rel_err)`` and a failed check
counts the operation as failed. ``rel_err`` is None where the check has no
distance to compare.
"""

from __future__ import annotations

import math

import numpy as np

# Witness-point cross-check: the slider's plateau stalls leave gaps around
# 2e-6; the acceptance suite's oracle bound is 1e-5.
DISTANCE_REL_TOL = 1e-5
# Support-gap verdicts: a gap within this share of the pair's size is
# treated as touching, neither certified overlapping nor separated.
SUPPORT_GAP_TOL = 1e-7


def _fibonacci_sphere(n):
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    az = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


_DIRECTIONS = _fibonacci_sphere(4000)


def _shape_matrix(e):
    """M with the ellipsoid equal to {c + M y : |y| <= 1}."""
    return e.rotation * np.asarray(e.semi_axes)


def support_gap(e1, e2):
    """min over unit u of h1(u) + h2(-u), with h(u) = c.u + |M^T u|.

    Negative values are the distance between separated bodies; a positive
    value certifies that they overlap. Sampled on a Fibonacci sphere, then
    refined by shrinking cones around the best direction.
    """
    dc = np.asarray(e1.center) - np.asarray(e2.center)
    m1, m2 = _shape_matrix(e1), _shape_matrix(e2)

    def f(u):
        return u @ dc + np.linalg.norm(u @ m1, axis=1) + np.linalg.norm(u @ m2, axis=1)

    vals = f(_DIRECTIONS)
    best = _DIRECTIONS[int(np.argmin(vals))]
    best_val = float(vals.min())
    radius = 0.1
    rng = np.random.default_rng(0)
    while radius > 1e-13:
        cand = best + radius * rng.normal(size=(64, 3))
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        cv = f(cand)
        j = int(np.argmin(cv))
        if cv[j] < best_val:
            best, best_val = cand[j], float(cv[j])
        else:
            radius *= 0.5
    return best_val


def check_witnesses(oracle, e1, e2, outcome):
    """Separated solve: the distance from each witness point to the other
    body, by the oracle's foot-point solve, must equal ``distance``."""
    if outcome.error is not None or outcome.status != "converged":
        return False, None
    p1, p2 = outcome.points
    d = outcome.distance
    try:
        d1, _ = oracle.point_to_ellipsoid(e2, p1)
        d2, _ = oracle.point_to_ellipsoid(e1, p2)
    except ValueError:  # a witness point inside the other body
        return False, None
    rel = max(abs(d1 - d), abs(d2 - d)) / d
    return rel <= DISTANCE_REL_TOL, rel


def check_cli_record(outcome):
    """CLI solve with ``--verify``: converged, and the record's oracle gap
    within the acceptance suite's 1e-5 * max(1, d)."""
    if outcome.error is not None or outcome.status != "converged":
        return False, None
    if outcome.oracle_gap is None:
        return False, None
    ok = outcome.oracle_gap <= DISTANCE_REL_TOL * max(1.0, outcome.distance)
    return ok, outcome.oracle_gap / outcome.distance


def check_contact(e1, e2, outcome):
    """``contact.analyze`` verdict against the support gap: a 'separated'
    verdict on a certified overlap fails, and so does an 'overlapping'
    verdict on a certified separation. A separated verdict's distance must
    match the gap."""
    if outcome.error is not None or outcome.status == "max-iter":
        return False, None
    gap = support_gap(e1, e2)
    scale = max(e1.semi_axes) + max(e2.semi_axes)
    tol = SUPPORT_GAP_TOL * scale
    if outcome.status == "separated":
        if gap > -tol:
            return False, None
        rel = abs(outcome.distance + gap) / -gap
        return rel <= DISTANCE_REL_TOL, rel
    if outcome.status == "overlapping":
        return gap > -tol, None
    return abs(gap) <= tol, None  # in-contact
