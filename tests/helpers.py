"""Shared randomized-case generators for the property and acceptance
suites."""

import math

import numpy as np

from surfslide.geometry import Ellipsoid, SurfaceParam, surface_frame
from surfslide.slider import _chart, _evaluate

PI = math.pi


def random_ellipsoid(rng, lo=0.02, hi=2.0, max_aspect=30.0, center_box=0.0):
    """Ellipsoid with semi-axes log-uniform in [lo, hi], aspect ratio capped
    at max_aspect, uniform orientation angles."""
    while True:
        axes = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
        if axes.max() / axes.min() <= max_aspect:
            break
    center = rng.uniform(-center_box, center_box, 3) if center_box else np.zeros(3)
    euler = rng.uniform(-PI, PI, 3)
    return Ellipsoid(tuple(axes), tuple(center), tuple(euler))


def random_separated_pair(rng, lo=0.02, hi=2.0, max_aspect=30.0):
    """Two random ellipsoids guaranteed separated: the center gap exceeds
    the sum of the enclosing-sphere radii."""
    e1 = random_ellipsoid(rng, lo, hi, max_aspect)
    e2 = random_ellipsoid(rng, lo, hi, max_aspect)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    gap = (max(e1.semi_axes) + max(e2.semi_axes)) * (1.05 + rng.uniform(0.0, 1.0))
    c1 = rng.uniform(-1.0, 1.0, 3)
    c2 = c1 + gap * u
    e1 = Ellipsoid(e1.semi_axes, tuple(c1), e1.euler)
    e2 = Ellipsoid(e2.semi_axes, tuple(c2), e2.euler)
    return e1, e2


def nth_separated_pair(seed, case):
    """Pair ``case`` (counting from 0) of the ``random_separated_pair``
    sequence drawn from ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(case + 1):
        pair = random_separated_pair(rng)
    return pair


def evaluate(e1, p1, e2, p2):
    """The segment d12 from ``p1`` on ``e1`` to ``p2`` on ``e2``, from
    surface_frame's positions, followed by what the solver's round
    evaluator gives there on the canonical charts: d12's length and both
    witnesses' pulls (d_theta, d_phi, d_n), of d12 and of -d12."""
    d12 = tuple(surface_frame(e2, p2).position - surface_frame(e1, p1).position)
    return (d12, *_evaluate(_chart(e1, 0).flat, _chart(e2, 0).flat,
                            p1.theta, p1.phi, p2.theta, p2.phi))


def surface_point(e, p):
    """The forward map in numpy, a reference independent of the solver's
    float kernels: the body point (a sin phi cos theta, b sin phi sin theta,
    c cos phi), rotated by ``e.rotation`` and moved to ``e.center``."""
    a, b, c = e.semi_axes
    sp = math.sin(p.phi)
    local = np.array(
        (a * sp * math.cos(p.theta), b * sp * math.sin(p.theta), c * math.cos(p.phi))
    )
    return e.rotation @ local + np.asarray(e.center)


def random_param(rng) -> SurfaceParam:
    return SurfaceParam(rng.uniform(0.0, 2.0 * PI), rng.uniform(0.0, PI))


def random_overlap_pair(rng, frac):
    """Semi-axes log-uniform in [0.2, 1], aspect ratio at most 5, both
    bodies centered at the origin; then e2's center moves to
    frac * (max a1 + max a2) in a random direction. Small fracs put one
    center inside the other body. The benchmark's overlap-analyze workload
    draws its pairs with the same recipe and RNG calls."""
    e1 = random_ellipsoid(rng, lo=0.2, hi=1.0, max_aspect=5.0)
    e2 = random_ellipsoid(rng, lo=0.2, hi=1.0, max_aspect=5.0)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    c2 = frac * (max(e1.semi_axes) + max(e2.semi_axes)) * u
    return e1, Ellipsoid(e2.semi_axes, tuple(c2), e2.euler)


def disk_pair(rng):
    """A (300, 300, 0.5) disk centered at the origin in the xy plane, and
    a random body (semi-axes log-uniform in [1e-3, 1], aspect ratio at
    most 30) whose center lies above the disk's top face, within 200 of
    its axis and higher than the body reaches."""
    disk = Ellipsoid((300.0, 300.0, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    e = random_ellipsoid(rng, lo=1e-3, hi=1.0)
    x, y = rng.uniform(-200.0, 200.0, 2)
    z = 0.5 + max(e.semi_axes) * (1.05 + rng.uniform(0.0, 1.0))
    return disk, Ellipsoid(e.semi_axes, (x, y, z), e.euler)


def points_outside(rng, axes, n, zero_axis=None):
    """``n`` points at distances log-uniform in [1e-10, 1e4] outside an
    axis-aligned body at the origin, each on the normal at a random surface
    point, with coordinate ``zero_axis`` exactly 0."""
    u = rng.normal(size=(n, 3))
    if zero_axis is not None:
        u[:, zero_axis] = 0.0
    s = u / np.sqrt(np.sum((u / axes) ** 2, axis=1))[:, None]
    normal = s / axes**2
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    dist = np.exp(rng.uniform(math.log(1e-10), math.log(1e4), n))
    return s + dist[:, None] * normal
