"""Ellipsoid geometry: rotations, the parametric surface, local frames and
the support function.

Everything here is a pure function of its inputs. ``Ellipsoid`` values are
immutable after construction, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# tangent_theta degenerates at the poles (phi = 0 or pi); the threshold is
# relative to the largest in-plane semi-axis so very small ellipsoids
# (semi-axes down to 0.02 in the bundled scenarios) are not misflagged.
POLE_TOL = 1e-12

# a point handed to param_from_local_point may be off-surface by at most this
# much in implicit-function value
ON_SURFACE_TOL = 1e-8


class NoIntersectionError(ValueError):
    """The segment does not reach the ellipsoid surface."""


def _rotation_rows(alpha: float, beta: float, gamma: float) -> tuple:
    """The nine entries of :func:`rotation_matrix`, row by row, as plain
    floats."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return (
        cb * cg, -cb * sg, sb,
        ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb,
        sa * sg - ca * sb * cg, sa * cg + ca * sb * sg, ca * cb,
    )


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Body-to-global rotation, composed as Rx(alpha) @ Ry(beta) @ Rz(gamma):
    the rows of ``_rotation_rows``, which ``Ellipsoid`` caches, as a 3x3
    array."""
    return np.array(_rotation_rows(alpha, beta, gamma)).reshape(3, 3)


def euler_from_rotation(R: np.ndarray) -> tuple[float, float, float]:
    """Invert :func:`rotation_matrix`. Gimbal lock (|cos beta| = 0) resolves
    to gamma = 0."""
    R = np.asarray(R, dtype=float)
    cb = math.hypot(R[0, 0], R[0, 1])
    beta = math.atan2(R[0, 2], cb)
    if cb < 1e-12:
        return math.atan2(R[2, 1], R[1, 1]), beta, 0.0
    alpha = math.atan2(-R[1, 2], R[2, 2])
    gamma = math.atan2(-R[0, 1], R[0, 0])
    return alpha, beta, gamma


def _canonical(theta: float, phi: float) -> tuple[float, float]:
    """The float kernel of :meth:`SurfaceParam.canonical`."""
    if 0.0 <= theta < TWO_PI and 0.0 <= phi <= math.pi:
        return theta, phi  # already canonical; fmod would return it unchanged
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi > math.pi:
        phi = TWO_PI - phi
        theta += math.pi
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
        if theta == TWO_PI:  # -tiny + 2*pi rounds up to 2*pi
            theta = 0.0
    return theta, phi


def _unit_param(x: float, y: float, z: float) -> tuple[float, float]:
    """Canonical (theta, phi) of the surface point with body-axis unit
    coordinates (x/a, y/b, z/c). phi comes from atan2, which keeps full
    relative precision at the poles, where acos(z) would round phi to a
    multiple of about 1.5e-8."""
    return _canonical(math.atan2(y, x), math.atan2(math.hypot(x, y), z))


@dataclass(frozen=True, init=False)
class SurfaceParam:
    """A (theta, phi) pair locating a point on an ellipsoid surface.

    Canonical form has 0 <= theta < 2*pi and 0 <= phi <= pi.
    """

    theta: float
    phi: float

    def __init__(self, theta: float, phi: float):
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(theta=theta, phi=phi)

    @staticmethod
    def canonical(theta: float, phi: float) -> "SurfaceParam":
        """Wrap theta into [0, 2*pi) and reflect phi back into [0, pi].

        Stepping past a pole reflects phi and shifts theta by pi, which keeps
        the point on the same continuous surface path.
        """
        return SurfaceParam(*_canonical(theta, phi))

    def is_canonical(self) -> bool:
        return 0.0 <= self.theta < TWO_PI and 0.0 <= self.phi <= math.pi


Vec3 = tuple[float, float, float]


class SurfaceFrame(NamedTuple):
    """Position, outward unit normal and unit tangents at a surface point,
    as global float triples (wrap one in ``np.asarray`` for vector
    arithmetic). ``tangent_theta`` is None exactly at a pole, where the
    theta direction is degenerate."""

    position: Vec3
    normal: Vec3
    tangent_theta: Vec3 | None
    tangent_phi: Vec3


@dataclass(frozen=True, init=False)
class Ellipsoid:
    """An ellipsoid with semi-axes (a, b, c), a global center, and an
    orientation given by the (alpha, beta, gamma) angles of
    :func:`rotation_matrix`."""

    semi_axes: tuple[float, float, float]
    center: tuple[float, float, float]
    euler: tuple[float, float, float]
    # derived, cached at construction; kept out of comparisons: the
    # semi-axes, the three rows of ``_rotation_rows`` and the center as 15
    # plain floats, built without numpy (the scalar kernels multiply them)
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, semi_axes, center, euler):
        axes = tuple(map(float, semi_axes))
        ctr = tuple(map(float, center))
        ang = tuple(map(float, euler))
        if len(axes) != 3 or len(ctr) != 3 or len(ang) != 3:
            raise ValueError("semi_axes, center and euler must each have 3 entries")
        if not all(map(math.isfinite, axes + ctr + ang)):
            raise ValueError("ellipsoid parameters must be finite")
        if min(axes) <= 0.0:
            raise ValueError("semi-axis must be positive")
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(
            semi_axes=axes, center=ctr, euler=ang,
            _flat=axes + _rotation_rows(*ang) + ctr,
        )

    @property
    def rotation(self) -> np.ndarray:
        """The cached 3x3 body-to-global rotation matrix."""
        return np.array(self._flat[3:12]).reshape(3, 3)


# ---------------------------------------------------------------------------
# scalar kernels (plain floats)

def _frame_fast(K, theta: float, phi: float):
    """The fields of a :class:`SurfaceFrame`, as a plain tuple, of the body
    with the 15-float layout ``K`` of ``Ellipsoid._flat``. ``solve`` calls
    it for its contact hand-off and result, and for the witness segment of
    a misaligned warm start (``_begin``); the depth continuation for its
    report's normals. Their step kernels repeat this arithmetic."""
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, cx, cy, cz = K
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)

    # body-frame position, normal and tangents; the last three made unit.
    # The theta tangent's zero z stays in the sums, so that every product
    # rounds (signed zeros included) as in a full 3x3 rotation.
    px, py, pz = a * sp * ct, b * sp * st, c * cp
    nx, ny, nz = b * c * sp * ct, a * c * sp * st, a * b * cp
    n = math.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / n, ny / n, nz / n
    tx, ty, tz = -a * sp * st, b * sp * ct, 0.0
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    qx, qy, qz = a * cp * ct, b * cp * st, -c * sp
    q = math.sqrt(qx * qx + qy * qy + qz * qz)
    qx, qy, qz = qx / q, qy / q, qz / q

    pos = (
        (r00 * px + r01 * py + r02 * pz) + cx,
        (r10 * px + r11 * py + r12 * pz) + cy,
        (r20 * px + r21 * py + r22 * pz) + cz,
    )
    normal = (
        r00 * nx + r01 * ny + r02 * nz,
        r10 * nx + r11 * ny + r12 * nz,
        r20 * nx + r21 * ny + r22 * nz,
    )
    if t < POLE_TOL * max(a, b):
        et = None
    else:
        tx, ty, tz = tx / t, ty / t, tz / t
        et = (
            r00 * tx + r01 * ty + r02 * tz,
            r10 * tx + r11 * ty + r12 * tz,
            r20 * tx + r21 * ty + r22 * tz,
        )
    ep = (
        r00 * qx + r01 * qy + r02 * qz,
        r10 * qx + r11 * qy + r12 * qz,
        r20 * qx + r21 * qy + r22 * qz,
    )
    return pos, normal, et, ep


def _reach(K, ux: float, uy: float, uz: float):
    """The body-axis vector w = diag(a) R^T u of the body with the flat
    layout ``K``, and its length s(u) = sqrt(u^T A u), A = R diag(a^2) R^T:
    how far the body reaches beyond its center along the unit u. Returned
    as (wx, wy, wz, s); -u gives exactly -w and the same s."""
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, _, _, _ = K
    wx = a * (r00 * ux + r10 * uy + r20 * uz)
    wy = b * (r01 * ux + r11 * uy + r21 * uz)
    wz = c * (r02 * ux + r12 * uy + r22 * uz)
    return wx, wy, wz, math.sqrt(wx * wx + wy * wy + wz * wz)


def _support_gap(K1, K2, ux: float, uy: float, uz: float):
    """The support gap s(u) = (c2 - c1).u - s1(u) - s2(u) of the bodies
    with flat layouts ``K1`` and ``K2`` along the unit u, with both
    ``_reach`` tuples (at u, not -u): a lower bound on the signed distance
    (weak duality), so a positive s(u) proves the bodies disjoint. Returned
    as (s, h1, h2)."""
    h1, h2 = _reach(K1, ux, uy, uz), _reach(K2, ux, uy, uz)
    gap = (K2[12] - K1[12]) * ux + (K2[13] - K1[13]) * uy + (K2[14] - K1[14]) * uz
    return gap - h1[3] - h2[3], h1, h2


# ---------------------------------------------------------------------------
# public operations

def to_local_point(e: Ellipsoid, X_global) -> np.ndarray:
    """Body-frame coordinates of a global point."""
    X = np.asarray(X_global, dtype=float) - np.asarray(e.center)
    return e.rotation.T @ X


def surface_frame(e: Ellipsoid, p: SurfaceParam) -> SurfaceFrame:
    """The global-frame ``SurfaceFrame`` at ``p``, as ``SolverState.frames``
    reads it in the canonical chart; at a pole ``tangent_theta`` is None."""
    return SurfaceFrame(*_frame_fast(e._flat, p.theta, p.phi))


def implicit_value(e: Ellipsoid, X_global) -> float:
    """(x/a)^2 + (y/b)^2 + (z/c)^2 - 1 for the local coordinates of the
    point: negative inside, zero on the surface, positive outside.

    Plain floats over the cached ``_flat``, so ``X_global`` may be any
    3-sequence of numbers. Squares are products, not powers: a point so far
    out that one overflows gives ``inf``, and a NaN coordinate gives NaN.
    """
    a, b, c, r00, r01, r02, r10, r11, r12, r20, r21, r22, cx, cy, cz = e._flat
    X, Y, Z = X_global
    dx, dy, dz = float(X) - cx, float(Y) - cy, float(Z) - cz
    # rotate back into the body frame with the transposed rows
    x = (r00 * dx + r10 * dy + r20 * dz) / a
    y = (r01 * dx + r11 * dy + r21 * dz) / b
    z = (r02 * dx + r12 * dy + r22 * dz) / c
    return x * x + y * y + z * z - 1.0


def param_from_local_point(e: Ellipsoid, x_local) -> SurfaceParam:
    """Invert the parametric map for a point on the surface.

    phi = atan2(hypot(x/a, y/b), z/c) and theta = atan2(y/b, x/a) wrapped
    into [0, 2*pi). Poles report theta = 0. A point off the surface, one
    so far out that its implicit value overflows, and a NaN coordinate all
    raise ValueError.
    """
    x, y, z = (float(v) for v in x_local)
    a, b, c = e.semi_axes
    # products, as in implicit_value: inf where a power would overflow
    resid = (x / a) * (x / a) + (y / b) * (y / b) + (z / c) * (z / c) - 1.0
    if not abs(resid) <= ON_SURFACE_TOL:  # NaN fails this too
        raise ValueError(
            f"point is off the surface (implicit value {resid:.3e} exceeds "
            f"{ON_SURFACE_TOL:.0e})"
        )
    theta, phi = _unit_param(x / a, y / b, z / c)
    if math.hypot(x / a, y / b) < 1e-12:
        return SurfaceParam(0.0, phi)  # pole convention
    return SurfaceParam(theta, phi)


def line_surface_entry(e: Ellipsoid, A, B) -> SurfaceParam:
    """Parameters of the point where the segment A -> B first meets the
    surface (the entry point as seen from A).

    No solver path calls it: the cold start uses ``slider._ray_exit``. It
    stays only because the benchmark's tracer and layer bench and the
    tests call it by name, so its numpy rotation and dot products stay as
    they are."""
    a, b, c = e.semi_axes
    cx, cy, cz = e.center
    RT = e.rotation.T
    ax, ay, az = (RT @ np.array((float(A[0]) - cx, float(A[1]) - cy, float(A[2]) - cz))).tolist()
    bx, by, bz = (RT @ np.array((float(B[0]) - cx, float(B[1]) - cy, float(B[2]) - cz))).tolist()
    ia, ib, ic = 1.0 / a, 1.0 / b, 1.0 / c
    p = np.array((ax * ia, ay * ib, az * ic))
    d = np.array(((bx - ax) * ia, (by - ay) * ib, (bz - az) * ic))
    qa = float(d @ d)
    qb = 2.0 * float(p @ d)
    qc = float(p @ p) - 1.0
    if qa == 0.0:
        raise NoIntersectionError("degenerate segment (A == B)")
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoIntersectionError("segment does not intersect the ellipsoid")
    sq = math.sqrt(disc)
    for t in sorted(((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa))):
        if 0.0 <= t <= 1.0:
            x, y, z = ax + t * (bx - ax), ay + t * (by - ay), az + t * (bz - az)
            return param_from_local_point(e, (x, y, z))
    raise NoIntersectionError("both intersections lie outside the segment")
