"""Ellipsoid geometry: rotations, the parametric surface, and local frames.

Everything here is a pure function of its inputs. ``Ellipsoid`` values are
immutable after construction, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Body-to-global rotation, composed as Rx(alpha) @ Ry(beta) @ Rz(gamma)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array(
        [
            [cb * cg, -cb * sg, sb],
            [ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb],
            [sa * sg - ca * sb * cg, sa * cg + ca * sb * sg, ca * cb],
        ]
    )


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


@dataclass(frozen=True)
class SurfaceParam:
    """A (theta, phi) pair locating a point on an ellipsoid surface.

    Canonical form has 0 <= theta < 2*pi and 0 <= phi <= pi.
    """

    theta: float
    phi: float

    @staticmethod
    def canonical(theta: float, phi: float) -> "SurfaceParam":
        """Wrap theta into [0, 2*pi) and reflect phi back into [0, pi].

        Stepping past a pole reflects phi and shifts theta by pi, which keeps
        the point on the same continuous surface path.
        """
        return SurfaceParam(*_canonical(theta, phi))

    def is_canonical(self) -> bool:
        return 0.0 <= self.theta < TWO_PI and 0.0 <= self.phi <= math.pi


@dataclass(frozen=True)
class SurfaceFrame:
    """Position plus the outward normal and unit tangents at a surface point.

    ``tangent_theta`` is None exactly when the point sits at a pole, where
    the theta direction is degenerate.
    """

    position: np.ndarray
    normal: np.ndarray
    tangent_theta: np.ndarray | None
    tangent_phi: np.ndarray


@dataclass(frozen=True)
class Ellipsoid:
    """An ellipsoid with semi-axes (a, b, c), a global center, and an
    orientation given by the (alpha, beta, gamma) angles of
    :func:`rotation_matrix`."""

    semi_axes: tuple[float, float, float]
    center: tuple[float, float, float]
    euler: tuple[float, float, float]
    # derived, cached at construction; kept out of comparisons
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axes = tuple(float(v) for v in self.semi_axes)
        ctr = tuple(float(v) for v in self.center)
        ang = tuple(float(v) for v in self.euler)
        if len(axes) != 3 or len(ctr) != 3 or len(ang) != 3:
            raise ValueError("semi_axes, center and euler must each have 3 entries")
        for v in axes + ctr + ang:
            if not math.isfinite(v):
                raise ValueError("ellipsoid parameters must be finite")
        if min(axes) <= 0.0:
            raise ValueError("semi-axis must be positive")
        object.__setattr__(self, "semi_axes", axes)
        object.__setattr__(self, "center", ctr)
        object.__setattr__(self, "euler", ang)
        # plain floats, not numpy scalars: the frame kernel multiplies them
        object.__setattr__(self, "_rows", tuple(map(tuple, rotation_matrix(*ang).tolist())))

    @property
    def rotation(self) -> np.ndarray:
        """The cached 3x3 body-to-global rotation matrix."""
        return np.array(self._rows)

    @property
    def max_semi_axis(self) -> float:
        return max(self.semi_axes)


# ---------------------------------------------------------------------------
# scalar kernels (plain floats; the solver's inner loop lives on these)

def _local_point(a, b, c, theta, phi):
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    return a * sp * ct, b * sp * st, c * cp


def _frame_fast(e: Ellipsoid, theta: float, phi: float):
    """Global-frame (position, normal, tangent_theta-or-None, tangent_phi)
    as plain float triples. Hot path shared by the solver and the public
    :func:`surface_frame`."""
    a, b, c = e.semi_axes
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = e._rows

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

    cx, cy, cz = e.center
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


# ---------------------------------------------------------------------------
# public operations

def surface_point_local(e: Ellipsoid, p: SurfaceParam) -> np.ndarray:
    """Local coordinates of the surface point at (theta, phi)."""
    a, b, c = e.semi_axes
    return np.array(_local_point(a, b, c, p.theta, p.phi))


def to_global_point(e: Ellipsoid, x_local) -> np.ndarray:
    """Rotate a local point into the global frame and translate by the
    center."""
    x = np.asarray(x_local, dtype=float)
    return e.rotation @ x + np.asarray(e.center)


def to_global_vector(e: Ellipsoid, v_local) -> np.ndarray:
    """Rotate a local direction into the global frame (no translation)."""
    return e.rotation @ np.asarray(v_local, dtype=float)


def to_local_point(e: Ellipsoid, X_global) -> np.ndarray:
    """Inverse of :func:`to_global_point`."""
    X = np.asarray(X_global, dtype=float) - np.asarray(e.center)
    return e.rotation.T @ X


def surface_point_global(e: Ellipsoid, p: SurfaceParam) -> np.ndarray:
    return to_global_point(e, surface_point_local(e, p))


def surface_frame(e: Ellipsoid, p: SurfaceParam) -> SurfaceFrame:
    """Global-frame surface point with its unit normal and unit tangents.

    ``tangent_theta`` is None at the poles, where its defining direction
    vanishes; that degeneracy is represented, never raised.
    """
    pos, n, et, ep = _frame_fast(e, p.theta, p.phi)
    return SurfaceFrame(
        np.array(pos),
        np.array(n),
        None if et is None else np.array(et),
        np.array(ep),
    )


def implicit_value(e: Ellipsoid, X_global) -> float:
    """(x/a)^2 + (y/b)^2 + (z/c)^2 - 1 for the local coordinates of the
    point: negative inside, zero on the surface, positive outside."""
    a, b, c = e.semi_axes
    x, y, z = to_local_point(e, X_global)
    return (x / a) ** 2 + (y / b) ** 2 + (z / c) ** 2 - 1.0


def param_from_local_point(e: Ellipsoid, x_local) -> SurfaceParam:
    """Invert the parametric map for a point on the surface.

    phi = arccos(z/c) with clamping against round-off; theta = atan2(y/b, x/a)
    wrapped into [0, 2*pi). Poles report theta = 0.
    """
    x, y, z = (float(v) for v in x_local)
    a, b, c = e.semi_axes
    resid = (x / a) ** 2 + (y / b) ** 2 + (z / c) ** 2 - 1.0
    if abs(resid) > ON_SURFACE_TOL:
        raise ValueError(
            f"point is off the surface (implicit value {resid:.3e} exceeds "
            f"{ON_SURFACE_TOL:.0e})"
        )
    phi = math.acos(min(1.0, max(-1.0, z / c)))
    if math.hypot(x / a, y / b) < 1e-12:
        return SurfaceParam(0.0, phi)  # pole convention
    return SurfaceParam.canonical(math.atan2(y / b, x / a), phi)


def line_surface_entry(e: Ellipsoid, A, B) -> SurfaceParam:
    """Parameters of the point where the segment A -> B first meets the
    surface (the entry point as seen from A)."""
    a, b, c = e.semi_axes
    A_loc = to_local_point(e, A)
    B_loc = to_local_point(e, B)
    inv = np.array((1.0 / a, 1.0 / b, 1.0 / c))
    p = A_loc * inv
    d = (B_loc - A_loc) * inv
    qa = float(d @ d)
    qb = 2.0 * float(p @ d)
    qc = float(p @ p) - 1.0
    if qa == 0.0:
        raise NoIntersectionError("degenerate segment (A == B)")
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoIntersectionError("segment does not intersect the ellipsoid")
    sq = math.sqrt(disc)
    roots = sorted(((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)))
    for t in roots:
        if 0.0 <= t <= 1.0:
            return param_from_local_point(e, A_loc + t * (B_loc - A_loc))
    raise NoIntersectionError("both intersections lie outside the segment")
