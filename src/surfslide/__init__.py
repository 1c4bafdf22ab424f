"""Minimum distance, closest points, and contact between two ellipsoids via
a surface-sliding iteration in (theta, phi) parameter space."""

from .geometry import (
    Ellipsoid,
    NoIntersectionError,
    SurfaceFrame,
    SurfaceParam,
    euler_from_rotation,
    implicit_value,
    line_surface_entry,
    param_from_local_point,
    rotation_matrix,
    surface_frame,
    surface_point_global,
    surface_point_local,
    to_global_point,
    to_global_vector,
)
from .slider import (
    DistanceResult,
    SolverConfig,
    SolverState,
    StepRecord,
    solve,
)
from .oracle import OracleConfig, OverlapSuspectedError, oracle_min_distance, point_to_ellipsoid
from .contact import ContactReport, classify, penetration_depth
from .scenarios import Scenario, builtin_scenarios, load_scenario

__all__ = [
    "ContactReport",
    "DistanceResult",
    "Ellipsoid",
    "NoIntersectionError",
    "OracleConfig",
    "OverlapSuspectedError",
    "Scenario",
    "SolverConfig",
    "SolverState",
    "StepRecord",
    "SurfaceFrame",
    "SurfaceParam",
    "builtin_scenarios",
    "classify",
    "euler_from_rotation",
    "implicit_value",
    "line_surface_entry",
    "load_scenario",
    "oracle_min_distance",
    "param_from_local_point",
    "penetration_depth",
    "point_to_ellipsoid",
    "rotation_matrix",
    "solve",
    "surface_frame",
    "surface_point_global",
    "surface_point_local",
    "to_global_point",
    "to_global_vector",
]

__version__ = "0.1.0"
