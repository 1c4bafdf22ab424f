"""Minimum distance, closest points, and contact between two ellipsoids via
a surface-sliding iteration in (theta, phi) parameter space."""

from .geometry import Ellipsoid, NoIntersectionError, SurfaceParam
from .slider import DistanceResult, SolverConfig, StepRecord, solve
from .oracle import (
    OracleRangeError,
    OverlapSuspectedError,
    dual_distance,
    oracle_min_distance,
    point_to_ellipsoid,
)
from .contact import ContactReport, analyze
from .scenarios import Scenario, builtin_scenarios, load_scenario

__all__ = [
    "ContactReport",
    "DistanceResult",
    "Ellipsoid",
    "NoIntersectionError",
    "OracleRangeError",
    "OverlapSuspectedError",
    "Scenario",
    "SolverConfig",
    "StepRecord",
    "SurfaceParam",
    "analyze",
    "builtin_scenarios",
    "dual_distance",
    "load_scenario",
    "oracle_min_distance",
    "point_to_ellipsoid",
    "solve",
]

__version__ = "0.1.0"
