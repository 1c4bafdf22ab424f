"""Built-in demonstration systems and the scenario file format.

A scenario file is a flat JSON document, one scenario per file:

    {
      "name": "system-II-aligned",
      "e1": {"semi_axes": [1, 0.6, 0.4], "center": [-1.5, 0, 0],
             "euler": [0, 0, 0]},
      "e2": {"semi_axes": [1, 0.6, 0.4], "center": [1.5, 0, 0],
             "euler": [0, 1.5707963267948966, 0]},
      "init": [theta1, phi1, theta2, phi2],          // optional
      "lambda0": 0.05,                                // optional overrides
      "tol_d": ..., "tol_n": ..., "tol_lambda": ...,  // optional
      "max_iter": ...,                                // optional
      "expected": {"distance": 1.6, "provenance": "..."}  // optional
    }

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import pi, sqrt

from .geometry import Ellipsoid, SurfaceParam
from .slider import SolverConfig

_CONFIG_KEYS = ("lambda0", "tol_d", "tol_n", "tol_lambda", "max_iter")
_TOP_KEYS = frozenset(("name", "e1", "e2", "init", "expected") + _CONFIG_KEYS)
_ELLIPSOID_KEYS = frozenset(("semi_axes", "center", "euler"))
_EXPECTED_KEYS = frozenset(("distance", "provenance"))


class ScenarioFormatError(ValueError):
    """Scenario file violates the documented schema."""


@dataclass(frozen=True)
class Scenario:
    name: str
    e1: Ellipsoid
    e2: Ellipsoid
    init: tuple[SurfaceParam, SurfaceParam] | None = None
    config_overrides: dict | None = None
    expected: tuple[float, str] | None = None

    def config(self) -> SolverConfig:
        """The default configuration with this scenario's overrides."""
        return SolverConfig(**(self.config_overrides or {}))


# The seven demonstration systems in their listed order, exactly as
# tabulated: each one's two bodies as (semi_axes, center, euler), its start
# as (theta1, phi1, theta2, phi2) or None, and its expected distance with
# provenance (a distance None is the support-point distance). The rotated
# systems share one pose per body, with the printed center 1.0607 rather
# than 1.5/sqrt(2); see the README note on expected distances.
_ROTATED_1 = ((-1.0607, 0.0, -1.0607), (0.0, -pi / 4, 0.0))  # (center, euler)
_ROTATED_2 = ((1.0607, 0.0, 1.0607), (0.0, pi / 4, 0.0))
_SYSTEM_II_PROVENANCE = (
    "analytic support-point distance |dX0| - a1 - c2 "
    "(the tabulated reference quotes 1.4, which conflicts with this arithmetic)"
)
_BUILTINS = {
    "system-I": (
        ((1.0, 0.6, 0.4), (-1.5, 0.0, 0.0), (0.0, pi / 6, 0.0)),
        ((0.6, 0.7, 0.5), (1.0, 0.5, 0.5), (0.0, 0.0, pi / 4)),
        (7 * pi / 6, 2 * pi / 3, 11 * pi / 6, pi / 2),
        (1.2856, "tabulated reference value; under the stored orientation "
                 "convention the lattice oracle gives 1.26203"),
    ),
    "system-II-aligned": (
        ((1.0, 0.6, 0.4), (-1.5, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((1.0, 0.6, 0.4), (1.5, 0.0, 0.0), (0.0, pi / 2, 0.0)),
        None,
        (None, _SYSTEM_II_PROVENANCE),
    ),
    "system-II-rotated": (
        ((1.0, 0.6, 0.4), *_ROTATED_1),
        ((1.0, 0.6, 0.4), *_ROTATED_2),
        None,
        (None, _SYSTEM_II_PROVENANCE),
    ),
    # System III's second bodies by label (lower case: a semi-axis ten
    # times shorter)
    **{
        f"system-III-{label}": (
            ((0.2, 0.4, 0.6), *_ROTATED_1),
            (axes, *_ROTATED_2),
            (4 * pi / 3, pi / 3, 7 * pi / 4, pi / 2),
            (None, "analytic support-point distance, oracle-verified"),
        )
        for label, axes in (("ABC", (0.2, 0.4, 0.6)), ("aBC", (0.02, 0.4, 0.6)),
                            ("abC", (0.02, 0.04, 0.6)), ("abc", (0.02, 0.04, 0.06)))
    },
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    """The builtin ``name``, built alone; other names raise KeyError before
    any body is built."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin scenario {name!r}")
    body1, body2, start, (distance, provenance) = _BUILTINS[name]
    e1, e2 = Ellipsoid(*body1), Ellipsoid(*body2)
    if distance is None:
        # |X02 - X01| - a1 - c2: valid when e1's a-axis and e2's -c-axis
        # both face along the center line
        dx = [e2.center[i] - e1.center[i] for i in range(3)]
        distance = sqrt(sum(v * v for v in dx)) - e1.semi_axes[0] - e2.semi_axes[2]
    init = None if start is None else (SurfaceParam(*start[:2]), SurfaceParam(*start[2:]))
    return Scenario(name, e1, e2, init, {"lambda0": 0.05}, (distance, provenance))


def builtin_scenarios() -> list[Scenario]:
    """The seven demonstration systems, in table order."""
    return [builtin_scenario(name) for name in _BUILTINS]


# ---------------------------------------------------------------------------
# serialization

def _is_number(x) -> bool:
    """A JSON number: an int or float, but not a boolean (``True`` is an
    int to Python)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(x, field) -> float:
    try:  # JSON allows integer literals beyond the float range, such as 10^400
        return float(x)
    except OverflowError:
        raise ScenarioFormatError(f"{field} holds a number too large for a float") from None


def _require_vec3(obj, field, where):
    v = obj.get(field)
    if not isinstance(v, list) or len(v) != 3 or not all(map(_is_number, v)):
        raise ScenarioFormatError(f"{where}.{field} must be a list of 3 numbers")
    return tuple(_float(x, f"{where}.{field}") for x in v)


def _parse_ellipsoid(obj, where):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    unknown = set(obj) - _ELLIPSOID_KEYS
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _ELLIPSOID_KEYS - set(obj)
    if missing:
        raise ScenarioFormatError(f"{where}: missing keys {sorted(missing)}")
    axes = _require_vec3(obj, "semi_axes", where)
    if min(axes) <= 0.0:
        raise ScenarioFormatError(f"{where}.semi_axes: semi-axis must be positive")
    return Ellipsoid(
        axes, _require_vec3(obj, "center", where), _require_vec3(obj, "euler", where)
    )


def scenario_to_dict(sc: Scenario) -> dict:
    doc: dict = {"name": sc.name}
    for tag, e in (("e1", sc.e1), ("e2", sc.e2)):
        doc[tag] = {
            "semi_axes": list(e.semi_axes),
            "center": list(e.center),
            "euler": list(e.euler),
        }
    if sc.init is not None:
        p1, p2 = sc.init
        doc["init"] = [p1.theta, p1.phi, p2.theta, p2.phi]
    for key in _CONFIG_KEYS:
        if sc.config_overrides and key in sc.config_overrides:
            doc[key] = sc.config_overrides[key]
    if sc.expected is not None:
        doc["expected"] = {"distance": sc.expected[0], "provenance": sc.expected[1]}
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top-level document must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioFormatError(f"unknown keys {sorted(unknown)}")
    for field in ("name", "e1", "e2"):
        if field not in doc:
            raise ScenarioFormatError(f"missing required key {field!r}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ScenarioFormatError("name must be a non-empty string")

    e1 = _parse_ellipsoid(doc["e1"], "e1")
    e2 = _parse_ellipsoid(doc["e2"], "e2")

    init = None
    if "init" in doc:
        raw = doc["init"]
        if not isinstance(raw, list) or len(raw) != 4 or not all(map(_is_number, raw)):
            raise ScenarioFormatError("init must be [theta1, phi1, theta2, phi2]")
        theta1, phi1, theta2, phi2 = (_float(v, "init") for v in raw)
        init = (SurfaceParam(theta1, phi1), SurfaceParam(theta2, phi2))
        for p in init:
            if not p.is_canonical():
                raise ScenarioFormatError(
                    f"init ({p.theta}, {p.phi}) outside the canonical parameter range "
                    "(0 <= theta < 2*pi, 0 <= phi <= pi)"
                )

    overrides = {}
    for key in _CONFIG_KEYS:
        if key in doc:
            v = doc[key]
            if not _is_number(v):
                raise ScenarioFormatError(f"{key} must be a number")
            if key == "max_iter" and isinstance(v, float) and not v.is_integer():
                raise ScenarioFormatError(f"max_iter must be a finite whole number, not {v!r}")
            overrides[key] = int(v) if key == "max_iter" else _float(v, key)
    if overrides:
        SolverConfig(**overrides)  # validates ranges

    expected = None
    if "expected" in doc:
        exp = doc["expected"]
        if not isinstance(exp, dict) or set(exp) - _EXPECTED_KEYS:
            raise ScenarioFormatError("expected must be {distance, provenance}")
        if "distance" not in exp or not _is_number(exp["distance"]):
            raise ScenarioFormatError("expected.distance must be a number")
        expected = (_float(exp["distance"], "expected.distance"), str(exp.get("provenance", "")))

    return Scenario(
        name=doc["name"],
        e1=e1,
        e2=e2,
        init=init,
        config_overrides=overrides or None,
        expected=expected,
    )


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        return scenario_from_dict(doc)
    except ValueError as exc:  # ScenarioFormatError included
        raise ScenarioFormatError(f"{path}: {exc}") from exc
