"""Seeded inputs and the four benchmark workloads.

Every workload turns ``--seed`` into a fixed list of operations at set-up.
One pass runs that list once, in order, as a closed loop: each call into the
program starts after the previous one has returned. Only ``call`` is timed;
``summarize`` turns a result (or the exception it raised) into an
``Outcome`` and ``check`` verifies it, both outside the timed region.

The generators repeat the RNG call order of the test suite's helpers
(``numpy.random.default_rng``, semi-axes log-uniform, rejection on the
aspect ratio, uniform Euler angles), so seed 2024 reproduces the 200-pair
random set quoted in ROADMAP.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

import checks

PI = math.pi
PERTURBATION = 1e-3
OVERLAP_FRACS = (0.3, 0.6, 0.9)


@dataclass(frozen=True)
class Outcome:
    """What the checks and the count metrics need from one operation.

    ``error`` names the exception type when the call raised. ``iterations``
    is None where the public result carries no count (``contact.analyze``).
    ``points`` are the two witness points as float triples.
    """

    error: str | None = None
    status: str = ""
    distance: float = math.nan
    iterations: int | None = None
    criteria: tuple = ()
    points: tuple = ()
    oracle_gap: float | None = None


# ---------------------------------------------------------------------------
# generators


def random_ellipsoid(geometry, rng, lo=0.02, hi=2.0, max_aspect=30.0):
    """Semi-axes log-uniform in [lo, hi] with max/min <= max_aspect, uniform
    Euler angles, centered at the origin."""
    while True:
        axes = np.exp(rng.uniform(math.log(lo), math.log(hi), 3))
        if axes.max() / axes.min() <= max_aspect:
            break
    euler = rng.uniform(-PI, PI, 3)
    return geometry.Ellipsoid(tuple(axes), (0.0, 0.0, 0.0), tuple(euler))


def random_separated_pair(geometry, rng):
    """Two ellipsoids whose center gap exceeds the sum of their largest
    semi-axes by a factor in [1.05, 2.05)."""
    e1 = random_ellipsoid(geometry, rng)
    e2 = random_ellipsoid(geometry, rng)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    gap = (max(e1.semi_axes) + max(e2.semi_axes)) * (1.05 + rng.uniform(0.0, 1.0))
    c1 = rng.uniform(-1.0, 1.0, 3)
    c2 = c1 + gap * u
    return (
        geometry.Ellipsoid(e1.semi_axes, tuple(c1), e1.euler),
        geometry.Ellipsoid(e2.semi_axes, tuple(c2), e2.euler),
    )


def random_overlap_pair(geometry, rng, frac):
    """Semi-axes in [0.2, 1], aspect <= 5; e2's center at
    frac * (max a1 + max a2) from e1's in a random direction. Small fracs put
    one center inside the other body."""
    e1 = random_ellipsoid(geometry, rng, lo=0.2, hi=1.0, max_aspect=5.0)
    e2 = random_ellipsoid(geometry, rng, lo=0.2, hi=1.0, max_aspect=5.0)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    c2 = frac * (max(e1.semi_axes) + max(e2.semi_axes)) * u
    return e1, geometry.Ellipsoid(e2.semi_axes, tuple(c2), e2.euler)


def perturbed(geometry, e, rng, magnitude=PERTURBATION):
    """A small rigid motion: every center and Euler component moves by up
    to ``magnitude``."""
    dc = rng.uniform(-magnitude, magnitude, 3)
    da = rng.uniform(-magnitude, magnitude, 3)
    return geometry.Ellipsoid(
        e.semi_axes,
        tuple(c + d for c, d in zip(e.center, dc)),
        tuple(a + d for a, d in zip(e.euler, da)),
    )


def _outcome_from_result(res) -> Outcome:
    return Outcome(
        status=res.status,
        distance=res.distance,
        iterations=res.iterations,
        criteria=res.stop_criteria,
        points=tuple(tuple(float(v) for v in p) for p in res.closest_points),
    )


def _error(exc: BaseException) -> Outcome:
    return Outcome(error=type(exc).__name__)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """``pairs[i]`` are the bodies of operation i. ``reset`` starts a pass,
    ``call`` is the timed call into the program, ``after`` updates state
    from its result, ``summarize`` and ``check`` run outside the timing."""

    reference = "python"  # which reference loop the timing scales by

    def __len__(self):
        return len(self.pairs)

    def reset(self):
        pass

    def after(self, i, result):
        pass

    def summarize(self, i, result):
        if isinstance(result, BaseException):
            return _error(result)
        return _outcome_from_result(result)

    def check(self, i, outcome):
        return checks.check_witnesses(self.oracle, *self.pairs[i], outcome)


class ColdRandom(Workload):
    """``slider.solve`` from the center-line start on random separated
    pairs."""

    name = "cold-random"

    def __init__(self, mods, seed, count, workdir):
        self.slider, self.oracle = mods.slider, mods.oracle
        rng = np.random.default_rng(seed)
        self.pairs = [random_separated_pair(mods.geometry, rng) for _ in range(count)]

    def call(self, i):
        return self.slider.solve(*self.pairs[i])


class WarmTrack(Workload):
    """Separated pairs moved by small rigid steps; each step is solved warm
    from the previous step's ``params``."""

    name = "warm-track"
    steps = 16

    def __init__(self, mods, seed, count, workdir):
        self.slider, self.oracle = mods.slider, mods.oracle
        geometry = mods.geometry
        rng = np.random.default_rng(seed)
        self.pairs = []  # chain-major: operation i is step i % steps of chain i // steps
        starts = []
        for _ in range(max(1, round(count / self.steps))):
            e1, e2 = random_separated_pair(geometry, rng)
            starts.append((e1, e2))
            for _ in range(self.steps):
                e1 = perturbed(geometry, e1, rng)
                e2 = perturbed(geometry, e2, rng)
                self.pairs.append((e1, e2))
        # the chains start from a cold solve of their unperturbed pose
        self.start_params = [self.slider.solve(e1, e2).params for e1, e2 in starts]
        self.reset()

    def reset(self):
        self.params = list(self.start_params)

    def call(self, i):
        e1, e2 = self.pairs[i]
        return self.slider.solve(e1, e2, self.params[i // self.steps])

    def after(self, i, result):
        if not isinstance(result, BaseException):
            self.params[i // self.steps] = result.params


class OverlapAnalyze(Workload):
    """``contact.analyze`` on overlapping pairs, the fracs cycling through
    0.3, 0.6 and 0.9."""

    name = "overlap-analyze"

    def __init__(self, mods, seed, count, workdir):
        self.contact = mods.contact
        rng = np.random.default_rng(seed)
        self.pairs = [
            random_overlap_pair(mods.geometry, rng, OVERLAP_FRACS[i % len(OVERLAP_FRACS)])
            for i in range(count)
        ]

    def call(self, i):
        return self.contact.analyze(*self.pairs[i])

    def summarize(self, i, result):
        if isinstance(result, BaseException):
            return _error(result)
        return Outcome(status=result.kind, distance=result.distance_or_depth)

    def check(self, i, outcome):
        return checks.check_contact(*self.pairs[i], outcome)


class CliVerify(Workload):
    """``surfslide solve <file> --verify --trace <csv>`` on scenario files
    written at set-up: the seven builtins plus seeded random separated
    pairs."""

    name = "cli-verify"
    # the lattice oracle's array code takes about 90% of an operation
    reference = "numpy"

    def __init__(self, mods, seed, count, workdir):
        self.cli = mods.cli
        scenarios = mods.scenarios
        rng = np.random.default_rng(seed)
        cases = list(scenarios.builtin_scenarios())
        for j in range(max(0, count - len(cases))):
            e1, e2 = random_separated_pair(mods.geometry, rng)
            cases.append(scenarios.Scenario(name=f"random-{seed}-{j}", e1=e1, e2=e2))
        self.tol_n = [sc.config().tol_n for sc in cases]
        self.pairs = [(sc.e1, sc.e2) for sc in cases]
        workdir = tempfile.mkdtemp(dir=workdir)  # one directory per instance
        self.files = []
        for j, sc in enumerate(cases):
            path = os.path.join(workdir, f"scenario-{j:02d}.json")
            scenarios.save_scenario(sc, path)
            self.files.append(path)
        self.trace_path = os.path.join(workdir, "trace.csv")

    def call(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["solve", self.files[i], "--verify", "--trace", self.trace_path])
        return code, out.getvalue()

    def summarize(self, i, result):
        if isinstance(result, BaseException):
            return _error(result)
        code, text = result
        try:
            rec = json.loads(text)
        except json.JSONDecodeError:
            return Outcome(error=f"exit-{code}-no-record")
        # the record carries final eps values, not the stop criteria; only
        # the eps_n certificate matters to the metrics
        eps_n = rec["final_eps"]["eps_n"]
        return Outcome(
            status=rec["status"],
            distance=rec["distance"],
            iterations=rec["iterations"],
            criteria=("eps_n",) if eps_n is not None and eps_n < self.tol_n[i] else (),
            points=tuple(tuple(p) for p in rec["closest_points"]),
            oracle_gap=rec.get("oracle_gap"),
        )

    def check(self, i, outcome):
        return checks.check_cli_record(outcome)


WORKLOADS = {w.name: w for w in (ColdRandom, WarmTrack, OverlapAnalyze, CliVerify)}
