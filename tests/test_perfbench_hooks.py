"""The benchmark calls the program by name: its tracer wraps module
attributes, and its workloads, checks and isolation loops look up more. A
renamed or deleted name, or a changed signature, crashes every benchmark
run, and the benchmark's own tests run outside this suite. So the names are
checked here, and one operation of each workload is built, run and checked
the way the benchmark does it."""

import functools
import importlib
import math
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import run  # noqa: E402
from tracer import WRAPPED  # noqa: E402
from workloads import WORKLOADS, random_separated_pair  # noqa: E402

# what workloads.py, checks.py and layers.py call without tracing it
UNTRACED = (
    "geometry.Ellipsoid",
    "geometry.SurfaceParam.canonical",
    "geometry.surface_frame",
    "geometry.implicit_value",
    "geometry.line_surface_entry",
    "slider.SolverConfig.resolve_sigma",
    "slider.solve",
    "slider.initial_state",
    "slider.iterate_once",
    "slider.convergence_metrics",
    "slider.apply_overshoot_schedule",
    "contact.analyze",
    "contact.classify",
    "oracle.point_to_ellipsoid",
    "oracle.oracle_min_distance",
    "scenarios.Scenario",
    "scenarios.builtin_scenarios",
    "scenarios.save_scenario",
    "scenarios.load_scenario",
    "cli.main",
)


def _module(name):
    return importlib.import_module(f"surfslide.{name}")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in WRAPPED])
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(_module(module), attr, None))


@pytest.mark.parametrize("path", UNTRACED)
def test_untraced_name_exists(path):
    module, *attrs = path.split(".")
    assert callable(functools.reduce(getattr, attrs, _module(module)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_one_op(name, tmp_path):
    # the modules already imported, not fresh copies: run.import_program
    # would re-import them under the rest of the suite
    mods = SimpleNamespace(**{m: _module(m) for m in run.LAYER_MODULES})
    wl = WORKLOADS[name](mods, 1, 2, str(tmp_path))
    p = run.run_pass(wl, range(1), wl.call)
    assert p.outcomes[0].error is None, p.outcomes[0]
    failed, _ = run.check_all(wl, p.outcomes)
    # about a quarter of overlap-analyze ops fail their check on known
    # contact defects (seed 1's op 0 ends at max-iter), so there the check
    # only has to run
    if name != "overlap-analyze":
        assert failed == [False], p.outcomes[0]
    report = run.end_to_end_metrics(p, failed, [], [0.1], [0.1])
    assert set(run.END_TO_END) <= set(report)


def test_layer_bench_measures_every_metric(tmp_path, monkeypatch):
    # the layer bench is the one caller of the step views outside the tests,
    # and only a traced benchmark run reaches it. On overlap-analyze pairs
    # it keeps the pairs on which initial_state returns, so this also pins
    # initial_state's raise on a pair with a center inside the other body.
    # One short block per metric: _per_call_ns bound its defaults to the
    # module values at import, so they are patched too.
    monkeypatch.setattr(layers, "BLOCKS", 1)
    monkeypatch.setattr(layers, "BLOCK_SECONDS", 0.0)
    monkeypatch.setattr(layers, "MAX_PAIRS", 3)
    monkeypatch.setattr(layers._per_call_ns, "__defaults__", (layers.BLOCKS, layers.BLOCK_SECONDS))
    mods = SimpleNamespace(**{m: _module(m) for m in run.LAYER_MODULES})
    wl = WORKLOADS["overlap-analyze"](mods, 1, 12, str(tmp_path))
    assert any(mods.slider._center_inside(e1, e2) for e1, e2 in wl.pairs)
    rng = np.random.default_rng(1)
    separated = [random_separated_pair(mods.geometry, rng) for _ in range(4)]
    metrics = layers.measure(mods, wl.pairs, separated, str(tmp_path), lambda n: 1.0)
    assert len(metrics) == 12
    assert all(math.isfinite(v) and v > 0.0 for v in metrics.values()), metrics
