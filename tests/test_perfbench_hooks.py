"""The benchmark calls the program by name: its tracer wraps module
attributes, and its workloads, checks and isolation loops look up more. A
renamed or deleted name, or a changed signature, crashes every benchmark
run, and the benchmark's own tests run outside this suite. So the names are
checked here, and one operation of each workload is built, run and checked
the way the benchmark does it."""

import functools
import importlib
import pathlib
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
from tracer import WRAPPED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

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
