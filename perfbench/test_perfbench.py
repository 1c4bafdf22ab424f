"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


def _bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=run.ROOT,
        timeout=170,
    )


def _report(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def test_generators_reproduce_roadmap_random_set(mods):
    rng = np.random.default_rng(2024)
    iters, bare_eps_d = [], 0
    for _ in range(200):
        res = mods.slider.solve(*workloads.random_separated_pair(mods.geometry, rng))
        iters.append(res.iterations)
        bare_eps_d += res.stop_criteria == ("eps_d",)
    assert sum(iters) / len(iters) == pytest.approx(104.8, abs=0.05)
    assert max(iters) == 1916
    assert bare_eps_d == 37


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(mods, tmp_path, name):
    cls = workloads.WORKLOADS[name]

    def inputs(seed):
        wl = cls(mods, seed, 10, str(tmp_path))
        return [repr(pair) for pair in wl.pairs]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_same_seed_same_counts():
    runs = [_bench("--workload", "warm-track", "--seed", "5", "--seconds", "1")
            for _ in range(2)]
    (a, res_a), (b, res_b) = (_report(p) for p in runs)
    for key in ("iters_mean", "iters_tail", "iters_max", "fail_share", "uncertified_share"):
        assert a[key]["value"] == b[key]["value"], key
    assert res_a["attempted"] == res_b["attempted"]
    assert res_a["failed"] == res_b["failed"]
    assert res_a["correct"] and res_b["correct"]


def test_traced_run_counts_repeat():
    runs = [_bench("--workload", "overlap-analyze", "--seed", "5",
                   "--seconds", "1", "--trace", "1") for _ in range(2)]
    (a, res_a), (b, _) = (_report(p) for p in runs)
    assert res_a["correct"]
    for key, spec in a.items():
        if spec["unit"] == "count" or key == "slider.overshoot_share":
            assert spec["value"] == b[key]["value"], key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrappers_change_no_answer(mods, tmp_path, name):
    wl = workloads.WORKLOADS[name](mods, 7, 9, str(tmp_path))
    plain = run.run_pass(wl, range(len(wl)), wl.call)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run.run_pass(wl, range(len(wl)), lambda i: tracer.run_op(i, wl.call, i))
    finally:
        tracer.uninstall()
    assert [repr(o) for o in traced.outcomes] == [repr(o) for o in plain.outcomes]
    calls, _, _ = tracer.summary([1.0] * len(wl))
    assert calls["op"] == len(wl)
    assert calls["slider.solve"] >= len(wl) - sum(o.error is not None for o in plain.outcomes)


def test_tracer_restores_attributes(mods):
    from tracer import WRAPPED

    before = [getattr(getattr(mods, m), a) for m, a, _ in WRAPPED]
    tracer = Tracer()
    tracer.install(mods)
    assert all(getattr(getattr(mods, m), a) is not f for (m, a, _), f in zip(WRAPPED, before))
    tracer.uninstall()
    assert all(getattr(getattr(mods, m), a) is f for (m, a, _), f in zip(WRAPPED, before))


def _solved(mods, seed=11):
    e1, e2 = workloads.random_separated_pair(mods.geometry, np.random.default_rng(seed))
    res = mods.slider.solve(e1, e2)
    return e1, e2, workloads._outcome_from_result(res)


def test_witness_check_flags_corrupted_distance(mods):
    e1, e2, good = _solved(mods)
    assert checks.check_witnesses(mods.oracle, e1, e2, good)[0]
    bad = workloads.Outcome(**{**good.__dict__, "distance": good.distance * (1 + 1e-4)})
    assert not checks.check_witnesses(mods.oracle, e1, e2, bad)[0]


def test_witness_check_flags_corrupted_point(mods):
    e1, e2, good = _solved(mods)
    p1, p2 = good.points
    moved = (p1[0] - 1e-3, p1[1], p1[2])
    bad = workloads.Outcome(**{**good.__dict__, "points": (moved, p2)})
    assert not checks.check_witnesses(mods.oracle, e1, e2, bad)[0]


def test_witness_check_flags_unconverged(mods):
    e1, e2, good = _solved(mods)
    bad = workloads.Outcome(**{**good.__dict__, "status": "max-iter"})
    assert not checks.check_witnesses(mods.oracle, e1, e2, bad)[0]


def test_cli_check_flags_oracle_gap():
    good = workloads.Outcome(status="converged", distance=1.26, oracle_gap=1e-9)
    assert checks.check_cli_record(good)[0]
    assert not checks.check_cli_record(workloads.Outcome(status="converged", distance=1.26, oracle_gap=1e-3))[0]
    assert not checks.check_cli_record(workloads.Outcome(status="converged", distance=1.26))[0]
    assert not checks.check_cli_record(workloads.Outcome(error="NoIntersectionError"))[0]


def test_cli_workload_record_passes_check(mods, tmp_path):
    wl = workloads.CliVerify(mods, 1, 8, str(tmp_path))
    p = run.run_pass(wl, [0, 7], wl.call)
    assert all(checks.check_cli_record(o)[0] for o in p.outcomes)


def test_support_gap_matches_solver_distance(mods):
    e1, e2, good = _solved(mods)
    assert -checks.support_gap(e1, e2) == pytest.approx(good.distance, rel=1e-8)


def test_contact_check_flags_wrong_verdicts(mods):
    G = mods.geometry
    e1 = G.Ellipsoid((1.0, 0.6, 0.4), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    overlapping = G.Ellipsoid((0.8, 0.5, 0.5), (1.2, 0.0, 0.0), (0.0, 0.3, 0.0))
    separated = G.Ellipsoid((0.8, 0.5, 0.5), (3.0, 0.0, 0.0), (0.0, 0.3, 0.0))
    gap = checks.support_gap(e1, separated)
    assert checks.check_contact(e1, overlapping, workloads.Outcome(status="overlapping", distance=0.5))[0]
    assert not checks.check_contact(e1, overlapping, workloads.Outcome(status="separated", distance=0.1))[0]
    assert checks.check_contact(e1, separated, workloads.Outcome(status="separated", distance=-gap))[0]
    assert not checks.check_contact(e1, separated, workloads.Outcome(status="separated", distance=-gap * 1.01))[0]
    assert not checks.check_contact(e1, separated, workloads.Outcome(status="overlapping", distance=0.2))[0]
    assert not checks.check_contact(e1, overlapping, workloads.Outcome(status="max-iter", distance=0.2))[0]
    assert not checks.check_contact(e1, overlapping, workloads.Outcome(error="NoIntersectionError"))[0]


def test_benchmark_json_matches_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v for k, v in per_layer.items() if k in run.PER_LAYER_TRACED} == run.PER_LAYER_TRACED


def test_result_line_has_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        _, result = _report(_bench("--workload", "cold-random", "--seed", "2",
                                   "--seconds", "1", "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert math.isfinite(value["value"])


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
