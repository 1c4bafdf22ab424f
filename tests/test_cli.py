"""End-to-end tests of the command-line front end."""

import json
import math
from dataclasses import replace

import pytest

from surfslide import cli
from surfslide.cli import build_parser, main, write_trace
from surfslide.scenarios import builtin_scenario, load_scenario, scenario_to_dict
from surfslide.slider import SolverConfig, solve

PI = math.pi


def _overlap_scenario_file(tmp_path):
    doc = {
        "name": "overlap-pair",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [1.2, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_prints_all_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "system-I",
        "system-II-aligned",
        "system-II-rotated",
        "system-III-ABC",
        "system-III-abc",
    ):
        assert name in out


def test_solve_builtin_record_fields(capsys):
    assert main(["solve", "system-II-aligned"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scenario"] == "system-II-aligned"
    assert record["status"] == "converged"
    assert record["distance"] == pytest.approx(1.6, abs=1e-6)
    assert len(record["closest_points"]) == 2
    assert len(record["normals"]) == 2
    assert set(record["final_eps"]) == {"eps_d", "eps_n", "eps_lambda"}
    assert record["wall_time_s"] > 0


def test_solve_unknown_scenario_is_input_error(capsys):
    assert main(["solve", "does-not-exist"]) == 4
    assert "unknown scenario" in capsys.readouterr().err


def test_bad_flag_value_is_input_error(capsys):
    assert main(["solve", "system-I", "--lambda0", "frog"]) == 4


def test_invalid_config_is_input_error(capsys):
    assert main(["solve", "system-I", "--lambda0", "-1"]) == 4
    assert "invalid solver configuration" in capsys.readouterr().err


def test_solve_scenario_file(tmp_path, capsys):
    doc = {
        "name": "spheres",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "spheres.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["distance"] == pytest.approx(1.0, abs=1e-8)


def test_solve_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope}")
    assert main(["solve", str(path)]) == 4


def test_solve_writes_trace_csv(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["solve", "system-I", "--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert lines[0] == (
        "k,theta1,phi1,theta2,phi2,distance,lambda1,lambda2,eps_d,eps_n,overshoot"
    )
    assert lines[1].startswith("0,")  # initial state recorded
    assert lines[1].split(",")[8] == "nan"  # eps_d undefined at k = 0
    assert len(lines) > 50
    # every data row parses
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 11
        int(fields[0])
        assert fields[10] in ("0", "1")


def test_solve_revert_mode_trace_is_monotone(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["solve", "system-I", "--mode", "revert", "--trace", str(trace)]) == 0
    record = json.loads(capsys.readouterr().out)
    distances = [float(row.split(",")[5]) for row in trace.read_text().splitlines()[1:]]
    assert all(b - a <= 1e-15 for a, b in zip(distances, distances[1:]))
    sc = builtin_scenario("system-I")
    config = SolverConfig(lambda0=0.05, overshoot_mode="revert-and-retry")
    assert record["iterations"] == solve(sc.e1, sc.e2, sc.init, config).iterations


def test_parser_is_reused_without_leaking_flags(capsys):
    # main parses with one parser per process; a flag given in one call
    # must not carry over into the next
    assert build_parser() is build_parser()
    assert main(["solve", "system-I", "--mode", "revert"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 102
    assert main(["solve", "system-I"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 133


def test_solve_flags_override_scenario_keys(tmp_path, capsys):
    doc = scenario_to_dict(builtin_scenario("system-I"))
    doc["name"] = "system-I-copy"
    doc["lambda0"] = 0.5
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--lambda0", "0.05"]) == 0
    copy = json.loads(capsys.readouterr().out)
    assert main(["solve", "system-I"]) == 0
    builtin = json.loads(capsys.readouterr().out)
    for record in (copy, builtin):
        del record["scenario"], record["wall_time_s"]
    assert copy == builtin


@pytest.mark.parametrize("gap", [0.0, 1e-7])
def test_solve_tangent_spheres_exit_contact(gap, tmp_path, capsys):
    # a start below the contact threshold (1e-6 here) is contact, not converged
    doc = {
        "name": "tangent",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [2 + gap, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 6
    record = json.loads(capsys.readouterr().out)
    assert record["contact_kind"] == "in-contact"
    assert abs(record["contact_value"]) < 1e-6


@pytest.mark.filterwarnings("error")
def test_coincident_start_witnesses_are_contact(tmp_path, capsys):
    # the center-line start puts both witnesses on the same point, 0 apart:
    # contact, with nothing divided by the zero distance
    doc = {
        "name": "coincident",
        "e1": {"semi_axes": [0.5, 0.5, 0.5], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [0.5, 0.5, 0.5], "center": [0, 1, 0], "euler": [PI, 0, 0]},
    }
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    res = solve(sc.e1, sc.e2)
    assert res.status == "contact" and res.distance == 0.0
    assert main(["solve", str(path)]) == 6
    assert json.loads(capsys.readouterr().out)["contact_kind"] == "in-contact"


def test_solve_small_body_above_wide_disk_prints_a_record(tmp_path, capsys):
    # a 0.01 sphere 200 out over a (300, 300, 0.5) disk: the segment entry
    # into the sphere, solved from the disk's center, landed 4e-8 off its
    # surface and raised; the start now comes from each body's own center
    doc = {
        "name": "disk",
        "e1": {"semi_axes": [300, 300, 0.5], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [0.01, 0.01, 0.01], "center": [200, 0, 0.52], "euler": [0, 0, 0]},
    }
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    record = json.loads(captured.out)
    assert code in (0, 2, 3) and record["status"] in ("converged", "max-iter", "lambda-floor")
    assert math.isfinite(record["distance"])


def test_solve_concentric_pair_is_input_error(tmp_path, capsys):
    doc = {
        "name": "concentric",
        "e1": {"semi_axes": [1, 0.5, 0.4], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [2, 1.5, 1.2], "center": [0, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "concentric.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--verify"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "surfslide: error: concentric bodies have no center line\n"


def test_solve_verify_includes_oracle(capsys):
    assert main(["solve", "system-II-aligned", "--verify"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_distance"] == pytest.approx(1.6, abs=1e-5)
    assert record["oracle_gap"] < 1e-5


def test_solve_max_iter_exit_code(capsys):
    assert main(["solve", "system-I", "--max-iter", "2"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "max-iter"


def test_solve_overlap_exit_code_and_contact_record(tmp_path, capsys):
    path = _overlap_scenario_file(tmp_path)
    assert main(["solve", path]) == 7
    record = json.loads(capsys.readouterr().out)
    assert record["contact_kind"] == "overlapping"
    # signed value: negative magnitude = penetration depth
    assert record["contact_value"] == pytest.approx(-0.8, abs=1e-4)


def test_solve_overlap_trace_leaves_record_and_csv_unchanged(tmp_path, capsys, monkeypatch):
    # the trace is the first solve's; the depth run gets a config without
    # record_trace, and the record reads as it does untraced
    path = _overlap_scenario_file(tmp_path)
    traced_configs = []
    analyze = cli.contact_analyze

    def recording_analyze(e1, e2, config, init):
        traced_configs.append(config.record_trace)
        return analyze(e1, e2, config, init)

    monkeypatch.setattr(cli, "contact_analyze", recording_analyze)
    trace = tmp_path / "t.csv"
    assert main(["solve", path, "--trace", str(trace)]) == 7
    traced = json.loads(capsys.readouterr().out)
    assert main(["solve", path]) == 7
    plain = json.loads(capsys.readouterr().out)
    assert traced_configs == [False, False]
    traced.pop("wall_time_s")
    plain.pop("wall_time_s")
    assert traced == plain
    sc = load_scenario(path)
    res = solve(sc.e1, sc.e2, sc.init, replace(sc.config(), record_trace=True))
    write_trace(str(tmp_path / "direct.csv"), res.trace)
    assert trace.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_solve_failed_depth_continuation_exits_max_iter(tmp_path, capsys):
    # a contained sphere overlaps for certain; two continuation steps cannot
    # reach the depth, so the run reports max-iter, not an overlap
    doc = {
        "name": "contained",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [0.3, 0.3, 0.3], "center": [0.5, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "contained.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--max-iter", "2"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "overlap"
    assert record["contact_kind"] == "max-iter"


def test_solve_center_inside_other_body_exits_overlap(tmp_path, capsys):
    # each center lies inside the other sphere: the center-to-center segment
    # meets neither surface, and the overlap is certain from the start
    doc = {
        "name": "centers-inside",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [0.8, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 7
    record = json.loads(capsys.readouterr().out)
    assert record["contact_kind"] == "overlapping"
    assert record["contact_value"] == pytest.approx(-1.2, abs=1e-4)


def test_solve_deterministic_output(tmp_path, capsys):
    args = ["solve", "system-III-ABC", "--trace", str(tmp_path / "a.csv")]
    main(args)
    first = capsys.readouterr().out
    first_csv = (tmp_path / "a.csv").read_bytes()
    args = ["solve", "system-III-ABC", "--trace", str(tmp_path / "b.csv")]
    main(args)
    second = capsys.readouterr().out
    second_csv = (tmp_path / "b.csv").read_bytes()
    # byte-identical modulo the wall-time field
    a = json.loads(first)
    b = json.loads(second)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b
    assert first_csv == second_csv


def test_sweep_lambda0(capsys):
    code = main(
        ["sweep", "system-I", "--param", "lambda0", "--values", "0.5,0.1,0.05,0.01"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda0=0.5" in out
    assert "distance spread" in out
    spread = float(out.strip().splitlines()[-1].split(":")[1])
    assert spread < 1e-6


def test_sweep_init_seed_json(capsys):
    code = main(
        [
            "sweep",
            "system-I",
            "--param",
            "init-seed",
            "--count",
            "8",
            "--seed",
            "7",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["runs"]) == 8
    assert doc["distance_spread"] < 1e-6


def test_sweep_missing_values_is_input_error(capsys):
    assert main(["sweep", "system-I", "--param", "lambda0"]) == 4


def test_bench_zero_steps(capsys):
    assert main(["bench", "system-I", "--steps", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 0


def test_bench_zero_perturbation_warm_is_instant(capsys):
    code = main(
        [
            "bench",
            "system-I",
            "--steps",
            "5",
            "--perturbation",
            "0",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["warm_mean_iterations"] <= 2
    assert doc["max_distance_gap"] <= 1e-8


def test_bench_small_run(capsys):
    code = main(
        ["bench", "system-I", "--steps", "30", "--perturbation", "1e-3", "--seed", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["warm_mean_iterations"] < doc["cold_mean_iterations"]
    assert doc["max_distance_gap"] <= 1e-8


def test_bench_overlap_abort(tmp_path, capsys):
    path = _overlap_scenario_file(tmp_path)
    code = main(["bench", path, "--steps", "3", "--perturbation", "1e-3"])
    assert code == 5


def test_bench_pole_optimum_warm_matches_cold(capsys):
    # system-II-aligned's contact point is the second body's -c pole, where
    # a theta step barely moves the witness unless the solver re-charts
    code = main(
        [
            "bench",
            "system-II-aligned",
            "--steps",
            "20",
            "--perturbation",
            "1e-3",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_distance_gap"] <= 1e-8
