"""End-to-end tests of the command-line front end."""

import json
import math
from dataclasses import replace

import pytest

from helpers import nth_separated_pair
from surfslide import cli, scenarios, slider
from surfslide.cli import build_parser, main, write_trace
from surfslide.contact import analyze as contact_analyze, separated
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


def test_non_finite_config_is_input_error(tmp_path, capsys):
    for flags in (["--lambda0", "inf"], ["--tol-n", "nan"]):
        assert main(["solve", "system-I", *flags]) == 4
        assert "invalid solver configuration" in capsys.readouterr().err
    path = tmp_path / "inf.json"
    doc = scenario_to_dict(builtin_scenario("system-I"))
    path.write_text(json.dumps({**doc, "lambda0": math.inf}))
    assert "Infinity" in path.read_text()
    assert main(["solve", str(path)]) == 4
    assert "finite" in capsys.readouterr().err


# 1 is bench's warm/cold mismatch; the others are in the module docstring
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6, 7}
RUNS = {
    "solve": ["solve", "system-I", "--max-iter", "50"],
    "sweep": ["sweep", "system-I", "--param", "lambda0", "--max-iter", "50"],
    "bench": ["bench", "system-I", "--steps", "1", "--max-iter", "50"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in RUNS for f in ("--lambda0", "--tol-d", "--tol-n", "--tol-lambda")]
    + [("sweep", "--values"), ("bench", "--perturbation")],
)
def test_float_flags_exit_without_traceback(command, flag, value, capsys):
    # ``--flag=value`` hands "-inf" to the float parser instead of reading
    # it as an option; an exception escaping main is what prints a traceback.
    # At 1e308 the perturbation draw's width, 2e308, overflows.
    argv = RUNS[command] + [f"{flag}={value}"]
    if command == "sweep" and flag != "--values":
        argv.append("--values=0.05")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in DOCUMENTED_EXIT_CODES
    assert "Traceback" not in err
    # a finite 1e308 is a valid tolerance, but not a valid lambda0 (at most
    # pi) or perturbation
    if value != "1e308" or flag in ("--lambda0", "--values", "--perturbation"):
        assert code == 4 and err.startswith("surfslide: error: ")


@pytest.mark.parametrize(
    "text, encoding, message",
    [
        ('"name": "pair", "max_iter": 1e400', "utf-8", "max_iter"),
        ('"name": "pair", "max_iter": 2.7', "utf-8", "max_iter"),
        ('"name": "caf\u00e9"', "latin-1", "not UTF-8"),
    ],
    ids=["max-iter-1e400", "max-iter-2.7", "latin-1"],
)
def test_solve_bad_scenario_file_is_input_error(text, encoding, message, tmp_path, capsys):
    bodies = (
        '"e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]}, '
        '"e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]}'
    )
    path = tmp_path / "bad.json"
    path.write_text(f"{{{bodies}, {text}}}", encoding=encoding)
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("surfslide: error: ") and message in err
    assert "Traceback" not in err


def test_solve_scenario_file_with_booleans_is_input_error(tmp_path, capsys):
    path = tmp_path / "booleans.json"
    path.write_text(
        '{"name": "pair", "max_iter": true, "lambda0": true,\n'
        ' "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [true, 0, 0]},\n'
        ' "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]}}\n'
    )
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("surfslide: error: ") and "must be" in err


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


@pytest.mark.parametrize(
    "radius, x1, x2, message",
    [
        (1e-200, 0.0, 3e-200, "concentric bodies have no center line"),
        (1.0, -1e308, 1e308, "the center line's squared length overflows"),
    ],
    ids=["squares-underflow", "squares-overflow"],
)
def test_solve_center_line_beyond_the_float_range_is_input_error(
    radius, x1, x2, message, tmp_path, capsys
):
    # spheres of radius 1e-200 whose centers lie 3e-200 apart: the center
    # line's squares underflow to 0, as for concentric bodies; centers at
    # +-1e308: the center line itself overflows
    sphere = {"semi_axes": [radius] * 3, "euler": [0, 0, 0]}
    doc = {"name": "far", "e1": {**sphere, "center": [x1, 0, 0]},
           "e2": {**sphere, "center": [x2, 0, 0]}}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"surfslide: error: {message}\n"


def test_solve_thin_body_with_its_center_inside_exits_without_traceback(tmp_path, capsys):
    # a (1e-6, 1, 1) disk at the origin, inside a unit sphere at (0.5, 0, 0):
    # a ray exit found as a segment's entry loses the disk's surface to
    # cancellation here (implicit value 1.9e-4), and the start must not raise
    doc = {
        "name": "thin",
        "e1": {"semi_axes": [1e-6, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [0.5, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "overlap" and record["contact_kind"] == "max-iter"


HUGE = 10**400  # a JSON integer literal beyond the float range


@pytest.mark.parametrize(
    "field",
    [f"{body}.{key}" for body in ("e1", "e2") for key in ("semi_axes", "center", "euler")]
    + ["init", "lambda0", "tol_d", "tol_n", "tol_lambda", "expected.distance"],
)
def test_scenario_number_too_large_for_a_float_is_input_error(field, tmp_path, capsys):
    # float() refuses such an integer with OverflowError, not ValueError
    doc = {
        "name": "huge",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]},
    }
    head, _, key = field.partition(".")
    if field == "init":
        doc["init"] = [HUGE, 1.0, 0.5, 1.0]
    elif head == "expected":
        doc["expected"] = {"distance": HUGE}
    elif key:
        doc[head][key] = [HUGE, 1, 1]
    else:
        doc[field] = HUGE
    with pytest.raises(scenarios.ScenarioFormatError, match=field):
        scenarios.scenario_from_dict(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("surfslide: error: ") and field in err and "Traceback" not in err


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_records_print_non_finite_floats_as_null(tmp_path, capsys):
    # coincident start witnesses have eps_n NaN, unit spheres 1e300 apart an
    # infinite distance, and a sweep with no converged run a NaN spread
    sphere = {"semi_axes": [0.5, 0.5, 0.5], "center": [0, 0, 0], "euler": [0, 0, 0]}
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps({
        "name": "coincident", "e1": sphere,
        "e2": {**sphere, "center": [0, 1, 0], "euler": [PI, 0, 0]},
    }))
    assert main(["solve", str(path)]) == 6
    record = _strict_json(capsys.readouterr().out)
    assert record["final_eps"]["eps_n"] is None and record["distance"] == 0.0

    path = _spheres_file(tmp_path, "far", 1.0, 1e300)
    assert main(["solve", path, "--max-iter", "5"]) == 2
    record = _strict_json(capsys.readouterr().out)
    assert record["distance"] is None and record["final_eps"]["eps_d"] is None

    argv = ["sweep", "system-I", "--param", "lambda0", "--values", "0.05", "--max-iter", "1"]
    assert main([*argv, "--json"]) == 2
    doc = _strict_json(capsys.readouterr().out)
    assert doc["distance_spread"] is None and doc["runs"][0]["status"] == "max-iter"


def test_records_round_trip_finite_floats(capsys):
    sc = builtin_scenario("system-I")
    res = solve(sc.e1, sc.e2, sc.init, sc.config())
    assert main(["solve", "system-I"]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["distance"] == res.distance
    assert record["params1"] + record["params2"] == [
        res.params[0].theta, res.params[0].phi, res.params[1].theta, res.params[1].phi]
    assert tuple(record["final_eps"].values()) == res.final_eps


@pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
def test_record_names_the_stop_criteria(name, capsys):
    # the record tells a certified eps_n stop from a bare eps_d plateau
    sc = builtin_scenario(name)
    res = solve(sc.e1, sc.e2, sc.init, sc.config())
    main(["solve", name])
    record = _strict_json(capsys.readouterr().out)
    assert record["stop_criteria"] == list(res.stop_criteria)
    assert list(record).index("stop_criteria") == list(record).index("final_eps") + 1


def test_solve_verify_includes_oracle(capsys):
    assert main(["solve", "system-II-aligned", "--verify"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_distance"] == pytest.approx(1.6, abs=1e-5)
    assert record["oracle_gap"] < 1e-5


def _body_pair_file(tmp_path, name, center2, euler2=(0, 0, 0)):
    """Two (1, 0.6, 0.4) bodies, the first at the origin with zero Euler
    angles, as a scenario file."""
    body = {"semi_axes": [1, 0.6, 0.4], "center": [0, 0, 0], "euler": [0, 0, 0]}
    e2 = {**body, "center": list(center2), "euler": list(euler2)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "e1": body, "e2": e2}))
    return str(path)


def test_solve_verify_on_overlapping_pair_records_oracle_error(tmp_path, capsys):
    path = _body_pair_file(tmp_path, "overlap-verify", (1.2, 0.1, 0), (0, 0.3, 0))
    assert main(["solve", path, "--verify"]) == 7
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_distance"] is None
    assert record["oracle_error"] == "a sampled surface point of one body lies inside the other"
    assert "oracle_gap" not in record
    assert record["contact_kind"] == "overlapping"
    assert record["contact_value"] < 0.0


@pytest.mark.parametrize(
    "semi_axis, center2", [(1e120, 3e120), (1.0, 1e300)], ids=["huge", "far"]
)
def test_solve_verify_records_an_oracle_range_error(semi_axis, center2, tmp_path, capsys):
    # the oracle raises before its arithmetic could overflow; the solve's
    # own exit code is kept
    body = {"semi_axes": [semi_axis] * 3, "center": [0, 0, 0], "euler": [0, 0, 0]}
    e2 = {**body, "center": [center2, 0, 0]}
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"name": "extreme", "e1": body, "e2": e2}))
    code = main(["solve", str(path)])
    capsys.readouterr()
    assert main(["solve", str(path), "--verify"]) == code
    record = json.loads(capsys.readouterr().out)
    assert record["oracle_distance"] is None
    assert "lattice arithmetic" in record["oracle_error"]
    assert "oracle_gap" not in record


def test_solve_lambda_floor_exit_code(tmp_path, capsys):
    # pair 4 of seed 5: with every tolerance at 1e-300 the revert-mode
    # steps fall below the lambda floor first
    e1, e2 = nth_separated_pair(5, 4)
    path = tmp_path / "lambda-floor.json"
    scenarios.save_scenario(scenarios.Scenario("lambda-floor", e1, e2), path)
    code = main(["solve", str(path), "--mode", "revert",
                 "--tol-d", "1e-300", "--tol-n", "1e-300", "--tol-lambda", "1e-300"])
    assert code == 3
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "lambda-floor"
    assert record["iterations"] == 27


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
    # one analyze call per run, with that run's own config: the traced run
    # records the trace, and the record reads as it does untraced
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
    assert traced_configs == [True, False]
    traced.pop("wall_time_s")
    plain.pop("wall_time_s")
    assert traced == plain
    sc = load_scenario(path)
    res = solve(sc.e1, sc.e2, sc.init, replace(sc.config(), record_trace=True))
    write_trace(str(tmp_path / "direct.csv"), res.trace)
    assert trace.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def _spheres_file(tmp_path, name, r2, x2):
    doc = {
        "name": name,
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [r2, r2, r2], "center": [x2, 0, 0], "euler": [0, 0, 0]},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_file_path_builds_no_builtin(tmp_path, monkeypatch):
    # a file path is not a builtin name, so resolving it builds none of the
    # builtins' bodies
    path = _spheres_file(tmp_path, "spheres", 0.5, 3.0)

    def fail():
        raise AssertionError("builtin scenarios built for a file path")

    monkeypatch.setattr(scenarios, "builtin_scenarios", fail)
    sc = cli.resolve_scenario(path)
    assert sc.name == "spheres" and sc.e2.center == (3.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "case, flags, code",
    [
        ("system-I", [], 0),
        ("in-contact", [], 6),
        ("overlapping", [], 7),
        ("center-inside", [], 7),
        ("contained", ["--max-iter", "2"], 2),
    ],
)
def test_solve_slides_each_pair_once(case, flags, code, tmp_path, capsys, monkeypatch):
    # one sliding search per run, and the answer of the two-step path it
    # replaced: solve with the trace, then analyze when not separated
    ref = {
        "system-I": lambda: "system-I",
        "in-contact": lambda: _spheres_file(tmp_path, case, 1.0, 2.0),
        "overlapping": lambda: _spheres_file(tmp_path, case, 1.0, 1.2),
        "center-inside": lambda: _spheres_file(tmp_path, case, 1.0, 0.8),
        "contained": lambda: _spheres_file(tmp_path, case, 0.3, 0.5),
    }[case]()
    sc = cli.resolve_scenario(ref)
    config = replace(sc.config(), record_trace=True, **({"max_iter": 2} if flags else {}))
    res = solve(sc.e1, sc.e2, sc.init, config)
    want = cli._record(sc.name, res, 0.0)
    if not separated(sc.e1, sc.e2, res):
        report = contact_analyze(sc.e1, sc.e2, replace(config, record_trace=False), sc.init)
        want["contact_kind"] = report.kind
        sign = -1.0 if report.kind == "overlapping" else 1.0
        want["contact_value"] = sign * report.distance_or_depth
    if sc.expected is not None:
        want["expected_distance"] = sc.expected[0]
    write_trace(str(tmp_path / "want.csv"), res.trace)

    calls = []

    def counting_solve(*a, **k):
        calls.append(1)
        return solve(*a, **k)

    monkeypatch.setattr(slider, "solve", counting_solve)
    monkeypatch.setattr(cli, "solve", counting_solve)
    trace = tmp_path / "got.csv"
    assert main(["solve", ref, "--trace", str(trace), *flags]) == code
    assert len(calls) == 1
    got = json.loads(capsys.readouterr().out)
    assert got.pop("wall_time_s") > 0.0
    want.pop("wall_time_s")
    assert got == json.loads(json.dumps(want))
    assert ("contact_kind" in got) == (code != 0)
    assert trace.read_bytes() == (tmp_path / "want.csv").read_bytes()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "system-I", "--param", "lambda0", "--values", "a,b"], "bad --values list"),
        (["sweep", "system-I", "--param", "lambda0", "--values", ","], "--values list is empty"),
        (["sweep", "system-I", "--param", "init-seed", "--count", "0"], "--count must be >= 1"),
        (["bench", "system-I", "--steps", "-1"], "--steps must be >= 0"),
        (["solve", "DIR"], "cannot read"),
        (["solve", "system-I", "--max-iter", "0"], "max_iter must be >= 1"),
    ],
    ids=["sweep-values-a-b", "sweep-values-comma", "sweep-count-0", "bench-steps-minus-1",
         "solve-directory", "solve-max-iter-0"],
)
def test_input_errors_exit_4_with_message(argv, message, tmp_path, capsys):
    # DIR stands for a directory, which no scenario reader can open
    assert main([str(tmp_path) if a == "DIR" else a for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("surfslide: error: ") and message in captured.err
    assert "Traceback" not in captured.err


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


def test_bench_abort_during_the_walk(tmp_path, capsys):
    # separated at the start; the random walk of e2 reaches e1 at step 12
    path = _body_pair_file(tmp_path, "near", (2.02, 0, 0))
    code = main(["bench", path, "--steps", "30", "--perturbation", "0.02", "--seed", "1"])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("at step 12")


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


def test_write_trace_rows(tmp_path):
    # a StepRecord is a plain tuple with named fields: it unpacks and
    # compares equal to the tuple of its values
    rows = [
        slider.StepRecord(0, 0.1, 2.0, 3.0, 1.5, 2.5, 0.05, 0.05, math.nan, 0.25, False),
        slider.StepRecord(1, -0.0, 1e-300, 2 * PI, PI, 1 / 3, 0.025, 0.05, 1e-13, math.inf, True),
    ]
    k, *_, overshoot = rows[1]
    assert (k, overshoot) == (1, True)
    assert rows[0][1:3] == (0.1, 2.0) and rows[1] == tuple(rows[1])
    path = tmp_path / "t.csv"
    write_trace(str(path), rows)
    assert path.read_text().splitlines() == [
        cli.TRACE_COLUMNS,
        "0,0.10000000000000001,2,3,1.5,2.5,0.050000000000000003,0.050000000000000003,nan,0.25,0",
        "1,-0,1e-300,6.2831853071795862,3.1415926535897931,"
        "0.33333333333333331,0.025000000000000001,0.050000000000000003,1e-13,inf,1",
    ]
