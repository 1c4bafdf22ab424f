"""Tests for the builtin demonstration systems and the scenario file
format."""

import json
import math
import pathlib

import pytest

from surfslide import scenarios
from surfslide.geometry import Ellipsoid
from surfslide.scenarios import (
    BUILTIN_NAMES,
    Scenario,
    ScenarioFormatError,
    builtin_scenario,
    builtin_scenarios,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from surfslide.slider import solve

PI = math.pi

SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_builtin_lookups():
    assert builtin_scenario("system-I").e1.semi_axes == (1.0, 0.6, 0.4)
    assert builtin_scenario("system-II-rotated").e1.center == (-1.0607, 0.0, -1.0607)
    assert builtin_scenario("system-III-abc").e2.semi_axes == (0.02, 0.04, 0.06)
    with pytest.raises(KeyError):
        builtin_scenario("system-X")


def test_builtin_initial_params():
    sc = builtin_scenario("system-I")
    p1, p2 = sc.init
    assert (p1.theta, p1.phi) == (7 * PI / 6, 2 * PI / 3)
    assert (p2.theta, p2.phi) == (11 * PI / 6, PI / 2)
    sc = builtin_scenario("system-III-ABC")
    p1, p2 = sc.init
    assert (p1.theta, p1.phi) == (4 * PI / 3, PI / 3)
    assert (p2.theta, p2.phi) == (7 * PI / 4, PI / 2)


def test_builtins_have_expected_with_provenance():
    for sc in builtin_scenarios():
        assert sc.expected is not None
        distance, provenance = sc.expected
        assert distance > 0
        assert isinstance(provenance, str) and provenance


def test_all_builtins_converge():
    for sc in builtin_scenarios():
        res = solve(sc.e1, sc.e2, sc.init, sc.config())
        assert res.status == "converged", sc.name


def test_round_trip_builtins(tmp_path):
    for sc in builtin_scenarios():
        path = tmp_path / f"{sc.name}.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back == sc


def test_shipped_scenario_files_match_builtins():
    for sc in builtin_scenarios():
        path = SHIPPED / f"{sc.name}.json"
        assert path.exists(), path
        assert load_scenario(path) == sc


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_scenario_file_is_what_save_scenario_writes(name, tmp_path):
    # the table is the one source of scenarios/*.json; rewrite them with
    # ``PYTHONPATH=src python tests/test_golden.py``
    path = tmp_path / f"{name}.json"
    save_scenario(builtin_scenario(name), path)
    assert (SHIPPED / f"{name}.json").read_bytes() == path.read_bytes()


def test_builtin_scenario_agrees_with_builtin_scenarios():
    assert [builtin_scenario(name) for name in BUILTIN_NAMES] == builtin_scenarios()


def test_builtin_scenario_builds_only_its_own_bodies(monkeypatch):
    built = []

    def counting_ellipsoid(*args):
        built.append(args)
        return Ellipsoid(*args)

    monkeypatch.setattr(scenarios, "Ellipsoid", counting_ellipsoid)
    builtin_scenario("system-I")
    assert len(built) == 2
    with pytest.raises(KeyError):
        builtin_scenario("system-X")
    assert len(built) == 2


def test_builtin_builds_share_no_config_overrides():
    first, second = builtin_scenario("system-I"), builtin_scenario("system-I")
    assert first.config_overrides is not second.config_overrides
    first.config_overrides["lambda0"] = 0.1
    assert second.config_overrides == {"lambda0": 0.05}
    assert builtin_scenarios()[0].config().lambda0 == 0.05


def test_scenario_dict_round_trip():
    sc = builtin_scenario("system-III-abC")
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def _minimal_doc():
    return {
        "name": "pair",
        "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [0, 0, 0]},
        "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]},
    }


def test_scenario_rejects_zero_semi_axis():
    doc = _minimal_doc()
    doc["e1"]["semi_axes"] = [0, 1, 1]
    with pytest.raises(ScenarioFormatError, match="positive"):
        scenario_from_dict(doc)


def test_scenario_rejects_out_of_range_phi():
    doc = _minimal_doc()
    doc["init"] = [0.0, 1.0, 0.0, 4.0]  # phi > pi
    with pytest.raises(ScenarioFormatError, match="canonical"):
        scenario_from_dict(doc)


def test_scenario_rejects_unknown_keys():
    doc = _minimal_doc()
    doc["lamda0"] = 0.05  # typo must fail loudly
    with pytest.raises(ScenarioFormatError, match="unknown"):
        scenario_from_dict(doc)
    doc = _minimal_doc()
    doc["e1"]["centre"] = [0, 0, 0]
    with pytest.raises(ScenarioFormatError, match="unknown"):
        scenario_from_dict(doc)


def test_scenario_rejects_missing_fields():
    doc = _minimal_doc()
    del doc["e2"]
    with pytest.raises(ScenarioFormatError, match="missing"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda doc: {**doc, "e1": [1, 1, 1]}, "e1 must be an object"),
        (lambda doc: {**doc, "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0]}},
         r"e2: missing keys \['euler'\]"),
        (lambda doc: [doc], "top-level document must be an object"),
        (lambda doc: {**doc, "name": ""}, "name must be a non-empty string"),
        (lambda doc: {**doc, "expected": 1.6}, "expected must be"),
    ],
    ids=["ellipsoid-not-object", "ellipsoid-key-missing", "top-level-not-object",
         "empty-name", "expected-not-object"],
)
def test_scenario_rejects_malformed_document(make, message):
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(make(_minimal_doc()))


def test_scenario_rejects_bad_config_value():
    doc = _minimal_doc()
    doc["lambda0"] = -0.5
    with pytest.raises(ValueError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [2.7, math.inf, math.nan])
def test_scenario_rejects_max_iter_that_is_not_a_whole_number(value):
    with pytest.raises(ScenarioFormatError, match="max_iter must be a finite whole number"):
        scenario_from_dict({**_minimal_doc(), "max_iter": value})
    assert scenario_from_dict({**_minimal_doc(), "max_iter": 50.0}).config().max_iter == 50
    # any integer, even one beyond the float range
    assert scenario_from_dict({**_minimal_doc(), "max_iter": 10**400}).config().max_iter == 10**400


BOOLEAN_FILE = (
    '{"name": "pair", "max_iter": true, "lambda0": true,\n'
    ' "e1": {"semi_axes": [1, 1, 1], "center": [0, 0, 0], "euler": [true, 0, 0]},\n'
    ' "e2": {"semi_axes": [1, 1, 1], "center": [3, 0, 0], "euler": [0, 0, 0]}}\n'
)


def test_load_scenario_rejects_json_booleans(tmp_path):
    # Python counts True as the int 1; this file used to load as max_iter 1,
    # lambda0 1.0 and an Euler angle of 1.0
    path = tmp_path / "booleans.json"
    path.write_text(BOOLEAN_FILE)
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


@pytest.mark.parametrize("key", ["lambda0", "tol_d", "tol_n", "tol_lambda", "max_iter"])
def test_scenario_rejects_boolean_config_value(key):
    with pytest.raises(ScenarioFormatError, match=f"{key} must be a number"):
        scenario_from_dict({**_minimal_doc(), key: True})


@pytest.mark.parametrize("field", ["semi_axes", "center", "euler"])
def test_scenario_rejects_boolean_vector_entry(field):
    doc = _minimal_doc()
    doc["e1"][field] = [1, True, 1]
    with pytest.raises(ScenarioFormatError, match=f"e1.{field} must be a list of 3 numbers"):
        scenario_from_dict(doc)


def test_scenario_rejects_boolean_init_and_expected_distance():
    with pytest.raises(ScenarioFormatError, match="init must be"):
        scenario_from_dict({**_minimal_doc(), "init": [0.5, 1.0, 0.5, True]})
    with pytest.raises(ScenarioFormatError, match="expected.distance must be a number"):
        scenario_from_dict({**_minimal_doc(), "expected": {"distance": False}})


def test_load_scenario_rejects_max_iter_past_the_float_range(tmp_path):
    # JSON reads 1e400 as inf, which int() cannot convert
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_minimal_doc())[:-1] + ', "max_iter": 1e400}')
    with pytest.raises(ScenarioFormatError, match="max_iter"):
        load_scenario(path)


def test_load_scenario_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    doc = json.dumps({**_minimal_doc(), "name": "caf\u00e9"}, ensure_ascii=False)
    path.write_text(doc, encoding="latin-1")
    with pytest.raises(ScenarioFormatError, match="not UTF-8"):
        load_scenario(path)


def test_load_scenario_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "e1": }')
    with pytest.raises(ScenarioFormatError, match="line"):
        load_scenario(path)


def test_config_overrides_apply():
    sc = scenario_from_dict({**_minimal_doc(), "lambda0": 0.1, "max_iter": 50})
    cfg = sc.config()
    assert cfg.lambda0 == 0.1
    assert cfg.max_iter == 50


def test_builtin_names_unique():
    names = [sc.name for sc in builtin_scenarios()]
    assert len(names) == len(set(names)) == 7
    assert tuple(names) == BUILTIN_NAMES
