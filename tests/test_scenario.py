import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kcycle import (ScenarioError, Weights, eval_field, find_stasis,
                    jacobian_field, load_scenario, random_linear_scenario,
                    random_nonlinear_scenario, scenario_from_dict,
                    scenario_to_dict)

from conftest import CORPUS_NAMES

GENERATOR = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
             / "generate_linear_scenarios.py")


def _base_dict():
    return {
        "schema_version": 1,
        "name": "tiny",
        "dimension": 1,
        "fields": ["1 - x1", "-1 - x1"],
        "weights": [0.5, 0.5],
    }


def test_corpus_loads(corpus):
    assert set(corpus) == set(CORPUS_NAMES)
    for scn in corpus.values():
        assert scn.k >= 2
        assert scn.dimension >= 1
        assert scn.weights is not None or scn.stasis_point is not None


def test_load_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.json")


def test_load_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(p)


def test_schema_version_required():
    d = _base_dict()
    d["schema_version"] = 2
    with pytest.raises(ScenarioError, match="schema_version"):
        scenario_from_dict(d)
    del d["schema_version"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)


def test_unknown_keys_rejected():
    d = _base_dict()
    d["extra"] = True
    with pytest.raises(ScenarioError, match="unknown keys"):
        scenario_from_dict(d)


def test_dsl_error_carries_field_index_and_position():
    d = _base_dict()
    d["fields"] = ["1 - x1", "x1 +"]
    with pytest.raises(ScenarioError, match=r"field 2.*column"):
        scenario_from_dict(d)


def test_needs_weights_or_point():
    d = _base_dict()
    del d["weights"]
    with pytest.raises(ScenarioError, match="weights.*stasis_point"):
        scenario_from_dict(d)
    d["stasis_point"] = [0.0]
    scn = scenario_from_dict(d)
    assert scn.weights is None
    assert scn.stasis_point is not None


def test_both_weights_and_point_allowed():
    d = _base_dict()
    d["stasis_point"] = [0.1]
    scn = scenario_from_dict(d)
    assert scn.weights is not None
    # pinned weights mode, the point serves as the Newton guess
    assert scn.guess_point()[0] == 0.1


def test_guess_prefers_explicit_guess():
    d = _base_dict()
    d["stasis_guess"] = [0.7]
    d["stasis_point"] = [0.1]
    assert scenario_from_dict(d).guess_point()[0] == 0.7


def test_point_length_checked():
    d = _base_dict()
    d["stasis_guess"] = [0.1, 0.2]
    with pytest.raises(ScenarioError, match="stasis_guess"):
        scenario_from_dict(d)


def test_bad_weights_rejected():
    d = _base_dict()
    d["weights"] = [0.5]
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)
    d["weights"] = [0.9, 0.2]
    with pytest.raises(ScenarioError, match="sum"):
        scenario_from_dict(d)


def test_tolerance_overrides():
    d = _base_dict()
    d["tolerances"] = {"stasis_tol": 1e-8, "cycle_tol": 1e-9,
                       "rel_tol": 1e-9, "abs_tol": 1e-11,
                       "max_steps": 1000, "method": "dopri_adaptive"}
    scn = scenario_from_dict(d)
    assert scn.stasis_tol == 1e-8
    assert scn.cycle_tol == 1e-9
    assert scn.integrator.max_steps == 1000
    assert scenario_to_dict(scn)["tolerances"] == d["tolerances"]
    d["tolerances"] = {"unknown_tol": 1.0}
    with pytest.raises(ScenarioError, match="unknown tolerance"):
        scenario_from_dict(d)


def test_sweep_block_validation():
    d = _base_dict()
    d["sweep"] = {"delta_max": 0.5, "steps": 16}
    scn = scenario_from_dict(d)
    assert scn.sweep.delta_max == 0.5
    assert scn.sweep.steps == 16
    d["sweep"] = {"steps": 16}
    with pytest.raises(ScenarioError, match="delta_max"):
        scenario_from_dict(d)
    d["sweep"] = {"delta_max": -1.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)


def test_to_dict_round_trip(corpus):
    for scn in corpus.values():
        again = scenario_from_dict(scenario_to_dict(scn))
        assert again.name == scn.name
        assert again.field_sources == scn.field_sources
        assert again.stasis_tol == scn.stasis_tol
        if scn.weights is None:
            assert again.weights is None
        else:
            assert again.weights.values == scn.weights.values


def test_random_linear_scenario_is_deterministic_and_regular():
    a = random_linear_scenario(np.random.default_rng(99), 2, 3, "gen")
    b = random_linear_scenario(np.random.default_rng(99), 2, 3, "gen")
    assert a == b
    scn = scenario_from_dict(a)
    assert isinstance(scn.weights, Weights)
    assert scn.k == 3
    # weights are dyadic: the file round-trips exactly through JSON text
    again = json.loads(json.dumps(a))
    assert scenario_from_dict(again).weights.values == scn.weights.values


@pytest.mark.parametrize("n, k", [(1, 2), (3, 3), (6, 4)])
def test_random_nonlinear_scenario_keeps_the_affine_stasis_point(n, k):
    # the added terms vanish at x0 with their first derivatives: the
    # values and Jacobians there are the affine family's, bit for bit,
    # and the Jacobians differ away from it
    data = random_nonlinear_scenario(np.random.default_rng(5), n, k, "nl")
    assert data == random_nonlinear_scenario(np.random.default_rng(5), n, k,
                                             "nl")
    linear = random_linear_scenario(np.random.default_rng(5), n, k, "nl")
    assert {**data, "fields": None} == {**linear, "fields": None}
    affine, scn = scenario_from_dict(linear), scenario_from_dict(data)
    x0 = find_stasis(affine.fields, affine.weights, affine.guess_point(),
                     affine.stasis_tol).x0
    at_x0 = np.array([x0] * k)
    for evaluate in (eval_field, jacobian_field):
        assert evaluate(scn.fields, at_x0).tobytes() == \
            evaluate(affine.fields, at_x0).tobytes()
    away = at_x0 + 0.25
    assert not np.array_equal(jacobian_field(scn.fields, away),
                              jacobian_field(affine.fields, away))
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    assert np.max(np.abs(sp.x0 - x0)) <= 1e-12


def _generate(tmp_path, seed):
    """The scenario generator in a child process with KCYCLE_SEED=seed."""
    return subprocess.run(
        [sys.executable, str(GENERATOR), "--out", str(tmp_path / "out"),
         "--count", "2"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, KCYCLE_SEED=seed))


@pytest.mark.parametrize("seed", ["abc", "-1"])
def test_generator_rejects_a_bad_seed(tmp_path, seed):
    proc = _generate(tmp_path, seed)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: KCYCLE_SEED must be a non-negative integer, got '{seed}'")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_generator_writes_loadable_scenarios(tmp_path):
    proc = _generate(tmp_path, "7")
    assert proc.returncode == 0 and proc.stderr == ""
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert len(paths) == 2
    assert all("-seed7-" in p.name for p in paths)
    for p in paths:
        assert load_scenario(p).k >= 2
