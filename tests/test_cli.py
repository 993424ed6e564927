import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from kcycle import InputError, KcycleError, SolverError, errors
from kcycle.cli import _UsageError, main
from kcycle.serialize import csv_lines, dumps

from conftest import scenario_path


def run_cli(*argv):
    return main(list(argv))


# --- stasis ---------------------------------------------------------------

def test_stasis_pair_regular_exit0(capsys):
    code = run_cli("stasis", "--scenario", str(scenario_path("pair_1d")))
    out = capsys.readouterr().out
    assert code == 0
    assert "regular:         yes" in out


def test_stasis_degenerate_vv_exit2(capsys):
    code = run_cli("stasis", "--scenario", str(scenario_path("degenerate_vv")))
    assert code == 2
    assert "NO" in capsys.readouterr().out


def test_stasis_json_output(capsys):
    code = run_cli("stasis", "--scenario", str(scenario_path("pair_1d")),
                   "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "solve_point"
    assert payload["x0"] == [0.0]
    assert payload["regularity"]["is_regular"] is True


def test_stasis_weights_mode(tmp_path, capsys):
    scn = {
        "schema_version": 1,
        "name": "weights-mode",
        "dimension": 1,
        "fields": ["1 - x1", "-1 - x1"],
        "stasis_point": [0.5],
    }
    p = tmp_path / "wm.json"
    p.write_text(json.dumps(scn))
    code = run_cli("stasis", "--scenario", str(p), "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "solve_weights"
    assert payload["weights"] == pytest.approx([0.75, 0.25], abs=1e-12)


def test_malformed_dsl_exit64(tmp_path, capsys):
    scn = {
        "schema_version": 1,
        "name": "broken",
        "dimension": 1,
        "fields": ["1 - x1", "x1 +"],
        "weights": [0.5, 0.5],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(scn))
    code = run_cli("stasis", "--scenario", str(p))
    err = capsys.readouterr().err
    assert code == 64
    assert "field 2" in err and "column" in err


@pytest.mark.parametrize("command", ["cycle", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_exit64(tmp_path, capsys, command, under):
    existing = tmp_path / "taken"
    existing.write_text("keep me\n")
    out = existing / "sub" if under else existing
    argv = [command, "--scenario", str(scenario_path("pair_1d")),
            "--out", str(out)]
    if command == "cycle":
        argv += ["--delta", "0.2"]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("kcycle: error: cannot write")
    assert existing.read_text() == "keep me\n"


def test_missing_scenario_flag_exit64(capsys):
    assert run_cli("stasis") == 64


def test_unknown_command_exit64(capsys):
    assert run_cli("frobnicate") == 64


def test_solver_failure_exit1(tmp_path, capsys):
    scn = {
        "schema_version": 1,
        "name": "no-root",
        "dimension": 1,
        "fields": ["x1^2 + 1", "x1^2 + 1"],
        "weights": [0.5, 0.5],
        "stasis_guess": [2.0],
    }
    p = tmp_path / "noroot.json"
    p.write_text(json.dumps(scn))
    assert run_cli("stasis", "--scenario", str(p)) == 1


# --- weights ---------------------------------------------------------------

def test_weights_command(capsys):
    code = run_cli("weights", "--scenario", str(scenario_path("triad_2d")),
                   "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weights"] == pytest.approx([1 / 3] * 3, abs=1e-12)
    assert payload["weight_hull_dimension"] == 0


def test_weights_requires_point(capsys):
    assert run_cli("weights", "--scenario",
                   str(scenario_path("pair_1d"))) == 64


# --- cycle ------------------------------------------------------------------

def test_cycle_pair_derived_values(tmp_path, capsys):
    code = run_cli("cycle", "--scenario", str(scenario_path("pair_1d")),
                   "--delta", "0.2", "--out", str(tmp_path), "--json")
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    want = math.tanh(0.05)
    assert record["points"][0][0] == pytest.approx(-want, abs=1e-9)
    assert record["points"][1][0] == pytest.approx(want, abs=1e-9)
    assert record["leg_times"] == [0.1, 0.1]
    assert (tmp_path / "pair-1d_cycle.json").exists()


def test_cycle_delta_zero_usage_error(capsys):
    assert run_cli("cycle", "--scenario", str(scenario_path("pair_1d")),
                   "--delta", "0") == 64


def test_cycle_delta_negative_usage_error(capsys):
    assert run_cli("cycle", "--scenario", str(scenario_path("pair_1d")),
                   "--delta", "-0.5") == 64


def test_cycle_non_regular_exit1(tmp_path, capsys):
    code = run_cli("cycle", "--scenario",
                   str(scenario_path("degenerate_const")),
                   "--delta", "0.2", "--out", str(tmp_path))
    assert code == 1
    assert "not regular" in capsys.readouterr().err


def test_cycle_verbose_prints_integrator_stats(tmp_path, capsys):
    code = run_cli("cycle", "--scenario", str(scenario_path("pair_1d")),
                   "--delta", "0.2", "--out", str(tmp_path), "--verbose")
    assert code == 0
    err = capsys.readouterr().err
    assert "steps" in err and "leg 2" in err


# --- sweep -----------------------------------------------------------------

def test_sweep_pair_csv_and_summary(tmp_path, capsys):
    code = run_cli("sweep", "--scenario", str(scenario_path("pair_1d")),
                   "--out", str(tmp_path), "--json")
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["recorded"] == 32
    assert summary["loglog_slope"] == pytest.approx(1.0, abs=0.05)
    csv_text = (tmp_path / "pair-1d_sweep.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ("delta,x_1_1,x_2_1,max_distance_to_x0,"
                        "closure_residual,newton_iters")
    assert len(lines) == 33
    assert "." in lines[1] and "," in lines[1]


def test_sweep_non_regular_exit1(capsys):
    code = run_cli("sweep", "--scenario", str(scenario_path("degenerate_vv")))
    assert code == 1
    assert "not regular" in capsys.readouterr().err


def test_sweep_single_step_marks_slope_not_computed(tmp_path, capsys):
    scn = {
        "schema_version": 1,
        "name": "one-step",
        "dimension": 1,
        "fields": ["1 - x1", "-1 - x1"],
        "weights": [0.5, 0.5],
        "stasis_guess": [0.0],
        "sweep": {"delta_max": 0.3, "steps": 1},
    }
    p = tmp_path / "one.json"
    p.write_text(json.dumps(scn))
    code = run_cli("sweep", "--scenario", str(p), "--out", str(tmp_path),
                   "--json")
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["loglog_slope"] is None
    csv_text = (tmp_path / "one-step_sweep.csv").read_text()
    assert len(csv_text.strip().split("\n")) == 2


def test_sweep_byte_identical_reruns(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli("sweep", "--scenario",
                       str(scenario_path("linear_2d_a")), "--out", str(out))
        assert code == 0
    capsys.readouterr()
    csv_a = (out_a / "linear-2d-a_sweep.csv").read_bytes()
    csv_b = (out_b / "linear-2d-a_sweep.csv").read_bytes()
    assert csv_a == csv_b
    json_a = (out_a / "linear-2d-a_sweep.json").read_bytes()
    json_b = (out_b / "linear-2d-a_sweep.json").read_bytes()
    assert json_a == json_b


# --- verify ----------------------------------------------------------------

def _make_record(tmp_path, capsys, scenario="pair_1d", delta="0.2"):
    code = run_cli("cycle", "--scenario", str(scenario_path(scenario)),
                   "--delta", delta, "--out", str(tmp_path))
    capsys.readouterr()
    assert code == 0
    name = {"pair_1d": "pair-1d", "trig_3d": "trig-3d"}[scenario]
    return tmp_path / f"{name}_cycle.json"


def test_verify_round_trip(tmp_path, capsys):
    record = _make_record(tmp_path, capsys)
    assert run_cli("verify", str(record)) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_round_trip_all_regular(tmp_path, capsys, regular_corpus):
    for name in regular_corpus:
        code = run_cli("cycle", "--scenario", str(scenario_path(name)),
                       "--delta", "0.15", "--out", str(tmp_path))
        assert code == 0
    capsys.readouterr()
    for path in tmp_path.glob("*_cycle.json"):
        assert run_cli("verify", str(path)) == 0
    capsys.readouterr()


def test_verify_perturbed_point_fails_with_leg1_mismatch(tmp_path, capsys):
    record = _make_record(tmp_path, capsys)
    data = json.loads(record.read_text())
    data["points"][1][0] += 1e-3
    record.write_text(dumps(data))
    code = run_cli("verify", str(record), "--json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["pass"] is False
    assert payload["leg_mismatches"][0] == pytest.approx(1e-3, rel=1e-6)
    # the closing leg sees the perturbation through the flow sensitivity
    assert payload["leg_mismatches"][1] == pytest.approx(
        math.exp(-0.1) * 1e-3, rel=1e-6)


def test_verify_edited_delta_schema_error(tmp_path, capsys):
    record = _make_record(tmp_path, capsys)
    data = json.loads(record.read_text())
    data["delta"] = 0.25  # leg_times no longer equal delta*m_j
    record.write_text(dumps(data))
    assert run_cli("verify", str(record)) == 64
    assert "leg_times" in capsys.readouterr().err


def test_verify_missing_key_schema_error(tmp_path, capsys):
    record = _make_record(tmp_path, capsys)
    data = json.loads(record.read_text())
    del data["leg_times"]
    record.write_text(dumps(data))
    assert run_cli("verify", str(record)) == 64


def test_verify_wrong_kind_exit64(tmp_path, capsys):
    p = tmp_path / "other.json"
    p.write_text(json.dumps({"kind": "other"}))
    assert run_cli("verify", str(p)) == 64


@pytest.mark.parametrize("content, message", [
    (None, "cannot read record file"),
    ("{not json", "invalid JSON in"),
    (b"\xff\xfe", "invalid JSON in"),
], ids=["unreadable", "not-json", "not-utf8"])
def test_unreadable_or_non_json_record_exit64(tmp_path, capsys, content,
                                              message):
    path = tmp_path / "record.json"
    if content is None:
        path.mkdir()  # opening a directory is an OSError
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert run_cli("verify", str(path)) == 64
    assert capsys.readouterr().err.startswith(f"kcycle: error: {message}")


def test_bad_integrator_method_exit64(tmp_path, capsys):
    data = json.loads(scenario_path("pair_1d").read_text())
    data["tolerances"]["method"] = "euler"
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(data))
    assert run_cli("stasis", "--scenario", str(path)) == 64
    err = capsys.readouterr().err
    assert err.startswith("kcycle: error: ")
    assert "method must be one of ('dopri_adaptive', 'rk4_fixed')" in err


# --- malformed input -------------------------------------------------------

# (file, path of keys to the edited entry, bad value); each loads with exit
# 64 instead of failing later as a solver error or escaping main uncaught
MALFORMED = [
    pytest.param("scenario", ("tolerances", "rel_tol"), math.nan,
                 id="rel_tol-nan"),
    pytest.param("scenario", ("tolerances", "stasis_tol"), math.nan,
                 id="stasis_tol-nan"),
    pytest.param("scenario", ("tolerances", "cycle_tol"), math.nan,
                 id="cycle_tol-nan"),
    pytest.param("scenario", ("tolerances", "cycle_tol"), "abc",
                 id="cycle_tol-string"),
    pytest.param("scenario", ("tolerances", "max_steps"), 2.5,
                 id="max_steps-fraction"),
    pytest.param("scenario", ("sweep", "delta_max"), math.inf,
                 id="delta_max-infinity"),
    pytest.param("scenario", ("sweep", "delta_max"), [1],
                 id="delta_max-list"),
    pytest.param("scenario", ("sweep", "delta_max"), 1e-322,
                 id="delta_max-subnormal"),
    pytest.param("scenario", ("weights",), ["0.5", "0.5"],
                 id="weights-strings"),
    pytest.param("scenario", ("fields", 0), "1e999 - x1",
                 id="field-literal-overflow"),
    pytest.param("scenario", ("fields", 0), "(" * 3000 + "x1" + ")" * 3000,
                 id="field-nested-parentheses"),
    pytest.param("scenario", ("fields", 0), "sin(" * 3000 + "x1" + ")" * 3000,
                 id="field-nested-calls"),
    pytest.param("scenario", ("fields", 0), "-(" * 3000 + "x1" + ")" * 3000,
                 id="field-nested-signs"),
    pytest.param("scenario", ("fields", 0), " + ".join(["x1"] * 3000),
                 id="field-operator-chain"),
    pytest.param("scenario", ("fields", 0), "x1^" + "9" * 400 + " + 1 - x1",
                 id="field-exponent-overflow"),
    pytest.param("scenario", ("fields", 0), "x1^" + "9" * 5000 + " + 1 - x1",
                 id="field-exponent-past-int-limit"),
    pytest.param("record", ("newton_iters",), "abc",
                 id="newton_iters-string"),
    pytest.param("record", ("closure_residual",), [1],
                 id="closure_residual-list"),
    pytest.param("record", ("points",), [[0.1, 0.2], [0.3, 0.4]],
                 id="points-wrong-dimension"),
]


@pytest.mark.parametrize("kind, keys, value", MALFORMED)
def test_malformed_input_exit64(tmp_path, capsys, kind, keys, value):
    if kind == "scenario":
        path = tmp_path / "bad.json"
        data = json.loads(scenario_path("pair_1d").read_text())
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path)]
    else:
        path = _make_record(tmp_path, capsys)
        data = json.loads(path.read_text())
        argv = ["verify", str(path)]
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(data))  # NaN and Infinity as json writes them
    code = run_cli(*argv)  # an exception escaping main fails the test
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("kcycle: error: ")
    assert "Traceback" not in err


def test_overflowing_flow_emits_no_numpy_warning(tmp_path, capsys):
    # the integrator rejects the non-finite steps itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("cycle", "--scenario", str(scenario_path("pair_1d")),
                       "--delta", "1e300", "--out", str(tmp_path))
    assert code == 1
    assert "StepLimitError" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# scenarios that once hung (an infinite Gram matrix sent LAPACK's least
# squares spinning) or reported an overflowing norm as non-finite
HUGE_PINNED = {"schema_version": 1, "name": "huge-pinned", "dimension": 1,
               "fields": ["1e200 - x1", "-1e200 - x1"],
               "stasis_point": [0.0]}
OVERFLOWING_NORM = {"schema_version": 1, "name": "overflowing-norm",
                    "dimension": 1, "fields": ["exp(x1) - 2", "-1 - x1"],
                    "weights": [0.5, 0.5], "stasis_guess": [700]}
# d/dx1 folds to the constant inf, which the compiled Jacobian once lacked
FOLDED_INF = {"schema_version": 1, "name": "inf", "dimension": 1,
              "fields": ["1e300*x1*1e300 - 1", "-1 - x1"],
              "weights": [0.5, 0.5], "stasis_guess": [0.0]}
# a Jacobian entry of inf * 0 is NaN, which LAPACK's SVD cannot decompose
NAN_JACOBIAN = {"schema_version": 1, "name": "nan3", "dimension": 3,
                "fields": ["x1*x2*x2*x2*x3 + 1 - x1; 1 - x2; 1 - x3",
                           "-1 - x1; -1 - x2; -1 - x3"],
                "weights": [0.5, 0.5], "stasis_guess": [0.0, 1e120, 0.0]}


def _run_child(tmp_path, scenario, *argv):
    """kcycle in a child process: a regression that hangs fails the
    timeout instead of stalling the suite."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "kcycle", *argv, "--scenario", str(path)],
        capture_output=True, text=True, timeout=10, env=env)


@pytest.mark.parametrize("scenario, command, message", [
    (HUGE_PINNED, "weights", "InfeasibleWeightsError: no probability "
                             "weighting reaches ||residual|| <= 1.000e-10 "
                             "(optimum 1.371e+184)"),
    (HUGE_PINNED, "stasis", "InfeasibleWeightsError"),
    (OVERFLOWING_NORM, "stasis", "NewtonDivergenceError: stasis: no "
                                 "convergence in 50 Newton steps"),
    (FOLDED_INF, "stasis", "NewtonDivergenceError: stasis: line search "
                           "found no decrease (residual 1.000e+00)"),
    (NAN_JACOBIAN, "stasis", "NewtonDivergenceError: stasis: line search "
                             "found no decrease (residual 1.000e+120)"),
], ids=["huge-pinned-weights", "huge-pinned-stasis", "overflowing-norm",
        "folded-inf", "nan-jacobian"])
def test_huge_field_values_exit1_quietly(tmp_path, scenario, command,
                                         message):
    proc = _run_child(tmp_path, scenario, command)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"kcycle: {message}")
    assert proc.stderr.count("\n") == 1  # nothing from numpy or LAPACK


def test_huge_pinned_point_reports_a_finite_residual(tmp_path):
    # a tolerance loose enough to accept the weights: the reported norm of
    # a residual near 1e184 squares past the float range
    proc = _run_child(tmp_path, HUGE_PINNED, "weights", "--json",
                      "--tol", "1e300")
    assert proc.returncode == 0 and proc.stderr == ""
    assert 1e180 < json.loads(proc.stdout)["residual_norm"] < 1e190


def test_subnormal_delta_cycle_terminates(tmp_path, capsys):
    # leg times of a few subnormal units used to take zero-length steps
    # until the step limit, about 10^6 of them per leg
    assert run_cli("cycle", "--scenario", str(scenario_path("trig_3d")),
                   "--delta", "1e-322", "--out", str(tmp_path)) == 0


def test_every_error_class_has_one_exit_code():
    classes = set()
    pending = [KcycleError]
    while pending:
        for sub in pending.pop().__subclasses__():
            classes.add(sub)
            pending.append(sub)
    module_errors = {c for c in vars(errors).values()
                     if isinstance(c, type) and issubclass(c, KcycleError)}
    assert module_errors - {KcycleError} <= classes
    assert _UsageError in classes
    for cls in classes - {InputError, SolverError}:
        assert issubclass(cls, InputError) != issubclass(cls, SolverError), \
            cls.__name__


# --- serializer ------------------------------------------------------------

def test_dumps_fixed_formatting():
    text = dumps({"a": 0.1, "b": [1, True, None], "c": "x"})
    assert '"a": 0.10000000000000001' in text
    assert json.loads(text) == {"a": 0.1, "b": [1, True, None], "c": "x"}


def test_dumps_non_finite():
    text = dumps({"inf": float("inf"), "ninf": float("-inf"),
                  "nan": float("nan")})
    assert json.loads(text) == {"inf": "inf", "ninf": "-inf", "nan": "nan"}


def test_csv_lines_format():
    text = csv_lines(["a", "b"], [[0.5, 3], [1.0 / 3.0, -1]])
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "0.5,3"
    assert lines[2] == "0.33333333333333331,-1"
