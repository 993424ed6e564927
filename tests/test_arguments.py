"""Argument rules of the public entries: tolerances, deltas, ladder steps,
dimensions, weights, points, family shapes and leg times each obey one
rule (`kcycle.errors`), and a broken one ends in a ValueError or a
DimensionError naming the argument, never in another exception."""

import contextlib
import inspect
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcycle
import kcycle.cycle
from kcycle import (ArgumentError, CyclePoints, DimensionError,
                    InfeasibleWeightsError, IntegratorConfig, KCycle,
                    KcycleError, NewtonDivergenceError, VectorField, Weights,
                    average_velocity, check_regularity, cycle_jacobian,
                    cycle_residual, eval_field, find_stasis, find_weights,
                    flow_endpoint, integrate_flow, jacobian_field,
                    loglog_slope, parse_field, solve_cycle, stasis_residual,
                    sweep_delta, verify_cycle, weight_hull_dimension,
                    weighted_jacobian)
from kcycle.cli import main
from kcycle.errors import leg_times
from kcycle.serialize import dumps

from conftest import nested, scenario_path

# README's pair: x0 = 0, regular, cycles for every delta > 0
PAIR = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
HALF = Weights((0.5, 0.5))
SEED = CyclePoints.constant([0.0], 2)
SMALL = IntegratorConfig(max_steps=64)

BAD_TOLS = [math.nan, math.inf, -math.inf, 0.0, -1.0]

TOL_ENTRIES = {
    "find_stasis": lambda tol: find_stasis(PAIR, HALF, [0.7], tol),
    "find_weights": lambda tol: find_weights(PAIR, [0.0], tol),
    "solve_cycle": lambda tol: solve_cycle(PAIR, HALF, SEED, 0.2, tol),
    "sweep_delta": lambda tol: sweep_delta(PAIR, HALF, [0.0], 0.8, 4, tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_a_tolerance_that_is_not_positive_and_finite_names_tol(entry, tol):
    with pytest.raises(ValueError, match="tol"):
        TOL_ENTRIES[entry](tol)


def test_find_weights_tests_feasibility_only_with_a_valid_tol():
    # at x = 5 no weighting of the pair vanishes; a NaN tol used to skip
    # the feasibility test and report the pinned boundary weight instead
    with pytest.raises(InfeasibleWeightsError):
        find_weights(PAIR, [5.0], 1e-10)
    with pytest.raises(ValueError, match="tol"):
        find_weights(PAIR, [5.0], math.nan)


def test_sweep_checks_delta_max_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the delta = 0 tangent was formed")

    monkeypatch.setattr(kcycle.cycle, "_tangent", no_work)
    with pytest.raises(ValueError, match="delta_max"):
        sweep_delta(PAIR, HALF, [0.0], math.inf, 4)


@pytest.mark.parametrize("steps", [2.5, True, "3", 0])
def test_sweep_steps_must_be_a_whole_number(steps):
    with pytest.raises(ValueError, match="steps"):
        sweep_delta(PAIR, HALF, [0.0], 0.8, steps)


@pytest.mark.parametrize("points", [-1, 0, 1, 2.5, True, "3", None])
def test_loglog_slope_points_must_be_a_whole_number_of_two_or_more(points):
    # -1 fitted every record but the last, 2.5 failed in slicing with a
    # TypeError, True fitted one record and returned None
    result = sweep_delta(PAIR, HALF, [0.0], 0.8, 8)
    with pytest.raises(ArgumentError, match="^points must be an integer"):
        loglog_slope(result, points)


def test_loglog_slope_takes_an_integer_number_of_points():
    result = sweep_delta(PAIR, HALF, [0.0], 0.8, 8)
    assert loglog_slope(result, np.int64(3)) == loglog_slope(result, 3)
    assert loglog_slope(result, 2) is not None
    assert loglog_slope(result) == loglog_slope(result, 8)


def test_numpy_scalars_are_numbers():
    sp = find_stasis(PAIR, HALF, [0.7], np.float32(1e-9))
    assert sp.x0[0] == 0.0
    cfg = IntegratorConfig(max_steps=np.int64(1000))
    assert cfg.max_steps == 1000
    result = sweep_delta(PAIR, HALF, [0.0], np.float64(0.8), np.int64(2),
                         np.float32(1e-9), cfg)
    assert result.deltas.tolist() == [0.8 / 1024, 0.8]
    cycle = solve_cycle(PAIR, HALF, SEED, np.float32(0.25), np.float64(1e-10))
    assert cycle.leg_times == (0.125, 0.125)


def test_a_zero_tighten_factor_is_a_value_error():
    cycle = solve_cycle(PAIR, HALF, SEED, 0.2)
    with pytest.raises(ValueError, match="tighten"):
        verify_cycle(PAIR, HALF, cycle, tighten=0)


@pytest.mark.parametrize("delta", [0.0, -0.2, math.nan])
def test_verify_cycle_needs_a_positive_delta(delta):
    # delta = 0 and -0.2 were verified against the limit and backward legs
    cycle = solve_cycle(PAIR, HALF, SEED, 0.2)
    with pytest.raises(ValueError, match="^delta"):
        verify_cycle(PAIR, HALF, KCycle(cycle.points, delta,
                                        leg_times(delta, HALF), 0.0, 0))


def test_verify_cycle_needs_the_leg_times_a_solve_forms():
    cycle = solve_cycle(PAIR, HALF, SEED, 0.2)
    with pytest.raises(ValueError, match="^leg_times"):
        verify_cycle(PAIR, HALF, KCycle(cycle.points, 0.2, (5.0, 5.0), 0.0,
                                        0))


@pytest.mark.parametrize("dimension", [True, "2", 1.5])
@pytest.mark.parametrize("entry", ["parse_field", "VectorField"])
def test_a_dimension_must_be_a_whole_number(entry, dimension):
    with pytest.raises(ArgumentError, match="^dimension"):
        if entry == "parse_field":
            parse_field("x1", dimension)
        else:
            VectorField(dimension, PAIR[0].components)


@pytest.mark.parametrize("values", [("0.5", "0.5"), (True,), (None,), (1j,)],
                         ids=["strings", "bool", "none", "complex"])
def test_a_weight_must_be_a_number(values):
    with pytest.raises(ArgumentError, match="^weight 1 "):
        Weights(values)


def test_numpy_scalar_weights_are_numbers():
    assert Weights((np.float32(0.5), np.float64(0.5))).values == (0.5, 0.5)


# entry -> (the name of its point argument, call(the point's one entry))
FINITE_ENTRIES = {
    "find_stasis": ("x_guess", lambda v: find_stasis(PAIR, HALF, [v], 1e-10)),
    "find_weights": ("x", lambda v: find_weights(PAIR, [v], 1e-10)),
    "weight_hull_dimension": ("x", lambda v: weight_hull_dimension(PAIR,
                                                                   [v])),
    "check_regularity": ("x", lambda v: check_regularity(PAIR, HALF, [v])),
    "sweep_delta": ("x0", lambda v: sweep_delta(PAIR, HALF, [v], 0.8, 4)),
    "solve_cycle": ("seed", lambda v: solve_cycle(
        PAIR, HALF, CyclePoints([[v], [0.0]]), 0.2)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(FINITE_ENTRIES))
def test_a_starting_point_must_be_finite(entry, value):
    label, call = FINITE_ENTRIES[entry]
    with pytest.raises(ArgumentError, match=f"^{label} entries"):
        call(value)


# --- one family shape rule over every public family entry ----------------

# three 2-D fields whose weighting (1/4, 1/4, 1/2) vanishes at the origin
FIELDS = [parse_field("1 - x1; -x2", 2), parse_field("1 - x1; 1 - x2", 2),
          parse_field("-1 - x1; -0.5 - x2", 2)]
WEIGHTS = Weights((0.25, 0.25, 0.5))
POINTS = [[0.0, 0.0]] * 3
TIMES = [0.05, 0.05, 0.1]

# entry -> (the arguments it reads, call(fields, weights, points, times));
# "point" is a single point, taken from the first row of points
SHAPE_ENTRIES = {
    "stasis_residual": ({"fields", "weights", "point"},
                        lambda f, w, x, t: stasis_residual(f, w, x[0])),
    "weighted_jacobian": ({"fields", "weights", "point"},
                          lambda f, w, x, t: weighted_jacobian(f, w, x[0])),
    "find_weights": ({"fields", "point"},
                     lambda f, w, x, t: find_weights(f, x[0], 1e-8)),
    "weight_hull_dimension": ({"fields", "point"},
                              lambda f, w, x, t:
                              weight_hull_dimension(f, x[0])),
    "integrate_flow-leg": ({"point"},
                           lambda f, w, x, t: integrate_flow(f[0], x[0],
                                                             t[0])),
    "integrate_flow-family": ({"fields", "points", "times"},
                              lambda f, w, x, t: integrate_flow(f, x, t)),
    "flow_endpoint-leg": ({"point"},
                          lambda f, w, x, t: flow_endpoint(f[0], x[0], t[0])),
    "flow_endpoint-family": ({"fields", "points", "times"},
                             lambda f, w, x, t: flow_endpoint(f, x, t)),
    "average_velocity": ({"fields", "weights", "points"},
                         lambda f, w, x, t:
                         average_velocity(f, w, CyclePoints(x), 0.2)),
    "cycle_residual": ({"fields", "weights", "points"},
                       lambda f, w, x, t:
                       cycle_residual(f, w, CyclePoints(x), 0.2)),
    "cycle_jacobian": ({"fields", "weights", "points"},
                       lambda f, w, x, t:
                       cycle_jacobian(f, w, CyclePoints(x), 0.2)),
    "solve_cycle": ({"fields", "weights", "points"},
                    lambda f, w, x, t: solve_cycle(f, w, CyclePoints(x), 0.2)),
    "verify_cycle": ({"fields", "weights", "points"},
                     lambda f, w, x, t: verify_cycle(
                         f, w, KCycle(CyclePoints(x), 0.2, tuple(t), 0.0,
                                      0))),
    "sweep_delta": ({"fields", "weights", "point"},
                    lambda f, w, x, t: sweep_delta(f, w, x[0], 0.2, 2)),
    "eval_field": ({"point"}, lambda f, w, x, t: eval_field(f[0], x[0])),
    "jacobian_field": ({"point"},
                       lambda f, w, x, t: jacobian_field(f[0], x[0])),
    "check_regularity": ({"fields", "weights", "point"},
                         lambda f, w, x, t: check_regularity(f, w, x[0])),
    "find_stasis": ({"fields", "weights", "point"},
                    lambda f, w, x, t: find_stasis(f, w, x[0], 1e-10)),
}

# defect -> (the argument it breaks, (fields, weights, points, times))
DEFECTS = {
    "no-field": ("fields", ([], WEIGHTS, POINTS, TIMES)),
    "field-of-another-dimension": (
        "fields", (FIELDS[:2] + [parse_field("x1", 1)], WEIGHTS, POINTS,
                   TIMES)),
    "weight-too-many": ("weights", (FIELDS, Weights((0.25,) * 4), POINTS,
                                    TIMES)),
    "weight-too-few": ("weights", (FIELDS, Weights((0.5, 0.5)), POINTS,
                                   TIMES)),
    "time-too-many": ("times", (FIELDS, WEIGHTS, POINTS, TIMES + [0.1])),
    "time-too-few": ("times", (FIELDS, WEIGHTS, POINTS, TIMES[:2])),
    "point-too-many": ("points", (FIELDS, WEIGHTS, POINTS + POINTS[:1],
                                  TIMES)),
    "point-too-few": ("points", (FIELDS, WEIGHTS, POINTS[:2], TIMES)),
    "point-of-the-wrong-width": (
        "point", (FIELDS, WEIGHTS, [[0.0, 0.0, 0.0]] * 3, TIMES)),
    # the first point is ragged in itself, so every row of points is too
    "ragged-rows": ("point", (FIELDS, WEIGHTS,
                              [[0.0, [0.0]]] + POINTS[1:], TIMES)),
    # the first point has 33 axes, past the 32 that numpy iterates
    "point-of-33-axes": ("point", (FIELDS, WEIGHTS,
                                   [nested([0.0, 0.0], 32)] + POINTS[1:],
                                   TIMES)),
}


def _breaks(reads, broken):
    # a point of the wrong width breaks the points as well
    return broken in reads or (broken == "point" and "points" in reads)


@pytest.mark.parametrize("entry, defect", [
    (entry, defect) for entry, (reads, _) in SHAPE_ENTRIES.items()
    for defect, (broken, _) in DEFECTS.items() if _breaks(reads, broken)])
def test_every_family_entry_raises_dimension_error(entry, defect):
    with pytest.raises(DimensionError):
        SHAPE_ENTRIES[entry][1](*DEFECTS[defect][1])


@pytest.mark.parametrize("value", [None, "0.5", True, 1j],
                         ids=["none", "string", "bool", "complex"])
@pytest.mark.parametrize("entry", [
    entry for entry, (reads, _) in SHAPE_ENTRIES.items()
    if _breaks(reads, "point")])
def test_every_point_entry_refuses_a_non_number_entry(entry, value):
    with pytest.raises(ArgumentError, match=" entries must be "):
        SHAPE_ENTRIES[entry][1](FIELDS, WEIGHTS, [[value, 0.0]] + POINTS[1:],
                                TIMES)


@pytest.mark.parametrize("entry", sorted(SHAPE_ENTRIES))
def test_the_shape_cases_are_well_formed_without_their_defect(entry):
    SHAPE_ENTRIES[entry][1](FIELDS, WEIGHTS, POINTS, TIMES)


POINT_PARAMETERS = {"x", "x0", "x_guess", "pts", "seed", "cycle"}


def test_every_public_entry_that_reads_a_point_is_in_the_shape_table():
    readers = {name for name in kcycle.__all__
               if inspect.isfunction(getattr(kcycle, name))
               and POINT_PARAMETERS & set(inspect.signature(
                   getattr(kcycle, name)).parameters)}
    assert {"eval_field", "sweep_delta", "solve_cycle"} <= readers
    assert readers <= {key.split("-")[0] for key in SHAPE_ENTRIES}


def _verify_exit(tmp_path, edit):
    """kcycle verify's exit code on pair_1d's cycle record after edit."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["cycle", "--scenario", str(scenario_path("pair_1d")),
                     "--delta", "0.2", "--out", str(tmp_path)]) == 0
        path = tmp_path / "pair-1d_cycle.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(dumps(data))
        return main(["verify", str(path)])


def _extra_weight(data):
    data["weights"] = [0.5, 0.25, 0.25]
    data["leg_times"] = [data["delta"] * m for m in data["weights"]]


@pytest.mark.parametrize("edit", [
    lambda data: data["leg_times"].pop(),
    _extra_weight,
    lambda data: [p.append(0.0) for p in data["points"]],
], ids=["short-leg-times", "extra-weight", "point-of-the-wrong-width"])
def test_verify_exits_64_on_a_record_of_the_wrong_shape(tmp_path, edit):
    assert _verify_exit(tmp_path, lambda data: None) == 0
    assert _verify_exit(tmp_path, edit) == 64


# --- the sweep's ladder ----------------------------------------------------

def test_sweep_forms_its_ladder_lazily(monkeypatch):
    # a million ladder points whose solves fail from the second on: the
    # sweep stops at the second, so it must not hold the whole ladder
    solve = kcycle.cycle.solve_cycle
    calls = []

    def first_only(*args):
        calls.append(args[3])
        if len(calls) > 1:
            raise NewtonDivergenceError("refused")
        return solve(*args)

    monkeypatch.setattr(kcycle.cycle, "solve_cycle", first_only)
    tracemalloc.start()
    try:
        result = sweep_delta(PAIR, HALF, [0.0], 0.8, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.branch_lost and result.deltas.tolist() == [0.8 / 1024]
    assert peak < 1e6


# --- property: any number ends in a result or a named error ----------------

NUMBERS = [math.nan, math.inf, -math.inf, 0.0, 0, -1.0, -0.2, 5e-324,
           1e-310, 1e300, True, np.float32(1e-9), np.float64(0.2),
           np.int64(1), np.float32(np.inf), 0.2, 1e-10]
STEPS = [-1, 0, 1, 2, 2.5, True, np.int64(2)]
ENTRIES = [0.0, 0.7, None, "0.5", True, 1j, math.nan, math.inf,
           np.float32(0.5), Fraction(1, 2)]

# entry -> call(tol, delta, steps, v), v the one entry of a point of PAIR
NUMBER_ENTRIES = {
    "find_stasis": lambda tol, delta, steps, v:
        find_stasis(PAIR, HALF, [v], tol),
    "find_weights": lambda tol, delta, steps, v:
        find_weights(PAIR, [v], tol),
    "solve_cycle": lambda tol, delta, steps, v:
        solve_cycle(PAIR, HALF, CyclePoints([[v], [0.0]]), delta, tol,
                    SMALL),
    "sweep_delta": lambda tol, delta, steps, v:
        sweep_delta(PAIR, HALF, [v], delta, steps, tol, SMALL),
    "cycle_residual": lambda tol, delta, steps, v:
        cycle_residual(PAIR, HALF, CyclePoints([[0.0], [v]]), delta, SMALL),
    "cycle_jacobian": lambda tol, delta, steps, v:
        cycle_jacobian(PAIR, HALF, SEED, delta, SMALL),
    "integrate_flow": lambda tol, delta, steps, v:
        integrate_flow(PAIR, [[v], [0.0]], [delta, tol], SMALL),
    "flow_endpoint": lambda tol, delta, steps, v:
        flow_endpoint(PAIR[0], [v], delta, SMALL),
    "eval_field": lambda tol, delta, steps, v: eval_field(PAIR[0], [v]),
    "weight_hull_dimension": lambda tol, delta, steps, v:
        weight_hull_dimension(PAIR, [v]),
    "IntegratorConfig": lambda tol, delta, steps, v:
        IntegratorConfig(tol, delta, steps),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(NUMBER_ENTRIES)),
       tol=st.sampled_from(NUMBERS), delta=st.sampled_from(NUMBERS),
       steps=st.sampled_from(STEPS), value=st.sampled_from(ENTRIES))
def test_any_number_ends_in_a_result_or_a_named_error(entry, tol, delta,
                                                      steps, value):
    try:
        NUMBER_ENTRIES[entry](tol, delta, steps, value)
    except (KcycleError, ValueError):
        pass
