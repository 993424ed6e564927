import gc
import itertools
import math
import sys
import threading
import weakref
from fractions import Fraction as Q
from functools import partial

import numpy as np
import pytest
import scipy.linalg

import kcycle.expr as expr
import kcycle.flow as flow
from kcycle import (DimensionError, DomainError, FlowDomainError,
                    IntegratorConfig, SolverError, StepLimitError, eval_field,
                    flow_endpoint, integrate_flow, jacobian_field,
                    load_scenario, parse_field, random_linear_scenario,
                    scenario_from_dict)
from kcycle.scenario import METHOD

from conftest import CORPUS_NAMES, scenario_path
from oracles import (affine_flow, central_fd_jacobian, negated_field,
                     reference_dopri, scipy_flow, tree_rhs)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

# x2' = -sqrt(x2) from 0.04 is x2 = (0.2 - t/2)^2, which reaches zero at
# t = 0.4. A state error e near there moves that exit by 2*sqrt(e) in
# time, and the default tolerances keep e to about abs_tol + rel_tol*0.04.
EXIT_ALLOWANCE = 2.0 * math.sqrt(flow.DEFAULT_CONFIG.abs_tol
                                 + flow.DEFAULT_CONFIG.rel_tol * 0.04)


def _into(rhs):
    """An rhs(y) that returns its value, as the stepper's family binder
    for one leg: bind(y, out) returns a call that writes rhs(y) into
    out."""
    def bind(y, out):
        def write():
            out[:] = rhs(y)
        return write
    return bind


def test_scalar_affine_closed_form():
    f = parse_field("1 - x1", 1)
    res = integrate_flow(f, [0.0], 0.1)
    assert res.endpoint[0] == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)


def test_zero_time_is_exact_identity():
    f = parse_field("sin(x1)*x2; x1^2", 2)
    res = integrate_flow(f, [0.3, -0.4], 0.0)
    assert np.array_equal(res.endpoint, [0.3, -0.4])
    assert np.array_equal(res.sensitivity, np.eye(2))
    assert res.steps_taken == 0


def test_rotation_quarter_turn():
    f = parse_field("x2; -x1", 2)
    res = integrate_flow(f, [1.0, 0.0], math.pi / 2.0)
    assert np.allclose(res.endpoint, [0.0, -1.0], atol=1e-10)


def test_scalar_affine_sensitivity():
    f = parse_field("1 - x1", 1)
    res = integrate_flow(f, [0.7], 0.1)
    assert res.sensitivity[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-12)


def test_rotation_sensitivity_is_rotation_matrix():
    f = parse_field("x2; -x1", 2)
    res = integrate_flow(f, [0.2, 0.5], 0.3)
    want = [[math.cos(0.3), math.sin(0.3)],
            [-math.sin(0.3), math.cos(0.3)]]
    assert np.allclose(res.sensitivity, want, atol=1e-11)


def test_backward_flow_inverts_forward():
    f = parse_field("sin(x1) + x2; cos(x2) - x1", 2)
    x = np.array([0.4, -0.2])
    fwd = flow_endpoint(f, x, 0.37)
    back = flow_endpoint(f, fwd, -0.37)
    assert np.allclose(back, x, atol=1e-9)


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [0.1]],
                         ids=["too-long", "too-short"])
def test_wrong_length_point_is_a_dimension_error(run, t, x):
    f = parse_field("x2; -x1", 2)
    with pytest.raises(DimensionError):
        run(f, x, t)


def test_semigroup_property(corpus):
    rng = np.random.default_rng(11)
    fields = [f for name in ("pair_1d", "triad_2d", "trig_3d")
              for f in corpus[name].fields]
    checked = 0
    while checked < 50:
        f = fields[int(rng.integers(len(fields)))]
        x = rng.uniform(-0.8, 0.8, size=f.dimension)
        s, t = rng.uniform(-0.5, 0.5, size=2)
        one = flow_endpoint(f, flow_endpoint(f, x, s), t)
        two = flow_endpoint(f, x, s + t)
        assert np.linalg.norm(one - two) <= 1e-8
        checked += 1


def test_sensitivity_matches_finite_differences(corpus):
    rng = np.random.default_rng(12)
    for name in ("pair_1d", "triad_2d", "linear_2d_a", "trig_3d"):
        scn = corpus[name]
        for f in scn.fields:
            x = rng.uniform(-0.5, 0.5, size=f.dimension)
            t = float(rng.uniform(0.05, 0.4))
            sens = integrate_flow(f, x, t, TIGHT).sensitivity
            fd = central_fd_jacobian(
                lambda p: flow_endpoint(f, p, t, TIGHT), x, h=1e-6)
            assert np.max(np.abs(sens - fd)) <= 1e-6


def test_chain_rule_over_two_legs():
    f = parse_field("sin(x2); -x1 + tanh(x2)", 2)
    x = np.array([0.3, 0.1])
    s, t = 0.23, 0.31
    leg1 = integrate_flow(f, x, s)
    leg2 = integrate_flow(f, leg1.endpoint, t)
    combined = integrate_flow(f, x, s + t)
    assert np.max(np.abs(leg2.sensitivity @ leg1.sensitivity
                         - combined.sensitivity)) <= 1e-8


def test_linear_field_against_expm_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        if radius > 2.0:
            a *= 2.0 / radius
        b = rng.uniform(-1.0, 1.0, size=n)
        comps = []
        for i in range(n):
            terms = [f"{float(a[i, l])!r}*x{l + 1}" for l in range(n)]
            terms.append(repr(float(b[i])))
            comps.append(" + ".join(terms))
        f = parse_field("; ".join(comps), n)
        x = rng.uniform(-1.0, 1.0, size=n)
        t = float(rng.uniform(-1.0, 1.0))
        got = flow_endpoint(f, x, t)
        want = affine_flow(a, b, x, t)
        assert np.linalg.norm(got - want) <= 1e-9 * max(
            1.0, np.linalg.norm(want))


@pytest.mark.parametrize("t", [0.4, -0.4], ids=["forward", "backward"])
def test_dop853_cross_check(t):
    # an independent integrator: scipy's DOP853 on the tree-walked
    # augmented system; backward, on the negated field over |t|
    f = parse_field("sin(x2); -x1 + tanh(x2)", 2)
    x = [0.3, 0.1]
    got = integrate_flow(f, x, t)
    work = f if t > 0 else negated_field(f)
    want = scipy_flow(tree_rhs(work, True), x + [1.0, 0.0, 0.0, 1.0], abs(t))
    assert np.max(np.abs(got.endpoint - want[:2])) <= 1e-10
    assert np.max(np.abs(got.sensitivity - want[2:].reshape(2, 2))) <= 1e-10


def test_step_exhaustion():
    f = parse_field("1 - x1", 1)
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(StepLimitError):
        integrate_flow(f, [0.0], 10.0, cfg)


@pytest.mark.parametrize("source, x, t, max_steps, where", [
    # x1' = x1^2 from 1 blows up at t = 1, and from -1 backward at t = -1
    ("x1^2", 1.0, 2.0, 10**6, "step size collapsed at t=1"),
    ("x1^2", -1.0, -2.0, 10**6, "step size collapsed at t=-1"),
    # cos(20*x1) + 2 is even in x1: both directions stop at the same |t|
    ("cos(20*x1) + 2", 0.0, 10.0, 30,
     "integration exceeded 30 steps at t=0.0298559"),
    ("cos(20*x1) + 2", 0.0, -10.0, 30,
     "integration exceeded 30 steps at t=-0.0298559"),
    # the whole-span attempt is rejected: a backward leg's -0.0 reads as 0
    ("cos(20*x1) + 2", 0.0, -10.0, 1,
     "integration exceeded 1 steps at t=0"),
], ids=["collapse-forward", "collapse-backward", "exhaust-forward",
        "exhaust-backward", "exhaust-at-zero"])
def test_step_limit_error_reports_the_legs_signed_time(source, x, t,
                                                       max_steps, where):
    f = parse_field(source, 1)
    with pytest.raises(StepLimitError) as err:
        flow_endpoint(f, [x], t, IntegratorConfig(max_steps=max_steps))
    assert str(err.value) == where


def test_subnormal_time_advances():
    # any fraction of this span underflows to 0; every step must still
    # advance t
    f = parse_field("1 - x1", 1)
    cfg = IntegratorConfig(max_steps=10)
    assert flow_endpoint(f, [0.0], 5e-323, cfg) == \
        pytest.approx([5e-323], rel=0.2, abs=0.0)
    res = integrate_flow(f, [0.0], -5e-323, cfg)
    assert res.endpoint == pytest.approx([-5e-323], rel=0.2, abs=0.0)
    assert res.sensitivity[0, 0] == pytest.approx(1.0)


def _dopri(bind, y0, span, cfg, n):
    """flow._dopri over a fresh workspace of the family binder `bind` for
    one leg, whose state row holds y0: (y, steps)."""
    ws = flow._Workspace(bind, 1, y0.size, n)
    ws.state[:] = y0
    return flow._dopri(ws, span, cfg)


def _stage_log(rhs, log):
    """`_into(rhs)` whose calls append a copy of each input state to
    `log`."""
    def bind(y, out):
        def wrapped():
            log.append(y.copy())
            out[:] = rhs(y)
        return wrapped
    return bind


@pytest.mark.parametrize("source, span, max_steps, rejects", [
    pytest.param("1; cos(x1)", 0.05, 4, False,  # one step: the whole span
                 id="1; cos(x1)-False"),
    pytest.param("1; sin(40*x1)", 1.0, 2000, True,  # 502 steps
                 id="1; sin(40*x1)-True"),
])
def test_dopri_reuses_first_stage(source, span, max_steps, rejects):
    # x1 is time, so each attempt's first new stage sits at t + h/5 and its
    # last at t + h; a retry from the same t starts below the previous end.
    # max_steps stops a stepper that no longer advances before the log of
    # stage inputs grows large
    f = parse_field(source, 2)
    log = []
    y, steps = _dopri(_stage_log(partial(eval_field, f), log),
                         np.zeros(2), span,
                         IntegratorConfig(max_steps=max_steps), 2)
    assert y[0] == pytest.approx(span)
    assert len(log) == 1 + 6 * steps
    attempts = [log[1 + 6 * a:7 + 6 * a] for a in range(steps)]
    retries = sum(nxt[0][0] < cur[-1][0]
                  for cur, nxt in zip(attempts, attempts[1:]))
    assert (retries > 0) == rejects
    # an accepted step's last stage and a rejected step's first are never
    # evaluated again
    assert len({p.tobytes() for p in log}) == len(log)


def test_short_linear_leg_takes_one_step():
    # a leg far shorter than the field's time scale is one accepted step
    # over the whole span, with and without sensitivities
    f = parse_field("x2; -x1", 2)
    t = 1e-3
    res = integrate_flow(f, [1.0, 0.0], t)
    assert res.steps_taken == 1
    rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    assert np.allclose(res.endpoint, rot[:, 0], rtol=0.0, atol=1e-14)
    assert np.allclose(res.sensitivity, rot, rtol=0.0, atol=1e-14)
    log = []
    _dopri(_stage_log(partial(eval_field, f), log), np.array([1.0, 0.0]), t,
           IntegratorConfig(), 2)
    assert len(log) == 7


def test_rejected_whole_span_attempt_keeps_the_leg_accurate():
    # x1 is time and x2 = e^-t: a first attempt over all of t = 5 misses
    # the tolerance, so the second attempt's first stage sits below its
    # end; the leg still ends within tolerance of e^-5, and so does the
    # sensitivity of x' = -x over the same span
    f = parse_field("1; -x2", 2)
    log = []
    y, steps = _dopri(_stage_log(partial(eval_field, f), log),
                         np.array([0.0, 1.0]), 5.0, IntegratorConfig(), 2)
    assert log[6][0] == 5.0 and log[7][0] < 1.0
    assert y[0] == pytest.approx(5.0)
    assert y[1] == pytest.approx(math.exp(-5.0), rel=1e-9)
    res = integrate_flow(parse_field("0 - x1", 1), [1.0], 5.0)
    assert res.steps_taken > 1
    assert res.endpoint[0] == pytest.approx(math.exp(-5.0), rel=1e-9)
    assert res.sensitivity[0, 0] == pytest.approx(math.exp(-5.0), rel=1e-9)


def test_domain_error_reports_time():
    # x' = -sqrt(x) from 0.04 hits zero at t = 0.4 and turns negative
    f = parse_field("0 - sqrt(x1)", 1)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [0.04], 1.0)
    assert err.value.time is not None
    assert "sqrt" in str(err.value)


# the cfg's id is the method's name, so these cases keep their test ids
@pytest.mark.parametrize("cfg", [flow.DEFAULT_CONFIG], ids=[METHOD])
@pytest.mark.parametrize("source, a, x, t", [
    ("x1", [[1.0]], [0.0], 10.0),
    ("x1", [[1.0]], [1e-20], 10.0),
    ("x2; -4*x1 + 0.3*x2", [[0.0, 1.0], [-4.0, 0.3]], [0.0, 0.0], 6.0),
], ids=["growth", "growth-near-zero", "oscillator"])
def test_sensitivity_is_accurate_where_the_state_barely_moves(source, a, x,
                                                             t, cfg):
    # from an equilibrium (or next to it) the state's local error is 0 (or
    # far below abs_tol), so only the sensitivity's own error control
    # keeps the steps short: P = e^{tA} to the tolerance relative to |P|
    f = parse_field(source, len(x))
    want = scipy.linalg.expm(t * np.array(a))
    res = integrate_flow(f, x, t, cfg)
    assert np.max(np.abs(res.sensitivity - want)) <= 1e-7 * np.max(
        np.abs(want))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


# the cfg's id is the method's name, so these cases keep their test ids
@pytest.mark.parametrize("cfg", [flow.DEFAULT_CONFIG], ids=[METHOD])
@pytest.mark.parametrize("sensitivity", [True, False],
                         ids=["sensitivity", "endpoint"])
@pytest.mark.parametrize("t", [0.3, -0.3], ids=["forward", "backward"])
@pytest.mark.parametrize("name", ["trig_3d", "wide", "pair_1d"])
def test_bound_rhs_is_bit_identical_to_public_evaluators(
        corpus, name, t, sensitivity, cfg):
    if name == "wide":
        scn = scenario_from_dict(random_linear_scenario(
            np.random.default_rng(0), 6, 4, "wide"))
        field, x = scn.fields[0], scn.stasis_guess
    else:
        field = corpus[name].fields[0]
        x = np.array([0.1, -0.2, 0.3])[:field.dimension]
    n = field.dimension
    # backward: the negated field's trees, built outside the package
    work = field if t > 0 else negated_field(field)
    y0 = np.concatenate([x, np.eye(n).reshape(-1)]) if sensitivity else x
    # the leg controls the step size on the state, its first n entries
    want, steps = _dopri(_into(tree_rhs(work, sensitivity)), y0,
                         abs(t), cfg, n)
    if sensitivity:
        got = integrate_flow(field, x, t, cfg)
        assert np.array_equal(got.endpoint, want[:n])
        assert np.array_equal(got.sensitivity, want[n:].reshape(n, n))
        assert got.steps_taken == steps
    else:
        assert np.array_equal(flow_endpoint(field, x, t, cfg), want)


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_domain_error_mid_leg_names_the_component(run):
    # x2' = -sqrt(x2) from 0.04 reaches zero at t = 0.4, inside the leg
    f = parse_field("1; 0 - sqrt(x2)", 2)
    with pytest.raises(FlowDomainError) as err:
        run(f, [0.0, 0.04], 1.0)
    # trial stages past the exit are rejected until the step collapses
    # there: the time is the last accepted one, the exit up to the
    # integration error
    assert abs(err.value.time - 0.4) <= EXIT_ALLOWANCE
    cause = err.value.__cause__
    assert isinstance(cause, DomainError)
    assert cause.component == 2 and "sqrt" in str(cause)


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_backward_domain_error_names_the_forward_component(run):
    # backward, x2' = -sqrt(x2) from 0.04 reaches zero at t = -0.4; the
    # error reports the leg's own time and names the field's own
    # component and subexpression
    f = parse_field("1; sqrt(x2)", 2)
    with pytest.raises(FlowDomainError) as err:
        run(f, [0.0, 0.04], -1.0)
    assert abs(err.value.time + 0.4) <= EXIT_ALLOWANCE
    assert "at t=-0.4:" in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, DomainError)
    assert cause.component == 2 and "'sqrt(x2)'" in str(cause)


def test_jacobian_failure_alone_falls_back_to_the_tree_walk():
    # at x1 = 0, sqrt(x1) evaluates but its derivative 0.5/sqrt(x1)
    # divides by zero; the derivative of x1/1e200, 1e200/(1e200)^2, holds
    # no variable but overflows, so it is evaluated per call all the same.
    # The sensitivity leg fails with the walk's DomainError, and the
    # endpoint-only leg stays put (x1/1e200 moves 1 by about 1e-200)
    for source, x, cause_text in [
            ("0 - sqrt(x1)", 0.0,
             "division by zero in '1.0 / (2.0 * sqrt(x1))'"),
            ("x1/1e200", 1.0, "overflow in power 1e+200^2 in '1e+200^2'")]:
        f = parse_field(source, 1)
        with pytest.raises(FlowDomainError) as err:
            integrate_flow(f, [x], 0.5)
        assert err.value.time == 0.0
        assert str(err.value) == (f"field evaluation failed at t=0: "
                                  f"component 1: {cause_text}")
        cause = err.value.__cause__
        assert isinstance(cause, DomainError) and cause.component == 1
        with pytest.raises(DomainError) as err:
            jacobian_field(f, [x])
        assert str(err.value) == f"component 1: {cause_text}"
        assert flow_endpoint(f, [x], 0.5).tolist() == [x]


def test_leg_makes_no_evaluator_wrapper_call_per_stage(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(flow, "eval_field", counting(eval_field))
    monkeypatch.setattr(flow, "jacobian_field", counting(jacobian_field))
    f = parse_field("sin(x2); -x1 + tanh(x2)", 2)
    res = integrate_flow(f, [0.3, 0.1], 0.4)
    flow_endpoint(f, [0.3, 0.1], 0.4)
    assert res.steps_taken >= 20
    assert calls.count("eval_field") <= 1
    assert calls.count("jacobian_field") <= 1


def _trees(rows):
    """The expression trees held in nested tuples or lists."""
    if isinstance(rows, (tuple, list)):
        return set().union(*map(_trees, rows))
    return {rows} if isinstance(rows, (expr.Const, expr.Var, expr.Unary,
                                       expr.Binary, expr.Power)) else set()


def test_affine_sensitivity_stage_evaluates_no_jacobian_entry(monkeypatch):
    # an affine field's Jacobian entries are constants, written once per
    # workspace: its stage calls run compiled code of the components only
    called = []
    compile_rows = expr._compile

    def logging_compile(legs, n):
        write, trees = compile_rows(legs, n), _trees(legs)

        def logged(*args):
            called.append(trees)
            return write(*args)
        return logged

    monkeypatch.setattr(expr, "_compile", logging_compile)
    f = parse_field("x2 + 1; -x1 - 0.5*x2", 2)
    res = integrate_flow(f, [0.3, 0.1], 2.0)
    assert res.steps_taken > 1
    assert len(called) == 1 + 6 * res.steps_taken
    assert all(trees <= set(f.components) for trees in called)


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_trial_stage_outside_the_domain_rejects_the_step(run):
    # the flow is e^-t, inside x1 >= 0 for all t, but stages of early trial
    # steps land below zero, the first whole-span trial's at 1 - 100/5;
    # those steps are rejected, not the leg
    f = parse_field("sqrt(x1) - sqrt(x1) - x1", 1)
    got = run(f, [1.0], 100.0)
    end = got.endpoint if run is integrate_flow else got
    assert abs(end[0] - math.exp(-100.0)) <= flow.DEFAULT_CONFIG.abs_tol
    # with a negligible abs_tol the control is relative all the way: over
    # a span of 100 the end stays within 100x rel_tol of e^-100
    relative = IntegratorConfig(abs_tol=1e-300)
    got = run(f, [1.0], 100.0, relative)
    end = got.endpoint if run is integrate_flow else got
    assert end[0] == pytest.approx(math.exp(-100.0),
                                   rel=100.0 * relative.rel_tol, abs=0.0)


@pytest.mark.parametrize("t", [1.0, -1.0], ids=["forward", "backward"])
def test_domain_error_at_the_first_stage_raises_at_once(t):
    # stage 0 is the leg's own starting point, not a trial
    f = parse_field("sqrt(x1)", 1)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [-1.0], t)
    assert isinstance(err.value, SolverError)  # the CLI's exit code 1
    assert math.copysign(1.0, err.value.time) == 1.0
    assert "at t=0:" in str(err.value)


def _reference_cases():
    scns = [load_scenario(scenario_path(name)) for name in CORPUS_NAMES]
    scns.append(scenario_from_dict(random_linear_scenario(
        np.random.default_rng(1), 6, 4, "wide")))
    return [(scn.name, j, field, scn.guess_point() + 0.1)
            for scn in scns for j, field in enumerate(scn.fields)]


@pytest.mark.parametrize("t", [0.5, -0.5], ids=["forward", "backward"])
def test_legs_match_the_allocating_reference_dopri(t):
    # the in-place stepper performs the reference's operations in the
    # reference's order: equal bits and step counts
    cfg = flow.DEFAULT_CONFIG
    for name, j, field, x in _reference_cases():
        n = field.dimension
        work = field if t > 0 else negated_field(field)
        got = integrate_flow(field, x, t)
        y0 = np.concatenate([x, np.eye(n).reshape(-1)])
        want, steps = reference_dopri(tree_rhs(work, True), y0,
                                      abs(t), cfg, n)
        assert np.array_equal(got.endpoint, want[:n]), (name, j)
        assert np.array_equal(got.sensitivity, want[n:].reshape(n, n))
        assert got.steps_taken == steps
        want, _ = reference_dopri(tree_rhs(work, False), x,
                                     abs(t), cfg, n)
        assert np.array_equal(flow_endpoint(field, x, t), want), (name, j)


# Dormand-Prince 5(4) in exact rationals (Hairer, Norsett & Wanner,
# Solving ODEs I, table II.5.2): stage nodes, stage weights (row 6 is the
# 5th-order solution) and the embedded 4th-order weights
DP_C = [Q(0), Q(1, 5), Q(3, 10), Q(4, 5), Q(8, 9), Q(1), Q(1)]
DP_A = [[],
        [Q(1, 5)],
        [Q(3, 40), Q(9, 40)],
        [Q(44, 45), Q(-56, 15), Q(32, 9)],
        [Q(19372, 6561), Q(-25360, 2187), Q(64448, 6561), Q(-212, 729)],
        [Q(9017, 3168), Q(-355, 33), Q(46732, 5247), Q(49, 176),
         Q(-5103, 18656)],
        [Q(35, 384), Q(0), Q(500, 1113), Q(125, 192), Q(-2187, 6784),
         Q(11, 84)]]
DP_B4 = [Q(5179, 57600), Q(0), Q(7571, 16695), Q(393, 640),
         Q(-92097, 339200), Q(187, 2100), Q(1, 40)]


def _close(got, want, scale=1.0):
    """got is within four units in the last place of max(scale, |want|),
    subnormal units included."""
    return abs(got - float(want)) <= 4.0 * np.spacing(
        max(scale, abs(float(want))))


def test_dopri_tableau_meets_its_order_conditions():
    # row sums are the nodes; the 5th-order weights integrate c^(q-1)
    # exactly for q <= 5, the embedded ones for q <= 4; the error weights
    # sum to 0
    c = [float(ci) for ci in DP_C]
    for i, row in enumerate(flow._DP_A):
        assert _close(math.fsum(row), DP_C[i], np.max(np.abs(row))), i
    b5, b4 = flow._DP_A[6], flow._DP_B4
    for q in range(1, 6):
        assert _close(math.fsum(b * cj ** (q - 1) for b, cj in zip(b5, c)),
                      Q(1, q)), q
    for q in range(1, 5):
        assert _close(math.fsum(b * cj ** (q - 1) for b, cj in zip(b4, c)),
                      Q(1, q)), q
    assert _close(math.fsum(flow._DP_E), 0, np.max(np.abs(flow._DP_E)))
    for i, row in enumerate(DP_A):
        assert all(_close(a, w) for a, w in zip(flow._DP_A[i], row)), i
        assert not flow._DP_A[i, len(row):].any(), i


@pytest.mark.parametrize("h", [0.37, 1e-3, 5e-323])
def test_scaled_coefficients_are_the_step_weights(h):
    # row i - 1 of the scaled buffer weighs (y, k_0, ..., k_6) for stage
    # i's input: [1, h a_i0, ..., h a_i,i-1], zero-padded; row 6 holds 1
    # and h e for the error estimate
    coef, scale = flow._coefficients()
    scale(h)
    assert coef.shape == (7, 8)
    error = [a - b for a, b in zip(DP_A[6] + [Q(0)], DP_B4)]
    for i, weights in enumerate(DP_A[1:] + [error]):
        row = coef[i]
        assert row[0] == 1.0
        want = [Q(h) * w for w in weights]
        assert all(_close(got, w, h) for got, w in zip(row[1:], want)), i
        assert not row[1 + len(want):].any(), i


def test_successive_legs_return_independent_arrays():
    # the stepper's buffers outlive the leg: no result is a view of a
    # buffer that a later leg writes, and the input point is not written
    f = parse_field("sin(x2); -x1 + tanh(x2)", 2)
    x = np.array([0.3, 0.1])
    first = flow_endpoint(f, x, 0.4)
    kept = first.copy()
    second = flow_endpoint(f, x, -0.7)
    assert np.array_equal(first, kept) and np.array_equal(x, [0.3, 0.1])
    assert not np.shares_memory(first, second)
    one = integrate_flow(f, x, 0.4)
    kept = (one.endpoint.copy(), one.sensitivity.copy())
    two = integrate_flow(f, second, 0.7)
    assert np.array_equal(one.endpoint, kept[0])
    assert np.array_equal(one.sensitivity, kept[1])
    arrays = [first, second, one.endpoint, one.sensitivity, two.endpoint,
              two.sensitivity]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def _trig_field():
    return load_scenario(scenario_path("trig_3d")).fields[0]


def _wide_field():
    return scenario_from_dict(random_linear_scenario(
        np.random.default_rng(3), 6, 4, "wide")).fields[1]


def _sqrt_field():
    # backward from [0, 0.04], x2 leaves the domain at t = -0.4
    return parse_field("1; sqrt(x2)", 2)


def _outcome(field, x, t, cfg, sensitivity):
    """What one leg returns, or the error it raises, as a tuple."""
    try:
        if sensitivity:
            res = integrate_flow(field, x, t, cfg)
            return res.endpoint, res.sensitivity, res.steps_taken
        return (flow_endpoint(field, x, t, cfg),)
    except (FlowDomainError, StepLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None)


def _same(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(got, want))


def _interleaved_legs():
    """(make_field, x, t, cfg, sensitivity) of a fixed mix of legs over
    three fields: both kinds, both directions, short and long spans, a
    tightened tolerance, and legs that stop mid-leg with FlowDomainError
    and StepLimitError, each followed by more legs on its field."""
    base = flow.DEFAULT_CONFIG
    tight = base.tightened(10)
    one_step = IntegratorConfig(max_steps=1)
    edge = np.array([0.0, 0.04])
    # FlowDomainError at t = -0.4, then a leg of the same kind that ends
    edge_legs = itertools.cycle([(edge, -1.0, base, False),
                                 (edge, -0.2, base, False),
                                 (edge, -1.0, base, True),
                                 (edge, -0.2, base, True)])
    legs = []
    for make, x in ((_trig_field, np.array([0.1, -0.2, 0.3])),
                    (_wide_field, np.linspace(-0.3, 0.4, 6))):
        for i, args in enumerate([
                (x, 0.3, base, True), (x, 0.3, base, False),
                (x, -0.3, base, True), (x + 0.05, -0.3, base, False),
                (x, 1e-3, base, True), (x, 2.0, base, True),
                (x, 2.0, base, False), (x, 0.3, tight, True),
                (x, 2.0, one_step, True), (x, -1e-3, base, False),
                (x - 0.1, 0.7, base, True), (x, 2.0, one_step, False),
                (x, -0.3, base, True), (x, 0.3, base, False)]):
            legs.append((make, *args))
            if i % 3 == 2:
                legs.append((_sqrt_field, *next(edge_legs)))
    return legs


def test_workspace_reuse_is_invisible():
    # every leg on a field whose workspaces earlier legs used, some of
    # them ended by an error mid-leg, equals the same leg on a fresh field
    fields = {}
    raised = set()
    for make, x, t, cfg, sensitivity in _interleaved_legs():
        field = fields.setdefault(make, make())
        got = _outcome(field, x, t, cfg, sensitivity)
        want = _outcome(make(), x, t, cfg, sensitivity)
        assert _same(got, want), (make.__name__, t, cfg, sensitivity)
        if isinstance(got[0], type):
            raised.add(got[0])
    assert raised == {FlowDomainError, StepLimitError}


def _workspace_arrays(field):
    """Every buffer of the field's idle Dormand-Prince workspaces."""
    return [a for ws in field._workspaces.values()
            for a in (ws.state, ws.stages, ws.y_new, ws.abs_y, ws.abs_new,
                      ws.abs_e, ws.scale)]


def test_results_own_their_memory():
    # writing into a result changes neither the next leg nor the
    # workspace, and no result is a view of another's or a buffer's memory
    f = _trig_field()
    x = np.array([0.1, -0.2, 0.3])
    want = [_outcome(_trig_field(), x, t, flow.DEFAULT_CONFIG, s)
            for t in (0.3, -0.3) for s in (True, False)]
    results = []
    for t in (0.3, -0.3):
        for s in (True, False):
            got = _outcome(f, x, t, flow.DEFAULT_CONFIG, s)
            results.append(got)
            for a in got:
                if isinstance(a, np.ndarray):
                    a[...] = np.nan
    again = [_outcome(f, x, t, flow.DEFAULT_CONFIG, s)
             for t in (0.3, -0.3) for s in (True, False)]
    assert all(_same(g, w) for g, w in zip(again, want))
    arrays = [a for got in results + again for a in got
              if isinstance(a, np.ndarray)]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
    # one workspace per kind of leg, whichever the direction
    buffers = _workspace_arrays(f)
    assert len(buffers) == 2 * 7
    assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)


def test_two_threads_check_out_their_own_workspaces():
    # two threads switching every microsecond run 200 legs each on one
    # field; every result equals the same leg run serially on another
    # field, bit for bit
    f = _trig_field()
    x = np.array([0.1, -0.2, 0.3])
    spans = [0.05 * (1 + i % 7) * (-1) ** (i // 7) for i in range(200)]
    jobs = [[(t, i % 3 != 0) for i, t in enumerate(spans)],
            [(-t, i % 3 != 1) for i, t in enumerate(reversed(spans))]]
    alone = _trig_field()
    serial = [[_outcome(alone, x, t, flow.DEFAULT_CONFIG, s)
               for t, s in legs] for legs in jobs]
    got = [[], []]

    def run(k):
        got[k].extend(_outcome(f, x, t, flow.DEFAULT_CONFIG, s)
                      for t, s in jobs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in (0, 1):
        assert len(got[k]) == 200
        assert all(_same(g, w) for g, w in zip(got[k], serial[k])), k


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_both_directions_check_out_one_workspace(run, monkeypatch):
    # a backward leg steps with -h on the forward leg's workspace
    seen = []
    dopri = flow._dopri

    def recording(ws, time, cfg):
        seen.append(ws)
        return dopri(ws, time, cfg)

    monkeypatch.setattr(flow, "_dopri", recording)
    f = _trig_field()
    for t in (0.3, -0.3, -0.7, 0.7):
        run(f, [0.1, -0.2, 0.3], t)
    assert len(seen) == 4 and all(ws is seen[0] for ws in seen)
    sensitivity = run is integrate_flow
    assert list(f._workspaces.items()) == [((sensitivity,), seen[0])]


def test_a_dropped_field_frees_its_workspaces():
    f = _trig_field()
    integrate_flow(f, [0.1, -0.2, 0.3], 0.3)
    flow_endpoint(f, [0.1, -0.2, 0.3], -0.3)
    assert set(f._workspaces) == {(True,), (False,)}
    # the evaluators' writers, of the leg and of a family it leads, are
    # kept with the field as well
    for evaluate in (eval_field, jacobian_field):
        evaluate(f, [0.1, -0.2, 0.3])
        evaluate([f, f], [[0.1, -0.2, 0.3]] * 2)
    assert set(f._writers) == {"values", "jacobian", "sensitivity",
                               ("values", f), ("jacobian", f)}
    # so are the workspaces of a family that holds the field again, which
    # refers to it from its own key
    integrate_flow([f, f], [[0.1, -0.2, 0.3]] * 2, [0.3, -0.1])
    flow_endpoint([f, f], [[0.1, -0.2, 0.3]] * 2, [0.1, 0.1])
    assert set(f._workspaces) == {(True,), (False,), (True, f), (False, f)}
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


# --- families of legs ----------------------------------------------------

def _families():
    """(name, fields, points, times, cfg) of a family on every corpus
    scenario and one n = 6, k = 4 scenario, at three total times, with all
    legs forward and with alternating directions, from points spread
    around the guess."""
    scns = [load_scenario(scenario_path(name)) for name in CORPUS_NAMES]
    scns.append(scenario_from_dict(random_linear_scenario(
        np.random.default_rng(1), 6, 4, "wide")))
    rng = np.random.default_rng(7)
    for scn in scns:
        k, n = scn.k, scn.dimension
        for delta in (0.05, 0.4, 2.0):
            for signs in ([1.0] * k, [(-1.0) ** j for j in range(k)]):
                x = scn.guess_point() + rng.uniform(-0.2, 0.2, (k, n))
                t = [s * delta * m for s, m in zip(signs, scn.weights)]
                yield scn.name, scn.fields, x, t, scn.integrator


def _unit(cfg, a):
    """One unit of the local tolerance on an array whose largest entry
    sets the relative part."""
    return cfg.abs_tol + cfg.rel_tol * np.max(np.abs(a))


def test_each_leg_of_a_family_agrees_with_the_leg_alone():
    # a family shares one step sequence, so its legs round apart from the
    # legs integrated alone, but stay within one unit of the local
    # tolerance of them, both kinds of leg, state and sensitivity
    cases = 0
    for name, fields, x, t, cfg in _families():
        k, n = x.shape
        got = integrate_flow(fields, x, t, cfg)
        ends = flow_endpoint(fields, x, t, cfg)
        assert got.endpoint.shape == ends.shape == (k, n)
        assert got.sensitivity.shape == (k, n, n)
        assert isinstance(got.steps_taken, int) and got.steps_taken >= 1
        for j, (f, xj, tj) in enumerate(zip(fields, x, t)):
            one = integrate_flow(f, xj, tj, cfg)
            end = flow_endpoint(f, xj, tj, cfg)
            assert np.max(np.abs(got.endpoint[j] - one.endpoint)) <= \
                _unit(cfg, one.endpoint), (name, t, j)
            assert np.max(np.abs(got.sensitivity[j] - one.sensitivity)) <= \
                _unit(cfg, one.sensitivity), (name, t, j)
            assert np.max(np.abs(ends[j] - end)) <= _unit(cfg, end), \
                (name, t, j)
            cases += 1
    assert cases == 6 * 21  # six families on eight scenarios, 21 fields


@pytest.mark.parametrize("t", [0.3, -0.3], ids=["forward", "backward"])
def test_a_family_of_one_is_the_leg_bit_for_bit(t):
    # the one leg runs on the time scale +-1: the stepper's operations are
    # the lone leg's, sign included
    for name, j, field, x in _reference_cases():
        one = integrate_flow(field, x, t)
        fam = integrate_flow([field], [x], [t])
        assert fam.endpoint.tobytes() == one.endpoint.tobytes(), (name, j)
        assert fam.sensitivity.tobytes() == one.sensitivity.tobytes()
        assert fam.steps_taken == one.steps_taken
        assert flow_endpoint([field], [x], [t]).tobytes() == \
            flow_endpoint(field, x, t).tobytes(), (name, j)


def test_trig_family_dop853_cross_check(corpus):
    # an independent integrator on each leg of a trig-3d family whose legs
    # run forward and backward on different time scales: scipy's DOP853 on
    # the tree-walked augmented system, backward on the negated field
    scn = corpus["trig_3d"]
    x = scn.guess_point() + np.array([[0.1, -0.2, 0.05], [0.0, 0.1, -0.1],
                                      [-0.15, 0.05, 0.2]])
    t = [0.4, -0.25, 0.1]
    got = integrate_flow(scn.fields, x, t)
    for j, (f, xj, tj) in enumerate(zip(scn.fields, x, t)):
        work = f if tj > 0 else negated_field(f)
        want = scipy_flow(tree_rhs(work, True),
                          np.concatenate([xj, np.eye(3).reshape(-1)]),
                          abs(tj))
        assert np.max(np.abs(got.endpoint[j] - want[:3])) <= 1e-10, j
        assert np.max(np.abs(got.sensitivity[j] - want[3:].reshape(3, 3))) \
            <= 1e-10, j


def test_zero_time_leg_of_a_family_is_its_point_and_the_identity():
    # a leg of time 0 is not stepped, so its field is not even evaluated
    # (x2 = -1 is outside sqrt's domain), and the other legs are the
    # family without it, bit for bit
    fields = [parse_field("sin(x2); -x1 + tanh(x2)", 2), _sqrt_field(),
              parse_field("x2; -x1", 2)]
    x = np.array([[0.3, 0.1], [-0.0, -1.0], [1.0, 0.5]])
    for zero in (0.0, -0.0):
        t = [0.4, zero, -0.7]
        got = integrate_flow(fields, x, t)
        ends = flow_endpoint(fields, x, t)
        assert got.endpoint[1].tobytes() == x[1].tobytes()
        assert ends[1].tobytes() == x[1].tobytes()
        assert got.sensitivity[1].tobytes() == np.eye(2).tobytes()
        rest = integrate_flow(fields[::2], x[::2], t[::2])
        assert got.endpoint[::2].tobytes() == rest.endpoint.tobytes()
        assert got.sensitivity[::2].tobytes() == rest.sensitivity.tobytes()
        assert got.steps_taken == rest.steps_taken
        assert ends[::2].tobytes() == \
            flow_endpoint(fields[::2], x[::2], t[::2]).tobytes()
    still = integrate_flow(fields, x, [0.0, -0.0, 0.0])
    assert still.endpoint.tobytes() == x.tobytes()
    assert still.sensitivity.tobytes() == np.array([np.eye(2)] * 3).tobytes()
    assert still.steps_taken == 0


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_family_domain_error_names_the_failing_legs_own_time(run):
    # leg 1 runs backward over 1 and leaves sqrt's domain at its own time
    # t = -0.4; leg 0, twice as long, sets the family's span, so the
    # family stops at s = 0.8, which is not the time reported
    fields = [parse_field("x2; -x1", 2), _sqrt_field()]
    x = [[1.0, 0.0], [0.0, 0.04]]
    with pytest.raises(FlowDomainError) as err:
        run(fields, x, [2.0, -1.0])
    assert abs(err.value.time + 0.4) <= EXIT_ALLOWANCE
    assert str(err.value).startswith("field evaluation failed at t=-0.4: ")
    cause = err.value.__cause__
    assert isinstance(cause, DomainError)
    assert cause.component == 2 and "'sqrt(x2)'" in str(cause)
    # a leg whose own point is outside the domain fails at once, at t=0
    with pytest.raises(FlowDomainError) as err:
        run(fields, [[1.0, 0.0], [0.0, -1.0]], [2.0, -1.0])
    assert err.value.time == 0.0 and "at t=0:" in str(err.value)


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
@pytest.mark.parametrize("leg", [0, 1, 2])
def test_domain_error_of_one_leg_of_three_names_its_own_time(run, leg):
    # one writer evaluates all three legs at each stage; the leg that
    # leaves sqrt's domain, backward over 1 (at its own t = -0.4), is
    # each of the three in turn, and the other two, of times 2.0 and
    # -1.5, run on other time scales: the error names its component and
    # its time tau_leg * s, with s = 0.8 the family's time when it stops
    fields = [parse_field("x2; -x1", 2), parse_field("x2; -x1", 2)]
    x = [[1.0, 0.0], [0.0, 1.0]]
    t = [2.0, -1.5]
    fields.insert(leg, _sqrt_field())
    x.insert(leg, [0.0, 0.04])
    t.insert(leg, -1.0)
    with pytest.raises(FlowDomainError) as err:
        run(fields, x, t)
    assert abs(err.value.time + 0.4) <= EXIT_ALLOWANCE
    assert str(err.value).startswith("field evaluation failed at t=-0.4: ")
    cause = err.value.__cause__
    assert isinstance(cause, DomainError)
    assert cause.component == 2 and cause.leg == leg
    assert str(cause).startswith("component 2: sqrt of negative value ")
    assert str(cause).endswith(" in 'sqrt(x2)'")


def test_stacked_product_is_per_slice_dot_bit_for_bit():
    # a sensitivity stage writes every J_j P_j with one stacked product
    # (np.matmul; np.multiply for n = 1) from a strided (k, n, n) view of
    # the stage input into one of the stage row, where each leg's product
    # was one np.dot; the stage rows are bit for bit only while the two
    # agree on this numpy and BLAS, signed zeros included
    rng = np.random.default_rng(11)
    scales = [0.0, -0.0, 1.0, -1.0, 1e-5, 1e8]
    for k, n in itertools.product(range(1, 5), range(1, 7)):
        m = n + n * n
        product = flow._stacked_product(n)
        for _ in range(40):
            y = rng.standard_normal((k, m)) * rng.choice(scales, (k, m))
            jac = rng.standard_normal((k, n, n)) * rng.choice(scales,
                                                              (k, n, n))
            row = np.full((k, m), np.nan)
            p = y[:, n:].reshape(k, n, n)
            jp = row[:, n:].reshape(k, n, n)
            product(jac, p, jp)
            assert np.shares_memory(jp, row) and np.shares_memory(p, y)
            for j in range(k):
                want = np.empty((n, n))
                np.dot(jac[j], p[j], want)
                assert row[j, n:].tobytes() == want.tobytes(), (k, n, j)
            assert np.isnan(row[:, :n]).all()


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_family_shapes_are_checked(run):
    f, g = parse_field("x2; -x1", 2), parse_field("1; x1", 2)
    with pytest.raises(DimensionError):
        run([f, g], [[0.0, 0.0]], [0.1, 0.1])
    with pytest.raises(DimensionError):
        run([f, g], np.zeros((2, 3)), [0.1, 0.1])
    with pytest.raises(DimensionError):
        run([f, g], np.zeros((2, 2)), [0.1])
    with pytest.raises(DimensionError):
        run([f, parse_field("x1", 1)], np.zeros((2, 2)), [0.1, 0.1])
    with pytest.raises(DimensionError):
        run([], np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        run([f, g], np.zeros((2, 2)), [0.1, math.inf])


def test_family_workspace_reuse_is_invisible():
    # one workspace per family of fields and kind of leg, under the first
    # field; calls on it, each after a call on it that the step limit
    # ended mid-way, equal the same calls on fresh fields
    def make():
        return [_trig_field(), _trig_field(), _trig_field()]

    kept = make()
    x = np.array([[0.1, -0.2, 0.3], [0.0, 0.1, 0.2], [0.3, 0.0, -0.1]])
    calls = [([0.3, -0.1, 0.2], True), ([0.3, -0.1, 0.2], False),
             ([2.0, 0.5, -2.0], True), ([-0.05, 0.05, 0.01], False)]
    for times, sensitivity in calls:
        run = integrate_flow if sensitivity else flow_endpoint
        with pytest.raises(StepLimitError):
            run(kept, x, [8.0, -8.0, 8.0], IntegratorConfig(max_steps=2))
        got, want = run(kept, x, times), run(make(), x, times)
        if sensitivity:
            assert got.endpoint.tobytes() == want.endpoint.tobytes()
            assert got.sensitivity.tobytes() == want.sensitivity.tobytes()
            assert got.steps_taken == want.steps_taken
        else:
            assert got.tobytes() == want.tobytes()
    assert set(kept[0]._workspaces) == {(True, *kept[1:]),
                                              (False, *kept[1:])}
