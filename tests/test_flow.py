import math
from fractions import Fraction as Q
from functools import partial

import numpy as np
import pytest
import scipy.linalg

import kcycle.flow as flow
from kcycle import (DimensionError, DomainError, FlowDomainError,
                    IntegratorConfig, SolverError, StepLimitError, eval_field,
                    flow_endpoint, integrate_flow, jacobian_field,
                    load_scenario, parse_field, random_linear_scenario,
                    scenario_from_dict)

from conftest import CORPUS_NAMES, scenario_path
from oracles import (affine_flow, central_fd_jacobian, negated_field,
                     reference_dopri)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
RK4 = IntegratorConfig(method="rk4_fixed")

# x2' = -sqrt(x2) from 0.04 is x2 = (0.2 - t/2)^2, which reaches zero at
# t = 0.4. A state error e near there moves that exit by 2*sqrt(e) in
# time, and the default tolerances keep e to about abs_tol + rel_tol*0.04.
EXIT_ALLOWANCE = 2.0 * math.sqrt(flow.DEFAULT_CONFIG.abs_tol
                                 + flow.DEFAULT_CONFIG.rel_tol * 0.04)


def _into(rhs):
    """An rhs(y) that returns its value, as the steppers' binder: bind(y,
    out) returns a call that writes rhs(y) into out."""
    def bind(y, out):
        def write():
            out[:] = rhs(y)
        return write
    return bind


def test_scalar_affine_closed_form():
    f = parse_field("1 - x1", 1)
    res = integrate_flow(f, [0.0], 0.1)
    assert res.endpoint[0] == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)
    assert res.est_local_error <= 1e-12 + 1e-10 * 2.0


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


def test_rk4_cross_check():
    f = parse_field("sin(x2); -x1 + tanh(x2)", 2)
    x = [0.3, 0.1]
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, method="rk4_fixed")
    adaptive = integrate_flow(f, x, 0.4)
    fixed = integrate_flow(f, x, 0.4, cfg)
    assert np.allclose(adaptive.endpoint, fixed.endpoint, atol=1e-9)
    assert np.allclose(adaptive.sensitivity, fixed.sensitivity, atol=1e-8)


def test_step_exhaustion():
    f = parse_field("1 - x1", 1)
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(StepLimitError):
        integrate_flow(f, [0.0], 10.0, cfg)


def test_subnormal_time_advances():
    # span / 64 underflows to 0 here; every step must still advance t
    f = parse_field("1 - x1", 1)
    cfg = IntegratorConfig(max_steps=10)
    assert flow_endpoint(f, [0.0], 5e-323, cfg) == \
        pytest.approx([5e-323], rel=0.2, abs=0.0)
    res = integrate_flow(f, [0.0], -5e-323, cfg)
    assert res.endpoint == pytest.approx([-5e-323], rel=0.2, abs=0.0)
    assert res.sensitivity[0, 0] == pytest.approx(1.0)


def test_rk4_subnormal_time_advances():
    # eight steps of span / 8 have half steps that underflow to 0 here, so
    # the pass used to return the initial state while claiming 16 steps
    f = parse_field("1 - x1", 1)
    cfg = IntegratorConfig(method="rk4_fixed")
    assert flow_endpoint(f, [0.0], 5e-323, cfg) == [5e-323]
    res = integrate_flow(f, [0.0], -5e-323, cfg)
    assert res.endpoint == [-5e-323]
    assert res.steps_taken == 2
    assert res.sensitivity[0, 0] == pytest.approx(1.0)


def _stage_log(rhs, log):
    """`_into(rhs)` whose calls append a copy of each input state to
    `log`."""
    def bind(y, out):
        def wrapped():
            log.append(y.copy())
            out[:] = rhs(y)
        return wrapped
    return bind


@pytest.mark.parametrize("source, rejects", [("1; cos(x1)", False),
                                             ("1; sin(40*x1)", True)])
def test_dopri_reuses_first_stage(source, rejects):
    # x1 is time, so each attempt's first new stage sits at t + h/5 and its
    # last at t + h; a retry from the same t starts below the previous end
    f = parse_field(source, 2)
    log = []
    y, steps, _ = flow._dopri(_stage_log(partial(eval_field, f), log),
                              np.zeros(2), 1.0, IntegratorConfig(), 2)
    assert y[0] == pytest.approx(1.0)
    assert len(log) == 1 + 6 * steps
    attempts = [log[1 + 6 * a:7 + 6 * a] for a in range(steps)]
    retries = sum(nxt[0][0] < cur[-1][0]
                  for cur, nxt in zip(attempts, attempts[1:]))
    assert (retries > 0) == rejects
    # an accepted step's last stage and a rejected step's first are never
    # evaluated again
    assert len({p.tobytes() for p in log}) == len(log)


def test_domain_error_reports_time():
    # x' = -sqrt(x) from 0.04 hits zero at t = 0.4 and turns negative
    f = parse_field("0 - sqrt(x1)", 1)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [0.04], 1.0)
    assert err.value.time is not None
    assert "sqrt" in str(err.value)


@pytest.mark.parametrize("method", flow.METHODS)
@pytest.mark.parametrize("source, a, x, t", [
    ("x1", [[1.0]], [0.0], 10.0),
    ("x1", [[1.0]], [1e-20], 10.0),
    ("x2; -4*x1 + 0.3*x2", [[0.0, 1.0], [-4.0, 0.3]], [0.0, 0.0], 6.0),
], ids=["growth", "growth-near-zero", "oscillator"])
def test_sensitivity_is_accurate_where_the_state_barely_moves(source, a, x,
                                                             t, method):
    # from an equilibrium (or next to it) the state's local error is 0 (or
    # far below abs_tol), so only the sensitivity's own error control
    # keeps the steps short: P = e^{tA} to the tolerance relative to |P|
    f = parse_field(source, len(x))
    want = scipy.linalg.expm(t * np.array(a))
    res = integrate_flow(f, x, t, IntegratorConfig(method=method))
    assert np.max(np.abs(res.sensitivity - want)) <= 1e-7 * np.max(
        np.abs(want))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")


def test_est_local_error_within_tolerance(corpus):
    scn = corpus["trig_3d"]
    cfg = scn.integrator
    for f in scn.fields:
        res = integrate_flow(f, np.zeros(3), 0.3, cfg)
        bound = cfg.abs_tol + cfg.rel_tol * (3.0 + np.max(np.abs(res.endpoint)))
        assert res.est_local_error <= bound


def _reference_rhs(field, sensitivity):
    """A leg's right-hand side built from the public evaluators alone."""
    n = field.dimension
    if not sensitivity:
        return partial(eval_field, field)

    def rhs(y):
        dphi = jacobian_field(field, y[:n]) @ y[n:].reshape(n, n)
        return np.concatenate([eval_field(field, y[:n]), dphi.reshape(-1)])
    return rhs


@pytest.mark.parametrize("method", flow.METHODS)
@pytest.mark.parametrize("sensitivity", [True, False],
                         ids=["sensitivity", "endpoint"])
@pytest.mark.parametrize("t", [0.3, -0.3], ids=["forward", "backward"])
@pytest.mark.parametrize("name", ["trig_3d", "wide"])
def test_bound_rhs_is_bit_identical_to_public_evaluators(
        corpus, name, t, sensitivity, method):
    if name == "wide":
        scn = scenario_from_dict(random_linear_scenario(
            np.random.default_rng(0), 6, 4, "wide"))
        field, x = scn.fields[0], scn.stasis_guess
    else:
        field, x = corpus[name].fields[0], np.array([0.1, -0.2, 0.3])
    n = field.dimension
    cfg = IntegratorConfig(method=method)
    stepper = flow._dopri if method == "dopri_adaptive" else flow._rk4
    # backward: the negated field's trees, built outside the package
    work = field if t > 0 else negated_field(field)
    y0 = np.concatenate([x, np.eye(n).reshape(-1)]) if sensitivity else x
    # the leg controls the step size on the state, its first n entries
    want, steps, est = stepper(_into(_reference_rhs(work, sensitivity)), y0,
                               abs(t), cfg, n)
    if sensitivity:
        got = integrate_flow(field, x, t, cfg)
        assert np.array_equal(got.endpoint, want[:n])
        assert np.array_equal(got.sensitivity, want[n:].reshape(n, n))
        assert (got.steps_taken, got.est_local_error) == (steps, est)
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
    # divides by zero: the sensitivity leg fails with the walk's
    # DomainError, and the endpoint-only leg stays at the equilibrium
    f = parse_field("0 - sqrt(x1)", 1)
    with pytest.raises(FlowDomainError) as err:
        integrate_flow(f, [0.0], 1.0)
    assert err.value.time == 0.0
    cause = err.value.__cause__
    assert isinstance(cause, DomainError) and cause.component == 1
    assert "division by zero" in str(cause)
    assert flow_endpoint(f, [0.0], 1.0).tolist() == [0.0]


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


@pytest.mark.parametrize("run", [integrate_flow, flow_endpoint])
def test_trial_stage_outside_the_domain_rejects_the_step(run):
    # the flow is e^-t, inside x1 >= 0 for all t, but stages of early trial
    # steps land below zero; those steps are rejected, not the leg
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
                                   rel=100.0 * relative.rel_tol)


def test_rk4_raises_at_the_first_stage_outside_the_domain():
    # a fixed-step pass cannot tell a trial stage past the domain from a
    # trajectory that leaves it, so it raises where the adaptive leg runs
    f = parse_field("sqrt(x1) - sqrt(x1) - x1", 1)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [1.0], 100.0, RK4)
    assert err.value.time == 0.0
    assert isinstance(err.value.__cause__, DomainError)


@pytest.mark.parametrize("t", [1.0, -1.0], ids=["forward", "backward"])
def test_domain_error_at_the_first_stage_raises_at_once(t):
    # stage 0 is the leg's own starting point, not a trial
    f = parse_field("sqrt(x1)", 1)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [-1.0], t)
    assert isinstance(err.value, SolverError)  # the CLI's exit code 1
    assert math.copysign(1.0, err.value.time) == 1.0
    assert "at t=0:" in str(err.value)


def test_rk4_backward_domain_error_reports_negative_time():
    f = parse_field("1; sqrt(x2)", 2)
    with pytest.raises(FlowDomainError) as err:
        flow_endpoint(f, [0.0, 0.04], -1.0, RK4)
    assert -0.4 < err.value.time < 0.0
    assert f"at t={err.value.time:.6g}:" in str(err.value)
    assert err.value.__cause__.component == 2


def _reference_cases():
    scns = [load_scenario(scenario_path(name)) for name in CORPUS_NAMES]
    scns.append(scenario_from_dict(random_linear_scenario(
        np.random.default_rng(1), 6, 4, "wide")))
    return [(scn.name, j, field, scn.guess_point() + 0.1)
            for scn in scns for j, field in enumerate(scn.fields)]


@pytest.mark.parametrize("t", [0.5, -0.5], ids=["forward", "backward"])
def test_legs_match_the_allocating_reference_dopri(t):
    # the in-place stepper performs the reference's operations in the
    # reference's order: equal bits, step counts and estimates
    cfg = flow.DEFAULT_CONFIG
    for name, j, field, x in _reference_cases():
        n = field.dimension
        work = field if t > 0 else negated_field(field)
        got = integrate_flow(field, x, t)
        y0 = np.concatenate([x, np.eye(n).reshape(-1)])
        want, steps, est = reference_dopri(_reference_rhs(work, True), y0,
                                           abs(t), cfg, n)
        assert np.array_equal(got.endpoint, want[:n]), (name, j)
        assert np.array_equal(got.sensitivity, want[n:].reshape(n, n))
        assert (got.steps_taken, got.est_local_error) == (steps, est)
        want, _, _ = reference_dopri(_reference_rhs(work, False), x,
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
    # the stepper's buffers belong to one leg: no result is a view of a
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
