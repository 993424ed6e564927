import collections
import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import kcycle.cycle
from kcycle import (BranchLostError, ClosureError, CyclePoints,
                    DimensionError, DomainError, FlowDomainError,
                    IntegratorConfig, NewtonDivergenceError,
                    SingularJacobianError, SweepRecord, Weights,
                    average_velocity, cycle_jacobian, cycle_residual,
                    eval_field, find_stasis, flow_endpoint, integrate_flow,
                    jacobian_field, loglog_slope, parse_field,
                    random_linear_scenario, random_nonlinear_scenario,
                    scenario_from_dict, solve_cycle, stasis_residual,
                    sweep_delta, verify_cycle)
from kcycle.stasis import residual_norm
from scipy.interpolate import KroghInterpolator

from oracles import (block_cycle_system, central_fd_jacobian, cofactor_det,
                     first_order_tangent, linear_cycle_points,
                     pair_cycle_x1, reference_newton_terms,
                     scipy_cycle_points)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def regular_sweeps(regular_corpus):
    """(stasis point, sweep result) of every regular corpus scenario."""
    out = {}
    for name, scn in regular_corpus.items():
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        out[name] = sp, sweep_delta(scn.fields, sp.weights, sp.x0,
                                    scn.sweep.delta_max, scn.sweep.steps,
                                    scn.cycle_tol, scn.integrator)
    return out


def _oracle_tangent(scn, sp):
    return first_order_tangent([eval_field(f, sp.x0) for f in scn.fields],
                               [jacobian_field(f, sp.x0) for f in scn.fields],
                               list(sp.weights))


@pytest.fixture
def pair():
    fields = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    return fields, Weights((0.5, 0.5))


def _linear_family(rng, n, k):
    """Random affine fields with a regular equal weighting."""
    while True:
        mats = [rng.uniform(-1, 1, (n, n)) for _ in range(k)]
        vecs = [rng.uniform(-1, 1, n) for _ in range(k)]
        w = np.full(k, 1.0 / k)
        w[-1] = 1.0 - w[:-1].sum()
        wsum = sum(wj * a for wj, a in zip(w, mats))
        if np.linalg.svd(wsum, compute_uv=False)[-1] < 0.15:
            continue
        fields = []
        for a, b in zip(mats, vecs):
            comps = "; ".join(
                " + ".join([f"{float(a[i, l])!r}*x{l + 1}"
                            for l in range(n)] + [repr(float(b[i]))])
                for i in range(n))
            fields.append(parse_field(comps, n))
        x0 = np.linalg.solve(wsum, -sum(wj * b for wj, b in zip(w, vecs)))
        return fields, Weights(tuple(w)), mats, vecs, x0


# --- cycle points ----------------------------------------------------------

def test_cycle_points_rejects_mixed_shapes_and_single_point():
    with pytest.raises(DimensionError):
        CyclePoints((np.zeros(2), np.zeros(3)))
    with pytest.raises(DimensionError):
        CyclePoints((np.zeros(2),))
    with pytest.raises(DimensionError):
        CyclePoints(())


def test_cycle_points_constant_rows_are_independent():
    pts = CyclePoints.constant([0.5, -0.5], 3)
    assert pts.points.shape == (3, 2)
    assert all(np.array_equal(p, [0.5, -0.5]) for p in pts)
    pts[0][0] = 1.0
    assert pts[1][0] == 0.5
    # a reshaped flat vector: iteration and indexing yield its rows, and
    # the points are a copy of it
    vec = np.arange(6.0)
    pts = CyclePoints(np.reshape(vec, (3, 2)))
    assert len(pts) == 3
    assert [list(p) for p in pts] == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert list(pts[2]) == [4.0, 5.0]
    vec[1] = 9.0
    assert pts[0][0] == 0.0 and pts[0][1] == 1.0


# --- average velocity ------------------------------------------------------

def test_average_velocity_zero_at_stasis(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.0], 2)
    assert average_velocity(fields, w, pts, 0.0)[0] == 0.0


def test_average_velocity_symmetric_cancellation(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.0], 2)
    assert average_velocity(fields, w, pts, 0.2)[0] == pytest.approx(
        0.0, abs=1e-13)


def test_average_velocity_offset_pair_closed_form(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.1], 2)
    want = -(1.0 - math.exp(-0.1))
    assert average_velocity(fields, w, pts, 0.2)[0] == pytest.approx(
        want, abs=1e-12)


def test_average_velocity_delta0_equals_stasis_residual(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.37], 2)
    assert average_velocity(fields, w, pts, 0.0)[0] == \
        stasis_residual(fields, w, [0.37])[0]


# --- residual --------------------------------------------------------------

def test_residual_zero_at_stasis_delta0(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.0], 2)
    assert np.all(cycle_residual(fields, w, pts, 0.0) == 0.0)


def test_residual_zero_on_closed_form_cycle(pair):
    fields, w = pair
    delta = 0.2
    x1 = pair_cycle_x1(delta)
    pts = CyclePoints((np.array([x1]), np.array([-x1])))
    res = cycle_residual(fields, w, pts, delta)
    assert np.max(np.abs(res)) <= 1e-12


def test_residual_perturbation_response(pair):
    fields, w = pair
    delta = 0.2
    a = math.exp(-0.1)
    x1 = pair_cycle_x1(delta)
    pts = CyclePoints((np.array([x1]), np.array([-x1 + 1e-3])))
    res = cycle_residual(fields, w, pts, delta)
    # chain block picks up -eps; the averaged block (a-1)*eps/delta
    assert res[1] == pytest.approx(-1e-3, abs=1e-12)
    assert res[0] == pytest.approx((a - 1.0) * 1e-3 / delta, abs=1e-10)


def test_telescoping_identity(corpus):
    scn = corpus["trig_3d"]
    w = scn.weights
    rng = np.random.default_rng(31)
    delta = 0.3
    pts = CyclePoints(tuple(rng.uniform(-0.2, 0.2, 3) for _ in range(3)))
    avg = average_velocity(scn.fields, w, pts, delta)
    total = np.zeros(3)
    for f, x, m in zip(scn.fields, pts, w):
        total += flow_endpoint(f, x, delta * m) - x
    assert np.max(np.abs(delta * avg - total)) <= 1e-12


def test_telescoping_when_chain_closed(corpus):
    # propagate the chain exactly: the averaged block then equals the
    # final-leg closure divided by delta
    scn = corpus["trig_3d"]
    w = scn.weights
    delta = 0.25
    pts = [np.array([0.05, -0.04, 0.02])]
    for f, m in zip(scn.fields[:-1], list(w)[:-1]):
        pts.append(flow_endpoint(f, pts[-1], delta * m))
    pts = CyclePoints(tuple(pts))
    avg = average_velocity(scn.fields, w, pts, delta)
    closure = flow_endpoint(scn.fields[-1], pts[-1],
                            delta * w[-1]) - pts[0]
    assert np.max(np.abs(delta * avg - closure)) <= 1e-10


# --- jacobian --------------------------------------------------------------

def test_jacobian_delta0_pair_block_matrix(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.0], 2)
    want = np.array([[-0.5, -0.5], [1.0, -1.0]])
    assert np.array_equal(cycle_jacobian(fields, w, pts, 0.0), want)


def test_jacobian_delta0_determinant_identity():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        fields, w, mats, _, _ = _linear_family(rng, n, k)
        pts = CyclePoints(tuple(rng.uniform(-1, 1, n) for _ in range(k)))
        block = cycle_jacobian(fields, w, pts, 0.0)
        wsum = sum(wj * a for wj, a in zip(w, mats))
        assert abs(np.linalg.det(block)) == pytest.approx(
            abs(cofactor_det(wsum)), rel=1e-9, abs=1e-13)


def test_jacobian_small_delta_matches_delta0(pair):
    fields, w = pair
    pts = CyclePoints.constant([0.0], 2)
    j0 = cycle_jacobian(fields, w, pts, 0.0)
    j1 = cycle_jacobian(fields, w, pts, 1e-6)
    assert np.max(np.abs(j1 - j0)) <= 1e-5


def test_jacobian_delta0_top_row_matches_fd_of_average_velocity(corpus):
    scn = corpus["trig_3d"]
    w = scn.weights
    n, k = 3, 3
    rng = np.random.default_rng(33)
    flat = rng.uniform(-0.2, 0.2, n * k)

    def avg_at(z):
        pts = CyclePoints(np.reshape(z, (k, n)))
        return average_velocity(scn.fields, w, pts, 0.0)

    top = cycle_jacobian(scn.fields, w,
                         CyclePoints(np.reshape(flat, (k, n))), 0.0)[:n, :]
    fd = central_fd_jacobian(avg_at, flat, h=1e-6)
    assert np.max(np.abs(top - fd)) <= 1e-8


def test_jacobian_matches_fd_of_residual(corpus):
    for name in ("pair_1d", "triad_2d", "trig_3d"):
        scn = corpus[name]
        w = scn.weights
        n, k = scn.dimension, scn.k
        rng = np.random.default_rng(34)
        flat = np.tile(scn.guess_point() * 0.1, k) \
            + rng.uniform(-0.05, 0.05, n * k)
        delta = 0.2

        def res_at(z):
            return cycle_residual(scn.fields, w,
                                  CyclePoints(np.reshape(z, (k, n))),
                                  delta, TIGHT)

        jac = cycle_jacobian(scn.fields, w,
                             CyclePoints(np.reshape(flat, (k, n))), delta,
                             TIGHT)
        fd = central_fd_jacobian(res_at, flat, h=1e-6)
        assert np.max(np.abs(jac - fd)) <= 1e-5, name


def _oracle_system(fields, w, pts, delta, cfg, jacobian):
    """`block_cycle_system` on the results of one family call: eval_field
    and jacobian_field at delta = 0, else integrate_flow when the
    Jacobian is asked for and flow_endpoint when it is not, as
    `_cycle_system` makes them."""
    if delta == 0.0:
        legs = eval_field(fields, pts),
        if jacobian:
            legs += jacobian_field(fields, pts),
    elif jacobian:
        family = integrate_flow(fields, pts, [delta * m for m in w], cfg)
        legs = family.endpoint, family.sensitivity
    else:
        legs = flow_endpoint(fields, pts, [delta * m for m in w], cfg),
    return block_cycle_system(pts, w, delta, *legs)


def test_jacobian_equals_the_block_assembly_bit_for_bit(corpus):
    # pins the placement of every block for k >= 3 and n >= 2, which the
    # finite-difference tests only approximate, and the residual's
    # summation order against a leg-by-leg loop
    wide = scenario_from_dict(random_linear_scenario(
        np.random.default_rng(0), 6, 4, "wide-6x4"))
    rng = np.random.default_rng(35)
    for scn in (wide, corpus["trig_3d"], corpus["pair_1d"]):
        k, n = scn.k, scn.dimension
        pts = scn.guess_point() + rng.uniform(-0.2, 0.2, (k, n))
        for delta in (0.0, 0.05, 0.4):
            got = cycle_jacobian(scn.fields, scn.weights, CyclePoints(pts),
                                 delta, scn.integrator)
            want = _oracle_system(scn.fields, scn.weights, pts, delta,
                                  scn.integrator, True)[1]
            assert got.shape == (k * n, k * n)
            assert np.array_equal(got, want), (scn.name, delta)
            res = cycle_residual(scn.fields, scn.weights, CyclePoints(pts),
                                 delta, scn.integrator)
            assert res.tobytes() == _oracle_system(
                scn.fields, scn.weights, pts, delta, scn.integrator,
                False)[0].tobytes(), (scn.name, delta)


def _drawn_family(draw, n, k):
    """(scenario, points) of an affine or nonlinear random family, drawn
    until its weights are unequal, and k points spread around its guess."""
    rng = np.random.default_rng(1000 * k + n)
    while True:
        scn = scenario_from_dict(draw(rng, n, k, f"random-{n}x{k}"))
        if len(set(scn.weights)) > 1:
            break
    return scn, scn.guess_point() + rng.uniform(-0.2, 0.2, (k, n))


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("k", [2, 3, 4, 8, 9])
def test_cycle_system_equals_the_block_oracle_bit_for_bit(k, n):
    # every residual row and Jacobian block of the whole-array assembly,
    # byte for byte against the leg-by-leg one; n = 1 with k >= 8 is where
    # a pairwise sum of the velocity terms would round differently
    for draw in (random_linear_scenario, random_nonlinear_scenario):
        scn, pts = _drawn_family(draw, n, k)
        w, cfg = scn.weights, scn.integrator
        for delta in (0.0, 0.05, 0.4):
            res, jac = _oracle_system(scn.fields, w, pts, delta, cfg, True)
            ends, got_res, got_jac = kcycle.cycle._cycle_system(
                scn.fields, w, pts, delta, cfg, jacobian=True)
            assert got_res.reshape(-1).tobytes() == res.tobytes()
            assert got_jac.tobytes() == jac.tobytes(), (draw, delta)
            assert cycle_jacobian(scn.fields, w, CyclePoints(pts), delta,
                                  cfg).tobytes() == jac.tobytes()
            res = _oracle_system(scn.fields, w, pts, delta, cfg, False)[0]
            assert cycle_residual(scn.fields, w, CyclePoints(pts), delta,
                                  cfg).tobytes() == res.tobytes()


def _same_term(got, want):
    """Both None, or arrays of one shape and the same bytes."""
    return got is None and want is None or (
        got is not None and want is not None
        and got.shape == want.shape and got.tobytes() == want.tobytes())


def _assert_terms_are_the_reference(fields, w, pts, delta, cfg,
                                    values=True):
    """`_newton_terms` at the points against `reference_newton_terms` on
    the same system, byte for byte; values=False compares them where
    every field raises DomainError at the endpoints."""
    ends, res, jac = kcycle.cycle._cycle_system(fields, w, pts, delta, cfg,
                                                jacobian=True)
    want = reference_newton_terms(eval_field(fields, ends) if values
                                  else None, w, jac, res, delta)
    got = kcycle.cycle._newton_terms(fields, w, jac, ends, res, delta)
    assert all(_same_term(g, r) for g, r in zip(got, want)), (got, want)
    return got


@pytest.mark.parametrize("k, n", [(2, 1), (3, 2), (4, 6), (8, 1), (9, 1),
                                  (9, 2)])
def test_newton_terms_equal_the_reference_arithmetic_bit_for_bit(k, n):
    # the correction and the tangent, byte for byte, on affine and
    # nonlinear families; n = 1 with k >= 8 is where a pairwise sum of the
    # slopes would round differently
    for draw in (random_linear_scenario, random_nonlinear_scenario):
        scn, pts = _drawn_family(draw, n, k)
        for delta in (0.05, 0.4):
            got = _assert_terms_are_the_reference(
                scn.fields, scn.weights, pts, delta, scn.integrator)
            assert got[0] is not None and got[1] is not None


def test_newton_terms_equal_the_reference_where_they_are_none(pair,
                                                              monkeypatch):
    # the cases of test_terms_are_none_where_they_cannot_be_formed: a
    # subnormal delta, constant fields on their cycle (a singular J) and a
    # DomainError at an endpoint, which leaves the correction
    fields, w = pair
    cfg = IntegratorConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _assert_terms_are_the_reference(fields, w, np.zeros((2, 1)),
                                              1e-310, cfg)
        assert got == (None, None)
        const = [parse_field("1", 1), parse_field("-1", 1)]
        got = _assert_terms_are_the_reference(const, w, np.array([[0.0],
                                                                  [0.1]]),
                                              0.2, cfg)
        assert got == (None, None)
        _endpoint_domain_error(monkeypatch, 0)
        got = _assert_terms_are_the_reference(fields, w, np.zeros((2, 1)),
                                              0.2, cfg, values=False)
        assert got[0] is not None and got[1] is None


# --- solve_cycle -----------------------------------------------------------

def test_solve_cycle_pair_tanh_oracle(pair):
    fields, w = pair
    for delta in (0.8, 0.4, 0.2, 0.1, 0.05):
        cyc = solve_cycle(fields, w, CyclePoints.constant([0.0], 2), delta)
        want = pair_cycle_x1(delta)
        assert cyc.points[0][0] == pytest.approx(want, abs=1e-9)
        assert cyc.points[1][0] == pytest.approx(-want, abs=1e-9)
        assert cyc.leg_times == (delta * 0.5, delta * 0.5)
        assert cyc.closure_residual <= 1e-10


def test_solve_cycle_matches_linear_expm_oracle():
    rng = np.random.default_rng(35)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        fields, w, mats, vecs, x0 = _linear_family(rng, n, k)
        delta = 0.1
        cyc = solve_cycle(fields, w, CyclePoints.constant(x0, k), delta)
        want = linear_cycle_points(mats, vecs, list(w), delta)
        got = np.array([p for p in cyc.points])
        assert np.max(np.abs(got - want)) <= 1e-8


def test_solve_cycle_constant_pair_singular():
    fields = [parse_field("1", 1), parse_field("-1", 1)]
    w = Weights((0.5, 0.5))
    with pytest.raises(SingularJacobianError) as err:
        solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 0.3)
    assert err.value.sigma_min == pytest.approx(0.0, abs=1e-14)


def test_solve_cycle_rejects_a_converged_cycle_that_does_not_close(
        pair, monkeypatch):
    # the final leg's endpoint is moved after the residual is formed, as
    # an integration too loose for the Newton tolerance can leave it: the
    # solve converges, and the independent closure check refuses it
    fields, w = pair
    system = kcycle.cycle._cycle_system

    def gapped(*args, **kwargs):
        ends, res, jac = system(*args, **kwargs)
        ends = ends.copy()
        ends[-1] += 1e-6
        return ends, res, jac

    monkeypatch.setattr(kcycle.cycle, "_cycle_system", gapped)
    with pytest.raises(ClosureError) as err:
        solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 0.2)
    assert "final-leg closure 1.000e-06 exceeds 1.000e-09" in str(err.value)


def test_solve_cycle_rejects_nonpositive_delta(pair):
    fields, w = pair
    for bad in (0.0, -0.1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="delta"):
            solve_cycle(fields, w, CyclePoints.constant([0.0], 2), bad)


def test_solve_cycle_trig_matches_scipy_shooting_oracle(corpus):
    scn = corpus["trig_3d"]
    w = scn.weights
    sp = find_stasis(scn.fields, w, scn.guess_point(), 1e-12)
    cyc = solve_cycle(scn.fields, w, CyclePoints.constant(sp.x0, 3), 0.2)
    # frozen from the scipy shooting oracle (DOP853 + hybr on the plain
    # closure system, rtol 1e-12); regenerate with oracles.scipy_cycle_points
    frozen = np.array([
        [-0.056302260036608959, -0.03790823575305087, 0.0029534425468031927],
        [0.043948866214691441, -0.036319345915090021, -0.047790093125667038],
        [0.041811000947059591, 0.062903476438286948, 0.0032664175657459468],
    ])
    got = np.array([p for p in cyc.points])
    assert np.max(np.abs(got - frozen)) <= 1e-9

    def v1(y):
        return np.array([2 * math.cos(y[2]) - y[0],
                         math.sin(y[0]) - y[1],
                         math.tanh(y[1]) - 1 - y[2]])

    def v2(y):
        return np.array([math.sin(y[1]) * y[2] - y[0],
                         2 - y[0] ** 2 - y[1],
                         math.cos(y[0]) - y[2]])

    def v3(y):
        return np.array([math.tanh(y[1]) - 1 - y[0],
                         math.sin(y[2]) - math.cos(y[0]) - y[1],
                         y[0] * y[2] - y[2]])

    # seed the oracle at the exact origin stasis point: hybr's relative
    # finite-difference steps degenerate on ~1e-13 coordinates
    live = scipy_cycle_points([v1, v2, v3], list(w), np.zeros(3), 0.2)
    assert np.max(np.abs(got - live)) <= 1e-9


def test_converged_point_is_not_integrated_again(corpus, monkeypatch):
    # triad-2d is affine, so one Newton step lands on the cycle: k legs
    # with sensitivities for the step, k endpoint-only legs for the
    # accepted trial, and nothing more to find it converged; a family call
    # counts its k legs, one per field
    calls = {"sens": 0, "end": 0}

    def counted(fn, key):
        def wrapped(fields, *args, **kwargs):
            calls[key] += len(fields)
            return fn(fields, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(kcycle.cycle, "integrate_flow",
                        counted(kcycle.cycle.integrate_flow, "sens"))
    monkeypatch.setattr(kcycle.cycle, "flow_endpoint",
                        counted(kcycle.cycle.flow_endpoint, "end"))
    scn = corpus["triad_2d"]
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    cyc = solve_cycle(scn.fields, sp.weights,
                      CyclePoints.constant(sp.x0, scn.k), 0.2,
                      scn.cycle_tol, scn.integrator)
    assert cyc.newton_iters == 1
    assert calls == {"sens": scn.k, "end": scn.k}


def test_a_converged_ladder_point_makes_one_family_call(regular_corpus,
                                                       monkeypatch):
    # a ladder point that its prediction already puts within tol, with a
    # Newton correction within tol, costs one sensitivity family call, at
    # which the Newton iteration finds it converged, and one evaluation of
    # the fields at its leg endpoints for its correction and tangent
    calls = collections.Counter()
    for name in ("integrate_flow", "flow_endpoint", "eval_field",
                 "jacobian_field"):
        def counted(*args, _name=name, _fn=getattr(kcycle.cycle, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kcycle.cycle, name, counted)
    solve, used = kcycle.cycle.solve_cycle, []

    def solve_counted(*args):
        before = calls.copy()
        cyc = solve(*args)
        used.append((cyc.newton_iters, dict(calls - before)))
        return cyc

    monkeypatch.setattr(kcycle.cycle, "solve_cycle", solve_counted)
    for scn in regular_corpus.values():
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        sweep_delta(scn.fields, sp.weights, sp.x0, scn.sweep.delta_max,
                    scn.sweep.steps, scn.cycle_tol, scn.integrator)
    converged = [made for iters, made in used if iters == 0]
    assert len(used) == 160 and len(converged) == 141
    assert all(made == {"integrate_flow": 1, "eval_field": 1}
               for made in converged)


def test_trig_ladder_newton_iterations_unchanged(regular_sweeps):
    # frozen per-point Newton iterations of the trig-3d sweep, each point
    # seeded by the branch predictor (the Hermite polynomial through the
    # last three corrected points and their tangents); the zeros are
    # points whose prediction already met the tolerance and whose Newton
    # correction was within it
    result = regular_sweeps["trig_3d"][1]
    assert [rec.cycle.newton_iters for rec in result.records] == \
        [1] + [0] * 28 + [1] * 3


# sensitivity legs, the steps_taken of their family calls (the attempts
# the k legs of a call share), endpoint-only legs and Newton iterations
# of each regular corpus sweep, as upper bounds
WORK_BUDGET = {"pair-1d": (64, 167, 6, 3), "triad-2d": (96, 109, 12, 4),
               "linear-2d-a": (64, 59, 14, 7),
               "linear-3d-b": (96, 98, 3, 1), "trig-3d": (96, 142, 12, 4)}


def test_corpus_sweeps_stay_within_their_work_budget(regular_corpus,
                                                     monkeypatch):
    # counted work that grows fails here, not only in the benchmark; a
    # change that lowers it re-pins the budget
    work = [0, 0, 0]
    integrate, endpoint = kcycle.cycle.integrate_flow, \
        kcycle.cycle.flow_endpoint

    def sensitivity_legs(fields, *args):
        legs = integrate(fields, *args)
        work[0] += len(fields)
        work[1] += legs.steps_taken
        return legs

    def endpoint_legs(fields, *args):
        work[2] += len(fields)
        return endpoint(fields, *args)

    monkeypatch.setattr(kcycle.cycle, "integrate_flow", sensitivity_legs)
    monkeypatch.setattr(kcycle.cycle, "flow_endpoint", endpoint_legs)
    used = {}
    for scn in regular_corpus.values():
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        work[:] = [0, 0, 0]
        result = sweep_delta(scn.fields, sp.weights, sp.x0,
                             scn.sweep.delta_max, scn.sweep.steps,
                             scn.cycle_tol, scn.integrator)
        used[scn.name] = (*work, int(result.newton_iters.sum()))
    assert used.keys() == WORK_BUDGET.keys()
    for name, budget in WORK_BUDGET.items():
        assert all(u <= b for u, b in zip(used[name], budget)), \
            (name, used[name], budget)


def test_cycles_approach_oracle_tangent_at_first_order(corpus):
    # x_j(delta) = x0 + delta*c_j + O(delta^2): the first-order error falls
    # at least tenfold per decade of delta (a hundredfold for pair-1d,
    # whose branch -tanh(delta/4) is odd in delta)
    for name in ("trig_3d", "triad_2d", "pair_1d", "linear_3d_b"):
        scn = corpus[name]
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        c = _oracle_tangent(scn, sp)
        errs = []
        for delta in (1e-3, 1e-2, 1e-1):
            cyc = solve_cycle(scn.fields, sp.weights,
                              CyclePoints.constant(sp.x0, scn.k), delta,
                              scn.cycle_tol, scn.integrator)
            errs.append(np.max(np.abs((cyc.points.points - sp.x0) / delta
                                      - c)))
        assert errs[2] <= 0.01, (name, errs)
        assert errs[1] >= 9.0 * errs[0] and errs[2] >= 9.0 * errs[1], \
            (name, errs)


def _record_solves(monkeypatch, fail_at=None):
    """Wrap solve_cycle to log [delta, seed, cycle or None] per call; the
    call with index `fail_at` raises NewtonDivergenceError instead."""
    calls = []
    solve = kcycle.cycle.solve_cycle

    def wrapped(fields, weights, seed, delta, *args):
        calls.append([delta, seed.points.copy(), None])
        if len(calls) - 1 == fail_at:
            raise NewtonDivergenceError("forced failure")
        calls[-1][2] = solve(fields, weights, seed, delta, *args)
        return calls[-1][2]

    monkeypatch.setattr(kcycle.cycle, "solve_cycle", wrapped)
    return calls


def test_sweep_first_seed_is_oracle_tangent_prediction(corpus, monkeypatch):
    calls = _record_solves(monkeypatch)
    for name in ("trig_3d", "triad_2d", "pair_1d", "linear_3d_b"):
        scn = corpus[name]
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        calls.clear()
        sweep_delta(scn.fields, sp.weights, sp.x0, scn.sweep.delta_max, 2,
                    scn.cycle_tol, scn.integrator)
        delta, seed, _ = calls[0]
        assert delta == scn.sweep.delta_max / 1024
        want = sp.x0 + delta * _oracle_tangent(scn, sp)
        assert np.max(np.abs(seed - want)) <= 1e-15, name


def _hermite(nodes, delta):
    """scipy's Krogh interpolant through the (delta_i, x_i, t_i) nodes,
    matching each value x_i and, unless t_i is None, each slope t_i,
    evaluated at delta; and its rounding scale sum_i |b_i(delta)| max|y_i|
    over the Hermite basis b_i and the data y_i (values and slopes), the
    size of the terms whose rounding the extrapolation carries into the
    result.

    The scale counts the rounding of the data, not of the evaluation, so
    the predictor tests' bound of 4 eps times it holds for smooth branch
    data, not for arbitrary nodes: on uncorrelated random values and
    slopes the solver's predictor differs from Krogh by up to 8.1 eps
    times the scale."""
    data = [(d, v) for d, x, t in nodes
            for v in ((x,) if t is None else (x, t))]
    xi = [d for d, _ in data]
    yi = np.array([v for _, v in data])
    basis = KroghInterpolator(xi, np.eye(len(xi)))(delta)
    scale = np.abs(basis) @ np.max(np.abs(yi.reshape(len(xi), -1)), axis=1)
    return KroghInterpolator(xi, yi)(delta), scale


def test_bisection_retry_is_seeded_by_branch_extrapolation(pair, monkeypatch):
    # the first attempt at the third ladder point fails and is retried at
    # the midpoint; every seed (the midpoint's included) is the Hermite
    # polynomial through the last three branch nodes: x0 at delta = 0 with
    # the first-order tangent, then every cycle solved so far (the
    # midpoint's too), moved by its Newton correction, with its tangent.
    # Krogh's algorithm and the solver's divided differences round the
    # same polynomial differently; extrapolating ten times past the node
    # spacing magnifies data rounding by the basis, so the bound is 4 eps
    # times the rounding scale of `_hermite` (at most 0.24 of it is seen)
    fields, w = pair
    calls = _record_solves(monkeypatch, fail_at=2)
    result = sweep_delta(fields, w, [0.0], 0.8, 4)
    assert len(result.records) == 4 and not result.branch_lost
    ladder = [rec.delta for rec in result.records]
    assert [c[0] for c in calls] == \
        ladder[:3] + [0.5 * (ladder[1] + ladder[2])] + ladder[2:]
    x0 = np.zeros(1)
    tangent = first_order_tangent([eval_field(f, x0) for f in fields],
                                  [jacobian_field(f, x0) for f in fields],
                                  list(w))
    nodes = [(0.0, np.zeros((2, 1)), tangent)]
    for delta, seed, cycle in calls:
        want, scale = _hermite(nodes[-3:], delta)
        assert np.max(np.abs(seed - want)) <= 4 * EPS * scale, delta
        if cycle is not None:
            assert cycle.tangent is not None
            assert cycle.correction is not None
            nodes.append((delta, cycle.points.points + cycle.correction,
                          cycle.tangent))


def _smooth_branch(rng, k, n):
    """x(delta) and its slope on a smooth random curve in (k, n): a
    hand-built branch whose nodes `_predict` extrapolates."""
    a, b, c, d, e = (rng.uniform(-1, 1, (k, n)) for _ in range(5))
    return (lambda s: a + b * s + c * np.sin(3 * s) + d * np.exp(-2 * s)
            + e * s * s,
            lambda s: b + 3 * c * np.cos(3 * s) - 2 * d * np.exp(-2 * s)
            + 2 * e * s)


@pytest.mark.parametrize("k, n", [(2, 1), (3, 3), (4, 6)])
def test_predictor_matches_the_krogh_oracle(k, n):
    # _predict on hand-built branches of 1, 2 and 3 nodes, each with or
    # without a tangent (three of them behind an older, off-curve node
    # that must not count), and k*n up to 24: the seed is the Hermite
    # polynomial through the last three nodes within the bound of the
    # bisection test above. The nodes
    # lie on smooth curves, as a branch's do: on uncorrelated random
    # data, Krogh's algorithm strays from the exact interpolant by up to
    # 3 eps times the scale and the divided differences or the weights by
    # up to 7, which a branch's smooth data do not show
    rng = np.random.default_rng(k * n)
    for deltas, target in (([0.0, 0.05, 0.08, 0.12], 0.15),
                           ([0.01, 0.02, 0.04, 0.08], 0.16),
                           ([0.0, 0.1, 0.15, 0.2], 0.4)):
        for size in (1, 2, 3):
            for tangents in itertools.product((True, False), repeat=size):
                x, t = _smooth_branch(rng, k, n)
                branch = [(d, x(d), t(d) if has else None)
                          for d, has in zip(deltas[-size:], tangents)]
                if size == 3:
                    branch.insert(0, (deltas[0], x(deltas[0]) + 1.0,
                                      t(deltas[0])))
                seed = kcycle.cycle._predict(branch, target)
                want, scale = _hermite(branch[-size:], target)
                assert seed.points.shape == (k, n)
                assert np.max(np.abs(seed.points - want)) \
                    <= 4 * EPS * scale, (deltas, size, tangents)


def test_predictor_on_a_subnormal_ladder():
    # nodes at subnormal deltas: no warning, and the seed is the Hermite
    # polynomial in u = delta_i/delta, the variable `_predict` works in
    # (scipy's differences in delta itself would overflow)
    x, t = _smooth_branch(np.random.default_rng(36), 3, 2)
    ladder = [1e-310 * 2.0 ** i for i in range(4)]
    branch = [(d, x(d), t(d)) for d in ladder[:3]]
    branch[1] = branch[1][:2] + (None,)
    delta = ladder[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed = kcycle.cycle._predict(branch, delta)
    want, scale = _hermite([(d / delta, x, None if t is None else delta * t)
                            for d, x, t in branch], 1.0)
    assert np.isfinite(seed.points).all()
    assert np.max(np.abs(seed.points - want)) <= 4 * EPS * scale


def test_accepted_cycle_survives_tighter_reintegration(regular_corpus):
    for name, scn in regular_corpus.items():
        w = scn.weights
        sp = find_stasis(scn.fields, w, scn.guess_point(), scn.stasis_tol)
        cyc = solve_cycle(scn.fields, w, CyclePoints.constant(sp.x0, scn.k),
                          0.2, scn.cycle_tol, scn.integrator)
        check = verify_cycle(scn.fields, w, cyc, scn.integrator)
        assert abs(check.max_mismatch - cyc.closure_residual) \
            <= 10.0 * scn.cycle_tol, name


def test_verify_at_solve_tolerance_reproduces_closure_residual(corpus):
    # a point reached by a line-search step ends on endpoint-only flows, so
    # verify at the solve's own tolerance integrates the very same legs and
    # must report the very same mismatches
    scn = corpus["trig_3d"]
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    cyc = solve_cycle(scn.fields, sp.weights,
                      CyclePoints.constant(sp.x0, scn.k), 0.2,
                      scn.cycle_tol, scn.integrator)
    assert cyc.newton_iters >= 1
    check = verify_cycle(scn.fields, sp.weights, cyc, scn.integrator,
                         tighten=1.0)
    assert check.max_mismatch == cyc.closure_residual


# --- Newton correction and branch tangent ---------------------------------

def _solve_from_stasis(scn, delta, tol, cfg):
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    return sp, solve_cycle(scn.fields, sp.weights,
                           CyclePoints.constant(sp.x0, scn.k), delta, tol,
                           cfg)


@pytest.mark.parametrize("name", ["trig_3d", "linear_3d_b"])
def test_tangent_matches_central_differences(corpus, name):
    # dx/ddelta = -J^-1 H_delta at delta = 0.2, against central differences
    # of cycles solved to 1e-13 with the tight integrator, step 1e-3: the
    # differences err by about h^2/6 times the third derivative, the
    # tangent (from a Jacobian integrated at the scenario's rel_tol 1e-10)
    # by about 1e-8
    scn, delta, h = corpus[name], 0.2, 1e-3
    sp, cyc = _solve_from_stasis(scn, delta, scn.cycle_tol, scn.integrator)
    ahead, behind = (solve_cycle(scn.fields, sp.weights, cyc.points, d, 1e-13,
                                 TIGHT).points.points
                     for d in (delta + h, delta - h))
    assert cyc.tangent.shape == (scn.k, scn.dimension)
    assert np.max(np.abs(cyc.tangent - (ahead - behind) / (2 * h))) <= 1e-7


@pytest.mark.parametrize("name", ["trig_3d", "linear_3d_b"])
def test_correction_points_at_the_tight_solve(corpus, name):
    # a seed about 1e-11 off the cycle meets the tolerance as it is and is
    # kept as it is, but its correction takes it to within a hundredth of
    # that distance of the cycle solved to 1e-14 with the same integrator
    scn = corpus[name]
    sp, tight = _solve_from_stasis(scn, 0.2, 1e-14, scn.integrator)
    rng = np.random.default_rng(1)
    seed = tight.points.points + 1e-11 * rng.standard_normal((scn.k,
                                                              scn.dimension))
    cyc = solve_cycle(scn.fields, sp.weights, CyclePoints(seed), 0.2,
                      scn.cycle_tol, scn.integrator)
    assert cyc.newton_iters == 0
    assert cyc.points.points.tobytes() == seed.tobytes()
    off = np.max(np.abs(seed - tight.points.points))
    assert np.max(np.abs(seed + cyc.correction - tight.points.points)) \
        <= 0.01 * off


def _weak_seed(scn):
    """(stasis point, tight cycle at 0.2, seed): the seed is the tight
    cycle moved along the Jacobian's weakest direction by as much as makes
    its residual half of cycle_tol."""
    sp, tight = _solve_from_stasis(scn, 0.2, 1e-14, scn.integrator)
    jac = cycle_jacobian(scn.fields, sp.weights, tight.points, 0.2,
                         scn.integrator)
    _, sv, vt = np.linalg.svd(jac)
    step = 0.5 * scn.cycle_tol / sv[-1] * vt[-1]
    return sp, tight, tight.points.points + step.reshape(scn.k, -1)


def test_correction_over_tol_is_taken_as_a_newton_step(corpus):
    # on linear-2d-a (sigma_min 0.2) such a seed is 1.7e-10 off the cycle:
    # its residual meets the tolerance and its correction does not, so the
    # corrected point replaces it as one more Newton iteration
    scn = corpus["linear_2d_a"]
    sp, tight, seed = _weak_seed(scn)
    cyc = solve_cycle(scn.fields, sp.weights, CyclePoints(seed), 0.2,
                      scn.cycle_tol, scn.integrator)
    assert np.max(np.abs(seed - tight.points.points)) > scn.cycle_tol
    assert cyc.newton_iters == 1
    assert np.max(np.abs(cyc.points.points - tight.points.points)) <= 1e-13


def test_failed_correction_step_keeps_the_point(corpus, monkeypatch):
    # the corrected point is evaluated endpoint only; when that raises, the
    # seed is returned as the residual test accepted it, without a
    # correction, and the iteration is not counted
    scn = corpus["linear_2d_a"]
    sp, tight, seed = _weak_seed(scn)

    def refuse(*args):
        raise FlowDomainError("refused")

    monkeypatch.setattr(kcycle.cycle, "flow_endpoint", refuse)
    cyc = solve_cycle(scn.fields, sp.weights, CyclePoints(seed), 0.2,
                      scn.cycle_tol, scn.integrator)
    assert cyc.newton_iters == 0 and cyc.correction is None
    assert cyc.points.points.tobytes() == seed.tobytes()
    assert cyc.tangent is not None


def _endpoint_domain_error(monkeypatch, allowed):
    """Make kcycle.cycle's eval_field raise DomainError after `allowed`
    calls, as a field would at a leg endpoint outside its domain."""
    calls = []
    evaluate = kcycle.cycle.eval_field

    def wrapped(field, x):
        calls.append(x)
        if len(calls) > allowed:
            raise DomainError("sqrt of negative value")
        return evaluate(field, x)

    monkeypatch.setattr(kcycle.cycle, "eval_field", wrapped)


def test_terms_are_none_where_they_cannot_be_formed(pair, monkeypatch):
    # no RuntimeWarning in any case: a subnormal delta (the leg
    # sensitivities round to I, so J's top row is 0), a singular J
    # (constant fields, seeded on their cycle) and a DomainError at an
    # endpoint, which leaves the correction
    fields, w = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cyc = solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 1e-310)
        assert cyc.tangent is None and cyc.correction is None
        const = [parse_field("1", 1), parse_field("-1", 1)]
        cyc = solve_cycle(const, w, CyclePoints([[0.0], [0.1]]), 0.2)
        assert cyc.newton_iters == 0
        assert cyc.tangent is None and cyc.correction is None
        _endpoint_domain_error(monkeypatch, 0)
        cyc = solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 0.2)
        assert cyc.tangent is None and cyc.correction is not None


def _assert_tanh_branch(result, steps, tol=1e-9):
    # the pair's cycle points are -+tanh(delta/4), read from the points:
    # the norm behind max_distance_to_x0 underflows at subnormal deltas
    assert len(result.records) == steps and not result.branch_lost
    assert np.max(np.abs(result.points), axis=(1, 2)) == pytest.approx(
        np.tanh(result.deltas / 4.0), rel=1e-9, abs=tol)


def test_sweep_continues_through_missing_terms(pair, monkeypatch):
    # nodes without a tangent count once in the predictor, nodes without
    # a correction are the points themselves: a ladder starting at
    # subnormal deltas, a sweep whose solves report no terms at all, and
    # one whose endpoints all raise DomainError after the tangent at x0
    fields, w = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_tanh_branch(sweep_delta(fields, w, [0.0], 1e-305, 4), 4,
                            tol=0.0)
        solve = kcycle.cycle.solve_cycle

        def bare(*args):
            cyc = solve(*args)
            cyc.tangent = cyc.correction = None
            return cyc

        monkeypatch.setattr(kcycle.cycle, "solve_cycle", bare)
        _assert_tanh_branch(sweep_delta(fields, w, [0.0], 0.8, 8), 8)
        monkeypatch.undo()
        # `_tangent` evaluates each field at x0 twice
        _endpoint_domain_error(monkeypatch, 2 * len(fields))
        _assert_tanh_branch(sweep_delta(fields, w, [0.0], 0.8, 8), 8)


# --- sweep -----------------------------------------------------------------

def test_sweep_pair_distances_follow_tanh(pair):
    fields, w = pair
    result = sweep_delta(fields, w, [0.0], 0.8, 32)
    assert len(result.records) == 32
    assert not result.branch_lost
    assert result.largest_delta == 0.8
    deltas = [rec.delta for rec in result.records]
    assert all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:]))
    for rec in result.records:
        assert rec.max_distance_to_x0 == pytest.approx(
            math.tanh(rec.delta / 4.0), abs=1e-9)
    smallest = result.records[0]
    assert smallest.max_distance_to_x0 / smallest.delta == pytest.approx(
        0.25, abs=1e-3)


def test_sweep_slope_near_one(pair):
    fields, w = pair
    result = sweep_delta(fields, w, [0.0], 0.8, 32)
    slope = loglog_slope(result)
    assert 0.9 <= slope <= 1.1


def test_sweep_distances_below_the_squares_underflow(pair):
    # the points are +-2.44e-304 .. +-2.5e-301, whose squares underflow
    fields, w = pair
    result = sweep_delta(fields, w, [0.0], 1e-300, 4)
    assert np.all(result.distances > 0.0)
    assert abs(loglog_slope(result) - 1.0) <= 0.05


def test_sweep_huge_delta_max_flags_largest(pair):
    fields, w = pair
    result = sweep_delta(fields, w, [0.0], 1000.0, 32)
    assert result.largest_delta == 1000.0
    assert not result.branch_lost


def test_sweep_single_step(pair):
    fields, w = pair
    result = sweep_delta(fields, w, [0.0], 0.3, 1)
    assert len(result.records) == 1
    assert result.records[0].delta == 0.3
    assert loglog_slope(result) is None


def test_sweep_immediate_failure_raises():
    fields = [parse_field("1", 1), parse_field("-1", 1)]
    w = Weights((0.5, 0.5))
    with pytest.raises(BranchLostError):
        sweep_delta(fields, w, [0.0], 0.4, 8)


def test_sweep_rejects_subnormal_delta_max(pair):
    # delta_max / 1024 would underflow to 0 and leave no ladder
    fields, w = pair
    for bad in (1e-322, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta_max"):
            sweep_delta(fields, w, [0.0], bad, 4)


def _sweep_with_reached(monkeypatch, fields, weights, x0, *args, **kwargs):
    """sweep_delta(fields, weights, x0, ...) and the records built from
    each cycle `_reach` returned, as SweepRecord(target, cycle, largest
    residual_norm(x_j - x0))."""
    reached = []
    reach = kcycle.cycle._reach

    def wrapped(*reach_args):
        cycle = reach(*reach_args)
        reached.append((reach_args[3], cycle))
        return cycle

    monkeypatch.setattr(kcycle.cycle, "_reach", wrapped)
    result = sweep_delta(fields, weights, x0, *args, **kwargs)
    x0 = np.asarray(x0, dtype=float)
    want = [SweepRecord(target, cycle, max(residual_norm(p - x0)
                                           for p in cycle.points))
            for target, cycle in reached]
    return result, want


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for rec, old in zip(got, want):
        assert type(rec.delta) is float and type(rec.cycle.delta) is float
        assert type(rec.cycle.newton_iters) is int
        assert _bits([rec.delta, rec.cycle.delta]) == \
            _bits([old.delta, old.cycle.delta])
        assert [p.tobytes() for p in rec.cycle.points] == \
            [p.tobytes() for p in old.cycle.points]
        assert _bits(rec.cycle.leg_times) == _bits(old.cycle.leg_times)
        assert rec.cycle.leg_times == old.cycle.leg_times
        assert _bits([rec.cycle.closure_residual]) == \
            _bits([old.cycle.closure_residual])
        # the distances are one array norm over the sweep, whose sums of
        # squares may round apart from a point's own norm
        assert abs(rec.max_distance_to_x0 - old.max_distance_to_x0) <= \
            2.0 * np.spacing(old.max_distance_to_x0)
        assert rec.cycle.newton_iters == old.cycle.newton_iters


def test_sweep_records_equal_the_solved_cycles(regular_corpus, monkeypatch):
    # the columns give back, bit for bit, the record of every cycle the
    # ladder reached, with leg_times delta*m_j as solve_cycle forms them
    for name, scn in regular_corpus.items():
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        result, want = _sweep_with_reached(
            monkeypatch, scn.fields, sp.weights, sp.x0, scn.sweep.delta_max,
            scn.sweep.steps, scn.cycle_tol, scn.integrator)
        assert len(want) == scn.sweep.steps, name
        _assert_same_records(result.records, want)
        for rec in result.records:
            assert rec.cycle.leg_times == tuple(rec.delta * m
                                                for m in sp.weights)
        assert result.points.shape == (scn.sweep.steps, scn.k,
                                       scn.dimension)


def test_sweep_mid_ladder_loss_flags_partial_result(pair, monkeypatch):
    # starve the integrator: small deltas fit the step budget, large ones
    # exhaust it, so the branch is lost midway and the sweep reports what
    # it reached instead of raising
    fields, w = pair
    cfg = IntegratorConfig(max_steps=40)
    result, want = _sweep_with_reached(monkeypatch, fields, w, [0.0], 50.0,
                                       16, cfg=cfg)
    assert result.branch_lost
    assert result.failure_reason is not None
    assert 0 < len(result.records) < 16
    assert result.largest_delta == result.records[-1].delta < 50.0
    _assert_same_records(result.records, want)


def test_kept_sweeps_cost_their_columns(regular_corpus):
    # a kept result holds its branch as arrays, not as per-point objects:
    # ten sweeps of linear-3d-b (32 points, k = n = 3) keep at most 256
    # bytes per ladder point (72 of them the point coordinates)
    scn = regular_corpus["linear_3d_b"]
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)

    def sweep():
        return sweep_delta(scn.fields, sp.weights, sp.x0,
                           scn.sweep.delta_max, scn.sweep.steps,
                           scn.cycle_tol, scn.integrator)

    sweep()  # fill any lazily built cache first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [sweep() for _ in range(10)]
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points = sum(len(result.deltas) for result in kept)
    assert points == 10 * scn.sweep.steps
    assert used <= 256 * points, used / points


def test_sweep_monotone_tail_and_slope_on_regulars(regular_sweeps):
    for name, (_, result) in regular_sweeps.items():
        assert not result.branch_lost, name
        tail = result.records[:8]
        dists = [rec.max_distance_to_x0 for rec in tail]
        assert all(a < b for a, b in zip(dists, dists[1:])), name
        slope = loglog_slope(result)
        assert 0.9 <= slope <= 1.5, (name, slope)


def _one_leg_mismatch(fields, weights, cycle, cfg):
    """The largest max|F_j(x_j, delta*m_j) - x_{j+1}| over the legs,
    cyclically, each leg integrated alone rather than in a family."""
    pts = cycle.points.points
    return max(float(np.max(np.abs(
        flow_endpoint(f, x, cycle.delta * m, cfg) - nxt)))
        for f, x, m, nxt in zip(fields, pts, weights, np.roll(pts, -1, 0)))


def test_every_sweep_record_verifies(regular_corpus, regular_sweeps):
    # a predicted seed may already meet the tolerance and be accepted
    # without a Newton step; every record, those included, must still pass
    # verify (10x tighter integration, 10*cycle_tol budget), and so must
    # its legs integrated one by one at that tighter tolerance, which
    # share no step sequence with the family the solve integrated
    at_zero = 0
    for name, (sp, result) in regular_sweeps.items():
        scn = regular_corpus[name]
        tight = scn.integrator.tightened(10.0)
        assert len(result.records) == scn.sweep.steps, name
        assert abs(loglog_slope(result) - 1.0) <= 0.05, name
        for rec in result.records:
            check = verify_cycle(scn.fields, sp.weights, rec.cycle,
                                 scn.integrator)
            assert check.max_mismatch <= 10.0 * scn.cycle_tol, \
                (name, rec.delta, check.max_mismatch)
            alone = _one_leg_mismatch(scn.fields, sp.weights, rec.cycle,
                                      tight)
            assert alone <= 10.0 * scn.cycle_tol, (name, rec.delta, alone)
            at_zero += rec.cycle.newton_iters == 0
    assert at_zero > 0
