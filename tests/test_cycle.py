import math

import numpy as np
import pytest

import kcycle.cycle
from kcycle import (BranchLostError, ClosureError, CyclePoints,
                    DimensionError,
                    IntegratorConfig, NewtonDivergenceError,
                    SingularJacobianError, Weights, average_velocity,
                    cycle_jacobian, cycle_residual, eval_field, find_stasis,
                    flow_endpoint, jacobian_field, loglog_slope, parse_field,
                    solve_cycle, stasis_residual, sweep_delta, verify_cycle)

from oracles import (central_fd_jacobian, cofactor_det, first_order_tangent,
                     linear_cycle_points, pair_cycle_x1, scipy_cycle_points)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


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
    with pytest.raises(ValueError):
        solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 0.0)
    with pytest.raises(ValueError):
        solve_cycle(fields, w, CyclePoints.constant([0.0], 2), -0.1)


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
    # accepted trial, and nothing more to find it converged
    calls = {"sens": 0, "end": 0}

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
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


def test_trig_ladder_newton_iterations_unchanged(regular_sweeps):
    # frozen per-point Newton iterations of the trig-3d sweep, each point
    # seeded by the branch predictor (tangent, then secant, quadratic and
    # cubic extrapolation); the zeros are points whose prediction already
    # met the tolerance
    result = regular_sweeps["trig_3d"][1]
    assert [rec.cycle.newton_iters for rec in result.records] == \
        [1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0] + \
        [1] * 12


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


def _lagrange(points, delta):
    """Polynomial through the (delta_i, x_i) pairs, evaluated at delta."""
    total = 0.0
    for i, (d_i, x_i) in enumerate(points):
        basis = np.prod([(delta - d_j) / (d_i - d_j)
                         for j, (d_j, _) in enumerate(points) if j != i])
        total = total + basis * x_i
    return total


def test_bisection_retry_is_seeded_by_branch_extrapolation(pair, monkeypatch):
    # the first attempt at the third ladder point fails and is retried at
    # the midpoint; after the first solve, every seed (the midpoint's
    # included) is the polynomial through the last four branch points, or
    # all of them while fewer are known: x0 at delta = 0 and every cycle
    # solved so far, the midpoint's too
    fields, w = pair
    calls = _record_solves(monkeypatch, fail_at=2)
    result = sweep_delta(fields, w, [0.0], 0.8, 4)
    assert len(result.records) == 4 and not result.branch_lost
    ladder = [rec.delta for rec in result.records]
    assert [c[0] for c in calls] == \
        ladder[:3] + [0.5 * (ladder[1] + ladder[2])] + ladder[2:]
    branch = [(0.0, np.zeros((2, 1)))]
    for delta, seed, cycle in calls:
        if len(branch) > 1:
            want = _lagrange(branch[-4:], delta)
            assert np.max(np.abs(seed - want)) <= 1e-15, delta
        if cycle is not None:
            branch.append((delta, cycle.points.points))


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
    for bad in (1e-322, 0.0, math.nan):
        with pytest.raises(ValueError):
            sweep_delta(fields, w, [0.0], bad, 4)


def test_sweep_mid_ladder_loss_flags_partial_result(pair):
    # starve the integrator: small deltas fit the step budget, large ones
    # exhaust it, so the branch is lost midway and the sweep reports what
    # it reached instead of raising
    fields, w = pair
    cfg = IntegratorConfig(max_steps=40)
    result = sweep_delta(fields, w, [0.0], 50.0, 16, cfg=cfg)
    assert result.branch_lost
    assert result.failure_reason is not None
    assert 0 < len(result.records) < 16
    assert result.largest_delta == result.records[-1].delta < 50.0


def test_sweep_monotone_tail_and_slope_on_regulars(regular_sweeps):
    for name, (_, result) in regular_sweeps.items():
        assert not result.branch_lost, name
        tail = result.records[:8]
        dists = [rec.max_distance_to_x0 for rec in tail]
        assert all(a < b for a, b in zip(dists, dists[1:])), name
        slope = loglog_slope(result)
        assert 0.9 <= slope <= 1.5, (name, slope)


def test_every_sweep_record_verifies(regular_corpus, regular_sweeps):
    # a predicted seed may already meet the tolerance and be accepted
    # without a Newton step; every record, those included, must still pass
    # verify (10x tighter integration, 10*cycle_tol budget)
    at_zero = 0
    for name, (sp, result) in regular_sweeps.items():
        scn = regular_corpus[name]
        assert len(result.records) == scn.sweep.steps, name
        assert abs(loglog_slope(result) - 1.0) <= 0.05, name
        for rec in result.records:
            check = verify_cycle(scn.fields, sp.weights, rec.cycle,
                                 scn.integrator)
            assert check.max_mismatch <= 10.0 * scn.cycle_tol, \
                (name, rec.delta, check.max_mismatch)
            at_zero += rec.cycle.newton_iters == 0
    assert at_zero > 0
