import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcycle.stasis
from kcycle import (BoundaryWeightError, DimensionError,
                    InfeasibleWeightsError, NewtonDivergenceError,
                    SingularJacobianError, Weights, check_regularity,
                    eval_field, find_stasis, find_weights, jacobian_field,
                    parse_field, stasis_residual, weight_hull_dimension,
                    weighted_jacobian)
from kcycle.linalg import damped_newton, newton_step, singular_values
from kcycle.stasis import (MAX_NEWTON_ITERS, WEIGHT_FLOOR,
                           _simplex_least_squares, residual_norm, row_norms)


@pytest.fixture
def pair_fields():
    return [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]


@pytest.fixture
def half_half():
    return Weights((0.5, 0.5))


def test_weights_validation():
    Weights((0.25, 0.75))
    with pytest.raises(ValueError):
        Weights((0.5, 0.5, 0.1))  # sum != 1
    with pytest.raises(ValueError):
        Weights((1.0, 0.0))  # zero weight
    with pytest.raises(ValueError):
        Weights((1.5, -0.5))


def test_residual_pair_at_root(pair_fields, half_half):
    assert stasis_residual(pair_fields, half_half, [0.0])[0] == 0.0


def test_residual_pair_off_root(pair_fields, half_half):
    assert stasis_residual(pair_fields, half_half, [0.4])[0] == \
        pytest.approx(-0.4, abs=1e-15)


def test_residual_three_constant_fields():
    fields = [parse_field("1; 0", 2), parse_field("0; 1", 2),
              parse_field("-1; -1", 2)]
    w = Weights((1 / 3, 1 / 3, 1 / 3))
    for x in ([0.0, 0.0], [5.0, -2.0]):
        assert np.allclose(stasis_residual(fields, w, x), 0.0, atol=1e-16)


def test_residual_dimension_mismatch(half_half):
    fields = [parse_field("x1", 1), parse_field("x1; x2", 2)]
    with pytest.raises(DimensionError):
        stasis_residual(fields, half_half, [0.0])


def test_find_stasis_pair(pair_fields, half_half):
    sp = find_stasis(pair_fields, half_half, [0.7], 1e-10)
    assert abs(sp.x0[0]) <= 1e-10
    assert sp.residual_norm <= 1e-10
    assert sp.regularity.is_regular
    assert sp.regularity.smallest_singular_value == pytest.approx(1.0)


def test_find_stasis_degenerate_pair_accepted_non_regular():
    # V and -V: the weighted residual is identically zero, so any guess is
    # already a stasis point; the report must flag it non-regular
    fields = [parse_field("x2; -x1", 2), parse_field("-x2; x1", 2)]
    sp = find_stasis(fields, Weights((0.5, 0.5)), [0.3, 0.4], 1e-10)
    assert sp.residual_norm == 0.0
    assert not sp.regularity.is_regular
    assert sp.regularity.smallest_singular_value == 0.0


def test_find_stasis_singular_jacobian_off_root():
    # residual x^2/2 - 1/2 != 0 at x=0 where the derivative vanishes
    fields = [parse_field("x1^2", 1), parse_field("-1", 1)]
    with pytest.raises(SingularJacobianError):
        find_stasis(fields, Weights((0.5, 0.5)), [0.0], 1e-12)


def test_find_stasis_linear_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        mats = [rng.uniform(-1, 1, (n, n)) for _ in range(2)]
        vecs = [rng.uniform(-1, 1, n) for _ in range(2)]
        wsum = 0.5 * mats[0] + 0.5 * mats[1]
        if np.linalg.svd(wsum, compute_uv=False)[-1] < 0.1:
            continue
        want = np.linalg.solve(wsum, -(0.5 * vecs[0] + 0.5 * vecs[1]))
        fields = []
        for a, b in zip(mats, vecs):
            comps = ["; ".join(
                " + ".join([f"{float(a[i, l])!r}*x{l + 1}"
                            for l in range(n)] + [repr(float(b[i]))])
                for i in range(n))]
            fields.append(parse_field(comps[0], n))
        sp = find_stasis(fields, Weights((0.5, 0.5)), np.zeros(n), 1e-11)
        assert np.linalg.norm(sp.x0 - want) <= 1e-9


def test_find_stasis_divergence():
    # no real root: x^2 + 1 never vanishes
    fields = [parse_field("x1^2 + 1", 1), parse_field("x1^2 + 1", 1)]
    with pytest.raises((NewtonDivergenceError, SingularJacobianError)):
        find_stasis(fields, Weights((0.5, 0.5)), [2.0], 1e-12)


def test_find_stasis_backtracks_off_a_flat_tail():
    # the full Newton step from 3 lands near -10.6, where tanh(x1 - 1) is
    # flat to 1e-10 and the next undamped step is lost; halving the step
    # keeps the iteration on the regular root x1 = 1
    fields = [parse_field("tanh(x1 - 1)", 1)] * 2
    sp = find_stasis(fields, Weights((0.5, 0.5)), [3.0], 1e-12)
    assert abs(sp.x0[0] - 1.0) <= 1e-12
    assert sp.regularity.is_regular


def test_find_stasis_backtracks_out_of_a_domain_error():
    # the full Newton step from 9 lands at -3, where sqrt raises; that
    # trial is rejected and the half step (x1 = 3) is taken
    fields = [parse_field("sqrt(x1) - 1", 1)] * 2
    sp = find_stasis(fields, Weights((0.5, 0.5)), [9.0], 1e-12)
    assert abs(sp.x0[0] - 1.0) <= 1e-12
    assert sp.regularity.is_regular


def test_damped_newton_returns_the_accepted_trial():
    # x^2 - 4 from 3: every full step is accepted; the Jacobian is asked
    # for only while the carried norm is above tol, and the norm and data
    # returned are the last accepted trial's
    calls = []

    def evaluate(x, jacobian):
        calls.append(jacobian)
        r = x * x - 4.0
        jac = np.diag(2.0 * x) if jacobian else None
        return float(abs(r[0])), r, jac, float(x[0])

    x, rn, data, iters = damped_newton(evaluate, np.array([3.0]), 1e-12, 10,
                                       "square")
    assert abs(x[0] - 2.0) <= 1e-12 and rn == abs(x[0] * x[0] - 4.0)
    assert data == x[0] and rn <= 1e-12
    assert iters >= 3 and calls == [True, False] * iters


@pytest.mark.parametrize("name", ["flat_tail", "trig_3d"])
def test_find_stasis_evaluates_the_jacobian_only_when_asked(name, corpus,
                                                           monkeypatch):
    # line-search trials evaluate the fields alone; the weighted Jacobian
    # is evaluated only where the driver asks for it, and once more by the
    # regularity check at x0, each evaluation one family call on the k
    # fields; the iterates are those of a driver that evaluates every
    # point itself
    if name == "flat_tail":
        fields = [parse_field("tanh(x1 - 1)", 1)] * 2
        weights, guess, tol = Weights((0.5, 0.5)), [3.0], 1e-12
    else:
        scn = corpus[name]
        fields, weights, guess, tol = (scn.fields, scn.weights,
                                       scn.stasis_guess, scn.stasis_tol)
    evals, jacs, asked = [], [], []

    def counting_eval(field, x):
        evals.append(x)
        return eval_field(field, x)

    def counting_jac(field, x):
        jacs.append(x)
        return jacobian_field(field, x)

    def counting_newton(evaluate, x, *args):
        def counted(x, jacobian):
            asked.append(jacobian)
            return evaluate(x, jacobian)
        return damped_newton(counted, x, *args)

    monkeypatch.setattr(kcycle.stasis, "eval_field", counting_eval)
    monkeypatch.setattr(kcycle.stasis, "jacobian_field", counting_jac)
    monkeypatch.setattr(kcycle.stasis.linalg, "damped_newton",
                        counting_newton)
    sp = find_stasis(fields, weights, guess, tol)
    assert asked.count(False) >= 2
    assert len(evals) == len(asked)
    assert len(jacs) == asked.count(True) + 1
    assert {np.shape(x) for x in evals + jacs} == {
        (len(fields), fields[0].dimension)}

    def fresh(x, jacobian):
        r = stasis_residual(fields, weights, x)
        jac = weighted_jacobian(fields, weights, x) if jacobian else None
        return float(np.linalg.norm(r)), r, jac, None

    x, rn, _, _ = damped_newton(fresh, np.array(guess, dtype=float), tol,
                                MAX_NEWTON_ITERS, "stasis")
    assert np.array_equal(sp.x0, x) and sp.residual_norm == rn


def _square_root_of_4(calls):
    """evaluate() of x^2 - 4 for damped_newton, logging its jacobian flags."""
    def evaluate(x, jacobian):
        calls.append(jacobian)
        r = x * x - 4.0
        jac = np.diag(2.0 * x) if jacobian else None
        return float(abs(r[0])), r, jac, None
    return evaluate


def test_damped_newton_non_finite_residual_at_start():
    def evaluate(x, jacobian):
        return np.inf, np.array([np.inf]), np.eye(1), None

    with pytest.raises(NewtonDivergenceError) as err:
        damped_newton(evaluate, np.array([1.0]), 1e-12, 10, "probe")
    assert "probe: residual became non-finite" in str(err.value)
    assert err.value.iterations == 0


def test_damped_newton_stops_after_max_iters():
    # two full steps from 3 leave x^2 - 4 far above 1e-15; the third
    # iterate is evaluated, not stepped from
    calls = []
    with pytest.raises(NewtonDivergenceError) as err:
        damped_newton(_square_root_of_4(calls), np.array([3.0]), 1e-15, 2,
                      "probe")
    x2 = 3.0 - (9.0 - 4.0) / 6.0
    x2 -= (x2 * x2 - 4.0) / (2.0 * x2)
    assert "no convergence in 2 Newton steps" in str(err.value)
    assert err.value.iterations == 2
    assert err.value.residual_norm == pytest.approx(x2 * x2 - 4.0, rel=1e-12)
    assert calls == [True, False, True, False, True]


def test_damped_newton_keeps_an_accepted_trials_jacobian():
    # a trial that returns its Jacobian is never evaluated again
    calls = []
    evaluate = _square_root_of_4(calls)

    def with_jacobian(x, jacobian):
        return evaluate(x, True)

    x, rn, _, iters = damped_newton(with_jacobian, np.array([3.0]), 1e-12,
                                    10, "probe")
    assert abs(x[0] - 2.0) <= 1e-12 and rn <= 1e-12
    assert len(calls) == 1 + iters


def test_damped_newton_tries_every_backtrack():
    # res = x with the Jacobian taken as 1/256: the step from 1 is -256,
    # and only the ninth trial, lam = 2^-8, lands where the residual falls
    trials = []

    def evaluate(x, jacobian):
        trials.append(float(x[0]))
        jac = np.array([[1.0 / 256.0]]) if jacobian else None
        return float(abs(x[0])), x.copy(), jac, None

    x, rn, _, iters = damped_newton(evaluate, np.array([1.0]), 1e-12, 10,
                                    "probe")
    assert (x.tolist(), rn, iters) == ([0.0], 0.0, 1)
    assert trials == [1.0] + [1.0 - 2.0 ** (8 - i) for i in range(9)]


def test_find_stasis_norm_overflow_is_not_called_non_finite():
    # 0.5*(e^700 - 2) - 350.5 is finite but squares past the float range;
    # Newton walks down one unit per step and runs out of steps
    fields = [parse_field("exp(x1) - 2", 1), parse_field("-1 - x1", 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDivergenceError) as err:
            find_stasis(fields, Weights((0.5, 0.5)), [700.0], 1e-10)
    assert "non-finite" not in str(err.value)
    assert "no convergence" in str(err.value)
    assert 1e250 < err.value.residual_norm < np.inf


def test_residual_norm_keeps_every_finite_norm_and_rescales_an_overflow():
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e150):
        r = rng.normal(size=4) * scale
        if scale < 1e-154:  # the squares underflow: rescaled
            assert residual_norm(r) == pytest.approx(
                math.hypot(*r), rel=1e-15, abs=0.0)
        else:
            assert residual_norm(r) == float(np.linalg.norm(r, axis=-1))
    assert residual_norm(np.zeros(3)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert residual_norm(np.array([3e200, -4e200])) == pytest.approx(
            5e200, rel=1e-15)
        assert residual_norm(np.array([np.inf, 1.0])) == np.inf
        assert residual_norm(np.array([1.5e308, 1.5e308])) == np.inf


def test_row_norms_match_residual_norm_within_two_ulps():
    # one array call over every row, rescaled where a row's squares
    # underflow or overflow, against residual_norm row by row: the same
    # arithmetic, so the same bits
    rng = np.random.default_rng(11)
    rows = [rng.normal(size=(8, 3)) * scale
            for scale in (5e-322, 1e-300, 1e-160, 1.0, 1e150, 1e200)]
    rows.append(np.array([[0.0, 0.0, 0.0], [3e200, -4e200, 0.0],
                          [np.inf, 1.0, 0.0], [1.5e308, 1.5e308, 0.0],
                          [np.nan, 1.0, 0.0], [0.0, 1e-320, 0.0],
                          [1.5e-154, 0.0, 0.0], [1e-200, 1e200, 0.0]]))
    rows = np.concatenate(rows).reshape(7, 8, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = row_norms(rows)
    assert got.shape == (7, 8)
    for g, r in zip(got.reshape(-1), rows.reshape(-1, 3)):
        assert g.tobytes() == np.float64(residual_norm(r)).tobytes(), r


def test_find_weights_non_finite_field_value_is_infeasible(monkeypatch):
    def never(cols):  # an infinite Gram matrix hangs the least squares
        raise AssertionError("non-finite values reached the solve")

    monkeypatch.setattr(kcycle.stasis, "_simplex_least_squares", never)
    fields = [parse_field("1e200*1e200 - x1", 1), parse_field("-1 - x1", 1)]
    with pytest.raises(InfeasibleWeightsError) as err:
        find_weights(fields, [0.0], 1e-10)
    assert "not finite" in str(err.value)


def test_find_weights_huge_values_are_solved_scaled(monkeypatch):
    # field values 2^600 and 2^601: the optimum pins field 2 at the floor,
    # and its residual 2^600*(1 + 1e-9) is reported unscaled
    seen = []

    def checked(cols):
        seen.append(float(np.max(np.abs(cols))))
        assert seen[-1] <= 2.0 ** 500  # an overflowing Gram matrix hangs
        return _simplex_least_squares(cols)

    monkeypatch.setattr(kcycle.stasis, "_simplex_least_squares", checked)
    fields = [parse_field("2^600 + x1", 1), parse_field("2^601 + x1", 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleWeightsError) as err:
            find_weights(fields, [0.0], 1e-10)
    assert seen == [0.5]  # 2^601 scaled into [0.5, 1)
    assert err.value.residual == pytest.approx(2.0 ** 600 * (1 + 1e-9),
                                               rel=1e-12)


def _simplex_oracle(cols):
    """Least ||cols @ m|| over the floored simplex by enumerating which
    weights sit at the floor: a KKT solve for the rest, kept if feasible."""
    k = cols.shape[1]
    best = np.inf
    for size in range(k):
        for pinned in itertools.combinations(range(k), size):
            free = [j for j in range(k) if j not in pinned]
            m = np.full(k, WEIGHT_FLOOR)
            a = cols[:, free]
            b = cols[:, list(pinned)].sum(axis=1) * WEIGHT_FLOOR
            kkt = np.block([[2 * a.T @ a, np.ones((len(free), 1))],
                            [np.ones((1, len(free))), np.zeros((1, 1))]])
            rhs = np.append(-2 * a.T @ b, 1.0 - WEIGHT_FLOOR * size)
            m[free] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
            if m.min() >= WEIGHT_FLOOR - 1e-12:
                best = min(best, float(np.linalg.norm(cols @ m)))
    return best


def test_simplex_least_squares_releases_a_pinned_weight():
    # the KKT solves pin field 1, then field 3; field 1's multiplier is
    # then negative, so it is released and only field 3 ends at the floor
    cols = np.array([[-1.1, 0.6, 3.0], [-0.6, 0.8, 2.9]])
    m, pinned = _simplex_least_squares(cols)
    assert pinned == {2}
    assert float(np.linalg.norm(cols @ m)) == pytest.approx(
        _simplex_oracle(cols), rel=1e-9)
    fields = [parse_field(f"{a}; {b}", 2) for a, b in cols.T]
    with pytest.raises(BoundaryWeightError) as err:
        find_weights(fields, [0.0, 0.0], 10.0)
    assert err.value.pinned == (3,)


def test_find_weights_three_constants():
    fields = [parse_field("1; 0", 2), parse_field("0; 1", 2),
              parse_field("-1; -1", 2)]
    w = find_weights(fields, [0.7, -0.3], 1e-10)
    assert np.allclose(w.values, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_find_weights_infeasible():
    fields = [parse_field("1; 0", 2), parse_field("2; 0", 2)]
    with pytest.raises(InfeasibleWeightsError):
        find_weights(fields, [0.0, 0.0], 1e-8)


def test_find_weights_pair_derived():
    fields = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    w = find_weights(fields, [0.5], 1e-12)
    assert np.allclose(w.values, [0.75, 0.25], atol=1e-12)


def test_find_weights_boundary_is_error():
    # optimum puts the (0,1) field at the floor: flagged, not clamped
    fields = [parse_field("1; 0", 2), parse_field("-1; 0", 2),
              parse_field("0; 1", 2)]
    with pytest.raises(BoundaryWeightError) as err:
        find_weights(fields, [0.0, 0.0], 1e-6)
    assert err.value.pinned == (3,)
    # with a tolerance below the floor-level residual it is infeasible
    with pytest.raises(InfeasibleWeightsError):
        find_weights(fields, [0.0, 0.0], 1e-12)


def test_find_weights_sum_and_floor(corpus):
    for name in ("triad_2d",):
        scn = corpus[name]
        w = find_weights(scn.fields, scn.stasis_point, 1e-8)
        assert abs(sum(w.values) - 1.0) <= 1e-12
        assert all(v >= WEIGHT_FLOOR for v in w.values)


def test_check_regularity_pair():
    fields = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    rep = check_regularity(fields, Weights((0.5, 0.5)), [0.0])
    assert rep.weighted_jacobian[0, 0] == -1.0
    assert rep.smallest_singular_value == pytest.approx(1.0)
    assert rep.is_regular


def test_check_regularity_cancellation():
    fields = [parse_field("x2; -x1", 2), parse_field("-x2; x1", 2)]
    rep = check_regularity(fields, Weights((0.5, 0.5)), [1.0, 2.0])
    assert np.all(rep.weighted_jacobian == 0.0)
    assert rep.smallest_singular_value == 0.0
    assert not rep.is_regular
    assert rep.condition_number == np.inf


def test_sigma_min_matches_svd_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        mats = [rng.uniform(-2, 2, (n, n)) for _ in range(2)]
        fields = []
        for a in mats:
            comps = "; ".join(
                " + ".join(f"{float(a[i, l])!r}*x{l + 1}" for l in range(n))
                for i in range(n))
            fields.append(parse_field(comps, n))
        rep = check_regularity(fields, Weights((0.5, 0.5)), np.zeros(n))
        want = np.linalg.svd(0.5 * mats[0] + 0.5 * mats[1],
                             compute_uv=False)[-1]
        assert rep.smallest_singular_value == pytest.approx(want, abs=1e-12)


def test_singular_values_match_gram_eigenvalues():
    # checked without an SVD routine: a = U diag(s) V^T has singular values
    # s by construction, and their squares are the largest eigenvalues of
    # a^T a, which the symmetric eigensolver computes independently
    rng = np.random.default_rng(23)
    for m, n in ((1, 1), (3, 7), (7, 3), (5, 5), (2, 12), (12, 2), (9, 9),
                 (24, 24)):
        r = min(m, n)
        s = np.sort(rng.uniform(1.0, 4.0, r))[::-1]
        u = np.linalg.qr(rng.standard_normal((m, r)))[0]
        v = np.linalg.qr(rng.standard_normal((n, r)))[0]
        a = u @ np.diag(s) @ v.T
        got = singular_values(a)
        assert got.shape == (r,)
        assert np.all(np.diff(got) <= 0.0)
        gram = np.sqrt(np.linalg.eigvalsh(a.T @ a)[::-1][:r])
        assert np.allclose(got, gram, rtol=1e-12, atol=0.0)
        assert np.allclose(got, s, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_singular_values_of_a_non_finite_matrix_are_nan(bad):
    # LAPACK's SVD raises LinAlgError on a NaN entry; an inf gives NaN too
    got = singular_values([[bad, 0.0], [0.0, 1.0]])
    assert got.shape == (2,) and np.isnan(got).all()


def test_stasis_steps_through_an_infinite_jacobian_entry():
    # x2^3 = 1e360 at the guess: NaN singular values must not stop Newton
    fields = [parse_field("x1*x2*x2*x2 + 1 - x1; 1 - x2", 2),
              parse_field("-1 - x1; -1 - x2", 2)]
    w = Weights((0.5, 0.5))
    assert np.isinf(weighted_jacobian(fields, w, [0.0, 1e120])).any()
    sp = find_stasis(fields, w, [0.0, 1e120], 1e-10)
    assert sp.x0.tolist() == [0.0, 0.0] and sp.regularity.is_regular


def test_newton_step_refuses_singular_jacobians():
    # the threshold is relative to sigma_max: sigma_min/sigma_max = 1e-11
    # is singular however large sigma_min is, and 1e-9 is regular however
    # small
    for jac, sigma_min in ((np.zeros((3, 3)), 0.0),
                           (np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5]), None),
                           (np.diag([1e6, 1e-5]), None)):
        with pytest.raises(SingularJacobianError) as err:
            newton_step(jac, np.ones(len(jac)), "test Jacobian")
        assert str(err.value).startswith("test Jacobian (sigma_min ")
        assert err.value.sigma_min == singular_values(jac)[-1]
        if sigma_min is not None:
            assert err.value.sigma_min == sigma_min
    for jac in (np.array([[2.0, 1.0], [0.0, 4.0]]), np.diag([1e-6, 1e-15])):
        assert np.array_equal(newton_step(jac, np.array([3.0, 8.0]), "ok"),
                              np.linalg.solve(jac, -np.array([3.0, 8.0])))


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_residual_scaling_equivariance(c):
    fields = [parse_field(f"{c!r}*(1 - x1)", 1),
              parse_field(f"{c!r}*(-1 - x1)", 1)]
    base = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    w = Weights((0.5, 0.5))
    for x in ([0.0], [0.4], [-1.3]):
        scaled = stasis_residual(fields, w, x)
        plain = stasis_residual(base, w, x)
        assert scaled[0] == pytest.approx(c * plain[0], rel=1e-15, abs=1e-300)


def test_regularity_weight_continuity(regular_corpus):
    for scn in regular_corpus.values():
        if scn.weights is None:
            continue
        x = scn.guess_point()
        base = check_regularity(scn.fields, scn.weights, x)
        bumped = np.array(scn.weights.values)
        bumped[0] += 1e-10
        bumped /= bumped.sum()
        rep = check_regularity(scn.fields, Weights(tuple(bumped)), x)
        assert abs(rep.smallest_singular_value
                   - base.smallest_singular_value) <= 1e-8


@pytest.mark.parametrize("extra", [[], ["x1 - 2"]], ids=["k2", "k3"])
def test_a_non_finite_field_value_has_no_weight_hull(extra):
    # the hull has dimension at most k - 1; an overflowing value read as
    # rank 0 gave k, where find_weights refuses the point
    fields = [parse_field(src, 1) for src in ["x1*1e308*10", "-1"] + extra]
    for call in (lambda: weight_hull_dimension(fields, [1.0]),
                 lambda: find_weights(fields, [1.0], 1e-8)):
        with pytest.raises(InfeasibleWeightsError,
                           match="a field value at the point is not finite"):
            call()


def test_weight_hull_dimension_redundant_family():
    # four constant fields in the plane: weights have a 1-dim optimal set
    fields = [parse_field("1; 0", 2), parse_field("-1; 0", 2),
              parse_field("0; 1", 2), parse_field("0; -1", 2)]
    assert weight_hull_dimension(fields, [0.0, 0.0]) == 1
    tri = [parse_field("1; 0", 2), parse_field("0; 1", 2),
           parse_field("-1; -1", 2)]
    assert weight_hull_dimension(tri, [0.0, 0.0]) == 0


def test_weighted_jacobian_assembly():
    fields = [parse_field("x1*x2; x2", 2), parse_field("-x1; x1 + x2", 2)]
    w = Weights((0.25, 0.75))
    x = np.array([0.3, -0.2])
    want = 0.25 * np.array([[-0.2, 0.3], [0.0, 1.0]]) \
        + 0.75 * np.array([[-1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(weighted_jacobian(fields, w, x), want, atol=1e-15)
