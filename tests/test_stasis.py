import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcycle.stasis
from kcycle import (BoundaryWeightError, DimensionError,
                    InfeasibleWeightsError, NewtonDivergenceError,
                    SingularJacobianError, Weights, check_regularity,
                    eval_field, find_stasis, find_weights, parse_field, stasis_residual,
                    weight_hull_dimension, weighted_jacobian)
from kcycle.linalg import damped_newton, newton_step, singular_values
from kcycle.stasis import MAX_NEWTON_ITERS, WEIGHT_FLOOR


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
def test_find_stasis_evaluates_each_point_once(name, corpus, monkeypatch):
    # the accepted trial's residual is reused when the driver asks for the
    # Jacobian there, so the fields are evaluated at the guess and at each
    # line-search trial only, and the iterates are those of a driver whose
    # every evaluation is fresh
    if name == "flat_tail":
        fields = [parse_field("tanh(x1 - 1)", 1)] * 2
        weights, guess, tol = Weights((0.5, 0.5)), [3.0], 1e-12
    else:
        scn = corpus[name]
        fields, weights, guess, tol = (scn.fields, scn.weights,
                                       scn.stasis_guess, scn.stasis_tol)
    evals, trials = [], []

    def counting_eval(field, x):
        evals.append(x)
        return eval_field(field, x)

    def counting_newton(evaluate, x, *args):
        def counted(x, jacobian):
            if not jacobian:
                trials.append(x)
            return evaluate(x, jacobian)
        return damped_newton(counted, x, *args)

    monkeypatch.setattr(kcycle.stasis, "eval_field", counting_eval)

    monkeypatch.setattr(kcycle.stasis.linalg, "damped_newton",
                        counting_newton)
    sp = find_stasis(fields, weights, guess, tol)
    assert len(trials) >= 2
    assert len(evals) == len(fields) * (1 + len(trials))

    def fresh(x, jacobian):
        r = stasis_residual(fields, weights, x)
        jac = weighted_jacobian(fields, weights, x) if jacobian else None
        return float(np.linalg.norm(r)), r, jac, None

    x, rn, _, _ = damped_newton(fresh, np.array(guess, dtype=float), tol,
                                MAX_NEWTON_ITERS, "stasis")
    assert np.array_equal(sp.x0, x) and sp.residual_norm == rn


def test_find_weights_three_constants():
    fields = [parse_field("1; 0", 2), parse_field("0; 1", 2),
              parse_field("-1; -1", 2)]
    w = find_weights(fields, [0.7, -0.3], 1e-10)
    assert np.allclose(w.as_array(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_find_weights_infeasible():
    fields = [parse_field("1; 0", 2), parse_field("2; 0", 2)]
    with pytest.raises(InfeasibleWeightsError):
        find_weights(fields, [0.0, 0.0], 1e-8)


def test_find_weights_pair_derived():
    fields = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    w = find_weights(fields, [0.5], 1e-12)
    assert np.allclose(w.as_array(), [0.75, 0.25], atol=1e-12)


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


def test_newton_step_refuses_singular_jacobians():
    for jac, sigma_min in ((np.zeros((3, 3)), 0.0),
                           (np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5]), None)):
        with pytest.raises(SingularJacobianError) as err:
            newton_step(jac, np.ones(3), "test Jacobian")
        assert str(err.value).startswith("test Jacobian (sigma_min ")
        assert err.value.sigma_min == singular_values(jac)[-1]
        if sigma_min is not None:
            assert err.value.sigma_min == sigma_min
    jac = np.array([[2.0, 1.0], [0.0, 4.0]])
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
