"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion pins its tolerance; oracles are independent of the code
paths they check (closed forms, scipy's matrix exponential, cofactor
determinants, finite differences).
"""

import time

import numpy as np

from kcycle import (CyclePoints, IntegratorConfig, SingularJacobianError,
                    Weights, cycle_jacobian, cycle_residual, eval_field,
                    find_stasis, flow_endpoint, integrate_flow,
                    jacobian_field, loglog_slope, parse_field, solve_cycle,
                    sweep_delta)
from kcycle.cli import main as cli_main
from kcycle.linalg import singular_values

from conftest import scenario_path
from oracles import (central_fd_jacobian, cofactor_det, linear_cycle_points,
                     pair_cycle_x1)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _affine_sources(mats, vecs):
    sources = []
    for a, b in zip(mats, vecs):
        n = a.shape[0]
        comps = "; ".join(
            " + ".join([f"{float(a[i, l])!r}*x{l + 1}" for l in range(n)]
                       + [repr(float(b[i]))])
            for i in range(n))
        sources.append(comps)
    return sources


def _dyadic_weights(rng, k):
    # integers summing to 64 give weights that sum to 1 exactly
    while True:
        cuts = np.sort(rng.integers(1, 64, size=k - 1))
        parts = np.diff(np.concatenate([[0], cuts, [64]]))
        if np.all(parts >= 4):
            return Weights(tuple(float(p) / 64.0 for p in parts))


def _random_regular_family(rng, n, k):
    while True:
        mats = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k)]
        vecs = [rng.uniform(-1.0, 1.0, n) for _ in range(k)]
        w = _dyadic_weights(rng, k)
        wsum = sum(m * a for m, a in zip(w, mats))
        if np.linalg.svd(wsum, compute_uv=False)[-1] < 0.15:
            continue
        x0 = np.linalg.solve(wsum, -sum(m * b for m, b in zip(w, vecs)))
        if np.max(np.abs(x0)) > 3.0:
            continue
        fields = [parse_field(src, n)
                  for src in _affine_sources(mats, vecs)]
        return fields, w, mats, vecs, x0


def test_criterion_1_pair_oracle():
    start = time.perf_counter()
    fields = [parse_field("1 - x1", 1), parse_field("-1 - x1", 1)]
    w = Weights((0.5, 0.5))
    worst = 0.0
    for delta in (0.8, 0.4, 0.2, 0.1, 0.05):
        cyc = solve_cycle(fields, w, CyclePoints.constant([0.0], 2), delta)
        want = pair_cycle_x1(delta)
        worst = max(worst,
                    abs(cyc.points[0][0] - want),
                    abs(cyc.points[1][0] + want))
    elapsed = time.perf_counter() - start
    _report(1, "1-D pair cycles match -tanh(delta/4) to 1e-9",
            worst <= 1e-9 and elapsed < 1.0,
            f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_linear_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = [(n, k) for n in (1, 2, 3) for k in (2, 3, 4)]
    worst = 0.0
    for idx in range(25):
        n, k = grid[idx % len(grid)]
        fields, w, mats, vecs, x0 = _random_regular_family(rng, n, k)
        cyc = solve_cycle(fields, w, CyclePoints.constant(x0, k), 0.1)
        want = linear_cycle_points(mats, vecs, list(w), 0.1)
        got = np.array([p for p in cyc.points])
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _report(2, "25 random linear scenarios match the expm fixed-point "
               "oracle to 1e-8 at delta=0.1",
            worst <= 1e-8 and elapsed < 10.0,
            f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_small_delta_convergence(regular_corpus):
    failures = []
    details = []
    for name, scn in regular_corpus.items():
        sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                         scn.stasis_tol)
        result = sweep_delta(scn.fields, scn.weights, sp.x0,
                             scn.sweep.delta_max, 32, scn.cycle_tol,
                             scn.integrator)
        tail = result.records[:8]
        dists = [rec.max_distance_to_x0 for rec in tail]
        monotone = all(a < b for a, b in zip(dists, dists[1:]))
        slope = loglog_slope(result, points=8)
        ok = (not result.branch_lost and len(result.records) == 32
              and monotone and slope is not None and 0.9 <= slope <= 1.5)
        details.append(f"{name}: slope {slope:.3f}")
        if not ok:
            failures.append(name)
    _report(3, "sweeps shrink monotonically into x0 with log-log slope "
               "in [0.9, 1.5] on every regular corpus scenario",
            not failures, "; ".join(details))


def test_criterion_4_singularity_criterion():
    rng = np.random.default_rng(4096)
    mismatches = 0
    det_fail = 0
    for idx in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        w = _dyadic_weights(rng, k)
        mats = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k)]
        if idx % 3 == 0 and n > 1:
            # force a singular weighted sum: overwrite the last field so
            # the sum equals a rank-deficient matrix
            u = rng.uniform(-1.0, 1.0, (n, 1))
            v = rng.uniform(-1.0, 1.0, (1, n))
            target = u @ v
            partial = sum(m * a for m, a in zip(list(w)[:-1], mats[:-1]))
            mats[-1] = (target - partial) / w[len(w) - 1]
        vecs = [rng.uniform(-1.0, 1.0, n) for _ in range(k)]
        fields = [parse_field(src, n) for src in _affine_sources(mats, vecs)]
        pts = CyclePoints(tuple(rng.uniform(-1, 1, n) for _ in range(k)))
        block = cycle_jacobian(fields, w, pts, 0.0)
        wsum = sum(m * a for m, a in zip(w, mats))

        sv_block = singular_values(block)
        sv_sum = singular_values(wsum)
        block_singular = sv_block[-1] < 1e-10 * sv_block[0]
        sum_singular = sv_sum[-1] < 1e-10 * sv_sum[0]
        if block_singular != sum_singular:
            mismatches += 1

        det_block = abs(np.linalg.det(block))
        det_sum = abs(cofactor_det(wsum))
        scale = max(det_block, det_sum)
        if scale > 1e-12:
            if abs(det_block - det_sum) > 1e-8 * scale:
                det_fail += 1
        elif max(det_block, det_sum) > 1e-12:
            det_fail += 1
    _report(4, "delta=0 block Jacobian is singular exactly when the "
               "weighted Jacobian sum is, and |det| matches to 1e-8",
            mismatches == 0 and det_fail == 0,
            f"{mismatches} classification mismatches, {det_fail} det "
            f"mismatches over 50 instances")


def test_criterion_5_degenerate_rejections(capsys):
    code = cli_main(["stasis", "--scenario",
                     str(scenario_path("degenerate_vv"))])
    capsys.readouterr()
    vv_ok = code == 2

    fields = [parse_field("1", 1), parse_field("-1", 1)]
    w = Weights((0.5, 0.5))
    const_ok = False
    try:
        solve_cycle(fields, w, CyclePoints.constant([0.0], 2), 0.3)
    except SingularJacobianError:
        const_ok = True
    _report(5, "{V,-V} exits 2 from stasis; constant {+1,-1} raises a "
               "singular-Jacobian error from solve_cycle",
            vv_ok and const_ok,
            f"exit={code}, singular raised={const_ok}")


def test_criterion_6_numerical_hygiene(corpus, regular_corpus):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = {"sym_jac": 0.0, "sens": 0.0, "semigroup": 0.0, "cyc_jac": 0.0}

    # symbolic Jacobians vs central differences, every corpus field
    for scn in corpus.values():
        for field in scn.fields:
            for _ in range(25):
                x = rng.uniform(-1.5, 1.5, field.dimension)
                jac = jacobian_field(field, x)
                fd = central_fd_jacobian(lambda p: eval_field(field, p), x,
                                         h=1e-5)
                worst["sym_jac"] = max(worst["sym_jac"],
                                       float(np.max(np.abs(jac - fd))))

    # flow sensitivities vs central differences of endpoints
    for scn in corpus.values():
        for field in scn.fields:
            x = rng.uniform(-0.5, 0.5, field.dimension)
            t = float(rng.uniform(0.1, 0.4))
            sens = integrate_flow(field, x, t, TIGHT).sensitivity
            fd = central_fd_jacobian(
                lambda p: flow_endpoint(field, p, t, TIGHT), x, h=1e-6)
            worst["sens"] = max(worst["sens"],
                                float(np.max(np.abs(sens - fd))))

    # flow semigroup property
    fields = [f for scn in corpus.values() for f in scn.fields]
    for _ in range(50):
        field = fields[int(rng.integers(len(fields)))]
        x = rng.uniform(-0.8, 0.8, field.dimension)
        s, t = rng.uniform(-0.5, 0.5, size=2)
        one = flow_endpoint(field, flow_endpoint(field, x, s), t)
        two = flow_endpoint(field, x, s + t)
        worst["semigroup"] = max(worst["semigroup"],
                                 float(np.linalg.norm(one - two)))

    # cycle Jacobian vs finite-differenced cycle residual
    for scn in regular_corpus.values():
        n, k = scn.dimension, scn.k
        flat = rng.uniform(-0.1, 0.1, n * k)
        delta = 0.2

        def res_at(z, scn=scn, n=n, k=k, delta=delta):
            return cycle_residual(scn.fields, scn.weights,
                                  CyclePoints(np.reshape(z, (k, n))),
                                  delta, TIGHT)

        jac = cycle_jacobian(scn.fields, scn.weights,
                             CyclePoints(np.reshape(flat, (k, n))), delta,
                             TIGHT)
        fd = central_fd_jacobian(res_at, flat, h=1e-6)
        worst["cyc_jac"] = max(worst["cyc_jac"],
                               float(np.max(np.abs(jac - fd))))

    elapsed = time.perf_counter() - start
    ok = (worst["sym_jac"] <= 1e-7 and worst["sens"] <= 1e-6
          and worst["semigroup"] <= 1e-8 and worst["cyc_jac"] <= 1e-5
          and elapsed < 60.0)
    _report(6, "hygiene: symbolic Jacobians 1e-7, sensitivities 1e-6, "
               "semigroup 1e-8, cycle Jacobian 1e-5, under 60 s",
            ok,
            f"sym {worst['sym_jac']:.2e}, sens {worst['sens']:.2e}, "
            f"semi {worst['semigroup']:.2e}, cyc {worst['cyc_jac']:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path, capsys):
    outs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        code = cli_main(["sweep", "--scenario",
                         str(scenario_path("pair_1d")), "--out", str(out)])
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    csv_same = ((outs[0] / "pair-1d_sweep.csv").read_bytes()
                == (outs[1] / "pair-1d_sweep.csv").read_bytes())
    json_same = ((outs[0] / "pair-1d_sweep.json").read_bytes()
                 == (outs[1] / "pair-1d_sweep.json").read_bytes())
    _report(7, "two cmd_sweep runs produce byte-identical CSV and JSON",
            csv_same and json_same,
            f"csv identical={csv_same}, json identical={json_same}")
