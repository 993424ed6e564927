"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own integrator, Newton
solver and compiled field code, and all but `tree_rhs` its symbolic
differentiation: finite differences, scipy's scaling-and-squaring matrix
exponential, cofactor-expansion determinants, closed-form affine flows,
a scipy shooting solver, the field -V built from V's expression trees
(for backward flows), a leg's right-hand side that walks the field's
trees, its derivative trees included, with `expr.eval_expr`, and a
Dormand-Prince 5(4) loop that allocates every stage, to check the
package's in-place stepper bit for bit, and the cycle system and its
Newton terms assembled block by block and leg by leg from the results
of the package's flows and evaluators, to check its whole-array
assembly bit for bit. Tests compare the implementation against these,
never the other way around.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from kcycle import VectorField
from kcycle.expr import Unary, eval_expr


def negated_field(field):
    """The field -V, each component wrapped in a "neg" node."""
    return VectorField(field.dimension,
                       [Unary("neg", c) for c in field.components])


def tree_rhs(field, sensitivity):
    """rhs(y) of one leg of `field`: V(y), or (V(x), J(x) P) flattened for
    y = (x, P) when `sensitivity`, each value and Jacobian entry walked
    from its tree (the package's derivative trees) by eval_expr, which
    performs the float operations the compiled writers do."""
    n = field.dimension
    jac = field.jacobian_exprs

    def values(x):
        return np.array([eval_expr(c, x) for c in field.components])

    def rhs(y):
        x = y[:n]
        j = np.array([[eval_expr(e, x) for e in row] for row in jac])
        return np.concatenate([values(x),
                               (j @ y[n:].reshape(n, n)).reshape(-1)])
    return rhs if sensitivity else values


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# table II.5.2): row i holds the stage-i weights, row 6 the 5th-order
# solution's, and B4 the embedded 4th-order solution's.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4


def reference_dopri(rhs, y0, span, cfg, n):
    """Dormand-Prince 5(4) over [0, span], span > 0, for rhs(y) -> array,
    allocating every stage input, stage and error vector; (y, attempts)
    as the package's stepper reports them.

    The same floating-point operations in the same order as `kcycle.flow`
    states them: stage i's input is [1, h a_i] @ [y; k_0..k_{i-1}] and the
    error estimate (h e) @ k, with h multiplying each tableau weight; PI
    control on the max norm of |err_i| / (abs_tol +
    rel_tol * max(|y_i|, |y_new_i|)), where the entries past the state's n
    share their largest value; a non-finite new state rejects with h*0.2;
    the last stage is the next step's first. No domain handling: a
    DomainError propagates.
    """
    y = np.array(y0, dtype=float)
    t, steps, err_prev = 0.0, 0, 1e-4
    h = span
    h_min = 16.0 * np.finfo(float).eps * span
    k = [rhs(y)] + [None] * 6
    while t < span:
        if steps >= cfg.max_steps or h < h_min:
            raise RuntimeError(f"reference DOPRI5 gave up at t={t}")
        h = min(h, span - t)
        for i in range(1, 7):
            weights = np.concatenate([[1.0], h * _DP_A[i, :i]])
            y_new = weights @ np.array([y] + k[:i])
            k[i] = rhs(y_new)
        abs_e = np.abs((h * _DP_E) @ np.array(k))
        steps += 1
        if not np.isfinite(y_new).all():
            h *= 0.2
            continue
        peak = np.maximum(np.abs(y), np.abs(y_new))
        peak[n:] = peak[n:].max(initial=0.0)
        err = float((abs_e / (cfg.abs_tol + cfg.rel_tol * peak)).max())
        if err <= 1.0:
            t += h
            y = y_new
            k[0] = k[6]
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, steps


def central_fd_jacobian(func, x, h=1e-6):
    """Central finite differences of a vector-valued func at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for l in range(x.size):
        e = np.zeros_like(x)
        e[l] = h
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e)))
                    / (2.0 * h))
    return np.column_stack(cols)


def affine_flow(a, b, x, t):
    """Exact flow of dx/dt = A x + b via the augmented matrix exponential.

    exp(t*[[A, b], [0, 0]]) has e^{tA} in the top-left block and
    (int_0^t e^{sA} ds) b in the top-right column.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = a.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = b
    big = scipy.linalg.expm(t * aug)
    return big[:n, :n] @ x + big[:n, n]


def affine_transition(a, b, t):
    """(M, c) with flow(x, t) = M x + c for dx/dt = A x + b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = a.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = b
    big = scipy.linalg.expm(t * aug)
    return big[:n, :n], big[:n, n]


def linear_cycle_points(mats, vecs, weights, delta):
    """Closed-form cycle for affine fields A_j x + b_j.

    Chains the per-leg transitions x_{j+1} = M_j x_j + c_j around the loop
    and solves the dense fixed-point system (I - M_k...M_1) x_1 = const.
    Returns the k points as rows.
    """
    k = len(mats)
    n = np.atleast_2d(mats[0]).shape[0]
    prod = np.eye(n)
    offset = np.zeros(n)
    legs = []
    for a, b, m in zip(mats, vecs, weights):
        mat, c = affine_transition(a, b, delta * m)
        legs.append((mat, c))
        prod = mat @ prod
        offset = mat @ offset + c
    x1 = np.linalg.solve(np.eye(n) - prod, offset)
    pts = [x1]
    for mat, c in legs[:-1]:
        pts.append(mat @ pts[-1] + c)
    return np.array(pts)


def first_order_tangent(velocities, jacobians, weights):
    """Coefficients c_j of x_j(delta) = x0 + delta*c_j + O(delta^2).

    Built from V_j(x0) and J_j(x0) alone, by matching powers of delta
    rather than through the stacked cycle system. At first order the chain
    x_{j+1} = F_j(x_j, delta*m_j) gives c_{j+1} = c_j + m_j V_j. The leg
    displacements of a cycle sum to zero; their delta^2 term,
    sum_j m_j J_j (c_j + m_j V_j / 2), must vanish too, which fixes c_1
    through the weighted Jacobian sum_j m_j J_j. Returns the c_j as rows.
    """
    offsets = []
    shift = np.zeros(np.asarray(velocities[0]).shape)
    for v, m in zip(velocities, weights):
        offsets.append(shift)
        shift = shift + m * np.asarray(v, dtype=float)
    wsum = sum(m * np.asarray(jac, dtype=float)
               for jac, m in zip(jacobians, weights))
    rhs = -sum(m * np.asarray(jac, dtype=float) @ (s + 0.5 * m * np.asarray(v))
               for v, jac, s, m in zip(velocities, jacobians, offsets,
                                       weights))
    c1 = np.linalg.solve(wsum, rhs)
    return np.array([c1 + s for s in offsets])


def cofactor_det(m):
    """Determinant by cofactor expansion; brute force, fine for n <= 8."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * cofactor_det(minor)
    return total


# closed forms for the 1-D pair {1 - x, -1 - x} with weights (1/2, 1/2)

def pair_flow_toward_plus1(x, t):
    return 1.0 + (x - 1.0) * math.exp(-t)


def pair_flow_toward_minus1(x, t):
    return -1.0 + (x + 1.0) * math.exp(-t)


def pair_cycle_x1(delta):
    """Fixed point of the two composed affine flows: x1 = -tanh(delta/4)."""
    return -math.tanh(delta / 4.0)


def scipy_flow(rhs, x, t, rtol=1e-12, atol=1e-14):
    """High-accuracy flow endpoint via scipy's DOP853."""
    sol = scipy.integrate.solve_ivp(
        lambda _t, y: rhs(y), (0.0, t), np.asarray(x, dtype=float),
        method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:, -1]


def scipy_cycle_points(rhs_list, weights, x0, delta, rtol=1e-12, atol=1e-14):
    """Shooting oracle: solve the plain closure system with scipy.

    Unknowns are all k points stacked; equations are
    F_j(x_j, delta*m_j) - x_{j+1} = 0 cyclically (a different formulation
    from the production solver's averaged system). Seeded at x0.
    """
    x0 = np.asarray(x0, dtype=float)
    k = len(rhs_list)
    n = x0.size

    def closure(z):
        pts = z.reshape(k, n)
        out = np.empty((k, n))
        for j in range(k):
            end = scipy_flow(rhs_list[j], pts[j], delta * weights[j],
                             rtol=rtol, atol=atol)
            out[j] = end - pts[(j + 1) % k]
        return out.reshape(-1)

    seed = np.tile(x0, k)
    sol = scipy.optimize.root(closure, seed, method="hybr", tol=1e-13)
    # hybr may report "no improvement" once it sits on the integration
    # accuracy floor; judge by the residual it actually reached
    reached = float(np.max(np.abs(closure(sol.x))))
    if not sol.success and reached > 1e-10:
        raise RuntimeError(
            f"oracle shooting failed: {sol.message} (residual {reached:.3e})")
    return sol.x.reshape(k, n)


def block_cycle_system(pts, weights, delta, legs, derivatives=None):
    """(residual, Jacobian) of the stacked cycle system at the (k, n)
    points `pts`, assembled leg by leg: the residual flattened to (k*n,),
    the Jacobian (k*n, k*n) by np.block, None without `derivatives`.

    At delta > 0, `legs` holds the leg endpoints F_j and `derivatives`
    the sensitivities P_j of one family call; at delta = 0, the field
    values V_j(x_j) and Jacobians J_j(x_j). The residual's first block is
    0 + the velocity terms (F_j - x_j, or m_j V_j) added in leg order,
    divided by delta unless it is 0; block j the gap F_{j-1} - x_j
    (x_{j-1} - x_j at delta = 0). The Jacobian's top blocks are
    (P_j - I)/delta, or m_j J_j at delta = 0; block row j holds P_{j-1}
    (I at delta = 0) left of its diagonal block -I, and zeros elsewhere.
    """
    k, n = pts.shape
    eye = np.eye(n)
    if delta == 0.0:
        ends = pts
        terms = [m * v for m, v in zip(weights, legs)]
    else:
        ends = legs
        terms = [e - x for e, x in zip(ends, pts)]
    res = np.zeros((k, n))
    for term in terms:
        res[0] += term
    res[0] /= delta or 1.0
    for j in range(1, k):
        res[j] = ends[j - 1] - pts[j]
    if derivatives is None:
        return res.reshape(-1), None
    if delta == 0.0:
        top = [m * jac for m, jac in zip(weights, derivatives)]
        chain = [eye] * k
    else:
        top = [(p - eye) / delta for p in derivatives]
        chain = list(derivatives)
    minus_eye = np.diag(np.full(n, -1.0))  # -eye would hold -0.0
    rows = [top]
    for j in range(1, k):
        rows.append([chain[c] if c == j - 1 else minus_eye if c == j
                     else np.zeros((n, n)) for c in range(k)])
    return res.reshape(-1), np.block(rows)


def reference_newton_terms(values, weights, jac, res, delta):
    """(correction, tangent) of a cycle point, from the field values
    V_j(F_j) at its leg endpoints (None where a field raised there), its
    residual `res` (k, n) and its cycle Jacobian `jac`, by the leg-by-leg
    arithmetic that `cycle._newton_terms` must reproduce bit for bit: the
    slopes m_j V_j(F_j) as a list, the top row of H_delta from
    -(sum(slopes) - r_0)/delta, the chain rows from their concatenation,
    and one np.linalg.solve on the (k*n, 2) right-hand side [-r, -H_delta]
    (one column when H_delta is not finite). A term is None where it is
    not finite, the tangent also without values, both where jac is
    singular.
    """
    k, n = res.shape
    rhs = np.empty((k * n, 2))
    rhs[:, 0] = -res.reshape(-1)
    has_tangent = values is not None
    if has_tangent:
        slopes = [m * v for m, v in zip(weights, values)]
        with np.errstate(over="ignore", invalid="ignore"):
            rhs[:n, 1] = -((sum(slopes) - res[0]) / delta)
        rhs[n:, 1] = -np.concatenate(slopes[:-1])
        has_tangent = bool(np.isfinite(rhs[:, 1]).all())
    try:
        sol = np.linalg.solve(jac, rhs if has_tangent else rhs[:, :1])
    except np.linalg.LinAlgError:
        return None, None
    terms = [col.reshape(k, n) if np.isfinite(col).all() else None
             for col in sol.T]
    return terms[0], terms[1] if has_tangent else None
