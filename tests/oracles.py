"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own integrator, Newton
solver, and symbolic differentiation: finite differences, scipy's
scaling-and-squaring matrix exponential, cofactor-expansion determinants,
closed-form affine flows, a scipy shooting solver, the field -V
built from V's expression trees (for backward flows), and a Dormand-Prince
5(4) loop that allocates every stage, to check the package's in-place
stepper bit for bit. Tests compare the implementation against these,
never the other way around.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from kcycle import VectorField
from kcycle.expr import Unary


def negated_field(field):
    """The field -V, each component wrapped in a "neg" node."""
    return VectorField(field.dimension,
                       [Unary("neg", c) for c in field.components])


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
    allocating every stage input, stage and error vector; (y, attempts,
    est) as the package's stepper reports them.

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
    t, steps, est, err_prev = 0.0, 0, 0.0, 1e-4
    h = span / 64.0 or span
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
            est = max(est, float(abs_e[:n].max()))
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, steps, est


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
