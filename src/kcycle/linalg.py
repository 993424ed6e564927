"""Small dense helpers: singular values, the guarded Newton step and the
damped-Newton driver of the stasis and cycle solves.

Singular values come from LAPACK through numpy (``np.linalg.svd``).
"""

from __future__ import annotations

import numpy as np

from .errors import NewtonDivergenceError, SingularJacobianError, SolverError

# relative floor under which a matrix counts as numerically singular
SINGULAR_RTOL = 1e-10

# Armijo line search: the step is halved at most MAX_BACKTRACKS times
MAX_BACKTRACKS = 8
ARMIJO_C = 1e-4


def singular_values(a) -> np.ndarray:
    """Singular values of a real matrix, in descending order; all NaN for
    a matrix with a non-finite entry, which LAPACK cannot decompose."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        return np.full(min(a.shape), np.nan)
    return np.linalg.svd(a, compute_uv=False)


def newton_step(jac, res, message: str) -> np.ndarray:
    """The Newton step -jac^-1 res, by LU with partial pivoting.

    A Jacobian with sigma_min < SINGULAR_RTOL*sigma_max (the zero matrix
    included) raises SingularJacobianError carrying sigma_min, with
    `message` and sigma_min as its text.
    """
    sv = singular_values(jac)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularJacobianError(f"{message} (sigma_min {sv[-1]:.3e})",
                                    sigma_min=float(sv[-1]))
    return np.linalg.solve(jac, -res)


def damped_newton(evaluate, x, tol: float, max_iters: int, label: str):
    """Damped Newton from x until the caller's residual norm is <= tol.

    `evaluate(x, jacobian)` returns (norm, res, jac, data): the norm, the
    residual, the Jacobian (may be None unless asked for) and what the
    caller needs back from the accepted iterate; returns (x, norm, data,
    iterations). An accepted trial hands all four to the new iterate,
    which is evaluated again only when its Jacobian is None and its norm
    misses tol. The full step is tried first and halved up to
    MAX_BACKTRACKS times until the trial's norm is <= (1 - ARMIJO_C*lam)
    times the current one; a trial whose evaluation raises SolverError is
    rejected. Raises NewtonDivergenceError on a non-finite norm at x, a
    failed line search or max_iters steps; `label` names the solve in the
    messages.
    """
    rn, jac = np.inf, None  # x's norm and Jacobian, once evaluated
    for iteration in range(max_iters + 1):
        if rn > tol and jac is None:
            rn, res, jac, data = evaluate(x, True)
            if not np.isfinite(rn):
                raise NewtonDivergenceError(
                    f"{label}: residual became non-finite", residual_norm=rn,
                    iterations=iteration)
        if rn <= tol:
            return x, rn, data, iteration
        if iteration == max_iters:
            break
        step = newton_step(jac, res.reshape(-1),
                           f"{label}: Jacobian numerically singular"
                           ).reshape(x.shape)
        lam = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = x + lam * step
            try:
                t_rn, t_res, t_jac, t_data = evaluate(trial, False)
            except SolverError:
                t_rn = np.inf
            if np.isfinite(t_rn) and t_rn <= (1.0 - ARMIJO_C * lam) * rn:
                x, rn, res, jac, data = trial, t_rn, t_res, t_jac, t_data
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"{label}: line search found no decrease (residual "
                f"{rn:.3e})", residual_norm=rn, iterations=iteration)
    raise NewtonDivergenceError(
        f"{label}: no convergence in {max_iters} Newton steps (residual "
        f"{rn:.3e})", residual_norm=rn, iterations=max_iters)
