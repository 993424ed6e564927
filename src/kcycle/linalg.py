"""Small dense helpers: singular values, the LU solve, the guarded Newton
step and the damped-Newton driver of the stasis and cycle solves.

Singular values come from LAPACK through numpy (``np.linalg.svd``). Linear
systems are solved by `lu_solve`, LAPACK's dgesv (LU with partial
pivoting; Anderson et al., LAPACK Users' Guide) through the generalized
ufunc that ``np.linalg.solve`` calls, without that function's wrapper.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

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


def lu_solve(a, b) -> np.ndarray:
    """a^-1 b for a square float64 matrix a and a float64 vector (n,) or
    matrix (n, r) b, by LU with partial pivoting: bit for bit what
    ``np.linalg.solve(a, b)`` returns, from the same LAPACK gufunc
    (``solve1`` for a vector, ``solve`` for a matrix), but without its
    wrapper's conversions and checks, which cost about 3 us a call, more
    than the solve itself up to about 9 x 9.

    Where ``np.linalg.solve`` raises LinAlgError (a zero pivot, or an
    invalid operation on the way), the result is all NaN instead, with no
    warning; a NaN matrix gives NaN as well.
    """
    solve = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return solve(a, b)
    except FloatingPointError:
        return np.full(b.shape, np.nan)


def newton_step(jac, res, message: str) -> np.ndarray:
    """The Newton step -jac^-1 res, by `lu_solve`.

    A Jacobian with sigma_min < SINGULAR_RTOL*sigma_max (the zero matrix
    included) raises SingularJacobianError carrying sigma_min, with
    `message` and sigma_min as its text. A Jacobian with a non-finite
    entry passes it, its singular values being NaN, and its step is NaN
    where LU meets an invalid operation; `damped_newton`'s line search
    rejects such a step.
    """
    sv = singular_values(jac)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularJacobianError(f"{message} (sigma_min {sv[-1]:.3e})",
                                    sigma_min=float(sv[-1]))
    return lu_solve(jac, -res)


def damped_newton(evaluate, x, tol: float, max_iters: int, label: str):
    """Damped Newton from x until the caller's residual norm is <= tol.

    `evaluate(x, jacobian)` returns (norm, res, jac, data): the norm, the
    residual, the Jacobian (may be None unless asked for) and what the
    caller needs back from the accepted iterate; returns (x, norm, data,
    iterations). An accepted trial hands all four to the new iterate,
    which is evaluated again only when its Jacobian is None and its norm
    misses tol. The full step is tried first and halved up to
    MAX_BACKTRACKS times until the trial's norm is <= (1 - ARMIJO_C*lam)
    times the current (finite) one; a non-finite trial, or one whose
    evaluation raises SolverError, is rejected. Raises
    NewtonDivergenceError on a non-finite norm at x, a failed line search
    (its message says so when x's Jacobian has a non-finite entry) or
    max_iters steps; `label` names the solve in the messages.
    """
    rn, jac = np.inf, None  # x's norm and Jacobian, once evaluated
    for iteration in range(max_iters + 1):
        if rn > tol and jac is None:
            rn, res, jac, data = evaluate(x, True)
            if not math.isfinite(rn):
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
            if t_rn <= (1 - ARMIJO_C * lam) * rn and np.isfinite(trial).all():
                x, rn, res, jac, data = trial, t_rn, t_res, t_jac, t_data
                break
            lam *= 0.5
        else:
            note = ("" if np.isfinite(jac).all()
                    else ": the Jacobian has non-finite entries")
            raise NewtonDivergenceError(
                f"{label}: line search found no decrease (residual "
                f"{rn:.3e}){note}", residual_norm=rn, iterations=iteration)
    raise NewtonDivergenceError(
        f"{label}: no convergence in {max_iters} Newton steps (residual "
        f"{rn:.3e})", residual_norm=rn, iterations=max_iters)
