"""Stasis points of weighted vector-field systems and their regularity.

A point x0 is a stasis point for fields V_1..V_k when some probability
weighting m (each m_j > 0, sum 1) gives sum_j m_j V_j(x0) = 0; it is
regular when the same weighting of the Jacobians, sum_j m_j dV_j/dx(x0),
is non-singular. Two entry modes: weights pinned -> damped Newton for x0;
point pinned -> simplex-constrained least squares for the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (BoundaryWeightError, DimensionError,
                     InfeasibleWeightsError)
from .expr import eval_field, jacobian_field

# strict positivity floor for weights; hitting it is an error, not a clamp
WEIGHT_FLOOR = 1e-9
WEIGHT_SUM_TOL = 1e-12

# regularity: sigma_min must exceed max(1e-8*sigma_max, 1e-12)
REGULARITY_RTOL = 1e-8
REGULARITY_FLOOR = 1e-12

MAX_NEWTON_ITERS = 50


@dataclass(frozen=True)
class Weights:
    """A probability weighting: every entry >= WEIGHT_FLOOR, entries sum to 1."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("weights must be non-empty")
        for j, v in enumerate(vals):
            if not np.isfinite(v) or v < WEIGHT_FLOOR:
                raise ValueError(
                    f"weight {j + 1} is {v!r}; each weight must be >= "
                    f"{WEIGHT_FLOOR}")
        if abs(sum(vals) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {sum(vals)!r}, expected 1 within "
                f"{WEIGHT_SUM_TOL}")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, j):
        return self.values[j]

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(eq=False)
class RegularityReport:
    weighted_jacobian: np.ndarray
    smallest_singular_value: float
    condition_number: float
    is_regular: bool
    threshold: float


@dataclass(eq=False)
class StasisPoint:
    x0: np.ndarray
    weights: Weights
    residual_norm: float
    regularity: RegularityReport


def _check_family(fields, weights=None):
    if len(fields) < 1:
        raise DimensionError("need at least one field")
    n = fields[0].dimension
    for j, f in enumerate(fields):
        if f.dimension != n:
            raise DimensionError(
                f"field {j + 1} has dimension {f.dimension}, expected {n}")
    if weights is not None and len(weights) != len(fields):
        raise DimensionError(
            f"{len(weights)} weights for {len(fields)} fields")
    return n


def stasis_residual(fields, weights: Weights, x) -> np.ndarray:
    """sum_j m_j V_j(x)."""
    n = _check_family(fields, weights)
    out = np.zeros(n)
    for m, f in zip(weights, fields):
        out += m * eval_field(f, x)
    return out


def weighted_jacobian(fields, weights: Weights, x) -> np.ndarray:
    """sum_j m_j dV_j/dx(x), from the symbolic per-field Jacobians."""
    n = _check_family(fields, weights)
    out = np.zeros((n, n))
    for m, f in zip(weights, fields):
        out += m * jacobian_field(f, x)
    return out


def check_regularity(fields, weights: Weights, x) -> RegularityReport:
    """Singular-value diagnosis of the weighted Jacobian at x."""
    mat = weighted_jacobian(fields, weights, x)
    sv = linalg.singular_values(mat)
    sigma_max = float(sv[0])
    sigma_min = float(sv[-1])
    threshold = max(REGULARITY_RTOL * sigma_max, REGULARITY_FLOOR)
    cond = np.inf if sigma_min == 0.0 else sigma_max / sigma_min
    return RegularityReport(mat, sigma_min, cond, sigma_min > threshold,
                            threshold)


def find_stasis(fields, weights: Weights, x_guess, tol: float) -> StasisPoint:
    """Damped Newton (`linalg.damped_newton`, 2-norm, MAX_NEWTON_ITERS
    steps) on x -> sum_j m_j V_j(x) from x_guess.

    Every evaluation, line-search trials included, returns the cheap
    weighted Jacobian, so the driver never evaluates an accepted trial
    twice. Attaches the regularity report (a zero-residual point with a
    singular weighted Jacobian is still returned, flagged non-regular).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def evaluate(x, jacobian):
        r = stasis_residual(fields, weights, x)
        jac = weighted_jacobian(fields, weights, x)
        return residual_norm(r), r, jac, None

    x, rn, _, _ = linalg.damped_newton(
        evaluate, np.asarray(x_guess, dtype=float).copy(), tol,
        MAX_NEWTON_ITERS, "stasis")
    return StasisPoint(x, weights, rn, check_regularity(fields, weights, x))


def residual_norm(r) -> float:
    """The 2-norm of r; rescaled only where the plain norm overflows on a
    finite vector, so every finite plain norm is returned as it is."""
    with np.errstate(over="ignore"):
        rn = float(np.linalg.norm(r))
        if rn == np.inf and np.isfinite(r).all():
            big = np.max(np.abs(r))
            rn = float(big * np.linalg.norm(r / big))
    return rn


def find_weights(fields, x, tol: float) -> Weights:
    """Best probability weighting at a fixed point x.

    Minimizes ||sum_j m_j V_j(x)|| over the simplex {m_j >= WEIGHT_FLOOR,
    sum m_j = 1} by active-set least squares over the bound constraints.
    Field values above 2^500 in magnitude are solved scaled by a power of
    two, which keeps the Gram matrix finite; the residual is reported
    unscaled. Raises InfeasibleWeightsError when a field value at x is not
    finite or the optimum residual exceeds tol, BoundaryWeightError when
    the optimum pins a weight at WEIGHT_FLOOR (strict positivity is
    required, boundary hits are not clamped away).
    """
    _check_family(fields)
    if len(fields) < 2:
        raise DimensionError("weight solving needs at least two fields")
    cols = np.column_stack([eval_field(f, x) for f in fields])
    if not np.isfinite(cols).all():
        raise InfeasibleWeightsError(
            "a field value at the point is not finite; not a stasis point",
            residual=np.inf)
    big = float(np.max(np.abs(cols)))
    shift = math.frexp(big)[1] if big > 2.0 ** 500 else 0
    cols = np.ldexp(cols, -shift)  # exact: a power of two
    m, pinned = _simplex_least_squares(cols)
    residual = math.ldexp(float(np.linalg.norm(cols @ m)), shift)
    if residual > tol:
        raise InfeasibleWeightsError(
            f"no probability weighting reaches ||residual|| <= {tol:.3e} "
            f"(optimum {residual:.3e}); not a stasis point", residual=residual)
    if pinned:
        labels = sorted(j + 1 for j in pinned)
        raise BoundaryWeightError(
            f"optimal weighting pins weight(s) {labels} at the positivity "
            f"floor {WEIGHT_FLOOR}; strictly positive weights required",
            pinned=labels)
    return Weights(tuple(float(v) for v in m))


def _simplex_least_squares(cols: np.ndarray):
    """min ||cols @ m|| s.t. sum(m) = 1, m >= WEIGHT_FLOOR.

    Classic active-set on the bounds: equality-constrained KKT solves via
    lstsq (minimum-norm when the Gram matrix is rank-deficient), pin the
    worst violator, release pinned entries with negative multipliers.
    """
    k = cols.shape[1]
    pinned: set = set()
    for _ in range(4 * k + 8):
        free = [j for j in range(k) if j not in pinned]
        if not free:
            raise InfeasibleWeightsError(
                "all weights pinned at the floor; simplex is degenerate")
        a_free = cols[:, free]
        target = 1.0 - WEIGHT_FLOOR * len(pinned)
        gram = 2.0 * (a_free.T @ a_free)
        if pinned:
            rhs_top = -2.0 * (a_free.T @ (cols[:, sorted(pinned)] @ np.full(
                len(pinned), WEIGHT_FLOOR)))
        else:
            rhs_top = np.zeros(len(free))
        kkt = np.zeros((len(free) + 1, len(free) + 1))
        kkt[:len(free), :len(free)] = gram
        kkt[:len(free), -1] = 1.0
        kkt[-1, :len(free)] = 1.0
        rhs = np.concatenate([rhs_top, [target]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        m_free = sol[:len(free)]
        lam = sol[-1]
        if np.min(m_free) < WEIGHT_FLOOR - 1e-13:
            worst = free[int(np.argmin(m_free))]
            pinned.add(worst)
            continue
        m = np.full(k, WEIGHT_FLOOR)
        m[free] = np.maximum(m_free, WEIGHT_FLOOR)
        if pinned:
            grad = 2.0 * (cols.T @ (cols @ m))
            mults = {j: grad[j] - lam for j in pinned}
            scale = max(1.0, float(np.max(np.abs(grad))))
            releasable = [j for j, mu in mults.items()
                          if mu < -1e-11 * scale]
            if releasable:
                pinned.remove(min(releasable, key=lambda j: mults[j]))
                continue
        return m, pinned
    raise InfeasibleWeightsError("active-set weight solve did not settle")


def weight_hull_dimension(fields, x) -> int:
    """Dimension of the affine hull of the optimal weightings at x.

    Nullity of the field values stacked with the sum-to-one row; 0 means
    the weighting is unique.
    """
    _check_family(fields)
    k = len(fields)
    cols = np.column_stack([eval_field(f, x) for f in fields])
    stacked = np.vstack([cols, np.ones((1, k))])
    sv = linalg.singular_values(stacked)
    cutoff = max(stacked.shape) * np.finfo(float).eps * (sv[0] if sv[0] > 0
                                                         else 1.0)
    rank = int(np.sum(sv > cutoff))
    return k - rank
