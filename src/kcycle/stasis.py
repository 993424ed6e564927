"""Stasis points of weighted vector-field systems and their regularity.

A point x0 is a stasis point for fields V_1..V_k when some probability
weighting m (each m_j > 0, sum 1) gives sum_j m_j V_j(x0) = 0; it is
regular when the same weighting of the Jacobians, sum_j m_j dV_j/dx(x0),
is non-singular. Two entry modes: weights pinned -> Newton for x0;
point pinned -> simplex-constrained least squares for the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (BoundaryWeightError, DimensionError,
                     InfeasibleWeightsError, NewtonDivergenceError)
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
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"point has shape {x.shape}, expected ({n},)")
    out = np.zeros(n)
    for m, f in zip(weights, fields):
        out += m * eval_field(f, x)
    return out


def weighted_jacobian(fields, weights: Weights, x) -> np.ndarray:
    """sum_j m_j dV_j/dx(x), from the symbolic per-field Jacobians."""
    n = _check_family(fields, weights)
    x = np.asarray(x, dtype=float)
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
    """Newton on x -> sum_j m_j V_j(x) from x_guess.

    Accepts as soon as the residual 2-norm is <= tol and attaches the
    regularity report (a zero-residual point with a singular weighted
    Jacobian is still returned, flagged non-regular). Raises
    SingularJacobianError when a step is needed but the weighted Jacobian
    is numerically singular, NewtonDivergenceError after
    MAX_NEWTON_ITERS steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x_guess, dtype=float).copy()
    rn = np.inf
    for iteration in range(MAX_NEWTON_ITERS + 1):
        r = stasis_residual(fields, weights, x)
        rn = float(np.linalg.norm(r))
        if not np.isfinite(rn):
            raise NewtonDivergenceError(
                "stasis residual became non-finite", residual_norm=rn,
                iterations=iteration)
        if rn <= tol:
            return StasisPoint(x, weights, rn,
                               check_regularity(fields, weights, x))
        if iteration == MAX_NEWTON_ITERS:
            break
        x = x + linalg.newton_step(
            weighted_jacobian(fields, weights, x), r,
            "weighted Jacobian is numerically singular; likely a "
            "non-regular stasis point")
    raise NewtonDivergenceError(
        f"no stasis point within {MAX_NEWTON_ITERS} Newton steps "
        f"(last residual {rn:.3e})", residual_norm=rn,
        iterations=MAX_NEWTON_ITERS)


def find_weights(fields, x, tol: float, m_min: float = WEIGHT_FLOOR) -> Weights:
    """Best probability weighting at a fixed point x.

    Minimizes ||sum_j m_j V_j(x)|| over the simplex {m_j >= m_min,
    sum m_j = 1} by active-set least squares over the bound constraints.
    Raises InfeasibleWeightsError when the optimum residual exceeds tol,
    BoundaryWeightError when the optimum pins a weight at m_min (strict
    positivity is required, boundary hits are not clamped away).
    """
    n = _check_family(fields)
    k = len(fields)
    if k < 2:
        raise DimensionError("weight solving needs at least two fields")
    cols = np.column_stack([eval_field(f, np.asarray(x, dtype=float))
                            for f in fields])
    m, pinned = _simplex_least_squares(cols, m_min)
    residual = float(np.linalg.norm(cols @ m))
    if residual > tol:
        raise InfeasibleWeightsError(
            f"no probability weighting reaches ||residual|| <= {tol:.3e} "
            f"(optimum {residual:.3e}); not a stasis point", residual=residual)
    if pinned:
        labels = sorted(j + 1 for j in pinned)
        raise BoundaryWeightError(
            f"optimal weighting pins weight(s) {labels} at the positivity "
            f"floor {m_min}; strictly positive weights required",
            pinned=labels)
    return Weights(tuple(float(v) for v in m))


def _simplex_least_squares(cols: np.ndarray, m_min: float):
    """min ||cols @ m|| s.t. sum(m) = 1, m >= m_min.

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
        target = 1.0 - m_min * len(pinned)
        gram = 2.0 * (a_free.T @ a_free)
        if pinned:
            rhs_top = -2.0 * (a_free.T @ (cols[:, sorted(pinned)]
                                          @ np.full(len(pinned), m_min)))
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
        if np.min(m_free) < m_min - 1e-13:
            worst = free[int(np.argmin(m_free))]
            pinned.add(worst)
            continue
        m = np.full(k, m_min)
        m[free] = np.maximum(m_free, m_min)
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
    n = _check_family(fields)
    k = len(fields)
    cols = np.column_stack([eval_field(f, np.asarray(x, dtype=float))
                            for f in fields])
    stacked = np.vstack([cols, np.ones((1, k))])
    sv = linalg.singular_values(stacked)
    cutoff = max(stacked.shape) * np.finfo(float).eps * (sv[0] if sv[0] > 0
                                                         else 1.0)
    rank = int(np.sum(sv > cutoff))
    return k - rank
