"""Switching cycles near a regular stasis point.

For fields V_1..V_k with weighting m and total time delta, a K-cycle is a
point tuple x_1..x_k with F_j(x_j, delta*m_j) = x_{j+1} cyclically. Cycles
are zeros of the stacked system

    [ G(x_1..x_k, delta); F_1(x_1, delta*m_1) - x_2; ...;
      F_{k-1}(x_{k-1}, delta*m_{k-1}) - x_k ]

where G is the average velocity around the prospective loop,
G = sum_j (F_j(x_j, delta*m_j) - x_j) / delta. G has a removable
singularity at delta = 0 with limit sum_j m_j V_j(x_j), handled as an
explicit branch; at delta = 0 the system's Jacobian is the analytic block
matrix with top row m_j dV_j/dx(x_j) and identity chain blocks, whose
determinant magnitude equals |det(sum_j m_j dV_j/dx)|. Newton continuation
in delta rides this structure: the closure of the final leg is implied by
the G block (the leg displacements telescope) but is re-verified
independently before a cycle is accepted, because floating point breaks
exact telescoping.

Each Newton iteration integrates the k legs once with sensitivities (the
residual and the Jacobian) and then endpoint only for each line-search
trial. The accepted trial's endpoints carry into the next iteration, so
the iteration that finds a point converged integrates nothing.

Newton systems are solved by dense LU with partial pivoting; the chain
blocks would admit a block-structured elimination, noted here only as a
possible optimization since the systems stay desk-scale (nk at most a few
hundred).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (BranchLostError, ClosureError, DimensionError,
                     FlowDomainError, NewtonDivergenceError,
                     SingularJacobianError, SolverError, StepLimitError)
from .flow import DEFAULT_CONFIG, IntegratorConfig, flow_endpoint, integrate_flow
from .stasis import Weights, _check_family
from .expr import eval_field, jacobian_field

DEFAULT_CYCLE_TOL = 1e-10
MAX_CYCLE_ITERS = 25
MAX_BACKTRACKS = 8
MAX_BISECTIONS = 8
SWEEP_LADDER_SPAN = 1024.0


@dataclass(eq=False, slots=True)
class CyclePoints:
    """The k points of a cycle, stored as the rows of one (k, n) array.

    Iteration and indexing yield the rows, so callers see a sequence of
    points.
    """

    points: np.ndarray

    def __post_init__(self):
        rows = [np.asarray(p, dtype=float) for p in self.points]
        if len(rows) < 2:
            raise DimensionError("a cycle needs at least two points")
        if any(p.shape != rows[0].shape for p in rows):
            raise DimensionError("cycle points must share one dimension")
        self.points = np.array(rows)

    @classmethod
    def constant(cls, x0, k: int) -> "CyclePoints":
        x0 = np.asarray(x0, dtype=float)
        return cls(np.broadcast_to(x0, (k,) + x0.shape))

    @classmethod
    def from_flat(cls, vec: np.ndarray, n: int, k: int) -> "CyclePoints":
        return cls(np.reshape(vec[:n * k], (k, n)))

    def flat(self) -> np.ndarray:
        return self.points.flatten()

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, j):
        return self.points[j]


@dataclass(eq=False, slots=True)
class KCycle:
    points: CyclePoints
    delta: float
    leg_times: tuple
    closure_residual: float
    newton_iters: int


@dataclass(eq=False, slots=True)
class SweepRecord:
    delta: float
    cycle: KCycle
    max_distance_to_x0: float


@dataclass(eq=False, slots=True)
class SweepResult:
    records: tuple
    largest_delta: float
    branch_lost: bool
    failure_reason: Optional[str]


def _check_cycle_family(fields, weights, pts):
    n = _check_family(fields, weights)
    if len(pts) != len(fields):
        raise DimensionError(
            f"{len(pts)} cycle points for {len(fields)} fields")
    if pts[0].shape != (n,):
        raise DimensionError(
            f"cycle points have shape {pts[0].shape}, expected ({n},)")
    return n, len(fields)


def _leg_endpoints(fields, weights, pts, delta, cfg):
    return [flow_endpoint(f, x, delta * m, cfg)
            for f, x, m in zip(fields, pts, weights)]


def average_velocity(fields, weights: Weights, pts: CyclePoints,
                     delta: float, cfg: IntegratorConfig = DEFAULT_CONFIG
                     ) -> np.ndarray:
    """Total leg displacement around the loop divided by the total time.

    delta = 0 takes the removable-singularity limit sum_j m_j V_j(x_j),
    which coincides with the stasis residual when the points coincide.
    """
    n, k = _check_cycle_family(fields, weights, pts)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        out = np.zeros(n)
        for m, f, x in zip(weights, fields, pts):
            out += m * eval_field(f, x)
        return out
    ends = _leg_endpoints(fields, weights, pts, delta, cfg)
    return _residual_from_endpoints(ends, pts, delta, n, k)[:n]


def _residual_from_endpoints(ends, pts, delta, n, k):
    res = np.empty(n * k)
    acc = np.zeros(n)
    for end, x in zip(ends, pts):  # fixed summation order: deterministic
        acc += end - x
    res[:n] = acc / delta
    for j in range(k - 1):
        res[(j + 1) * n:(j + 2) * n] = ends[j] - pts[j + 1]
    return res


def cycle_residual(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Stacked system whose zeros (for delta > 0) are exactly the K-cycles.

    First n entries: average velocity; block j+1: leg mismatch
    F_j(x_j, delta*m_j) - x_{j+1} for j = 1..k-1. The final leg's closure
    is implied: delta times the first block telescopes to
    F_k(x_k, delta*m_k) - x_1 once the chain blocks vanish.
    """
    n, k = _check_cycle_family(fields, weights, pts)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        res = np.empty(n * k)
        res[:n] = average_velocity(fields, weights, pts, 0.0, cfg)
        for j in range(k - 1):
            res[(j + 1) * n:(j + 2) * n] = pts[j] - pts[j + 1]
        return res
    ends = _leg_endpoints(fields, weights, pts, delta, cfg)
    return _residual_from_endpoints(ends, pts, delta, n, k)


def _jacobian_from_sensitivities(sens, delta, n, k):
    jac = np.zeros((n * k, n * k))
    eye = np.eye(n)
    for j in range(k):
        jac[:n, j * n:(j + 1) * n] = (sens[j] - eye) / delta
    for j in range(k - 1):
        jac[(j + 1) * n:(j + 2) * n, j * n:(j + 1) * n] = sens[j]
        jac[(j + 1) * n:(j + 2) * n, (j + 1) * n:(j + 2) * n] = -eye
    return jac


def cycle_jacobian(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Jacobian of cycle_residual with respect to the stacked points.

    delta = 0 assembles the analytic block matrix (top row
    m_j dV_j/dx(x_j), chain blocks I and -I); delta > 0 uses the true flow
    sensitivities: top row (dF_j/dx - I)/delta, chain blocks dF_j/dx, -I.
    """
    n, k = _check_cycle_family(fields, weights, pts)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    jac = np.zeros((n * k, n * k))
    eye = np.eye(n)
    if delta == 0.0:
        for j, (m, f, x) in enumerate(zip(weights, fields, pts)):
            jac[:n, j * n:(j + 1) * n] = m * jacobian_field(f, x)
        for j in range(k - 1):
            jac[(j + 1) * n:(j + 2) * n, j * n:(j + 1) * n] = eye
            jac[(j + 1) * n:(j + 2) * n, (j + 1) * n:(j + 2) * n] = -eye
        return jac
    sens = [integrate_flow(f, x, delta * m, cfg).sensitivity
            for f, x, m in zip(fields, pts, weights)]
    return _jacobian_from_sensitivities(sens, delta, n, k)


def solve_cycle(fields, weights: Weights, seed: CyclePoints, delta: float,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> KCycle:
    """Damped Newton on the stacked cycle system for a fixed delta > 0.

    An iteration integrates every leg once with sensitivities, which
    supplies the residual and the Jacobian, and then integrates the
    line-search trials endpoint only. The endpoints of the accepted trial
    are kept: when their residual already meets the tolerance, the next
    iteration returns on them without integrating again. Convergence is
    on the max norm; the final leg's closure F_k(x_k, delta*m_k) = x_1 is
    then re-verified explicitly (10*tol budget) before the cycle is
    accepted.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, k = _check_cycle_family(fields, weights, seed)
    x = seed.flat()
    mvals = list(weights)
    rn = np.inf  # max-norm residual at x, known once x has been integrated
    for iteration in range(MAX_CYCLE_ITERS + 1):
        pts = [x[j * n:(j + 1) * n] for j in range(k)]
        if rn > tol:
            flows = [integrate_flow(f, p, delta * m, cfg)
                     for f, p, m in zip(fields, pts, mvals)]
            ends = [fl.endpoint for fl in flows]
            res = _residual_from_endpoints(ends, pts, delta, n, k)
            rn = float(np.max(np.abs(res)))
            if not np.isfinite(rn):
                raise NewtonDivergenceError(
                    "cycle residual became non-finite", residual_norm=rn,
                    iterations=iteration)
        if rn <= tol:
            closure = float(np.max(np.abs(ends[k - 1] - pts[0])))
            if closure > 10.0 * tol:
                raise ClosureError(
                    f"final-leg closure {closure:.3e} exceeds "
                    f"{10.0 * tol:.3e}; integration tolerance is too loose "
                    "relative to the Newton tolerance")
            mismatches = [float(np.max(np.abs(ends[j] - pts[(j + 1) % k])))
                          for j in range(k)]
            return KCycle(
                CyclePoints.from_flat(x, n, k), delta,
                tuple(delta * m for m in mvals),
                max(mismatches), iteration)
        if iteration == MAX_CYCLE_ITERS:
            break
        jac = _jacobian_from_sensitivities(
            [fl.sensitivity for fl in flows], delta, n, k)
        sv = linalg.singular_values(jac)
        if linalg.is_numerically_singular(sv):
            raise SingularJacobianError(
                f"cycle Jacobian numerically singular at delta={delta:.6g} "
                f"(sigma_min {sv[-1]:.3e})", sigma_min=float(sv[-1]))
        step = np.linalg.solve(jac, -res)
        lam = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = x + lam * step
            try:
                t_pts = [trial[j * n:(j + 1) * n] for j in range(k)]
                t_ends = _leg_endpoints(fields, mvals, t_pts, delta, cfg)
                t_res = _residual_from_endpoints(t_ends, t_pts, delta, n, k)
                t_rn = float(np.max(np.abs(t_res)))
            except (FlowDomainError, StepLimitError):
                t_rn = np.inf
            if np.isfinite(t_rn) and t_rn <= (1.0 - 1e-4 * lam) * rn:
                x, ends, rn = trial, t_ends, t_rn
                break
            lam *= 0.5
        else:
            raise NewtonDivergenceError(
                f"line search found no decrease at delta={delta:.6g} "
                f"(residual {rn:.3e})", residual_norm=rn,
                iterations=iteration)
    raise NewtonDivergenceError(
        f"cycle Newton did not converge in {MAX_CYCLE_ITERS} iterations at "
        f"delta={delta:.6g} (residual {rn:.3e})", residual_norm=rn,
        iterations=MAX_CYCLE_ITERS)


@dataclass(eq=False, slots=True)
class CycleCheck:
    """Re-integration report: per-leg mismatches, cyclically (leg k closes)."""

    leg_mismatches: tuple
    closure: float
    max_mismatch: float


def verify_cycle(fields, weights: Weights, cycle: KCycle,
                 cfg: IntegratorConfig = DEFAULT_CONFIG,
                 tighten: float = 10.0) -> CycleCheck:
    """Re-integrate every leg at tighter tolerance and report mismatches."""
    n, k = _check_cycle_family(fields, weights, cycle.points)
    tight = cfg.tightened(tighten)
    ends = _leg_endpoints(fields, weights, cycle.points, cycle.delta, tight)
    mismatches = tuple(
        float(np.max(np.abs(ends[j] - cycle.points[(j + 1) % k])))
        for j in range(k))
    return CycleCheck(mismatches, mismatches[-1], max(mismatches))


def sweep_delta(fields, weights: Weights, x0, delta_max: float, steps: int,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> SweepResult:
    """Continuation of the cycle branch up a geometric delta ladder.

    The ladder runs from delta_max/1024 to delta_max in `steps` geometric
    steps; each solve is seeded with the previous cycle's points (the
    first with all points at x0). A failed ladder step is retried through
    up to MAX_BISECTIONS midpoint solves toward the last success before
    the branch is declared lost; the result then flags the largest delta
    reached and the failure reason instead of raising. Failure at the very
    first ladder point raises BranchLostError (non-regular setup or a
    tolerance mismatch).
    """
    if delta_max <= 0:
        raise ValueError("delta_max must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    k = len(fields)
    if steps == 1:
        ladder = [delta_max]
    else:
        lo = delta_max / SWEEP_LADDER_SPAN
        ratio = (delta_max / lo) ** (1.0 / (steps - 1))
        ladder = [lo * ratio ** i for i in range(steps)]
        ladder[-1] = delta_max
    seed = CyclePoints.constant(x0, k)
    seed = _predict_first(fields, weights, seed, ladder[0], cfg)
    base_delta = 0.0
    records = []
    branch_lost = False
    failure_reason = None
    for target in ladder:
        try:
            cycle, seed, base_delta = _reach(fields, weights, seed,
                                             base_delta, target, tol, cfg)
        except BranchLostError as exc:
            if not records:
                raise BranchLostError(
                    f"continuation failed at the smallest delta "
                    f"{target:.6g}: {exc}", last_delta=0.0) from exc
            branch_lost = True
            failure_reason = str(exc)
            break
        dist = max(float(np.linalg.norm(p - x0)) for p in cycle.points)
        records.append(SweepRecord(target, cycle, dist))
    largest = records[-1].delta if records else 0.0
    return SweepResult(tuple(records), largest, branch_lost, failure_reason)


def _predict_first(fields, weights, seed, delta, cfg):
    """One quasi-Newton step with the analytic zero-delta Jacobian.

    Cheap predictor for the first ladder point: the zero-delta block
    matrix needs no integration at all. A singular matrix leaves the seed
    unchanged (the corrector will raise the proper diagnosis).
    """
    n = seed[0].shape[0]
    k = len(seed)
    try:
        res = cycle_residual(fields, weights, seed, delta, cfg)
        jac0 = cycle_jacobian(fields, weights, seed, 0.0, cfg)
        step = np.linalg.solve(jac0, -res)
    except (np.linalg.LinAlgError, SolverError):
        return seed
    if not np.all(np.isfinite(step)):
        return seed
    predicted = CyclePoints.from_flat(seed.flat() + step, n, k)
    try:
        better = cycle_residual(fields, weights, predicted, delta, cfg)
    except SolverError:
        return seed
    if np.max(np.abs(better)) < np.max(np.abs(res)):
        return predicted
    return seed


def _reach(fields, weights, seed, base_delta, target, tol, cfg):
    """Solve at `target`, bisecting back toward base_delta on failure."""
    bisections = 0
    pending = [target]
    cycle = None
    while pending:
        attempt = pending[-1]
        try:
            cycle = solve_cycle(fields, weights, seed, attempt, tol, cfg)
        except SolverError as exc:
            bisections += 1
            mid = 0.5 * (base_delta + attempt)
            if bisections > MAX_BISECTIONS or mid <= base_delta * (1 + 1e-12) \
                    or mid >= attempt * (1 - 1e-12):
                raise BranchLostError(
                    f"lost the branch between delta={base_delta:.6g} and "
                    f"delta={attempt:.6g}: {exc}",
                    last_delta=base_delta) from exc
            pending.append(mid)
            continue
        pending.pop()
        seed = cycle.points
        base_delta = attempt
    return cycle, seed, base_delta


def loglog_slope(result: SweepResult, points: int = 8) -> Optional[float]:
    """Least-squares slope of log(max distance) vs log(delta).

    Fitted over the `points` smallest recorded deltas, the tail where the
    cycles shrink into the stasis point. None when fewer than two usable
    records exist or a distance is non-positive.
    """
    tail = list(result.records[:points])
    if len(tail) < 2:
        return None
    if any(rec.max_distance_to_x0 <= 0.0 for rec in tail):
        return None
    xs = np.log([rec.delta for rec in tail])
    ys = np.log([rec.max_distance_to_x0 for rec in tail])
    return float(np.polyfit(xs, ys, 1)[0])
