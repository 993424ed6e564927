"""Switching cycles near a regular stasis point.

For fields V_1..V_k with weighting m and total time delta, a K-cycle is a
point tuple x_1..x_k with F_j(x_j, delta*m_j) = x_{j+1} cyclically. Cycles
are zeros of the stacked system

    [ G(x_1..x_k, delta); F_1(x_1, delta*m_1) - x_2; ...;
      F_{k-1}(x_{k-1}, delta*m_{k-1}) - x_k ]

where G is the average velocity around the prospective loop,
G = sum_j (F_j(x_j, delta*m_j) - x_j) / delta, with a removable
singularity at delta = 0 and limit sum_j m_j V_j(x_j). `_cycle_system`
assembles the system for every caller on the (k, n) array of points, and
delta = 0 is data there, not a branch: the endpoints are the points, the
sensitivities the identity and the top Jacobian blocks m_j dV_j/dx(x_j),
so the block matrix's determinant magnitude equals
|det(sum_j m_j dV_j/dx)|. Newton continuation in delta rides this
structure: the closure of the final leg is implied by the G block (the
leg displacements telescope) but is re-verified independently before a
cycle is accepted, because floating point breaks exact telescoping.

`solve_cycle` runs `linalg.damped_newton`, the Newton driver of the
stasis solve too: evaluations with the Jacobian integrate the k legs with
sensitivities, line-search trials endpoint only, and the accepted trial's
endpoints come back, so the iteration that finds a point converged
integrates nothing. A step is `linalg.newton_step`: an SVD singularity
test, then dense LU; the chain blocks would admit a block-structured
elimination, not needed while the systems stay desk-scale (nk at most a
few hundred).

A sweep seeds each solve from the branch's own expansion (Euler-Newton
continuation). At delta = 0 the branch leaves x0 along the tangent
c = -H_x^-1 H_delta, which needs only the fields and their Jacobians at
x0, so the first ladder point is seeded at x0 + delta*c. Later points,
bisection retries included, are seeded by the polynomial in delta through
the last four branch points (the secant, then the quadratic, while fewer
are known); many of them then converge without a Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (BranchLostError, ClosureError, DimensionError,
                     SolverError)
from .flow import DEFAULT_CONFIG, IntegratorConfig, flow_endpoint, integrate_flow
from .stasis import Weights, _check_family
from .expr import eval_field, jacobian_field

DEFAULT_CYCLE_TOL = 1e-10
MAX_CYCLE_ITERS = 25
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


def _cycle_rows(fields, weights, pts: CyclePoints, delta: float = 0.0):
    """The (k, n) array of `pts`, checked against the family and delta."""
    n = _check_family(fields, weights)
    if len(pts) != len(fields):
        raise DimensionError(
            f"{len(pts)} cycle points for {len(fields)} fields")
    if pts[0].shape != (n,):
        raise DimensionError(
            f"cycle points have shape {pts[0].shape}, expected ({n},)")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return pts.points


def _cycle_system(fields, weights, pts, delta, cfg, jacobian=False):
    """The stacked cycle system at the (k, n) points `pts`.

    Returns (ends, res, jac): the leg endpoints F_j(x_j, delta*m_j) as a
    (k, n) array; the residual as a (k, n) array whose row 0 is the
    average velocity and row j the mismatch F_j(x_j, delta*m_j) - x_{j+1};
    and the (nk, nk) Jacobian, None unless asked for.
    """
    k, n = pts.shape
    eye = np.eye(n)
    legs = list(zip(fields, pts, weights))
    if delta == 0.0:
        ends, sens = pts, np.broadcast_to(eye, (k, n, n))
    elif jacobian:
        flows = [integrate_flow(f, x, delta * m, cfg) for f, x, m in legs]
        ends = np.array([fl.endpoint for fl in flows])
        sens = np.array([fl.sensitivity for fl in flows])
    else:
        ends = np.array([flow_endpoint(f, x, delta * m, cfg)
                         for f, x, m in legs])
    velocity = np.zeros(n)
    for (f, x, m), end in zip(legs, ends):  # fixed summation order
        velocity += m * eval_field(f, x) if delta == 0.0 else end - x
    # the delta = 0 limit is already a velocity: dividing by 1 is exact
    res = np.vstack([velocity / (delta or 1.0), ends[:-1] - pts[1:]])
    jac = None
    if jacobian:
        top = (np.array([m * jacobian_field(f, x) for f, x, m in legs])
               if delta == 0.0 else (sens - eye) / delta)
        jac = np.zeros((k, n, k, n))
        jac[0] = np.swapaxes(top, 0, 1)
        for j in range(1, k):
            jac[j, :, j - 1], jac[j, :, j] = sens[j - 1], -eye
        jac = jac.reshape(k * n, k * n)
    return ends, res, jac


def _leg_mismatches(ends, pts) -> tuple:
    """max|F_j(x_j, delta*m_j) - x_{j+1}| per leg, cyclically: the last
    entry is the final leg's closure."""
    gaps = np.abs(ends - np.vstack([pts[1:], pts[:1]]))
    return tuple(float(v) for v in np.max(gaps, axis=1))


def average_velocity(fields, weights: Weights, pts: CyclePoints,
                     delta: float, cfg: IntegratorConfig = DEFAULT_CONFIG
                     ) -> np.ndarray:
    """Total leg displacement around the loop divided by the total time.

    delta = 0 takes the removable-singularity limit sum_j m_j V_j(x_j),
    which coincides with the stasis residual when the points coincide.
    """
    x = _cycle_rows(fields, weights, pts, delta)
    return _cycle_system(fields, weights, x, delta, cfg)[1][0]


def cycle_residual(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Stacked system whose zeros (for delta > 0) are exactly the K-cycles.

    First n entries: average velocity; block j+1: leg mismatch
    F_j(x_j, delta*m_j) - x_{j+1} for j = 1..k-1. The final leg's closure
    is implied: delta times the first block telescopes to
    F_k(x_k, delta*m_k) - x_1 once the chain blocks vanish.
    """
    x = _cycle_rows(fields, weights, pts, delta)
    return _cycle_system(fields, weights, x, delta, cfg)[1].reshape(-1)


def cycle_jacobian(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Jacobian of cycle_residual with respect to the stacked points.

    delta = 0 assembles the analytic block matrix (top row
    m_j dV_j/dx(x_j), chain blocks I and -I); delta > 0 uses the flow
    sensitivities, error-controlled relative to their largest entry (see
    `flow`): top row (dF_j/dx - I)/delta, chain blocks dF_j/dx, -I.
    """
    x = _cycle_rows(fields, weights, pts, delta)
    return _cycle_system(fields, weights, x, delta, cfg, jacobian=True)[2]


def solve_cycle(fields, weights: Weights, seed: CyclePoints, delta: float,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> KCycle:
    """Damped Newton (`linalg.damped_newton`, max norm, MAX_CYCLE_ITERS
    steps) on the stacked cycle system for a fixed delta > 0.

    The final leg's closure F_k(x_k, delta*m_k) = x_1 is then re-verified
    explicitly (10*tol budget) before the cycle is accepted.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def evaluate(x, jacobian):
        ends, res, jac = _cycle_system(fields, weights, x, delta, cfg,
                                       jacobian=jacobian)
        return float(np.max(np.abs(res))), res, jac, ends

    x, _, ends, iters = linalg.damped_newton(
        evaluate, _cycle_rows(fields, weights, seed), tol, MAX_CYCLE_ITERS,
        f"cycle at delta={delta:.6g}")
    mismatches = _leg_mismatches(ends, x)
    if mismatches[-1] > 10.0 * tol:
        raise ClosureError(
            f"final-leg closure {mismatches[-1]:.3e} exceeds "
            f"{10.0 * tol:.3e}; integration tolerance is too loose "
            "relative to the Newton tolerance")
    return KCycle(CyclePoints(x), delta, tuple(delta * m for m in weights),
                  max(mismatches), iters)


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
    x = _cycle_rows(fields, weights, cycle.points)
    ends = _cycle_system(fields, weights, x, cycle.delta,
                         cfg.tightened(tighten))[0]
    mismatches = _leg_mismatches(ends, x)
    return CycleCheck(mismatches, mismatches[-1], max(mismatches))


def sweep_delta(fields, weights: Weights, x0, delta_max: float, steps: int,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> SweepResult:
    """Continuation of the cycle branch up a geometric delta ladder.

    The ladder runs from delta_max/1024 to delta_max in `steps` geometric
    steps. Each solve is seeded by `_predict` from the branch itself: the
    first at x0 + delta*c with the analytic tangent c of `_tangent`, later
    ones by extrapolation through the cycles already solved. A failed
    ladder step is retried through up to MAX_BISECTIONS midpoint solves
    toward the last success before the branch is declared lost; the
    result then flags the largest delta reached and the failure reason
    instead of raising. Failure at the very first ladder point raises
    BranchLostError (non-regular setup or a tolerance mismatch).
    """
    if not delta_max >= np.finfo(float).tiny:
        raise ValueError("delta_max must be a positive normal float")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if steps == 1:
        ladder = [delta_max]
    else:
        lo = delta_max / SWEEP_LADDER_SPAN
        ratio = (delta_max / lo) ** (1.0 / (steps - 1))
        ladder = [lo * ratio ** i for i in range(steps)]
        ladder[-1] = delta_max
    start = _cycle_rows(fields, weights, CyclePoints.constant(x0, len(fields)))
    branch = [(0.0, start)]
    tangent = _tangent(fields, weights, start, cfg)
    records = []
    branch_lost = False
    failure_reason = None
    for target in ladder:
        try:
            cycle = _reach(fields, weights, branch, tangent, target, tol, cfg)
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


def _tangent(fields, weights, start, cfg):
    """The branch's first-order coefficient c at delta = 0, as (k, n).

    Cycles near the stasis point x0 are x_j = x0 + delta*c_j + O(delta^2)
    with c = -H_x^-1 H_delta: H_x is the delta = 0 Jacobian of the cycle
    system, and H_delta, its delta-derivative at the points x0, has
    sum_j m_j^2 J_j V_j / 2 as its top block and m_j V_j as chain block
    j (the Taylor terms of F_j(x0, delta*m_j)). Fields and Jacobians at x0
    are all it needs. A singular H_x gives c = 0, so the corrector
    reports the failure.
    """
    k, n = start.shape
    x0 = start[0]
    vel = [m * eval_field(f, x0) for f, m in zip(fields, weights)]
    top = np.zeros(n)
    for f, m, v in zip(fields, weights, vel):  # fixed summation order
        top += 0.5 * m * (jacobian_field(f, x0) @ v)
    h_delta = np.vstack([top] + vel[:-1])
    jac = _cycle_system(fields, weights, start, 0.0, cfg, jacobian=True)[2]
    try:
        step = linalg.newton_step(jac, h_delta.reshape(-1),
                                  "cycle Jacobian numerically singular at "
                                  "delta=0")
    except SolverError:
        return np.zeros((k, n))
    return step.reshape(k, n)


def _predict(branch, tangent, delta):
    """Seed at `delta` from the branch points (delta_i, x_i) solved so far.

    With only (0, x0) known it follows the tangent; otherwise it is the
    polynomial in delta through the last four points, or through all of
    them while fewer are known (secant, quadratic, then cubic
    extrapolation; Allgower and Georg, Introduction to Numerical
    Continuation Methods, ch. 2).
    """
    if len(branch) == 1:
        return CyclePoints(branch[0][1] + delta * tangent)
    last = branch[-4:]
    seed = 0.0
    for i, (d_i, x_i) in enumerate(last):
        weight = 1.0
        for j, (d_j, _) in enumerate(last):
            if j != i:
                weight *= (delta - d_j) / (d_i - d_j)
        seed = seed + weight * x_i
    return CyclePoints(seed)


def _reach(fields, weights, branch, tangent, target, tol, cfg):
    """Solve at `target`, bisecting back toward the last branch point on
    failure; every cycle solved on the way is appended to `branch`."""
    bisections = 0
    pending = [target]
    cycle = None
    while pending:
        attempt = pending[-1]
        base_delta = branch[-1][0]
        seed = _predict(branch, tangent, attempt)
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
        branch.append((attempt, cycle.points.points))
    return cycle


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
