"""Switching cycles near a regular stasis point.

For fields V_1..V_k with weighting m and total time delta, a K-cycle is a
point tuple x_1..x_k with F_j(x_j, delta*m_j) = x_{j+1} cyclically. Cycles
are zeros of the stacked system

    [ G(x_1..x_k, delta); F_1(x_1, delta*m_1) - x_2; ...;
      F_{k-1}(x_{k-1}, delta*m_{k-1}) - x_k ]

where G = sum_j (F_j(x_j, delta*m_j) - x_j) / delta is the average
velocity around the loop, with limit sum_j m_j V_j(x_j) at delta = 0.
`_cycle_system` forms the system for every caller. For delta > 0 it
integrates the k legs as one family, one call of `integrate_flow` or
`flow_endpoint` on all the fields at once (multiple shooting on one step
sequence, see `flow`), and fills the residual and the Jacobian's blocks
from the family's (k, n) endpoints and (k, n, n) sensitivities with
whole-array operations: the top blocks through a view of the Jacobian's
first block row, and the chain blocks, which no view reaches, through an
index set made once per (k, n) (`_layout`). At delta = 0 the
sensitivities are I and the top blocks m_j dV_j/dx(x_j), so |det| is
|det(sum_j m_j dV_j/dx)|.
The sums over the legs, the residual's first row and the top row of the
Newton terms' H_delta, start from 0 and add the legs in order, whatever
k and n: both are the last row of `np.add.accumulate` over a stack led
by a zero row. A reduction along the leg axis
(`np.add.reduce`, `.sum(axis=0)`) would not do: numpy adds pairwise
once a reduction is long enough, and then rounds differently, as it
does for n = 1 and k >= 8.
The final leg's closure is implied by G (the displacements telescope) but
is re-verified before a cycle is accepted, because floating point breaks
exact telescoping.

`solve_cycle` runs `linalg.damped_newton`: evaluations with the Jacobian
integrate the family of k legs with sensitivities, line-search trials
endpoint only, and the iteration that finds a point converged integrates
nothing.
A residual within tol does not end the solve, as a point is only
accurate to about tol times the Jacobian's condition: one more LU solve
with the last Jacobian (`linalg.lu_solve`, one call on both right-hand
sides) gives the simplified Newton correction and the branch tangent
dx/ddelta, and a point whose correction exceeds tol is moved by it when
the moved point's residual is within tol as well (error-oriented
termination; Deuflhard, Newton Methods for Nonlinear Problems, ch. 2).
Where H_delta is not finite the correction is solved for alone, a
one-column solve, so that it is the same bits as where there is no
tangent to solve for.

A sweep seeds each solve from the branch's own expansion (Euler-Newton
continuation). The first ladder point is seeded at x0 + delta*c, where
c = -H_x^-1 H_delta needs only the fields and their Jacobians at x0. Each
solved point joins the branch corrected and with its tangent; later
points, bisection retries included, are seeded by the Hermite polynomial
in delta through the last three branch nodes, formed from float weights
on their values and slopes. Most of them converge without a Newton step.
The distances of the records to x0 are one array norm over the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from . import linalg
from .errors import (ArgumentError, BranchLostError, ClosureError,
                     DimensionError, DomainError, SolverError, family,
                     finite_number, leg_times, normal_number,
                     point_array, positive_number, whole_number)
from .flow import DEFAULT_CONFIG, IntegratorConfig, flow_endpoint, integrate_flow
from .stasis import Weights, row_norms
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
        self.points = point_array(self.points, None, "cycle points").copy()
        if self.points.ndim != 2 or len(self.points) < 2:
            raise DimensionError("a cycle needs two or more rows of points")

    @classmethod
    def constant(cls, x0, k: int) -> "CyclePoints":
        return cls([x0] * k)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, j):
        return self.points[j]


@dataclass(eq=False, slots=True)
class KCycle:
    """A solved cycle. `tangent` (the branch's dx/ddelta) and `correction`
    (the simplified Newton correction -J^-1 r) are (k, n) arrays from
    `solve_cycle`, or None where they could not be formed, and the
    correction also where the corrected point failed its residual test.
    The points are the accepted ones, never corrected."""

    points: CyclePoints
    delta: float
    leg_times: tuple
    closure_residual: float
    newton_iters: int
    tangent: Optional[np.ndarray] = None
    correction: Optional[np.ndarray] = None


@dataclass(eq=False, slots=True)
class SweepRecord:
    delta: float
    cycle: KCycle
    max_distance_to_x0: float


@dataclass(eq=False, slots=True)
class SweepResult:
    """A swept branch as columns, one entry per ladder point reached:
    `deltas` (m,), `points` (m, k, n), `distances` (max distance to x0),
    `closures` (closure residuals) and `newton_iters` (m,), with the
    sweep's weights.

    `records` rebuilds the per-point records from the columns on each
    access and keeps none of them, so a kept result costs its arrays.
    """

    weights: tuple
    deltas: np.ndarray
    points: np.ndarray
    distances: np.ndarray
    closures: np.ndarray
    newton_iters: np.ndarray
    branch_lost: bool
    failure_reason: Optional[str]

    @property
    def largest_delta(self) -> float:
        return self.deltas[-1].item()

    @property
    def records(self) -> tuple:
        """One SweepRecord per ladder point, with Python floats and ints,
        leg_times delta*m_j as `solve_cycle` forms them, and no tangent or
        correction."""
        return tuple(
            SweepRecord(d, KCycle(CyclePoints(x), d,
                                  leg_times(d, self.weights), c, i), dist)
            for d, x, dist, c, i in zip(
                self.deltas.tolist(), self.points, self.distances.tolist(),
                self.closures.tolist(), self.newton_iters.tolist()))


def _cycle_system(fields, weights, pts, delta, times, cfg, jacobian=False):
    """The stacked cycle system at the (k, n) points `pts`, for the leg
    times `times`, delta*m_j as `errors.leg_times` forms them (unused at
    delta = 0).

    Returns (ends, res, jac): the leg endpoints F_j(x_j, delta*m_j) as a
    (k, n) array; the residual as a (k, n) array whose row 0 is the
    average velocity and row j the mismatch F_j(x_j, delta*m_j) - x_{j+1};
    and the (nk, nk) Jacobian of `cycle_jacobian`, None unless asked for.
    For delta > 0 the k legs are one family call of `integrate_flow` or
    `flow_endpoint`; at delta = 0 one call of `eval_field` and, for the
    Jacobian, one of `jacobian_field`.

    Every row and block is written from those calls' (k, n) and (k, n, n)
    arrays at once. Row 0 is 0 + sum_j (F_j - x_j) in leg order, the last
    row of `np.add.accumulate` over the stack of 0 and the k terms, which
    is sequential whatever the shape; never a reduction, which may sum
    pairwise (see the module docstring). The Jacobian's -I blocks are one
    strided write, its top blocks one write through a view and its chain
    blocks one through the index set of `_layout`.
    """
    k, n = pts.shape
    eye, chain_slots = _layout(k, n)
    # 0, then the velocity terms: accumulated in this fixed order
    terms = np.zeros((k + 1, n))
    if delta == 0.0:
        ends, below = pts, eye  # the chain blocks P_j = I
        m = np.array(tuple(weights), dtype=float)[:, None]
        np.multiply(m, eval_field(fields, pts), out=terms[1:])
        if jacobian:
            top = m[:, :, None] * jacobian_field(fields, pts)
    else:
        if jacobian:
            legs = integrate_flow(fields, pts, times, cfg)
            ends, below = legs.endpoint, legs.sensitivity
            top = below - eye
            top /= delta
            below = below[:-1]  # the chain blocks P_1..P_{k-1}
        else:
            ends = flow_endpoint(fields, pts, times, cfg)
        np.subtract(ends, pts, out=terms[1:])
    res = np.empty((k, n))
    res[0] = np.add.accumulate(terms)[-1]
    res[0] /= delta or 1.0  # the delta = 0 limit is already a velocity
    np.subtract(ends[:-1], pts[1:], out=res[1:])
    if not jacobian:
        return ends, res, None
    size = k * n
    jac = np.zeros((size, size))
    flat = jac.reshape(-1)
    flat[n * (size + 1)::size + 1] = -1.0
    jac.reshape(k, n, k, n)[0] = top.transpose(1, 0, 2)
    flat[chain_slots] = below
    return ends, res, jac


@lru_cache(maxsize=16)
def _layout(k, n):
    """(eye, chain) for the (nk, nk) cycle Jacobian of k legs in n
    dimensions, both read-only and of k*n*n entries at most: eye is the
    n x n identity, and chain[j, i, l] the flat position of entry
    ((j + 1)*n + i, j*n + l), shaped (k - 1, n, n) as the chain blocks
    P_1..P_{k-1} written through it are.
    """
    size = k * n
    j, i, l = np.indices((k - 1, n, n))
    layout = np.eye(n), ((j + 1) * n + i) * size + j * n + l
    for a in layout:  # shared by every caller
        a.flags.writeable = False
    return layout


def _leg_mismatches(ends, res, pts) -> tuple:
    """max|F_j(x_j, delta*m_j) - x_{j+1}| per leg, cyclically; the chain gaps
    are the residual's rows 1..k-1, the closure (last) comes from `ends`."""
    gaps = np.abs(res)
    gaps[0] = np.abs(ends[-1] - pts[0])
    worst = np.maximum.reduce(gaps, axis=1).tolist()
    return tuple(worst[1:] + worst[:1])


def average_velocity(fields, weights: Weights, pts: CyclePoints,
                     delta: float, cfg: IntegratorConfig = DEFAULT_CONFIG
                     ) -> np.ndarray:
    """Total leg displacement around the loop divided by the total time.

    delta = 0 takes the removable-singularity limit sum_j m_j V_j(x_j),
    which coincides with the stasis residual when the points coincide.
    """
    x = family(fields, weights, pts.points)[1]
    delta = finite_number(delta, "delta", 0.0)
    return _cycle_system(fields, weights, x, delta,
                         leg_times(delta, weights), cfg)[1][0]


def cycle_residual(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Stacked system whose zeros (for delta > 0) are exactly the K-cycles.

    First n entries: average velocity; block j+1: leg mismatch
    F_j(x_j, delta*m_j) - x_{j+1} for j = 1..k-1. The final leg's closure
    is implied: delta times the first block telescopes to
    F_k(x_k, delta*m_k) - x_1 once the chain blocks vanish.
    """
    x = family(fields, weights, pts.points)[1]
    delta = finite_number(delta, "delta", 0.0)
    return _cycle_system(fields, weights, x, delta,
                         leg_times(delta, weights), cfg)[1].reshape(-1)


def cycle_jacobian(fields, weights: Weights, pts: CyclePoints, delta: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Jacobian of cycle_residual with respect to the stacked points: top
    row blocks (P_j - I)/delta, chain blocks P_j below the diagonal and -I
    on it, from the flow sensitivities P_j = dF_j/dx, error-controlled
    relative to their largest entry (see `flow`). At delta = 0, P_j = I
    and the top row blocks are m_j dV_j/dx(x_j).
    """
    x = family(fields, weights, pts.points)[1]
    delta = finite_number(delta, "delta", 0.0)
    return _cycle_system(fields, weights, x, delta,
                         leg_times(delta, weights), cfg, jacobian=True)[2]


def solve_cycle(fields, weights: Weights, seed: CyclePoints, delta: float,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> KCycle:
    """Damped Newton (`linalg.damped_newton`, max norm, MAX_CYCLE_ITERS
    steps) on the stacked cycle system for a fixed delta > 0 from a
    finite seed, then an error-oriented acceptance test.

    The point x that Newton returns has its residual r within tol.
    `_newton_terms` gives the simplified correction c = -J^-1 r with the
    last Jacobian J evaluated, and the branch tangent dx/ddelta. x is kept
    when |c| <= tol; else x + c, evaluated endpoint only, replaces it as
    one more Newton iteration when its residual is within tol, and x is
    kept without a correction otherwise. The final leg's closure
    F_k(x_k, delta*m_k) = x_1 is then re-verified (10*tol budget).

    The leg times and the weights' column are formed once per solve, for
    every evaluation and both terms. A point that converges at its seed
    costs one sensitivity family call, one `eval_field` call and one LU
    solve. Its fields and points are checked here and again by
    `expr.as_family` in `integrate_flow` and `eval_field`, which are
    called by their public names here so that callers may wrap them.
    """
    delta = positive_number(delta, "delta")
    tol = positive_number(tol, "tol")
    n = family(fields, weights)[0]
    x = point_array(seed.points, (len(fields), n), "seed", finite=True)
    times = leg_times(delta, weights)
    m = np.array(tuple(weights), dtype=float)[:, None]
    held = [None]  # the last Jacobian evaluated

    def evaluate(x, jacobian):
        ends, res, jac = _cycle_system(fields, weights, x, delta, times, cfg,
                                       jacobian)
        if jacobian:
            held[0] = jac
        rn = float(np.maximum.reduce(np.abs(res), axis=None))
        return rn, res, jac, (ends, res)

    x, _, (ends, res), iters = linalg.damped_newton(
        evaluate, x, tol, MAX_CYCLE_ITERS, f"cycle at delta={delta:.6g}")
    correction, tangent, size = _newton_terms(fields, m, held[0], ends, res,
                                              delta)
    if correction is not None and size > tol:
        moved = x + correction
        try:
            rn, _, _, (ends_c, res_c) = evaluate(moved, False)
        except SolverError:
            rn = np.inf
        if rn <= tol:
            x, ends, res, iters = moved, ends_c, res_c, iters + 1
            correction, tangent, _ = _newton_terms(fields, m, held[0], ends,
                                                   res, delta)
        else:
            correction = None
    mismatches = _leg_mismatches(ends, res, x)
    if mismatches[-1] > 10.0 * tol:
        raise ClosureError(
            f"final-leg closure {mismatches[-1]:.3e} exceeds "
            f"{10.0 * tol:.3e}; integration tolerance is too loose "
            "relative to the Newton tolerance")
    return KCycle(CyclePoints(x), delta, times, max(mismatches), iters,
                  tangent, correction)


def _newton_terms(fields, m, jac, ends, res, delta):
    """(correction, tangent, size) at a point whose cycle system evaluated
    to the leg endpoints `ends` and residual `res`, size being
    max|correction|: one LU solve (`linalg.lu_solve`) with the Jacobian
    `jac` on [-r, -H_delta], no integration; `m` is the (k, 1) column of
    the weights.

    H_delta = dR/ddelta has m_j V_j(F_j) as chain row j (the leg ends move
    with their times) and (sum_j m_j V_j(F_j) - r_0)/delta as its top row.
    The two right-hand sides are the rows of one (2, nk) array, solved as
    its transpose: the slopes m_j V_j(F_j) are one broadcast product on
    one `eval_field` call at the k endpoints, written below a zero row,
    and the top row's sum is the last row of `np.add.accumulate` over
    that stack, 0 + the slopes in leg order, never a reduction that may
    sum pairwise (see `_cycle_system`).
    The solution's finiteness and the correction's size are read from
    one reduction, each column's max|entry|, which is NaN or inf exactly
    where the column is not finite. Each term is None where it comes out
    non-finite, and both where jac is singular. Only a tangent that is
    not finite has H_delta tested: where H_delta is not finite (it
    overflows), the correction is solved for again, alone, by the
    one-column solve made where a field raises DomainError at an
    endpoint, and the tangent is None.
    """
    k, n = ends.shape
    rhs = np.empty((2, k * n))
    np.negative(res.reshape(-1), out=rhs[0])
    try:
        values = eval_field(fields, ends)
    except DomainError:
        columns = 1
    else:
        terms = np.zeros((k + 1, n))  # 0, then the slopes
        np.multiply(m, values, out=terms[1:])
        top = rhs[1, :n]  # -(sum - r_0)/delta, as (sum - r_0)/-delta
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(np.add.accumulate(terms)[-1], res[0], out=top)
            np.divide(top, -delta, out=top)
        np.negative(terms[1:-1].reshape(-1), out=rhs[1, n:])
        columns = 2
    sol = linalg.lu_solve(jac, rhs[:columns].T)
    peaks = np.maximum.reduce(np.abs(sol), axis=0).tolist()
    if columns == 2 and not math.isfinite(peaks[1]) and \
            not np.isfinite(rhs[1]).all():
        columns = 1
        sol = linalg.lu_solve(jac, rhs[:1].T)
        peaks = np.maximum.reduce(np.abs(sol), axis=0).tolist()
    size = peaks[0]
    correction = sol[:, 0].reshape(k, n) if math.isfinite(size) else None
    tangent = sol[:, 1].reshape(k, n) if columns == 2 and \
        math.isfinite(peaks[1]) else None
    return correction, tangent, size


@dataclass(eq=False, slots=True)
class CycleCheck:
    """Re-integration report: per-leg mismatches, cyclically (leg k closes)."""

    leg_mismatches: tuple
    closure: float
    max_mismatch: float


def verify_cycle(fields, weights: Weights, cycle: KCycle,
                 cfg: IntegratorConfig = DEFAULT_CONFIG,
                 tighten: float = 10.0) -> CycleCheck:
    """Re-integrate the legs, as one family, at tighter tolerance and
    report their mismatches; delta > 0 and leg_times delta*m_j required."""
    x = family(fields, weights, cycle.points.points)[1]
    delta = positive_number(cycle.delta, "delta")
    times = leg_times(delta, weights)
    if tuple(cycle.leg_times) != times:
        raise ArgumentError(f"leg_times {list(cycle.leg_times)!r} != delta*m_j"
                            f" = {list(times)!r}")
    ends, res, _ = _cycle_system(fields, weights, x, delta, times,
                                 cfg.tightened(tighten))
    mismatches = _leg_mismatches(ends, res, x)
    return CycleCheck(mismatches, mismatches[-1], max(mismatches))


def sweep_delta(fields, weights: Weights, x0, delta_max: float, steps: int,
                tol: float = DEFAULT_CYCLE_TOL,
                cfg: IntegratorConfig = DEFAULT_CONFIG) -> SweepResult:
    """Continuation of the cycle branch up a geometric delta ladder.

    The ladder runs from delta_max/1024 to delta_max in `steps` geometric
    steps. Each solve is seeded by `_predict` from the branch itself: the
    first at x0 + delta*c with the analytic tangent c of `_tangent`, later
    ones by Hermite extrapolation through the nodes (delta, x + correction,
    tangent) of the cycles already solved; the records hold the accepted
    points x, never the corrected ones. A failed ladder step is retried
    through up to MAX_BISECTIONS midpoint solves toward the last success
    before the branch is declared lost; the result then flags the largest
    delta reached and the failure reason instead of raising. Failure at
    the very first ladder point raises BranchLostError (non-regular setup
    or a tolerance mismatch).
    """
    delta_max = normal_number(delta_max, "delta_max")
    steps = whole_number(steps, "steps", 1)
    tol = positive_number(tol, "tol")
    x0 = point_array(x0, (family(fields, weights)[0],), "x0", finite=True)
    start = CyclePoints.constant(x0, len(fields)).points
    # each ladder value is formed when the sweep reaches it
    lo = delta_max / SWEEP_LADDER_SPAN
    ratio = (delta_max / lo) ** (1.0 / max(steps - 1, 1))
    ladder = chain((lo * ratio ** i for i in range(steps - 1)), [delta_max])
    branch = [(0.0, start, _tangent(fields, weights, start, cfg))]
    reached = []  # (delta, points, closure, newton_iters)
    branch_lost = False
    failure_reason = None
    for target in ladder:
        try:
            cycle = _reach(fields, weights, branch, target, tol, cfg)
        except BranchLostError as exc:
            if not reached:
                raise BranchLostError(
                    f"continuation failed at the smallest delta "
                    f"{target:.6g}: {exc}") from exc
            branch_lost = True
            failure_reason = str(exc)
            break
        reached.append((target, cycle.points.points,
                        cycle.closure_residual, cycle.newton_iters))
    deltas, points, closures, iters = zip(*reached)
    points = np.array(points)
    distances = np.maximum.reduce(row_norms(points - x0), axis=1)
    return SweepResult(tuple(weights), np.array(deltas), points, distances,
                       np.array(closures), np.array(iters), branch_lost,
                       failure_reason)


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
    vel = [m * v for m, v in zip(weights, eval_field(fields, start))]
    top = np.zeros(n)
    for m, jac, v in zip(weights, jacobian_field(fields, start), vel):
        top += 0.5 * m * (jac @ v)  # fixed summation order
    h_delta = np.vstack([top] + vel[:-1])
    jac = _cycle_system(fields, weights, start, 0.0, None, cfg,
                        jacobian=True)[2]
    try:
        step = linalg.newton_step(jac, h_delta.reshape(-1),
                                  "cycle Jacobian numerically singular at "
                                  "delta=0")
    except SolverError:
        return np.zeros((k, n))
    return step.reshape(k, n)


def _predict(branch, delta):
    """Seed at `delta` from the branch nodes (delta_i, x_i, t_i) so far.

    The seed is the confluent Hermite polynomial in delta through the
    last three nodes: each node fixes the value x_i and, unless its
    tangent t_i is None, the slope t_i too. With only (0, x0, c) known it
    is x0 + delta*c (Euler-Newton continuation; Allgower and Georg,
    Introduction to Numerical Continuation Methods, ch. 2). The seed is
    formed from float weights, at most six, on the stacked values x_i and
    scaled slopes delta*t_i by one `np.dot`: the Newton basis at u = 1
    carried back through the divided-difference recursion (its adjoint).
    They are taken in u = delta_i/delta, where the nodes lie in [0, 1], so
    that a ladder starting at subnormal deltas does not overflow them.
    """
    nodes, data, slope_rows = [], [], []
    for d, x, t in branch[-3:]:
        nodes.append(d / delta)
        data.append(x)
        if t is not None:  # a repeated node: its first difference is t
            slope_rows.append(len(nodes))
            nodes.append(nodes[-1])
            data.append(delta * t)
    size = len(nodes)
    w = [1.0]  # the Newton basis at u = 1: prod_{l<i} (1 - u_l)
    for i in range(1, size):
        w.append(w[-1] * (1.0 - nodes[i - 1]))
    slope_w = {}
    for j in range(size - 1, 0, -1):
        for i in range(j, size):
            if j == 1 and i in slope_rows:  # the slope replaced x_i here
                slope_w[i], w[i] = w[i], 0.0
            else:
                w[i] /= nodes[i] - nodes[i - j]
                w[i - 1] -= w[i]
    for i in slope_rows:  # a repeated value is its node's value
        w[i - 1], w[i] = w[i - 1] + w[i], slope_w[i]
    seed = np.dot(w, np.array(data).reshape(size, -1))
    return CyclePoints(seed.reshape(data[0].shape))


def _reach(fields, weights, branch, target, tol, cfg):
    """Solve at `target`, bisecting back toward the last branch node on
    failure; every cycle solved on the way is appended to `branch` as the
    node (delta, points + correction, tangent)."""
    bisections = 0
    pending = [target]
    cycle = None
    while pending:
        attempt = pending[-1]
        base_delta = branch[-1][0]
        seed = _predict(branch, attempt)
        try:
            cycle = solve_cycle(fields, weights, seed, attempt, tol, cfg)
        except SolverError as exc:
            bisections += 1
            mid = 0.5 * (base_delta + attempt)
            if bisections > MAX_BISECTIONS or mid <= base_delta * (1 + 1e-12) \
                    or mid >= attempt * (1 - 1e-12):
                raise BranchLostError(
                    f"lost the branch between delta={base_delta:.6g} and "
                    f"delta={attempt:.6g}: {exc}") from exc
            pending.append(mid)
            continue
        pending.pop()
        x = cycle.points.points
        if cycle.correction is not None:
            x = x + cycle.correction
        branch.append((attempt, x, cycle.tangent))
    return cycle


def loglog_slope(result: SweepResult, points: int = 8) -> Optional[float]:
    """Least-squares slope of log(max distance) vs log(delta).

    Fitted over the `points` smallest recorded deltas, the tail where the
    cycles shrink into the stasis point; `points` is an integer >= 2
    (`errors.whole_number`). None when fewer than two usable records exist
    or a distance is non-positive.
    """
    points = whole_number(points, "points", 2)
    deltas, distances = result.deltas[:points], result.distances[:points]
    if deltas.size < 2 or (distances <= 0.0).any():
        return None
    return float(np.polyfit(np.log(deltas), np.log(distances), 1)[0])
