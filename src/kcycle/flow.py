"""Flows of a vector field and their initial-condition sensitivities.

The state x and the sensitivity matrix P(t) = d x(t) / d x(0) are advanced
jointly as one augmented system of dimension n + n^2,

    dx/dt = V(x),    dP/dt = J(x(t)) P,    P(0) = I,

on one step sequence. Step-size control measures the state entry by
entry and P as a whole: each entry of P's local error is scaled by the
largest entry of P, not by its own. An entry of P near zero then does
not force the steps down to abs_tol, and P stays accurate relative to
its norm, which is what its Jacobians need, even where the state's own
error is 0 (at an equilibrium). A step with a non-finite entry anywhere
in the augmented state is rejected.
The stepper is the adaptive Dormand-Prince 5(4) embedded pair with PI
step-size control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).
It first tries the whole leg as one step: the legs of a cycle solve are
short against the fields' time scales, so that attempt is often
accepted, and when it is not, the error-controlled shrink (at least 0.2x
per rejection) finds a step that is. Dormand-Prince evaluates its last
stage at the new state, which therefore serves as the next step's first
stage (first same as last), and a rejected step keeps its first stage:
every step after the first costs six right-hand-side evaluations instead
of seven. It keeps the state in row 0 and the seven stages in rows 1-7
of one work array, allocated once per field and kind of leg and checked
out per leg, and scales the tableau by the signed step once per attempt,
so that each stage input y + sum_j (h a_ij) k_j is one matrix product
over rows 0..i and the error estimate sum_j (h e_j) k_j is one more.
These products, and a sensitivity stage's J P, go through np.dot rather
than `@` or np.matmul: a generalized ufunc's out= dispatch costs about 1
us more per call at these sizes, and a step makes seven such products,
thirteen with sensitivities. h multiplies each tableau weight rather
than the weighted sum, and y joins the sum, so the results differ from
the textbook's y + h (sum_j a_ij k_j) only in rounding. A stage that
leaves the field's domain is a trial, not a point of the trajectory, so
Dormand-Prince rejects that step; only a step size that collapses there
ends the leg.
integrate_flow (state and sensitivity) and flow_endpoint (state only)
share one body, `_leg`, and differ only in the right-hand side and the
initial state. `_leg` checks the point's shape once and writes the
initial state straight into the stepper's state row. The right-hand side
runs on the field's compiled writers and is built as a binder: binding a
stage input and a stage row makes their views once, and the bound call
then hands plain floats to the writers, which write the values straight
into the stage row and, with sensitivities, the Jacobian entries into an
(n, n) buffer, from which the J·P matrix product goes into the row.
The Jacobian's constant entries (those whose tree holds no variable,
all of them on an affine field) are written into that buffer once, when
the right-hand side is built, so a stage writes only the entries that
vary with x; an entry whose evaluation raises is among those, so its
error surfaces at every stage. Dormand-Prince binds its stage calls
once per field and kind of leg in a workspace (`_Workspace`) that also
holds every buffer it writes; a leg checks the workspace out and puts it
back when it ends, so legs reuse it one at a time and a leg's results do
not depend on the legs before it. The writers raise the DomainError
that names the component themselves.
Backward time t < 0 steps with -h on the same right-hand side and
workspace: Dormand-Prince scales its tableau by the signed step. IEEE
negation is exact, so this is bitwise the negated field's flow over |t|;
errors report the leg's own time.
Overflow and NaN surface as non-finite steps, which the stepper rejects,
so numpy's floating-point warnings are silenced for the whole
integration.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, FlowDomainError, StepLimitError
# eval_field and jacobian_field are bound only for bench/tracing.py's hooks
from .expr import VectorField, as_point, eval_field, jacobian_field


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6

    def __post_init__(self):
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def tightened(self, factor: float) -> "IntegratorConfig":
        return IntegratorConfig(self.rel_tol / factor, self.abs_tol / factor,
                                self.max_steps)


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(eq=False)
class FlowResult:
    """One leg's endpoint and sensitivity; est_local_error is the largest
    accepted local-error estimate of the state (the endpoint's entries);
    the sensitivity's error is controlled relative to its largest entry."""

    endpoint: np.ndarray
    sensitivity: np.ndarray
    steps_taken: int
    est_local_error: float


# Dormand-Prince 5(4) tableau; row i of _DP_A holds the stage-i weights.
# Row 6 also holds the 5th-order solution's weights: the last stage is
# evaluated at the new state (first same as last).
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
# the weights of stages 0..6: row i - 1 for stage i's input, i = 1..6, and
# row 6 for the error estimate
_DP_TABLE = np.vstack([np.pad(_DP_A[1:], ((0, 0), (0, 1))), _DP_E])
# a step shorter than this multiple of the span has collapsed
_H_MIN_FACTOR = float(16.0 * np.finfo(float).eps)
# the largest entry, NaN if any is, without ndarray.max's Python wrapper
_largest = np.maximum.reduce


def _coefficients():
    """(coef, scale): a (7, 8) buffer whose column 0 holds 1, and scale(h),
    which writes h * _DP_TABLE into its other columns. Row i - 1 then
    weighs (y, k_0, ..., k_6) for stage i's input, i = 1..6, and row 6's
    columns 1-7 weigh k_0..k_6 for the error estimate."""
    coef = np.ones((7, 8))
    return coef, partial(np.multiply, _DP_TABLE, out=coef[:, 1:])


def _domain_failure(exc, t):
    """The FlowDomainError for a DomainError on the leg at time t."""
    t += 0.0  # a backward leg's -0.0 reads as 0
    return FlowDomainError(f"field evaluation failed at t={t:.6g}: {exc}",
                           time=t)


class _Workspace:
    """The buffers and bound stage calls of `_dopri` legs on one
    right-hand side: bind(y, out) returns a call that writes rhs(y) into
    out, for states of `size` entries whose first n are the point's.

    The state is row 0 and stage k_j row j + 1 of one (8, size) work
    array; `plan` holds, for stage i = 1..6, its coefficient row, the
    work rows 0..i that row weighs, and its call bound to the stage input
    y_new, and `start` is stage 0's call bound to row 0. tail and
    state_error are the views that each attempt's error control reads.
    """

    __slots__ = ("n", "state", "first", "last", "stages", "scale_coef",
                 "error_weights", "y_new", "abs_y", "abs_new", "abs_e",
                 "scale", "tail", "state_error", "plan", "start")

    def __init__(self, bind, size, n):
        work = np.empty((8, size))
        coef, self.scale_coef = _coefficients()
        self.n = n
        self.state, self.first, self.last = work[0], work[1], work[7]
        self.stages = work[1:]
        self.error_weights = coef[6, 1:]
        # y_new is the stage input, which after stage 6 holds the new state
        self.y_new, self.abs_y, self.abs_new, self.abs_e, self.scale = (
            np.empty(size) for _ in range(5))
        self.tail = self.scale[n:]
        self.state_error = self.abs_e[:n]
        self.plan = [(coef[i - 1, :i + 1], work[:i + 1],
                      bind(self.y_new, work[i + 1])) for i in range(1, 7)]
        self.start = bind(self.state, self.first)


def _dopri(ws, time, cfg):
    """Integrate dy/dt = rhs(y) from 0 to time != 0 in the `_Workspace` ws,
    whose state row holds y0. A backward leg (time < 0) steps with -h.

    The first attempt covers the whole span |time|; a rejected attempt
    shrinks h as any other does, so a span too long for one step costs a
    few rejected attempts, and a subnormal span's first h is not 0.

    Error control is on the max norm of the embedded estimate divided
    entry by entry by abs_tol + rel_tol * max(|y_i|, |y_new_i|), where the
    entries past the state's (the sensitivity's) all take the largest of
    theirs, so on success every accepted step satisfies
    |err_i| <= abs_tol + rel_tol*|y_i| for the state's entries i < n and
    |err_i| <= abs_tol + rel_tol*max_{j>=n}|y_j| for the rest; est is the
    largest state |err_i| accepted. A non-finite entry anywhere rejects
    the step, and so does a DomainError in stages 1-6: a trial stage is
    not a point of the trajectory. Stage 0 is rhs(y0), evaluated once
    before the first step, so a DomainError there raises FlowDomainError
    at once; when domain rejections shrink the step below its floor,
    FlowDomainError names the last one at the last accepted time. Errors
    name the leg's own signed time. An accepted step hands over its last
    stage and |y_new| to the next, a rejected one keeps them, so every
    attempt costs six evaluations of rhs.

    Each attempt scales the tableau by the signed step once
    (`_coefficients`); stage i's input is then the product of coefficient
    row i - 1 with work rows 0..i, written into y_new, which the six stage
    calls read. After stage 6 y_new holds the new state, which an accepted
    step copies into row 0. The leg writes every buffer before it reads
    it, so the workspace carries nothing from one leg to the next; the
    buffers are allocated once per field and kind of leg and checked out
    per leg (`_leg`), and the returned state is a copy.
    """
    n, state, first, last, stages, y_new = (
        ws.n, ws.state, ws.first, ws.last, ws.stages, ws.y_new)
    abs_y, abs_new, abs_e, scale, tail, state_error = (
        ws.abs_y, ws.abs_new, ws.abs_e, ws.scale, ws.tail, ws.state_error)
    scale_coef, error_weights, plan = ws.scale_coef, ws.error_weights, ws.plan
    rel_tol, abs_tol, max_steps = cfg.rel_tol, cfg.abs_tol, cfg.max_steps
    span = abs(time)
    sign = -1.0 if time < 0.0 else 1.0
    t = 0.0
    h = span
    steps = 0
    est = 0.0
    err_prev = 1e-4
    h_min = _H_MIN_FACTOR * span
    np.abs(state, out=abs_y)
    outside = None  # the DomainError of the last domain rejection
    try:
        ws.start()
    except DomainError as exc:
        raise _domain_failure(exc, 0.0) from exc
    while t < span:
        if steps >= max_steps or h < h_min:
            now = sign * t + 0.0  # a backward leg's -0.0 reads as 0
            if steps >= max_steps:
                raise StepLimitError(
                    f"integration exceeded {max_steps} steps at t={now:.6g}")
            if outside is not None:
                raise _domain_failure(outside, now) from outside
            raise StepLimitError(f"step size collapsed at t={now:.6g}")
        h = min(h, span - t)
        steps += 1
        scale_coef(sign * h)
        try:
            for weights, rows, stage in plan:
                # np.dot, not matmul's gufunc out= dispatch (~1 us a call)
                np.dot(weights, rows, y_new)
                stage()
        except DomainError as exc:
            outside = exc
            h *= 0.2
            continue
        np.abs(y_new, out=abs_new)
        if not _largest(abs_new) < np.inf:  # an inf or NaN entry
            h *= 0.2
            continue
        # np.dot, not matmul's gufunc out= dispatch (~1 us a call)
        np.dot(error_weights, stages, abs_e)
        np.abs(abs_e, out=abs_e)
        np.maximum(abs_y, abs_new, out=scale)
        if tail.size:  # the sensitivity's entries take its norm
            tail[...] = _largest(tail)
        scale *= rel_tol
        scale += abs_tol
        err = float(_largest(np.divide(abs_e, scale, out=scale)))
        if err <= 1.0:
            t += h
            state[:] = y_new
            abs_y, abs_new = abs_new, abs_y
            first[:] = last
            outside = None
            est = max(est, float(_largest(state_error)))
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return state.copy(), steps, est


def _rhs(field, sensitivity):
    """The right-hand side of one leg of `field` as a binder: bind(y, out)
    returns a call that writes V(y) into out, or (V(x), J(x) P) for the
    augmented state y = (x, P) when `sensitivity`, backward legs (which
    step with -h) included.

    bind makes the views of out once, and those of y once for a run of
    binds of the same y (a workspace's six stage calls all read its stage
    input); each call then runs the field's compiled writers on plain
    floats, which write straight into the stage row and raise the
    DomainError that names the component themselves. The Jacobian goes
    to an (n, n) buffer allocated here, whose constant entries are
    written once, here, so that a call writes only the entries that vary
    with x (an entry whose evaluation raises is among them), and none on
    an affine field; J P is multiplied straight into out.
    """
    n = field.dimension
    values = field.value_writer()
    if not sensitivity:
        def bind(y, out):
            def call():
                values(y.tolist(), out)
            return call
        return bind
    constant, entries = field.jacobian_parts()
    jac_flat = constant.copy()
    jac = jac_flat.reshape(n, n)
    bound = (None,)  # (y, x, P): the last bound input and its views

    def bind(y, out):
        nonlocal bound
        if bound[0] is not y:
            bound = (y, y[:n], y[n:].reshape(n, n))
        _, x, p = bound
        v, jp = out[:n], out[n:].reshape(n, n)
        # np.dot, not matmul's gufunc out= dispatch (~1 us a call)
        if entries is None:
            def call():
                values(x.tolist(), v)
                np.dot(jac, p, jp)
        else:
            def call():
                xs = x.tolist()
                values(xs, v)
                entries(xs, jac_flat)
                np.dot(jac, p, jp)
        return call
    return bind


def _initial_state(y, x, n):
    """Write the leg's initial state into y and return it: the point x,
    then, for a sensitivity leg, the identity flattened row by row."""
    y[:n] = x
    y[n:] = 0.0
    y[n::n + 1] = 1.0
    return y


# field -> {sensitivity: the idle _Workspace of those legs}
_WORKSPACES = weakref.WeakKeyDictionary()


def _leg(field, x, t, cfg, sensitivity):
    """Integrate one leg of `field` from the point x over time t;
    (y, steps, est) with y = x(t), or (x(t), P(t)) flattened when
    `sensitivity`; est is the state's estimate. y is a new array.

    x must have shape (n,) (DimensionError otherwise, at every t). t = 0
    returns the initial state exactly; a negative t steps with -h, and its
    errors report the leg's own (negative) time.

    A leg checks out the field's workspace for its kind of leg, in either
    direction, building it on first use, and puts it back when it ends,
    however it ends. A leg that finds none checked in, because another
    thread or an enclosing leg holds it, builds its own, so no two legs
    ever share buffers. The workspaces live as long as the field does.
    """
    n = field.dimension
    x = as_point(field, x)
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    size = n + n * n if sensitivity else n
    if t == 0.0:
        return _initial_state(np.empty(size), x, n), 0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        pool = _WORKSPACES.setdefault(field, {})
        ws = pool.pop(sensitivity, None)
        if ws is None:
            ws = _Workspace(_rhs(field, sensitivity), size, n)
        try:
            _initial_state(ws.state, x, n)
            return _dopri(ws, t, cfg)
        finally:
            pool[sensitivity] = ws


def integrate_flow(field: VectorField, x, t: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> FlowResult:
    """Flow endpoint F(x, t) together with its sensitivity dF/dx.

    The sensitivity's local error is controlled relative to its largest
    entry; est_local_error is the state's estimate. t = 0 returns x and
    the identity exactly. Negative t integrates backward with steps of
    -h. The endpoint and the sensitivity are disjoint views of one new
    array.
    """
    n = field.dimension
    y, steps, est = _leg(field, x, t, cfg, True)
    return FlowResult(y[:n], y[n:].reshape(n, n), steps, est)


def flow_endpoint(field: VectorField, x, t: float,
                  cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """State-only fast path: just F(x, t), no sensitivity co-integration."""
    return _leg(field, x, t, cfg, False)[0]
