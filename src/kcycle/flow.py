"""Flows of vector fields and their initial-condition sensitivities.

The state x and the sensitivity matrix P(t) = d x(t) / d x(0) are advanced
jointly as one augmented system of dimension n + n^2,

    dx/dt = V(x),    dP/dt = J(x(t)) P,    P(0) = I,

on one step sequence. A call integrates a *family* of k legs side by
side: leg j flows field V_j from its own point x_j over its own time t_j.
The family runs on s in [0, S] with S = max_j |t_j|, where leg j is
dy_j/ds = tau_j V_j(y_j) with the time scale tau_j = t_j / S, so every
leg ends at s = S and the longest leg has tau = +-1. Its state is the
k legs' states side by side, k*n entries, or k*(n + n^2) with
sensitivities (multiple shooting; Stoer & Bulirsch, Introduction to
Numerical Analysis, 7.3). A leg of time 0 is not stepped: it returns its
point, and the identity, exactly. One leg is the family of one, with
tau = +-1.

Step-size control is per leg: it measures each state entry by itself
and each leg's P as a whole, each entry of P_j's local error scaled by
the largest entry of P_j, not by its own. An entry of P near zero then
does not force the steps down to abs_tol, and P stays accurate relative
to its norm, which is what its Jacobians need, even where the state's
own error is 0 (at an equilibrium). A step is accepted when every leg's
error is; a step with a non-finite entry anywhere in the family's state
is rejected.
The stepper is the adaptive Dormand-Prince 5(4) embedded pair with PI
step-size control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).
It first tries the whole span as one step: the legs of a cycle solve are
short against the fields' time scales, so that attempt is often
accepted, and when it is not, the error-controlled shrink (at least 0.2x
per rejection) finds a step that is. Dormand-Prince evaluates its last
stage at the new state, which therefore serves as the next step's first
stage (first same as last), and a rejected step keeps its first stage:
every step after the first costs six right-hand-side evaluations per leg
instead of seven. It keeps the state in row 0 and the seven stages in
rows 1-7 of one work array, and scales the tableau by the step once per
attempt, so that each stage input y + sum_j (h a_ij) k_j is one matrix
product over rows 0..i for the whole family and the error estimate
sum_j (h e_j) k_j is one more. These products go through np.dot rather
than `@` or np.matmul: a generalized ufunc's out= dispatch costs about
1 us more per call at these sizes, and a step makes seven of them. A
sensitivity stage's k products J_j P_j are one np.matmul over the
(k, n, n) stacks instead, which costs less than k np.dot calls and
writes the same bits (np.multiply for n = 1, where np.dot keeps a zero
product's sign and np.matmul does not). h multiplies each tableau weight
rather than the weighted sum, and y joins the sum, so the results differ
from the textbook's y + h (sum_j a_ij k_j) only in rounding. After its
stage call, a stage row is multiplied entry by entry by the legs' time
scales, unless every tau is 1. Since IEEE negation is exact, a leg with tau = -1 (a one-leg
family backward in time) is bitwise the negated field's flow over |t|;
errors report the failing leg's own time. A stage that leaves a field's
domain is a trial, not a point of the trajectory, so Dormand-Prince
rejects that step; only a step size that collapses there ends the
family.
integrate_flow (state and sensitivity) and flow_endpoint (state only)
share one body, `_legs`, and differ only in the right-hand side and the
initial state. They take one leg or a family of legs by the rule of
`expr.as_family`, as the evaluators do. The right-hand side of the
whole family runs on the family's compiled writer of its kind
(`expr.family_writer`), which the evaluators share, and is built as a
binder: binding the stage input and the stage row makes their views
once, and the bound call, one per stage, hands one list of the k legs'
points to the writer, which writes every leg's values straight into the
stage row and, with sensitivities, the Jacobian entries into a
(k, n, n) buffer, from which one stacked matrix product writes every
J_j P_j into the row. The Jacobians' constant entries (all of them on an
affine field), which the writer returns, are written into that buffer
once, when the right-hand side is built, so a stage writes only the
entries that vary with x; an entry whose evaluation raises is among
those, so its error surfaces at every stage. Dormand-Prince binds its
stage calls once per family of fields and kind of leg in a workspace
(`_Workspace`) that also holds every buffer it writes; a call checks the
workspace out and puts it back when it ends, so calls reuse it one at a
time and a call's results do not depend on the calls before it. The
workspaces are kept with the family's first field, as its writers are,
so they live as long as that field does. A workspace keeps its last
call's time scales and sets them again only when a call's differ: a
repeat Newton iteration's never do, and the next ladder point's often
do not, though fl(delta*m_j)/fl(delta*max m) may round differently from
one delta to the next. The writer raises the DomainError that names the
component and the leg itself.
Overflow and NaN surface as non-finite steps, which the stepper rejects,
so numpy's floating-point warnings are silenced for the whole
integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (DomainError, FlowDomainError, StepLimitError,
                     positive_number, whole_number)
# eval_field and jacobian_field are bound only for bench/tracing.py's hooks
from .expr import (VectorField, as_family, eval_field, family_writer,
                   jacobian_field)


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6

    def __post_init__(self):
        self.rel_tol = positive_number(self.rel_tol, "rel_tol")
        self.abs_tol = positive_number(self.abs_tol, "abs_tol")
        self.max_steps = whole_number(self.max_steps, "max_steps", 1)

    def tightened(self, factor: float) -> "IntegratorConfig":
        factor = positive_number(factor, "tighten factor")
        return IntegratorConfig(self.rel_tol / factor, self.abs_tol / factor,
                                self.max_steps)


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(eq=False)
class FlowResult:
    """The endpoint and sensitivity of one leg, shapes (n,) and (n, n), or
    of a family of k legs, (k, n) and (k, n, n). steps_taken counts the
    call's attempts, which a family's legs share; each sensitivity's error
    is controlled relative to its largest entry."""

    endpoint: np.ndarray
    sensitivity: np.ndarray
    steps_taken: int


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
    """The buffers and bound stage calls of `_dopri` on one family of k
    legs: bind(y, out) returns a call that writes the family's right-hand
    side at the stage input y into the stage row out, for leg states of m
    entries whose first n are the point's; leg j holds entries
    j*m..(j+1)*m - 1 of every row.

    The state is row 0 and stage k_j row j + 1 of one (8, k*m) work
    array; `plan` holds, for stage i = 1..6, its coefficient row, the
    work rows 0..i that row weighs, its call bound to the stage input
    y_new and to its stage row, and that row; `start` is stage 0's call
    bound to row 0, with row 1. tail is the (k, m - n) view of each leg's
    sensitivity entries that each attempt's error control reads, and
    `legs` the state as a (k, m) array.
    `time_scale` sets the legs' time scales for the next integration:
    tau_j in `taus`, and in `tau` repeated over leg j's entries; `scaled`
    is False when every tau is 1 and the stage rows are left as the
    calls wrote them. A list equal to the last call's is kept as it is.
    """

    __slots__ = ("state", "legs", "first", "stages", "scale_coef",
                 "error_weights", "y_new", "abs_y", "abs_new", "abs_e",
                 "scale", "tail", "plan", "start", "tau",
                 "taus", "lead", "scaled")

    def __init__(self, bind, k, m, n):
        size = k * m
        work = np.empty((8, size))
        coef, self.scale_coef = _coefficients()
        self.state, self.first = work[0], work[1]
        self.legs = self.state.reshape(k, m)
        self.stages = work[1:]
        self.error_weights = coef[6, 1:]
        # y_new is the stage input, which after stage 6 holds the new state
        self.y_new, self.abs_y, self.abs_new, self.abs_e, self.scale = (
            np.empty(size) for _ in range(5))
        self.tail = self.scale.reshape(k, m)[:, n:]
        self.tau = np.ones((k, m))
        self.plan = [(coef[i - 1, :i + 1], work[:i + 1],
                      bind(self.y_new, work[i + 1]), work[i + 1])
                     for i in range(1, 7)]
        self.start = bind(self.state, self.first), self.first
        self.taus = None
        self.time_scale([1.0] * k)

    def time_scale(self, taus):
        if taus == self.taus:
            return
        self.taus = taus
        # the longest leg's, whose time the stepper's own errors report
        self.lead = next(tau for tau in taus if abs(tau) == 1.0)
        self.scaled = any(tau != 1.0 for tau in taus)
        if self.scaled:
            self.tau[...] = np.array(taus)[:, None]


def _dopri(ws, span, cfg):
    """Integrate the family of the `_Workspace` ws, whose state row holds
    y0, over s in [0, span], span > 0: leg j is dy_j/ds = tau_j rhs_j(y_j).

    The first attempt covers the whole span; a rejected attempt shrinks h
    as any other does, so a span too long for one step costs a few
    rejected attempts, and a subnormal span's first h is not 0.

    Error control is on the max norm of the embedded estimate divided
    entry by entry by abs_tol + rel_tol * max(|y_i|, |y_new_i|), where each
    leg's entries past its state's (its sensitivity's) all take the
    largest of theirs, so on success every accepted step satisfies
    |err_i| <= abs_tol + rel_tol*|y_i| for each leg's state entries and
    |err_i| <= abs_tol + rel_tol*max|P_j| for the entries of each leg's
    P_j. A non-finite entry anywhere rejects the step, and so does a
    DomainError in stages 1-6: a trial stage is not a point of the
    trajectory. Stage 0 is rhs(y0), evaluated once before the first step,
    so a DomainError there raises FlowDomainError at once, at time 0; when
    domain rejections shrink the step below its floor, FlowDomainError
    names the last one at the time tau_j s of the leg j it names
    (`DomainError.leg`), s the last accepted time. The stepper's own
    StepLimitErrors name the longest leg's time. An accepted step hands
    over its last stage and |y_new| to the next, a rejected one keeps
    them, so every attempt costs six calls of the family's rhs, one per
    stage.

    Each attempt scales the tableau by the step once (`_coefficients`);
    stage i's input is then the product of coefficient row i - 1 with
    work rows 0..i, written into y_new, which the stage's call reads; each
    stage row, stage 0's included, is then multiplied by the time scales
    unless every tau is 1. After stage 6 y_new holds the new state, which
    an accepted step copies into row 0. The call writes every buffer
    before it reads it, so the workspace carries nothing from one call to
    the next; the buffers are allocated once per family of fields and
    kind of leg and checked out per call (`_legs`), and the returned state
    is a copy.
    """
    state, first, stages, y_new = ws.state, ws.first, ws.stages, ws.y_new
    abs_y, abs_new, abs_e, scale, tail = (
        ws.abs_y, ws.abs_new, ws.abs_e, ws.scale, ws.tail)
    scale_coef, error_weights, plan = ws.scale_coef, ws.error_weights, ws.plan
    taus, lead, scaled, tau = ws.taus, ws.lead, ws.scaled, ws.tau.reshape(-1)
    last = stages[6]
    rel_tol, abs_tol, max_steps = cfg.rel_tol, cfg.abs_tol, cfg.max_steps
    sensitivity = tail.size > 0
    t = 0.0
    h = span
    steps = 0
    err_prev = 1e-4
    h_min = _H_MIN_FACTOR * span
    np.abs(state, out=abs_y)
    outside = None  # the DomainError of the last domain rejection
    call, row = ws.start
    try:
        call()
    except DomainError as exc:
        raise _domain_failure(exc, 0.0) from exc
    if scaled:
        np.multiply(row, tau, row)
    while t < span:
        if steps >= max_steps or h < h_min:
            now = lead * t + 0.0  # a backward leg's -0.0 reads as 0
            if steps >= max_steps:
                raise StepLimitError(
                    f"integration exceeded {max_steps} steps at t={now:.6g}")
            if outside is not None:
                raise _domain_failure(outside, taus[outside.leg] * t) \
                    from outside
            raise StepLimitError(f"step size collapsed at t={now:.6g}")
        h = min(h, span - t)
        steps += 1
        scale_coef(h)
        try:
            for weights, rows, call, row in plan:
                # np.dot, not matmul's gufunc out= dispatch (~1 us a call)
                np.dot(weights, rows, y_new)
                call()
                if scaled:
                    np.multiply(row, tau, row)
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
        if sensitivity:  # each P_j's entries take its largest
            tail[...] = _largest(tail, axis=1, keepdims=True)
        scale *= rel_tol
        scale += abs_tol
        err = float(_largest(np.divide(abs_e, scale, out=scale)))
        if err <= 1.0:
            t += h
            state[:] = y_new
            abs_y, abs_new = abs_new, abs_y
            first[:] = last
            outside = None
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return state.copy(), steps


def _stacked_product(n):
    """The ufunc that writes each J_j P_j of (k, n, n) stacks as np.dot
    writes one: np.matmul, but np.multiply for n = 1, since np.dot of
    1 x 1 matrices is their product, which keeps the sign of a zero, and
    np.matmul's 0 + J P does not."""
    return np.multiply if n == 1 else np.matmul


def _rhs(fields, sensitivity):
    """The right-hand side of the family of legs of `fields` as a binder:
    bind(y, out) returns a call that writes every leg's V_j(y_j) into the
    stage row out, or (V_j(x_j), J_j(x_j) P_j) for the augmented states
    y_j = (x_j, P_j) when `sensitivity`; the legs' time scales are
    applied to out afterwards, by the stepper.

    bind makes the views of y and out once, when a workspace is built;
    each call then takes one list of the legs' points and runs the
    family's compiled writer (`expr.family_writer`) on it, which writes
    straight into the stage row and raises the DomainError that names
    the component and the leg itself. The Jacobians go to a (k, n, n)
    buffer allocated here, a copy of the writer's constant entries, so
    that a call writes only the entries that vary with x (an entry whose
    evaluation raises is among them), and none on an affine family; one
    stacked product (`_stacked_product`) then writes every J_j P_j into
    the stage row.
    """
    k, n = len(fields), fields[0].dimension
    constant, write = family_writer(
        fields, "sensitivity" if sensitivity else "values")
    if not sensitivity:
        def bind(y, out):
            points = y.reshape(k, n)

            def call():
                write(points.tolist(), out)
            return call
        return bind
    m = n + n * n
    jac = constant.copy()
    stack = jac.reshape(k, n, n)
    product = _stacked_product(n)

    def bind(y, out):
        y = y.reshape(k, m)
        points, p = y[:, :n], y[:, n:].reshape(k, n, n)
        jp = out.reshape(k, m)[:, n:].reshape(k, n, n)

        def call():
            write(points.tolist(), out, jac)
            product(stack, p, jp)
        return call
    return bind


def _initial_state(y, x, n):
    """Write the legs' initial states into the (k, m) array y and return
    it: each leg's point, then, for sensitivity legs, the identity
    flattened row by row."""
    y[:, :n] = x
    y[:, n:] = 0.0
    y[:, n::n + 1] = 1.0
    return y


def _legs(fields, points, times, cfg, sensitivity):
    """Integrate the family of legs of `fields` from the (k, n) `points`
    over `times`; (y, steps) with y[j] = x_j(t_j), or (x_j(t_j),
    P_j(t_j)) flattened when `sensitivity`, and steps the family's
    attempts. y is a new (k, m) array.

    A leg of time 0 returns its initial state exactly and is not stepped;
    the others run as one family on s in [0, max |t_j|] (see `_dopri`),
    whose errors report the failing leg's own time.

    A call checks out the workspace of its moving legs' fields for its
    kind of leg, whatever the times, building it on first use, and puts it
    back when it ends, however it ends. A call that finds none checked in,
    because another thread or an enclosing call holds it, builds its own,
    so no two calls ever share buffers. The workspaces are kept in the
    family's first field's `_workspaces`, under (sensitivity, *the other
    fields), so they live as long as that field does; a family that holds
    its first field again refers to it from its own key, a cycle that the
    garbage collector frees.
    """
    k, n = points.shape
    m = n + n * n if sensitivity else n
    still = None
    if 0.0 in times:
        moving = [j for j, t in enumerate(times) if t != 0.0]
        still = _initial_state(np.empty((k, m)), points, n)
        if not moving:
            return still, 0
        fields = tuple(fields[j] for j in moving)
        points, times = points[moving], [times[j] for j in moving]
    span = max(map(abs, times))
    key = (sensitivity, *fields[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        pool = fields[0]._workspaces
        ws = pool.pop(key, None)
        if ws is None:
            ws = _Workspace(_rhs(fields, sensitivity), len(fields), m, n)
        try:
            _initial_state(ws.legs, points, n)
            ws.time_scale([t / span for t in times])
            y, steps = _dopri(ws, span, cfg)
        finally:
            pool[key] = ws
    y = y.reshape(-1, m)
    if still is not None:
        still[moving] = y
        y = still
    return y, steps


def integrate_flow(field, x, t, cfg: IntegratorConfig = DEFAULT_CONFIG
                   ) -> FlowResult:
    """Flow endpoint F(x, t) together with its sensitivity dF/dx, of one leg
    (a field, a point of shape (n,) and a time) or of a family of legs
    (k fields of one dimension, a (k, n) array of points and k times),
    whose results gain a leading k axis.

    A family's legs run side by side on one step sequence, each on its
    own time scale t_j / max|t|, with per-leg error control (see the
    module docstring); steps_taken counts the family's attempts. Each
    sensitivity's local error is controlled relative to its largest
    entry. A leg of time 0 returns its point and the identity exactly.
    Negative times integrate backward. The endpoint and the sensitivity
    are disjoint views of one new array.
    """
    fields, x, t = as_family(field, x, t)
    k, n = x.shape
    y, steps = _legs(fields, x, t, cfg, True)
    if isinstance(field, VectorField):
        return FlowResult(y[0, :n], y[0, n:].reshape(n, n), steps)
    return FlowResult(y[:, :n], y[:, n:].reshape(k, n, n), steps)


def flow_endpoint(field, x, t, cfg: IntegratorConfig = DEFAULT_CONFIG
                  ) -> np.ndarray:
    """State-only fast path: just F(x, t), no sensitivity co-integration,
    for one leg, shape (n,), or a family of legs, shape (k, n), taken as
    `integrate_flow` takes them."""
    y = _legs(*as_family(field, x, t), cfg, False)[0]
    return y[0] if isinstance(field, VectorField) else y
