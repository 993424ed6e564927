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
Two steppers are provided: an adaptive Dormand-Prince 5(4) embedded pair
with PI step-size control (default), and a uniform-step RK4 with
per-step Richardson error estimates that refines the whole pass until
the estimate meets tolerance (cross-check method). Dormand-Prince
evaluates its last stage at the new state, which therefore serves as the
next step's first stage (first same as last), and a rejected step keeps
its first stage: every step after the first costs six right-hand-side
evaluations instead of seven. It keeps the state in row 0 and the seven
stages in rows 1-7 of one work array allocated once per leg, and scales
the tableau by the step size once per attempt, so that each stage input
y + sum_j (h a_ij) k_j is one matrix product over rows 0..i and the
error estimate sum_j (h e_j) k_j is one more. h multiplies each tableau
weight rather than the weighted sum, and y joins the sum, so the results
differ from the textbook's y + h (sum_j a_ij k_j) only in rounding. A
stage that leaves the field's domain is a trial, not a point of the
trajectory, so Dormand-Prince rejects that step; only a step size that
collapses there ends the leg.
integrate_flow (state and sensitivity) and flow_endpoint (state only)
share one body, `_leg`, and differ only in the right-hand side and the
initial state. `_leg` checks the point's shape once and builds the
right-hand side once per leg, on the field's compiled evaluators, as a
binder: binding a stage input and a stage row makes their views once,
and the bound call is then one call of each evaluator on plain floats
whose values, and with sensitivities the J·P matrix product, are written
into the row. Dormand-Prince binds its stage calls once per leg. The
evaluators raise the DomainError that names the component themselves.
Backward time t < 0 integrates -rhs over |t|, the bound call negating
its row in place (the flow of V over t is the flow of -V over -t); IEEE
negation is exact, so this is bitwise the negated field's right-hand
side, and errors report the leg's own negative time. Overflow and NaN
surface as non-finite steps, which both steppers reject, so numpy's
floating-point warnings are silenced for the whole integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, FlowDomainError, StepLimitError
# eval_field and jacobian_field are bound only for bench/tracing.py's hooks
from .expr import VectorField, as_point, eval_field, jacobian_field

METHODS = ("dopri_adaptive", "rk4_fixed")


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10**6
    method: str = "dopri_adaptive"

    def __post_init__(self):
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")

    def tightened(self, factor: float) -> "IntegratorConfig":
        return IntegratorConfig(self.rel_tol / factor, self.abs_tol / factor,
                                self.max_steps, self.method)


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


def _coefficients():
    """(coef, scale): a (7, 8) buffer whose column 0 holds 1, and scale(h),
    which writes h * _DP_TABLE into its other columns. Row i - 1 then
    weighs (y, k_0, ..., k_6) for stage i's input, i = 1..6, and row 6's
    columns 1-7 weigh k_0..k_6 for the error estimate."""
    coef = np.ones((7, 8))
    return coef, partial(np.multiply, _DP_TABLE, out=coef[:, 1:])


def _error_scale(peak, n, cfg):
    """abs_tol + rel_tol * peak in place, where peak holds |y_i| and the
    entries past the state's n take their largest (the sensitivity's
    norm); returns peak."""
    if peak.size > n:
        peak[n:] = peak[n:].max()
    peak *= cfg.rel_tol
    peak += cfg.abs_tol
    return peak


def _domain_failure(exc, t):
    """The FlowDomainError for a DomainError on the leg at time t."""
    t += 0.0  # a backward leg's -0.0 reads as 0
    return FlowDomainError(f"field evaluation failed at t={t:.6g}: {exc}",
                           time=t)


def _dopri(bind, y0, span, cfg, n, sign=1.0):
    """Integrate dy/dt = rhs(y) over [0, span], span > 0; bind(y, out)
    returns a call that writes rhs(y) into out, reading y as it is then.

    Error control is on the max norm of the scaled embedded estimate
    (`_error_scale`), so on success every accepted step satisfies
    |err_i| <= abs_tol + rel_tol*|y_i| for the state's entries i < n and
    |err_i| <= abs_tol + rel_tol*max_{j>=n}|y_j| for the rest; est is the
    largest state |err_i| accepted. A non-finite entry anywhere rejects
    the step, and so does a DomainError in stages 1-6: a trial stage is
    not a point of the trajectory. Stage 0 is rhs(y0), evaluated once
    before the first step, so a DomainError there raises FlowDomainError
    at once; when domain rejections shrink the step below its floor,
    FlowDomainError names the last one at the last accepted time. Times
    in errors are sign * t, the leg's own time. An accepted step hands
    over its last stage and |y_new| to the next, a rejected one keeps
    them, so every attempt costs six evaluations of rhs.

    The state is row 0 and stage k_j row j + 1 of one (8, size) work
    array. Each attempt scales the tableau by h once (`_coefficients`);
    stage i's input is then the product of coefficient row i - 1 with work
    rows 0..i, written into one buffer that the six stage calls read; they
    are bound once per leg. After stage 6 that buffer holds the new state,
    which an accepted step copies into row 0. Every buffer is allocated
    once per leg, and the returned state is a copy.
    """
    max_steps = cfg.max_steps
    size = y0.size
    t = 0.0
    h = span / 64.0 or span  # a subnormal span / 64 underflows to 0
    steps = 0
    est = 0.0
    err_prev = 1e-4
    h_min = 16.0 * np.finfo(float).eps * span
    work = np.empty((8, size))
    state, first, last, stages = work[0], work[1], work[7], work[1:]
    state[:] = y0
    abs_y = np.abs(state)
    coef, scale_coef = _coefficients()
    error_weights = coef[6, 1:]
    # stage input, which after stage 6 holds the new state
    y_new, abs_new, abs_e, scale = (np.empty(size) for _ in range(4))
    # stage i's coefficients, the rows 0..i they weigh, and its bound call
    plan = [(coef[i - 1, :i + 1], work[:i + 1], bind(y_new, work[i + 1]))
            for i in range(1, 7)]
    outside = None  # the DomainError of the last domain rejection
    try:
        bind(state, first)()
    except DomainError as exc:
        raise _domain_failure(exc, 0.0) from exc
    while t < span:
        if steps >= max_steps:
            raise StepLimitError(
                f"integration exceeded {max_steps} steps at t={t:.6g}")
        if h < h_min:
            if outside is not None:
                raise _domain_failure(outside, sign * t) from outside
            raise StepLimitError(f"step size collapsed at t={t:.6g}")
        h = min(h, span - t)
        steps += 1
        scale_coef(h)
        try:
            for weights, rows, stage in plan:
                np.matmul(weights, rows, out=y_new)
                stage()
        except DomainError as exc:
            outside = exc
            h *= 0.2
            continue
        np.abs(y_new, out=abs_new)
        if not abs_new.max() < np.inf:  # an inf or NaN entry
            h *= 0.2
            continue
        np.matmul(error_weights, stages, out=abs_e)
        np.abs(abs_e, out=abs_e)
        np.maximum(abs_y, abs_new, out=scale)
        _error_scale(scale, n, cfg)
        err = float(np.divide(abs_e, scale, out=scale).max())
        if err <= 1.0:
            t += h
            state[:] = y_new
            abs_y, abs_new = abs_new, abs_y
            first[:] = last
            outside = None
            est = max(est, float(abs_e[:n].max()))
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return state.copy(), steps, est


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    # h times the mean slope: (h / 6) would underflow for a subnormal h
    return y + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def _rk4(bind, y0, span, cfg, n, sign=1.0):
    """Uniform-step RK4 with Richardson comparison per step; bind(y, out)
    as in `_dopri`, through an adapter that allocates and binds each slope.

    Each macro step is taken once at h and once as two h/2 steps; the
    difference/15 estimates the local error of the fine result, which is
    what propagates. The whole pass is redone with doubled resolution
    until the estimate, scaled as in `_dopri` with the state's n entries
    first, passes; est is the state's; a non-finite entry anywhere fails
    the pass. A DomainError raises FlowDomainError at once, at sign times
    the macro step's start: a fixed-step pass cannot tell a trial stage
    that overshoots the domain from a trajectory that leaves it without
    refining toward max_steps. The second half step is h - h/2, so the
    halves always cover h. The first pass takes eight macro steps, or one
    when the half steps of eight would be subnormal: a subnormal span / 8
    rounds to a few units of 5e-324, and its half to 0.
    """
    def slope(y):
        out = np.empty(y.size)
        bind(y, out)()
        return out

    n_steps = 8 if span / 16.0 >= np.finfo(float).tiny else 1
    while True:
        if 2 * n_steps > cfg.max_steps:
            raise StepLimitError(
                f"fixed-step refinement exceeded {cfg.max_steps} steps")
        h = span / n_steps
        y = y0.copy()
        est = 0.0
        worst = 0.0
        ok = True
        for i in range(n_steps):
            try:
                y_big = _rk4_step(slope, y, h)
                y_half = _rk4_step(slope, y, 0.5 * h)
                y_fine = _rk4_step(slope, y_half, h - 0.5 * h)
            except DomainError as exc:
                raise _domain_failure(exc, sign * (i * h)) from exc
            diff = np.abs(y_big - y_fine) / 15.0
            if not np.all(np.isfinite(y_fine)):
                ok = False
                break
            scale = _error_scale(np.abs(y_fine), n, cfg)
            worst = max(worst, float(np.max(diff / scale)))
            est = max(est, float(np.max(diff[:n])))
            y = y_fine
        if ok and worst <= 1.0:
            return y, 2 * n_steps, est
        n_steps *= 2


def _rhs(field, sensitivity, backward):
    """The right-hand side of one leg of `field` as a binder: bind(y, out)
    returns a call that writes V(y) into out, or (V(x), J(x) P) for the
    augmented state y = (x, P) when `sensitivity`, and -V when `backward`.

    bind makes the views of y and out once; each call then runs the
    field's compiled evaluators on plain floats, which raise the
    DomainError that names the component themselves. The Jacobian's
    entries go to an (n, n) buffer allocated once here, and J P is
    multiplied straight into out.
    """
    n = field.dimension
    values = field.evaluator()
    if sensitivity:
        entries = field.jacobian_evaluator()
        jac = np.empty((n, n))
        jac_flat = jac.reshape(-1)

    def bind(y, out):
        if sensitivity:
            x, p = y[:n], y[n:].reshape(n, n)
            v, jp = out[:n], out[n:].reshape(n, n)

            def call():
                xs = x.tolist()
                v[:] = values(xs)
                jac_flat[:] = entries(xs)
                np.matmul(jac, p, out=jp)
        else:
            def call():
                out[:] = values(y.tolist())
        if not backward:
            return call

        def negated():
            call()
            np.negative(out, out=out)
        return negated
    return bind


def _leg(field, x, t, cfg, sensitivity):
    """Integrate one leg of `field` from the point x over time t;
    (y, steps, est) with y = x(t), or (x(t), P(t)) flattened when
    `sensitivity`; est is the state's estimate.

    x must have shape (n,) (DimensionError otherwise, at every t). t = 0
    returns the initial state exactly; negative t integrates -rhs over
    |t|, each bound call negating its row in place, and a FlowDomainError
    reports the leg's own (negative) time and names the field's own
    component.
    """
    n = field.dimension
    x = as_point(field, x)
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    y0 = np.concatenate([x, np.eye(n).reshape(-1)]) if sensitivity else x
    if t == 0.0:
        return y0.copy(), 0, 0.0
    bind = _rhs(field, sensitivity, t < 0.0)
    stepper = _rk4 if cfg.method == "rk4_fixed" else _dopri
    with np.errstate(over="ignore", invalid="ignore"):
        return stepper(bind, y0, abs(t), cfg, n, 1.0 if t > 0.0 else -1.0)


def integrate_flow(field: VectorField, x, t: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> FlowResult:
    """Flow endpoint F(x, t) together with its sensitivity dF/dx.

    The sensitivity's local error is controlled relative to its largest
    entry; est_local_error is the state's estimate. t = 0 returns x and
    the identity exactly. Negative t integrates backward: the negated
    right-hand side over |t|.
    """
    n = field.dimension
    y, steps, est = _leg(field, x, t, cfg, True)
    return FlowResult(y[:n].copy(), y[n:].reshape(n, n).copy(), steps, est)


def flow_endpoint(field: VectorField, x, t: float,
                  cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """State-only fast path: just F(x, t), no sensitivity co-integration."""
    return _leg(field, x, t, cfg, False)[0]
