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
evaluations instead of seven.
integrate_flow (state and sensitivity) and flow_endpoint (state only)
share one body, `_leg`, and differ only in the right-hand side and the
initial state. `_leg` checks the point's shape once and binds the
right-hand side once per leg, on the field's compiled evaluators, so a
stage is one call of each on plain floats and, with sensitivities, one
J·P matrix product; the evaluators raise the DomainError that names the
component themselves. Backward time t < 0 integrates y -> -rhs(y) over
|t| (the flow of V over t is the flow of -V over -t); IEEE negation is
exact, so this is bitwise the negated field's right-hand side. Overflow
and NaN surface as non-finite steps, which both steppers reject, so
numpy's floating-point warnings are silenced for the whole integration.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# row i's weights of stages 0..i-1, as views built once
_DP_ROWS = tuple(_DP_A[i, :i] for i in range(7))


def _error_scale(peak, n, cfg):
    """abs_tol + rel_tol * peak, where peak holds |y_i| and the entries
    past the state's n take their largest (the sensitivity's norm).
    Overwrites peak."""
    peak[n:] = peak[n:].max(initial=0.0)
    return cfg.abs_tol + cfg.rel_tol * peak


def _dopri(rhs, y0, span, cfg, n):
    """Integrate dy/dt = rhs(y) over [0, span], span > 0.

    Error control is on the max norm of the scaled embedded estimate
    (`_error_scale`), so on success every accepted step satisfies
    |err_i| <= abs_tol + rel_tol*|y_i| for the state's entries i < n and
    |err_i| <= abs_tol + rel_tol*max_{j>=n}|y_j| for the rest; est is the
    largest state |err_i| accepted. A non-finite entry anywhere rejects
    the step. Stage 0 is rhs(y): an accepted step hands over its last
    stage and |y_new|, a rejected one keeps them, so every attempt after
    the first costs six evaluations of rhs.
    """
    max_steps = cfg.max_steps
    y = y0.copy()
    abs_y = np.abs(y)
    t = 0.0
    h = span / 64.0 or span  # a subnormal span / 64 underflows to 0
    steps = 0
    est = 0.0
    err_prev = 1e-4
    h_min = 16.0 * np.finfo(float).eps * span
    stages = np.empty((7, y.size))
    heads = [stages[:i] for i in range(7)]  # stages 0..i-1 feed stage i
    while t < span:
        if steps >= max_steps:
            raise StepLimitError(
                f"integration exceeded {max_steps} steps at t={t:.6g}")
        if h < h_min:
            raise StepLimitError(f"step size collapsed at t={t:.6g}")
        h = min(h, span - t)
        try:
            if steps == 0:
                stages[0] = rhs(y)
            for i in range(1, 7):
                y_new = y + h * (_DP_ROWS[i] @ heads[i])
                stages[i] = rhs(y_new)
        except DomainError as exc:
            raise FlowDomainError(
                f"field evaluation failed at t={t:.6g}: {exc}", time=t
            ) from exc
        abs_e = np.abs(h * (_DP_E @ stages))
        steps += 1
        if not np.isfinite(y_new).all():
            h *= 0.2
            continue
        abs_new = np.abs(y_new)
        scale = _error_scale(np.maximum(abs_y, abs_new), n, cfg)
        err = float((abs_e / scale).max())
        if err <= 1.0:
            t += h
            y = y_new
            abs_y = abs_new
            stages[0] = stages[6]
            est = max(est, float(abs_e[:n].max()))
            err_c = max(err, 1e-10)
            fac = 0.9 * err_c ** -0.14 * err_prev ** 0.08
            h *= min(5.0, max(0.2, fac))
            err_prev = err_c
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, steps, est


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    # h times the mean slope: (h / 6) would underflow for a subnormal h
    return y + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def _rk4(rhs, y0, span, cfg, n):
    """Uniform-step RK4 with Richardson comparison per step.

    Each macro step is taken once at h and once as two h/2 steps; the
    difference/15 estimates the local error of the fine result, which is
    what propagates. The whole pass is redone with doubled resolution
    until the estimate, scaled as in `_dopri` with the state's n entries
    first, passes; est is the state's; a non-finite entry anywhere fails
    the pass. The
    second half step is h - h/2, so the halves always cover h. The first
    pass takes eight macro steps, or one when the half steps of eight
    would be subnormal: a subnormal span / 8 rounds to a few units of
    5e-324, and its half to 0.
    """
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
                y_big = _rk4_step(rhs, y, h)
                y_half = _rk4_step(rhs, y, 0.5 * h)
                y_fine = _rk4_step(rhs, y_half, h - 0.5 * h)
            except DomainError as exc:
                raise FlowDomainError(
                    f"field evaluation failed at t={i * h:.6g}: {exc}",
                    time=i * h) from exc
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


def _rhs(field, sensitivity):
    """The right-hand side of one leg of `field`, bound once: y -> V(y),
    or (x, P) -> (V(x), J(x) P) on the augmented state y = (x, P) when
    `sensitivity`.

    Each call runs the field's compiled evaluators on plain floats; they
    raise the DomainError that names the component themselves.
    """
    n = field.dimension
    values = field.evaluator()
    if not sensitivity:
        return lambda y: np.array(values(y.tolist()), dtype=float)

    entries = field.jacobian_evaluator()

    def rhs(y):
        xs = y[:n].tolist()
        out = np.empty(n + n * n)
        out[:n] = values(xs)
        jac = np.array(entries(xs), dtype=float).reshape(n, n)
        np.matmul(jac, y[n:].reshape(n, n), out=out[n:].reshape(n, n))
        return out
    return rhs


def _leg(field, x, t, cfg, sensitivity):
    """Integrate one leg of `field` from the point x over time t;
    (y, steps, est) with y = x(t), or (x(t), P(t)) flattened when
    `sensitivity`; est is the state's estimate.

    x must have shape (n,) (DimensionError otherwise, at every t). t = 0
    returns the initial state exactly; negative t integrates -rhs over
    |t|, and a DomainError still names the field's own component.
    """
    n = field.dimension
    x = as_point(field, x)
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    y0 = np.concatenate([x, np.eye(n).reshape(-1)]) if sensitivity else x
    if t == 0.0:
        return y0.copy(), 0, 0.0
    forward = _rhs(field, sensitivity)
    rhs = forward if t > 0.0 else (lambda y: -forward(y))
    stepper = _rk4 if cfg.method == "rk4_fixed" else _dopri
    with np.errstate(over="ignore", invalid="ignore"):
        return stepper(rhs, y0, abs(t), cfg, n)


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
