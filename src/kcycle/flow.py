"""Flows of a vector field and their initial-condition sensitivities.

The state x and the sensitivity matrix P(t) = d x(t) / d x(0) are advanced
jointly as one augmented system of dimension n + n^2,

    dx/dt = V(x),    dP/dt = J(x(t)) P,    P(0) = I,

so both see the identical step sequence. Two steppers are provided: an
adaptive Dormand-Prince 5(4) embedded pair with PI step-size control
(default), and a uniform-step RK4 with per-step Richardson error estimates
that refines the whole pass until the estimate meets tolerance (cross-check
method). Backward time integrates the negated field; there is no separate
code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FlowDomainError, StepLimitError
from .expr import VectorField, eval_field, jacobian_field

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
    endpoint: np.ndarray
    sensitivity: np.ndarray
    steps_taken: int
    est_local_error: float


# Dormand-Prince 5(4) tableau; row i of _DP_A holds the stage-i weights
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _dopri(rhs, y0, span, cfg):
    """Integrate dy/dt = rhs(y) over [0, span], span > 0.

    Error control is on the max norm of the per-component scaled embedded
    estimate, so on success every accepted step satisfies
    |err_i| <= abs_tol + rel_tol*|y_i|.
    """
    y = y0.copy()
    t = 0.0
    h = span / 64.0
    steps = 0
    est = 0.0
    err_prev = 1e-4
    h_min = 16.0 * np.finfo(float).eps * span
    stages = np.empty((7, y.size))
    while t < span:
        if steps >= cfg.max_steps:
            raise StepLimitError(
                f"integration exceeded {cfg.max_steps} steps at t={t:.6g}")
        if h < h_min:
            raise StepLimitError(f"step size collapsed at t={t:.6g}")
        h = min(h, span - t)
        try:
            stages[0] = rhs(y)
            for i in range(1, 7):
                stages[i] = rhs(y + h * (_DP_A[i, :i] @ stages[:i]))
        except DomainError as exc:
            raise FlowDomainError(
                f"field evaluation failed at t={t:.6g}: {exc}", time=t
            ) from exc
        y_new = y + h * (_DP_B5 @ stages)
        e_vec = h * (_DP_E @ stages)
        steps += 1
        if not np.all(np.isfinite(y_new)):
            h *= 0.2
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(e_vec) / scale))
        if err <= 1.0:
            t += h
            y = y_new
            est = max(est, float(np.max(np.abs(e_vec))))
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
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(rhs, y0, span, cfg):
    """Uniform-step RK4 with Richardson comparison per step.

    Each macro step is taken once at h and once as two h/2 steps; the
    difference/15 estimates the local error of the fine result, which is
    what propagates. The whole pass is redone with doubled resolution
    until the scaled estimate passes.
    """
    n_steps = 8
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
                y_fine = _rk4_step(rhs, y_half, 0.5 * h)
            except DomainError as exc:
                raise FlowDomainError(
                    f"field evaluation failed at t={i * h:.6g}: {exc}",
                    time=i * h) from exc
            diff = np.abs(y_big - y_fine) / 15.0
            if not np.all(np.isfinite(y_fine)):
                ok = False
                break
            scale = cfg.abs_tol + cfg.rel_tol * np.abs(y_fine)
            worst = max(worst, float(np.max(diff / scale)))
            est = max(est, float(np.max(diff)))
            y = y_fine
        if ok and worst <= 1.0:
            return y, 2 * n_steps, est
        n_steps *= 2


def _run(rhs, y0, t, cfg):
    if cfg.method == "rk4_fixed":
        return _rk4(rhs, y0, t, cfg)
    return _dopri(rhs, y0, t, cfg)


def integrate_flow(field: VectorField, x, t: float,
                   cfg: IntegratorConfig = DEFAULT_CONFIG) -> FlowResult:
    """Flow endpoint F(x, t) together with its sensitivity dF/dx.

    t = 0 returns x and the identity exactly. Negative t integrates the
    negated field over |t|.
    """
    n = field.dimension
    x = np.asarray(x, dtype=float)
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    if t == 0.0:
        return FlowResult(x.copy(), np.eye(n), 0, 0.0)
    work = field if t > 0 else field.negated()

    def rhs(y):
        xs = y[:n]
        phi = y[n:].reshape(n, n)
        dx = eval_field(work, xs)
        dphi = jacobian_field(work, xs) @ phi
        return np.concatenate([dx, dphi.reshape(-1)])

    y0 = np.concatenate([x, np.eye(n).reshape(-1)])
    y, steps, est = _run(rhs, y0, abs(t), cfg)
    return FlowResult(y[:n].copy(), y[n:].reshape(n, n).copy(), steps, est)


def flow_endpoint(field: VectorField, x, t: float,
                  cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """State-only fast path: just F(x, t), no sensitivity co-integration."""
    n = field.dimension
    x = np.asarray(x, dtype=float)
    if not np.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    if t == 0.0:
        return x.copy()
    work = field if t > 0 else field.negated()

    def rhs(y):
        return eval_field(work, y)

    y, _, _ = _run(rhs, x, abs(t), cfg)
    return y
