"""Scenario files: a full problem description loaded from JSON.

A scenario names the fields (as DSL strings), the dimension, optionally a
pinned weighting and/or a stasis point or guess, tolerance overrides, and
an optional sweep block. At least one of weights / stasis_point must be
present: weights pinned means solve for the point, point pinned means
solve for the weights, both pinned means the point seeds the Newton solve.

Types are checked here, but solver defaults are owned elsewhere: an
omitted integrator key takes its `flow.DEFAULT_CONFIG` value (checked by
`IntegratorConfig`), an omitted cycle_tol `cycle.DEFAULT_CYCLE_TOL`.
`read_json` reads both scenario and record files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycle import DEFAULT_CYCLE_TOL
from .errors import DslError, ScenarioError
from .expr import parse_field
from .flow import DEFAULT_CONFIG, IntegratorConfig
from .stasis import Weights

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "dimension", "fields", "weights",
             "stasis_guess", "stasis_point", "tolerances", "sweep"}
_TOL_KEYS = {"stasis_tol", "cycle_tol", "rel_tol", "abs_tol", "max_steps",
             "method"}
_SWEEP_KEYS = {"delta_max", "steps"}

DEFAULT_STASIS_TOL = 1e-10
DEFAULT_SWEEP_STEPS = 32


@dataclass(eq=False)
class SweepSpec:
    delta_max: float
    steps: int = DEFAULT_SWEEP_STEPS


@dataclass(eq=False)
class Scenario:
    name: str
    dimension: int
    field_sources: tuple
    fields: tuple
    weights: Optional[Weights]
    stasis_guess: Optional[np.ndarray]
    stasis_point: Optional[np.ndarray]
    stasis_tol: float
    cycle_tol: float
    integrator: IntegratorConfig
    sweep: Optional[SweepSpec]

    @property
    def k(self) -> int:
        return len(self.fields)

    def guess_point(self) -> np.ndarray:
        """Newton starting point: explicit guess, else the pinned point,
        else the origin."""
        if self.stasis_guess is not None:
            return self.stasis_guess.copy()
        if self.stasis_point is not None:
            return self.stasis_point.copy()
        return np.zeros(self.dimension)


def read_json(path, error_cls, what: str):
    """The JSON value in the file at path; error_cls when the `what` file
    cannot be read or holds no valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error_cls(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, oversized integer
        raise error_cls(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, ScenarioError, "scenario"),
                              origin=str(path))


def finite_number(raw, label: str) -> float:
    """A JSON number as a float; ValueError for NaN, +-Infinity, booleans,
    strings and every other non-number."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or not abs(raw) <= sys.float_info.max:
        raise ValueError(f"{label} must be a finite number, got {raw!r}")
    return float(raw)


def whole_number(raw, label: str, minimum: int) -> int:
    """A JSON integer >= minimum; ValueError for 2.5, true, "3" and such."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, "
                         f"got {raw!r}")
    return raw


def _positive(raw, label: str) -> float:
    value = finite_number(raw, label)
    if value <= 0:
        raise ValueError(f"{label} must be positive, got {raw!r}")
    return value


def _point(raw, n, label):
    if not isinstance(raw, list) or len(raw) != n:
        raise ScenarioError(f"{label} must be a list of {n} numbers")
    try:
        return np.array([finite_number(v, label) for v in raw])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_from_dict(data: dict, origin: str = "<dict>") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{origin}: scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"{origin}: unknown keys {sorted(unknown)}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"{origin}: schema_version must be {SCHEMA_VERSION}, got "
            f"{data.get('schema_version')!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{origin}: 'name' must be a non-empty string")
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ScenarioError(f"{origin}: 'dimension' must be an integer >= 1")
    sources = data.get("fields")
    if not isinstance(sources, list) or len(sources) < 2 or \
            not all(isinstance(s, str) for s in sources):
        raise ScenarioError(
            f"{origin}: 'fields' must be a list of >= 2 DSL strings")
    fields = []
    for j, src in enumerate(sources):
        try:
            fields.append(parse_field(src, dim))
        except DslError as exc:
            raise ScenarioError(f"{origin}: field {j + 1}: {exc}") from exc

    weights = None
    if data.get("weights") is not None:
        raw = data["weights"]
        if not isinstance(raw, list) or len(raw) != len(sources):
            raise ScenarioError(
                f"{origin}: 'weights' must list one weight per field")
        try:
            weights = Weights(tuple(finite_number(v, "weight")
                                    for v in raw))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{origin}: bad weights: {exc}") from exc

    guess = point = None
    if data.get("stasis_guess") is not None:
        guess = _point(data["stasis_guess"], dim, f"{origin}: 'stasis_guess'")
    if data.get("stasis_point") is not None:
        point = _point(data["stasis_point"], dim, f"{origin}: 'stasis_point'")
    if weights is None and point is None:
        raise ScenarioError(
            f"{origin}: at least one of 'weights' or 'stasis_point' is "
            "required")

    tols = data.get("tolerances") or {}
    if not isinstance(tols, dict):
        raise ScenarioError(f"{origin}: 'tolerances' must be an object")
    unknown = set(tols) - _TOL_KEYS
    if unknown:
        raise ScenarioError(
            f"{origin}: unknown tolerance keys {sorted(unknown)}")
    try:
        stasis_tol = _positive(tols.get("stasis_tol", DEFAULT_STASIS_TOL),
                               "stasis_tol")
        cycle_tol = _positive(tols.get("cycle_tol", DEFAULT_CYCLE_TOL),
                              "cycle_tol")
        base = DEFAULT_CONFIG
        integrator = IntegratorConfig(
            rel_tol=_positive(tols.get("rel_tol", base.rel_tol), "rel_tol"),
            abs_tol=_positive(tols.get("abs_tol", base.abs_tol), "abs_tol"),
            max_steps=whole_number(tols.get("max_steps", base.max_steps),
                                   "max_steps", 1),
            method=tols.get("method", base.method))
    except ValueError as exc:
        raise ScenarioError(f"{origin}: bad tolerances: {exc}") from exc

    sweep = None
    if data.get("sweep") is not None:
        raw = data["sweep"]
        if not isinstance(raw, dict) or set(raw) - _SWEEP_KEYS:
            raise ScenarioError(
                f"{origin}: 'sweep' must be an object with keys "
                f"{sorted(_SWEEP_KEYS)}")
        if "delta_max" not in raw:
            raise ScenarioError(f"{origin}: sweep needs 'delta_max'")
        try:
            delta_max = _positive(raw["delta_max"], "sweep delta_max")
            if delta_max < sys.float_info.min:
                raise ValueError(f"sweep delta_max {delta_max!r} is below "
                                 "the smallest normal float")
            sweep = SweepSpec(delta_max, whole_number(
                raw.get("steps", DEFAULT_SWEEP_STEPS), "sweep steps", 1))
        except ValueError as exc:
            raise ScenarioError(f"{origin}: {exc}") from exc

    return Scenario(name, dim, tuple(sources), tuple(fields), weights,
                    guess, point, stasis_tol, cycle_tol, integrator, sweep)


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical dict form (fixed key order) for embedding in records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "dimension": s.dimension,
        "fields": list(s.field_sources),
        "weights": list(s.weights.values) if s.weights is not None else None,
        "stasis_guess": (list(map(float, s.stasis_guess))
                         if s.stasis_guess is not None else None),
        "stasis_point": (list(map(float, s.stasis_point))
                         if s.stasis_point is not None else None),
        "tolerances": {
            "stasis_tol": s.stasis_tol,
            "cycle_tol": s.cycle_tol,
            "rel_tol": s.integrator.rel_tol,
            "abs_tol": s.integrator.abs_tol,
            "max_steps": s.integrator.max_steps,
            "method": s.integrator.method,
        },
        "sweep": ({"delta_max": s.sweep.delta_max, "steps": s.sweep.steps}
                  if s.sweep is not None else None),
    }


def random_linear_scenario(rng: np.random.Generator, n: int, k: int,
                           name: str) -> dict:
    """Random affine fields A_j x + b_j with a regular dyadic weighting.

    Rejection-samples until the weighted Jacobian sum is well-conditioned
    and every field is genuinely moving at the stasis point, so the
    resulting scenario has a clean cycle branch. Returns a scenario dict
    ready for scenario_from_dict or a JSON file.
    """
    # dyadic weights sum to 1 exactly in binary floating point
    for _ in range(256):
        raw = rng.integers(1, 9, size=k).astype(float)
        m = raw / raw.sum()
        m = np.round(m * 64.0) / 64.0
        m[-1] = 1.0 - m[:-1].sum()
        if np.all(m >= 1.0 / 64.0):
            break
    mats = []
    vecs = []
    for _ in range(512):
        mats = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(k)]
        for a in mats:
            radius = float(np.max(np.abs(np.linalg.eigvals(a))))
            if radius > 1.5:
                a *= 1.5 / radius
        vecs = [rng.uniform(-1.0, 1.0, size=n) for _ in range(k)]
        wsum = sum(mj * aj for mj, aj in zip(m, mats))
        sv = np.linalg.svd(wsum, compute_uv=False)
        if sv[-1] < 0.2:
            continue
        x0 = np.linalg.solve(wsum, -sum(mj * bj for mj, bj in zip(m, vecs)))
        if np.max(np.abs(x0)) > 2.0:
            continue
        if any(np.linalg.norm(aj @ x0 + bj) < 0.1
               for aj, bj in zip(mats, vecs)):
            continue
        break
    else:
        raise RuntimeError("could not sample a regular linear scenario")

    sources = []
    for a, b in zip(mats, vecs):
        comps = []
        for i in range(n):
            terms = [f"{float(a[i, l])!r}*x{l + 1}" for l in range(n)]
            terms.append(repr(float(b[i])))
            comps.append(" + ".join(terms))
        sources.append("; ".join(comps))
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dimension": n,
        "fields": sources,
        "weights": [float(v) for v in m],
        "stasis_guess": [float(v) for v in x0 + rng.uniform(-0.05, 0.05, n)],
        "stasis_point": None,
        "tolerances": {"stasis_tol": DEFAULT_STASIS_TOL,
                       "cycle_tol": DEFAULT_CYCLE_TOL},
        "sweep": {"delta_max": 0.5, "steps": DEFAULT_SWEEP_STEPS},
    }
