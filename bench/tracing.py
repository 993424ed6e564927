"""Spans and counts recorded around kcycle's public functions.

The benchmark measures the package from outside. A traced run replaces
module globals of the imported package with wrappers and restores them
afterwards, so the package is not modified and untraced runs execute
exactly the shipped code. Every call site in kcycle looks a name up in its
own module, so a function that a module imported by name (``cli`` imports
``find_stasis``) is wrapped where that module binds it.

Span wrappers keep one span per call: name, start, end, parent span, job
and whether the call returned. Field evaluations run about 10^5 times per
pass, so their wrappers are aggregated instead: a call count and a total
time per job, charged to the enclosing span as child time. A
span's self time is its duration minus the time its child spans and
aggregated calls cover.

A wrapped name that the package no longer has is not an error: the
metrics that need it are listed in ``Tracer.missing`` and the run goes on.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from statistics import mean, median
from time import perf_counter

SPAN, LEAF = "span", "leaf"

# (module, attribute, traced name, kind); the layer is the name's prefix
CORE_TARGETS = (
    ("kcycle.flow", "eval_field", "expr.eval_field[flow]", LEAF),
    ("kcycle.flow", "jacobian_field", "expr.jacobian_field[flow]", LEAF),
    ("kcycle.stasis", "eval_field", "expr.eval_field[stasis]", LEAF),
    ("kcycle.stasis", "jacobian_field", "expr.jacobian_field[stasis]", LEAF),
    ("kcycle.cycle", "eval_field", "expr.eval_field[cycle]", LEAF),
    ("kcycle.cycle", "jacobian_field", "expr.jacobian_field[cycle]", LEAF),
    ("kcycle.cycle", "integrate_flow", "flow.integrate_flow", SPAN),
    ("kcycle.cycle", "flow_endpoint", "flow.flow_endpoint", SPAN),
    ("kcycle.cycle", "solve_cycle", "cycle.solve_cycle", SPAN),
    ("kcycle.linalg", "singular_values", "linalg.singular_values", SPAN),
    ("kcycle.stasis", "check_regularity", "stasis.check_regularity", SPAN),
)

# the names the CLI module imported from the other modules
CLI_TARGETS = CORE_TARGETS + (
    ("kcycle.cli", "load_scenario", "scenario.load_scenario", SPAN),
    ("kcycle.cli", "scenario_from_dict", "scenario.scenario_from_dict", SPAN),
    ("kcycle.cli", "find_stasis", "stasis.find_stasis", SPAN),
    ("kcycle.cli", "find_weights", "stasis.find_weights", SPAN),
    ("kcycle.cli", "check_regularity", "stasis.check_regularity", SPAN),
    ("kcycle.cli", "solve_cycle", "cycle.solve_cycle", SPAN),
    ("kcycle.cli", "verify_cycle", "cycle.verify_cycle", SPAN),
)

_EXPR_METRICS = ("expr.calls", "expr.self_share")

# per-layer metrics that cannot be measured without each traced name
NEEDS = {
    "expr.eval_field[flow]": ("flow.rhs_evals",) + _EXPR_METRICS,
    "expr.jacobian_field[flow]": _EXPR_METRICS,
    "expr.eval_field[stasis]": _EXPR_METRICS,
    "expr.jacobian_field[stasis]": _EXPR_METRICS,
    "expr.eval_field[cycle]": _EXPR_METRICS,
    "expr.jacobian_field[cycle]": _EXPR_METRICS,
    "flow.integrate_flow": ("flow.legs_sens", "flow.sens_steps",
                            "flow.leg_sens_ms", "flow.step_us",
                            "cycle.legs_per_iter"),
    "flow.flow_endpoint": ("flow.legs_endpoint", "flow.leg_end_ms",
                           "cycle.legs_per_iter"),
    "cycle.solve_cycle": ("cycle.solve_calls", "cycle.solve_failures",
                          "cycle.solve_ok_ratio", "cycle.newton_iters",
                          "cycle.legs_per_iter", "cycle.point_ms",
                          "cycle.point_tail_ms"),
    "linalg.singular_values": ("linalg.svd_calls", "linalg.svd_ms",
                               "linalg.svd_share"),
    "stasis.check_regularity": ("stasis.regularity_us",),
    "stasis.find_stasis": ("stasis.find_ms",),
}

# deterministic work counts of one pass; two passes must agree on each
COUNTERS = ("flow.legs_sens", "flow.legs_endpoint", "flow.rhs_evals",
            "flow.sens_steps", "linalg.svd_calls", "cycle.solve_calls",
            "cycle.solve_failures", "cycle.newton_iters", "expr.calls")


def _count_attr(counter, attr):
    """Result hook adding an integer attribute of the result to a counter."""

    def hook(tracer, result):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            tracer.counts[(tracer.job, counter)] += value
        else:
            tracer.missing.setdefault(
                counter, f"result of the traced call has no integer '{attr}'")
    return hook


_RESULT_HOOKS = {
    "flow.integrate_flow": _count_attr("flow.sens_steps", "steps_taken"),
    "cycle.solve_cycle": _count_attr("cycle.newton_iters", "newton_iters"),
}


def tail(samples):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count). Below 21 samples that
    percentile would not exceed the median, so the maximum is returned as
    the 100th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self):
        self.job = None         # (pass index, job label) of current calls
        self.spans = []         # (name, start, end, parent, job, ok)
        self.covered = []       # child time inside each span, same index
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (job, name) -> calls, s
        self.counts = defaultdict(int)               # (job, counter) -> sum
        self.missing = {}                            # metric -> reason
        self._saved = []

    def span(self, name, fn):
        """fn wrapped to record one span per call."""
        hook = _RESULT_HOOKS.get(name)

        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.covered.append(0.0)
            self.stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.job, ok)
                if parent is not None:
                    self.covered[parent] += end - start
            if hook is not None:
                hook(self, result)
            return result
        return wrapped

    def leaf(self, name, fn):
        """fn wrapped to add to a per-job call count and total time."""

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg = self.leaves[(self.job, name)]
                agg[0] += 1
                agg[1] += elapsed
                if self.stack:
                    self.covered[self.stack[-1]] += elapsed
        return wrapped

    def install(self, targets):
        """Wrap every target that exists; record the metrics of the rest."""
        for module_name, attr, name, kind in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self._lost(name, f"cannot import {module_name}: {exc}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self._lost(name, f"{module_name}.{attr} no longer exists")
                continue
            self._saved.append((module, attr, fn))
            wrapper = self.span(name, fn) if kind == SPAN else \
                self.leaf(name, fn)
            setattr(module, attr, wrapper)

    def uninstall(self):
        """Put back every original function."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _lost(self, name, reason):
        for metric in NEEDS.get(name, ()):
            self.missing.setdefault(metric, reason)

    def records(self):
        """One summary per job: durations and self time per span name,
        failed calls, aggregated calls and result counters."""
        jobs = {}

        def rec(job):
            if job not in jobs:
                jobs[job] = {"pass": job[0], "job": job[1],
                             "durations": defaultdict(list),
                             "self": defaultdict(float),
                             "failures": defaultdict(int),
                             "leaves": {}, "counts": {}}
            return jobs[job]

        for (name, start, end, _, job, ok), covered in zip(self.spans,
                                                            self.covered):
            r = rec(job)
            r["durations"][name].append(end - start)
            r["self"][name] += end - start - covered
            if not ok:
                r["failures"][name] += 1
        for (job, name), (calls, seconds) in self.leaves.items():
            rec(job)["leaves"][name] = [calls, seconds]
        for (job, counter), value in self.counts.items():
            rec(job)["counts"][counter] = value
        return list(jobs.values())

    def dump(self, path):
        """Write the spans, the per-job records and the missing metrics."""
        payload = {
            "spans": [[name, start, end, parent, list(job), ok]
                      for name, start, end, parent, job, ok in self.spans],
            "records": self.records(),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _pass_totals(records):
    """Sum job records into one total per pass, in pass order."""
    totals = {}
    for r in records:
        t = totals.setdefault(r["pass"], {
            "durations": defaultdict(list), "self": defaultdict(float),
            "failures": defaultdict(int),
            "leaves": defaultdict(lambda: [0, 0.0]),
            "counts": defaultdict(int)})
        for name, ds in r["durations"].items():
            t["durations"][name].extend(ds)
        for name, s in r["self"].items():
            t["self"][name] += s
        for name, n in r["failures"].items():
            t["failures"][name] += n
        for name, (calls, seconds) in r["leaves"].items():
            t["leaves"][name][0] += calls
            t["leaves"][name][1] += seconds
        for name, v in r["counts"].items():
            t["counts"][name] += v
    return [totals[p] for p in sorted(totals)]


def _counters(total):
    d = total["durations"]
    leaves = total["leaves"]
    return {
        "flow.legs_sens": len(d["flow.integrate_flow"]),
        "flow.legs_endpoint": len(d["flow.flow_endpoint"]),
        "flow.rhs_evals": leaves["expr.eval_field[flow]"][0],
        "flow.sens_steps": total["counts"]["flow.sens_steps"],
        "linalg.svd_calls": len(d["linalg.singular_values"]),
        "cycle.solve_calls": len(d["cycle.solve_cycle"]),
        "cycle.solve_failures": total["failures"]["cycle.solve_cycle"],
        "cycle.newton_iters": total["counts"]["cycle.newton_iters"],
        "expr.calls": sum(calls for calls, _ in leaves.values()),
    }


def layer_metrics(records, traced_walls, plain_median):
    """Per-layer metrics of the traced passes.

    records: job records of every traced pass; traced_walls: wall time of
    each traced pass; plain_median: median wall time of an untraced pass
    of the same run. Returns (metrics, counters whose value differed
    between passes, metrics that had no samples).
    """
    totals = _pass_totals(records)
    per_pass = [_counters(t) for t in totals]
    first = per_pass[0]
    unsteady = sorted(k for k in COUNTERS
                      if any(c[k] != first[k] for c in per_pass))
    pooled = _pass_totals([dict(r, **{"pass": 0}) for r in records])[0]
    d = pooled["durations"]
    n_pass = len(totals)
    traced_wall = sum(traced_walls)

    shares = defaultdict(float)
    for name, seconds in pooled["self"].items():
        shares[name.split(".")[0]] += seconds
    shares["expr"] += sum(s for _, s in pooled["leaves"].values())

    formulas = {
        "cycle.solve_ok_ratio": lambda: (
            1.0 - first["cycle.solve_failures"] / first["cycle.solve_calls"]),
        "cycle.legs_per_iter": lambda: (
            (first["flow.legs_sens"] + first["flow.legs_endpoint"])
            / first["cycle.newton_iters"]),
        "flow.leg_sens_ms": lambda: mean(d["flow.integrate_flow"]) * 1e3,
        "flow.leg_end_ms": lambda: mean(d["flow.flow_endpoint"]) * 1e3,
        "flow.step_us": lambda: (sum(d["flow.integrate_flow"])
                                 / pooled["counts"]["flow.sens_steps"] * 1e6),
        "linalg.svd_ms": lambda: mean(d["linalg.singular_values"]) * 1e3,
        "linalg.svd_share": lambda: (sum(d["linalg.singular_values"])
                                     / n_pass / plain_median),
        "cycle.point_ms": lambda: median(d["cycle.solve_cycle"]) * 1e3,
        "cycle.point_tail_ms": lambda: tail(d["cycle.solve_cycle"])[0] * 1e3,
        "stasis.find_ms": lambda: mean(d["stasis.find_stasis"]) * 1e3,
        "stasis.regularity_us": lambda: (
            mean(d["stasis.check_regularity"]) * 1e6),
        "trace.overhead_frac": lambda: median(traced_walls) / plain_median
        - 1.0,
    }
    for layer in ("expr", "flow", "cycle", "stasis"):
        formulas[f"{layer}.self_share"] = (
            lambda layer=layer: shares[layer] / traced_wall)

    metrics = dict(first)
    empty = []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except (ZeroDivisionError, ValueError):
            # statistics.StatisticsError (no samples) is a ValueError
            empty.append(name)
    return metrics, unsteady, empty
