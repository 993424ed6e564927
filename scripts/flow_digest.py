#!/usr/bin/env python3
"""Fingerprint the leg integrator's results and the sweeps built on them.

Usage: python scripts/flow_digest.py [--save FILE.npz] [--against FILE.npz]

Legs: integrate_flow and flow_endpoint from each scenario's guess point
+ 0.1, on every field of every corpus scenario and of the n = 6, k = 4
families random_linear_scenario(default_rng(s), 6, 4) for s = 1, 2, over
t = 0.3, -0.7 and 2.0, with both integration methods. One line per
scenario gives a sha256 over the endpoints, sensitivities, step counts
and local-error estimates (or the error a leg raised) and its step
count; the last leg line covers every leg.

Sweeps: find_stasis and sweep_delta, as `kcycle sweep` runs them, on the
five regular corpus scenarios and on the benchmark's seed-1 wide-sweep
families (both drawn from default_rng(1)). Each scenario prints its
Newton iterations, the worst verify mismatch over every record as a
multiple of 10 * cycle_tol, and the log-log slope; each sweep, their
totals.

Two runs on different versions of the package differ in these lines
exactly where results moved. --save writes every leg's arrays and step
count and every sweep's cycle points to an .npz file; --against reads
such a file from another version and prints, per scenario, the largest
difference of endpoints and sensitivities relative to their largest
entry, the legs whose step count changed, and the largest move of a
cycle point.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcycle import (KcycleError, find_stasis, flow_endpoint,  # noqa: E402
                    integrate_flow, load_scenario, loglog_slope,
                    random_linear_scenario, scenario_from_dict, sweep_delta,
                    verify_cycle)
from kcycle.flow import METHODS, IntegratorConfig  # noqa: E402

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
CORPUS = ("pair_1d", "triad_2d", "linear_2d_a", "linear_3d_b", "trig_3d")
NON_REGULAR = ("degenerate_vv", "degenerate_const")
TIMES = (0.3, -0.7, 2.0)
VERIFY_FACTOR = 10.0


def corpus(names):
    return [load_scenario(os.path.join(SCENARIOS, f"{name}.json"))
            for name in names]


def leg_scenarios():
    families = [scenario_from_dict(random_linear_scenario(
        np.random.default_rng(s), 6, 4, f"random-6x4-s{s}")) for s in (1, 2)]
    return corpus(CORPUS + NON_REGULAR) + families


def wide_scenarios():
    rng = np.random.default_rng(1)
    return [scenario_from_dict(random_linear_scenario(rng, 6, 4,
                                                      f"wide-{i + 1}"))
            for i in range(2)]


def legs(scn):
    """(key, arrays or error text, steps) of every leg of one scenario."""
    x = scn.guess_point() + 0.1
    for method in METHODS:
        cfg = IntegratorConfig(scn.integrator.rel_tol, scn.integrator.abs_tol,
                               scn.integrator.max_steps, method)
        for j, field in enumerate(scn.fields):
            for t in TIMES:
                key = f"{scn.name}|{method}|{j}|{t!r}"
                try:
                    res = integrate_flow(field, x, t, cfg)
                    end = flow_endpoint(field, x, t, cfg)
                except KcycleError as exc:
                    yield key, f"{type(exc).__name__}: {exc}", 0
                    continue
                est = np.array([res.est_local_error])
                yield key, (res.endpoint, res.sensitivity, end, est), \
                    res.steps_taken


def digest_legs(saved, against):
    total = hashlib.sha256()
    total_steps = total_legs = 0
    for scn in leg_scenarios():
        sha = hashlib.sha256()
        steps_sum = 0
        worst, moved = 0.0, []
        for key, value, steps in legs(scn):
            total_legs += 1
            steps_sum += steps
            if isinstance(value, str):
                chunk = value.encode()
            else:
                chunk = b"".join(a.tobytes() for a in value)
                saved[key] = np.concatenate([a.ravel() for a in value])
                saved[key + "|steps"] = np.array([steps])
            chunk += repr(steps).encode()
            sha.update(chunk)
            total.update(chunk)
            if against is not None and key in saved and key in against:
                worst = max(worst, _relative(saved[key], against[key]))
                if against[key + "|steps"][0] != steps:
                    moved.append(key)
        total_steps += steps_sum
        line = f"legs  {scn.name:18s} {sha.hexdigest()[:16]}  steps {steps_sum}"
        if against is not None:
            line += f"  max rel diff {worst:.2e}  step counts moved " \
                    f"{len(moved)}"
        print(line)
        for key in moved:
            print(f"  steps moved: {key} {int(against[key + '|steps'][0])} "
                  f"-> {int(saved[key + '|steps'][0])}")
    print(f"legs  all {total.hexdigest()}  steps {total_steps} over "
          f"{total_legs} legs")


def _relative(a, b):
    """Largest |a - b| relative to the largest entry; inf on a shape or
    finiteness mismatch."""
    if a.shape != b.shape or not (np.isfinite(a).all()
                                  and np.isfinite(b).all()):
        return np.inf
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def sweeps(label, scenarios, saved, against):
    newton, worst = 0, 0.0
    for scn in scenarios:
        point = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                            scn.stasis_tol)
        result = sweep_delta(scn.fields, point.weights, point.x0,
                             scn.sweep.delta_max, scn.sweep.steps,
                             scn.cycle_tol, scn.integrator)
        iters = sum(rec.cycle.newton_iters for rec in result.records)
        ratio = max(verify_cycle(scn.fields, point.weights, rec.cycle,
                                 scn.integrator).max_mismatch
                    / (VERIFY_FACTOR * scn.cycle_tol)
                    for rec in result.records)
        newton += iters
        worst = max(worst, ratio)
        key = f"sweep|{scn.name}"
        saved[key] = np.array([rec.cycle.points.points
                               for rec in result.records])
        line = (f"sweep {label} {scn.name:12s} records "
                f"{len(result.records)} newton {iters} verify_max "
                f"{ratio:.6g} slope {loglog_slope(result)!r}")
        if against is not None and key in against:
            moved = (np.max(np.abs(saved[key] - against[key]))
                     if saved[key].shape == against[key].shape else np.inf)
            line += f"  max point move {moved:.2e}"
        print(line)
    print(f"sweep {label} total newton {newton} verify_max {worst:.6g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", help="write every leg's arrays here")
    parser.add_argument("--against",
                        help="compare with the arrays another run saved")
    args = parser.parse_args()
    against = None
    if args.against:
        with np.load(args.against) as data:
            against = dict(data)
    saved = {}
    digest_legs(saved, against)
    sweeps("corpus", corpus(CORPUS), saved, against)
    sweeps("wide", wide_scenarios(), saved, against)
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
