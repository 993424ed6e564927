#!/usr/bin/env python3
"""Fingerprint the leg integrator's results and the sweeps built on them.

Usage: python scripts/flow_digest.py [--save FILE.npz] [--against FILE.npz]

Legs: integrate_flow and flow_endpoint from each scenario's guess point
+ 0.1, on every field of every corpus scenario and of the n = 6, k = 4
families random_linear_scenario(default_rng(s), 6, 4) for s = 1, 2, over
t = 0.3, -0.7 and 2.0: 75 one-leg calls. Families: integrate_flow and
flow_endpoint on all the fields of each corpus scenario at once, every
leg from the scenario's stasis point, over the leg times delta*m_j for
delta = 0.2 and 2.0, as a cycle solve's first evaluation makes them,
and the same on two nonlinear families: 18 family calls. A nonlinear
family (n = 3, k = 3 and n = 6, k = 4) is random_nonlinear_scenario at
a fixed seed: the affine family random_linear_scenario draws, with a
product term and a sin(u) - u term added to each component, both
centred on the affine family's stasis point x0, where they vanish to
second order; so x0, the weights and the weighted Jacobian stay the
affine family's, and the family's stage calls evaluate Jacobian entries
that vary with x, which the affine families' do not. One line per
scenario gives a sha256 over the
endpoints, sensitivities and step counts (or the error a call raised)
and its step count; the last line of each kind covers every call of
that kind. The legs and families then run again on the same fields in
reverse order, and every call whose bytes differ from the first run's
is printed: a call's result must not depend on the calls run before it.

Sweeps: find_stasis and sweep_delta, as `kcycle sweep` runs them, on the
five regular corpus scenarios, on the benchmark's seed-1 wide-sweep
families (both drawn from default_rng(1)) and on the two nonlinear
families. Each scenario prints its
Newton iterations, the worst verify mismatch over every record as a
multiple of 10 * cycle_tol and the log-log slope; each sweep, their
totals.

Two runs on different versions of the package differ in these lines
exactly where results moved. --save writes every call's arrays and step
count and every sweep's cycle points to an .npz file; --against reads
such a file from another version and prints, per scenario, the largest
difference of endpoints and sensitivities relative to their largest
entry, the calls whose step count changed, the calls whose bytes moved
(arrays or step count, or a call that ended in an error in one run only)
and the calls the file does not hold (new), each of them by name and
each moved or new call counted as moved; per sweep, the largest move of a cycle
point and the number of ladder points whose bytes moved. Every call and
sweep the file holds but this run did not make is named as missing and
counted as moved, so a run that covers less than the saved one does not
pass for an unmoved one. The byte comparison tells -0.0 from 0.0, which
a difference does not.

A file saved by a version of this script whose calls also held the
largest local-error estimate has one more number per call, so every call
reads as moved against it. The script imports the package of the
checkout it lies in, so make a baseline with this script copied into the
other checkout's scripts/ directory and run from there.

Exit status: 1 if a call depends on the calls run before it; else 2 if
--against found any call or sweep whose bytes moved or that this run did
not make; else 0.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcycle import (KcycleError, find_stasis, flow_endpoint,  # noqa: E402
                    integrate_flow, load_scenario, loglog_slope,
                    random_linear_scenario, random_nonlinear_scenario,
                    scenario_from_dict, sweep_delta, verify_cycle)
from kcycle.scenario import METHOD  # noqa: E402

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
CORPUS = ("pair_1d", "triad_2d", "linear_2d_a", "linear_3d_b", "trig_3d")
NON_REGULAR = ("degenerate_vv", "degenerate_const")
TIMES = (0.3, -0.7, 2.0)
FAMILY_DELTAS = (0.2, 2.0)
# (n, k, seed) of each nonlinear family
NONLINEAR = ((3, 3, 100), (6, 4, 101))
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


def nonlinear_scenarios():
    return [scenario_from_dict(random_nonlinear_scenario(
        np.random.default_rng(seed), n, k, f"nonlinear-{n}x{k}"))
        for n, k, seed in NONLINEAR]


def legs(scn):
    """(key, field, x, t, cfg) of every leg of one scenario; the key names
    the method, as the keys saved by earlier versions do."""
    x = scn.guess_point() + 0.1
    for j, field in enumerate(scn.fields):
        for t in TIMES:
            yield (f"{scn.name}|{METHOD}|{j}|{t!r}", field, x, t,
                   scn.integrator)


def families(scn):
    """(key, fields, points, times, cfg) of every family of one scenario:
    all its fields, each leg from the stasis point over delta*m_j."""
    point = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                        scn.stasis_tol)
    x = np.array([point.x0] * scn.k)
    for delta in FAMILY_DELTAS:
        yield (f"{scn.name}|family|{delta!r}", scn.fields, x,
               [delta * m for m in point.weights], scn.integrator)


def run_leg(field, x, t, cfg):
    """(arrays or error text, steps) of one call, a leg or a family:
    integrate_flow, then flow_endpoint."""
    try:
        res = integrate_flow(field, x, t, cfg)
        end = flow_endpoint(field, x, t, cfg)
    except KcycleError as exc:
        return f"{type(exc).__name__}: {exc}", 0
    return (res.endpoint, res.sensitivity, end), res.steps_taken


def leg_bytes(value, steps):
    """The bytes of one leg's result that the digests cover."""
    if isinstance(value, str):
        chunk = value.encode()
    else:
        chunk = b"".join(a.tobytes() for a in value)
    return chunk + repr(steps).encode()


def digest_legs(kind, calls, scenarios, saved, against):
    """Print the lines of one kind of call, `calls(scn)` on each scenario;
    returns ({key: (call, bytes)} in run order, the number of calls whose
    bytes differ from `against`'s)."""
    total = hashlib.sha256()
    total_steps = moved_legs = 0
    ran = {}
    for scn in scenarios:
        sha = hashlib.sha256()
        steps_sum = 0
        worst, moved, changed, fresh = 0.0, [], [], []
        for key, *leg in calls(scn):
            value, steps = run_leg(*leg)
            steps_sum += steps
            if not isinstance(value, str):
                saved[key] = np.concatenate([a.ravel() for a in value])
                saved[key + "|steps"] = np.array([steps])
            chunk = leg_bytes(value, steps)
            ran[key] = (leg, chunk)
            sha.update(chunk)
            total.update(chunk)
            if against is None:
                continue
            if key in saved and key in against:
                worst = max(worst, _relative(saved[key], against[key]))
                if against[key + "|steps"][0] != steps:
                    moved.append(key)
            if key + "|steps" not in against and key not in against:
                fresh.append(key)
            elif not all(_same_bytes(saved.get(k), against.get(k))
                         for k in (key, key + "|steps")):
                changed.append(key)
        total_steps += steps_sum
        moved_legs += len(changed) + len(fresh)
        line = f"{kind:9s} {scn.name:18s} {sha.hexdigest()[:16]}  steps " \
            f"{steps_sum}"
        if against is not None:
            line += f"  max rel diff {worst:.2e}  step counts moved " \
                    f"{len(moved)}  bytes moved {len(changed)}"
            if fresh:
                line += f"  new {len(fresh)}"
        print(line)
        for key in moved:
            print(f"  steps moved: {key} {int(against[key + '|steps'][0])} "
                  f"-> {int(saved[key + '|steps'][0])}")
        for key in changed:
            print(f"  bytes moved: {key}")
        for key in fresh:
            print(f"  new: {key}")
    print(f"{kind:9s} all {total.hexdigest()}  steps {total_steps} over "
          f"{len(ran)} {kind}")
    return ran, moved_legs


def reversed_legs(ran):
    """Run every call again, last first, on the same fields, and print the
    calls whose bytes differ from the first run's; returns their number."""
    differ = [key for key, (leg, chunk) in reversed(ran.items())
              if leg_bytes(*run_leg(*leg)) != chunk]
    print(f"legs and families reversed order: {len(differ)} of {len(ran)} "
          "calls differ")
    for key in differ:
        print(f"  order moved: {key}")
    return len(differ)


def _same_bytes(a, b):
    """Whether two saved arrays (None if absent) hold the same bytes."""
    if a is None or b is None:
        return a is b
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _relative(a, b):
    """Largest |a - b| relative to the largest entry; inf on a shape or
    finiteness mismatch."""
    if a.shape != b.shape or not (np.isfinite(a).all()
                                  and np.isfinite(b).all()):
        return np.inf
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def sweeps(label, scenarios, saved, against):
    """Print the sweep lines; returns the number of sweeps whose points'
    bytes differ from `against`'s."""
    newton, worst, moved_sweeps = 0, 0.0, 0
    for scn in scenarios:
        point = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                            scn.stasis_tol)
        result = sweep_delta(scn.fields, point.weights, point.x0,
                             scn.sweep.delta_max, scn.sweep.steps,
                             scn.cycle_tol, scn.integrator)
        iters = int(result.newton_iters.sum())
        budget = VERIFY_FACTOR * scn.cycle_tol
        ratio = max(verify_cycle(scn.fields, point.weights, rec.cycle,
                                 scn.integrator).max_mismatch / budget
                    for rec in result.records)
        newton += iters
        worst = max(worst, ratio)
        key = f"sweep|{scn.name}"
        saved[key] = result.points
        line = (f"sweep {label} {scn.name:12s} records "
                f"{len(result.deltas)} newton {iters} verify_max "
                f"{ratio:.6g} slope "
                f"{loglog_slope(result)!r}")
        if against is not None:
            new, old = saved[key], against.get(key)
            same_shape = old is not None and new.shape == old.shape
            moved = np.max(np.abs(new - old)) if same_shape else np.inf
            points = (sum(a.tobytes() != b.tobytes()
                          for a, b in zip(new, old))
                      if same_shape else len(new))
            line += (f"  max point move {moved:.2e}  ladder points moved "
                     f"{points}")
            moved_sweeps += points > 0
        print(line)
    print(f"sweep {label} total newton {newton} verify_max {worst:.6g}")
    return moved_sweeps


def missing(made, against):
    """Print the leg and sweep keys of `against` that are not in `made`,
    the keys of this run; returns their number."""
    gone = sorted({key.removesuffix("|steps") for key in against} - made)
    for key in gone:
        print(f"  missing: {key}")
    return len(gone)


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
    ran, moved = digest_legs("legs", legs, leg_scenarios(), saved, against)
    family_ran, family_moved = digest_legs(
        "families", families,
        corpus(CORPUS + NON_REGULAR) + nonlinear_scenarios(), saved, against)
    ran.update(family_ran)
    moved += family_moved
    differ = reversed_legs(ran)
    moved += sweeps("corpus", corpus(CORPUS), saved, against)
    moved += sweeps("wide", wide_scenarios(), saved, against)
    moved += sweeps("nonlinear", nonlinear_scenarios(), saved, against)
    if args.save:
        np.savez(args.save, **saved)
    if against is not None:
        moved += missing(set(ran) | set(saved), against)
        print(f"against {args.against}: {moved} legs and sweeps moved")
    return 1 if differ else 2 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
