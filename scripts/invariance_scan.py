#!/usr/bin/env python3
"""Measure how far symmetric sweeps of one cycle branch disagree.

Usage: python scripts/invariance_scan.py [--families N]

Draws N random regular linear families (random_linear_scenario with
n in 1..4 and k in 2..4, each from its own seed, all drawn from seed 0)
and sweeps each one 8 ladder points up to its delta_max four times: as
given, cyclically rotated, time-reversed and time-rescaled by 2.5, at
the scenario's own tolerances. The symmetries say the four sweeps give
the same points, rearranged; tests/test_invariance.py bounds the same
`disagreement` on the corpus and a few random families.

Prints one line per family whose largest disagreement exceeds cycle_tol
(or whose sweep raised or lost its branch), then the count over
cycle_tol, the worst disagreement as a multiple of cycle_tol and the
family it came from.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcycle import (KcycleError, VectorField, Weights,  # noqa: E402
                    find_stasis, random_linear_scenario, scenario_from_dict,
                    sweep_delta)
from kcycle.expr import Binary, Const  # noqa: E402

SEED = 0
SWEEP_POINTS = 8
RESCALE = 2.5


def _scaled(field, c):
    """The field c*V, built from V's expression trees (c = -1 reverses
    time)."""
    return VectorField(field.dimension,
                       [Binary("mul", Const(c), e) for e in field.components])


def _points(scn, fields, weights, delta_max, tighten):
    """The (points, k, n) array of an 8-point sweep of the family, with
    the scenario's tolerances divided by `tighten`."""
    sp = find_stasis(fields, Weights(tuple(weights)), scn.guess_point(),
                     scn.stasis_tol)
    result = sweep_delta(fields, sp.weights, sp.x0, delta_max, SWEEP_POINTS,
                         scn.cycle_tol / tighten,
                         scn.integrator.tightened(tighten))
    if result.branch_lost or len(result.deltas) != SWEEP_POINTS:
        raise KcycleError(f"branch lost: {result.failure_reason}")
    return result.points


def disagreement(scn, tighten=1.0):
    """Largest coordinate difference between the sweep of `scn` and its
    transformed sweeps, as a multiple of cycle_tol:

    - cyclic rotation: fields (V_2..V_k, V_1), weights rotated alike, give
      the points (x_2..x_k, x_1);
    - time reversal: fields (-V_k..-V_1), weights reversed, give the
      points (x_1, x_k, ..., x_2);
    - time rescaling: fields c*V_j at delta/c give the same points.
    """
    fields, w = list(scn.fields), list(scn.weights)
    k, dmax = scn.k, scn.sweep.delta_max
    base = _points(scn, fields, w, dmax, tighten)
    rotated = _points(scn, fields[1:] + fields[:1], w[1:] + w[:1], dmax,
                      tighten)
    reversed_ = _points(scn, [_scaled(f, -1.0) for f in fields[::-1]],
                        w[::-1], dmax, tighten)
    rescaled = _points(scn, [_scaled(f, RESCALE) for f in fields], w,
                       dmax / RESCALE, tighten)
    order = [0] + list(range(k - 1, 0, -1))
    worst = max(np.max(np.abs(rotated - np.roll(base, -1, axis=1))),
                np.max(np.abs(reversed_ - base[:, order])),
                np.max(np.abs(rescaled - base)))
    return float(worst) / scn.cycle_tol


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--families", type=int, default=200)
    args = parser.parse_args()
    draw = np.random.default_rng(SEED)
    over, failed, worst, worst_at = 0, 0, 0.0, None
    for i in range(args.families):
        seed = int(draw.integers(2**32))
        n, k = int(draw.integers(1, 5)), int(draw.integers(2, 5))
        label = f"family {i} (seed {seed}, n={n}, k={k})"
        scn = scenario_from_dict(random_linear_scenario(
            np.random.default_rng(seed), n, k, "random"))
        try:
            ratio = disagreement(scn)
        except KcycleError as exc:
            failed += 1
            print(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if ratio > 1.0:
            over += 1
            print(f"{label}: {ratio:.3f} cycle_tol")
        if ratio > worst:
            worst, worst_at = ratio, label
    print(f"{over} of {args.families} families over cycle_tol, {failed} "
          f"failed; worst {worst:.3f} cycle_tol at {worst_at}")


if __name__ == "__main__":
    main()
