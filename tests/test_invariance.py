"""Metamorphic checks: symmetries of a K-cycle that no solver code encodes.

Each transformed family is swept through the whole pipeline (stasis
point, branch predictor, Newton, flows) and its points are compared with
the original sweep's, rearranged as the symmetry says:

- cyclic rotation: fields (V_2..V_k, V_1), weights rotated alike, give
  the points (x_2..x_k, x_1);
- time reversal: fields (-V_k..-V_1), weights reversed, give the points
  (x_1, x_k, ..., x_2), since the flow of -V_j over delta*m_j undoes the
  leg from x_j to x_{j+1};
- time rescaling: fields c*V_j at delta/c give the same points.

The transformed fields are built from the original expression trees
here, not by the package. Differences are bounded by the scenario's
cycle_tol. The corpus scenarios are swept at their own tolerances. The
random property covers only a solver tightened tenfold (Newton and
integrator tolerances, as verify tightens its re-integration): a solve
stops once its residual is within tol, so its points are only accurate
to about tol times the cycle Jacobian's condition, and at their own
tolerances two sweeps of one random branch differ by up to a few
cycle_tol.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle import (VectorField, Weights, find_stasis, random_linear_scenario,
                    scenario_from_dict, sweep_delta)
from kcycle.expr import Binary, Const, Unary

from conftest import REGULAR_NAMES

SWEEP_POINTS = 8
RESCALE = 2.5
TIGHTEN = 10.0


def _negated(field):
    return VectorField(field.dimension,
                       [Unary("neg", c) for c in field.components])


def _scaled(field, c):
    return VectorField(field.dimension,
                       [Binary("mul", Const(c), e) for e in field.components])


def _sweep_points(scn, fields, weights, delta_max, tighten):
    """The (records, k, n) points of an 8-point sweep of the family, with
    the scenario's tolerances divided by `tighten`."""
    sp = find_stasis(fields, Weights(tuple(weights)), scn.guess_point(),
                     scn.stasis_tol)
    result = sweep_delta(fields, sp.weights, sp.x0, delta_max, SWEEP_POINTS,
                         scn.cycle_tol / tighten,
                         scn.integrator.tightened(tighten))
    assert len(result.records) == SWEEP_POINTS and not result.branch_lost
    return np.array([rec.cycle.points.points for rec in result.records])


def _check_invariances(scn, tighten):
    fields, w = list(scn.fields), list(scn.weights)
    k, dmax, tol = scn.k, scn.sweep.delta_max, scn.cycle_tol
    base = _sweep_points(scn, fields, w, dmax, tighten)

    rotated = _sweep_points(scn, fields[1:] + fields[:1], w[1:] + w[:1], dmax,
                            tighten)
    assert np.max(np.abs(rotated - np.roll(base, -1, axis=1))) <= tol

    reversed_ = _sweep_points(scn, [_negated(f) for f in fields[::-1]],
                              w[::-1], dmax, tighten)
    order = [0] + list(range(k - 1, 0, -1))
    assert np.max(np.abs(reversed_ - base[:, order])) <= tol

    rescaled = _sweep_points(scn, [_scaled(f, RESCALE) for f in fields], w,
                             dmax / RESCALE, tighten)
    assert np.max(np.abs(rescaled - base)) <= tol


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_corpus_cycles_obey_rotation_reversal_and_rescaling(corpus, name):
    _check_invariances(corpus[name], 1.0)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.integers(2, 4))
def test_random_linear_cycles_obey_rotation_reversal_and_rescaling(seed, n,
                                                                   k):
    _check_invariances(scenario_from_dict(random_linear_scenario(
        np.random.default_rng(seed), n, k, "random")), TIGHTEN)
