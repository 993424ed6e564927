"""Metamorphic checks: symmetries of a K-cycle that no solver code encodes.

Each family is swept through the whole pipeline (stasis point, branch
predictor, Newton, flows) as given, cyclically rotated, time-reversed
and time-rescaled, and the points are compared as each symmetry
rearranges them. The comparison is `disagreement` of
`scripts/invariance_scan.py`, which builds the transformed fields from
the original expression trees, not through the package, and which
measures the same spread over many more families.

The corpus scenarios are swept at their own tolerances, and their
differences are bounded by cycle_tol. Random families, affine
(`random_linear_scenario`) and nonlinear (`random_nonlinear_scenario`,
whose Jacobians vary with x), are swept twice:
at their own tolerances, bounded by 2*cycle_tol, and with the solver
tightened tenfold (Newton and integrator tolerances, as verify tightens
its re-integration), bounded by cycle_tol. A solve accepts a point only
when its Newton correction is within tol, so each sweep is within about
tol of the branch and two of them within twice that.
"""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle import (random_linear_scenario, random_nonlinear_scenario,
                    scenario_from_dict)

from conftest import REGULAR_NAMES

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "scripts"))
from invariance_scan import disagreement  # noqa: E402

TIGHTEN = 10.0


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_corpus_cycles_obey_rotation_reversal_and_rescaling(corpus, name):
    assert disagreement(corpus[name]) <= 1.0


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.integers(2, 4))
def test_random_linear_cycles_obey_rotation_reversal_and_rescaling(seed, n,
                                                                   k):
    scn = scenario_from_dict(random_linear_scenario(
        np.random.default_rng(seed), n, k, "random"))
    assert disagreement(scn, TIGHTEN) <= 1.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.integers(2, 4))
def test_random_linear_cycles_obey_symmetries_at_own_tolerances(seed, n, k):
    scn = scenario_from_dict(random_linear_scenario(
        np.random.default_rng(seed), n, k, "random"))
    assert disagreement(scn) <= 2.0


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.integers(2, 4))
def test_random_nonlinear_cycles_obey_rotation_reversal_and_rescaling(
        seed, n, k):
    scn = scenario_from_dict(random_nonlinear_scenario(
        np.random.default_rng(seed), n, k, "random"))
    assert disagreement(scn, TIGHTEN) <= 1.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.integers(2, 4))
def test_random_nonlinear_cycles_obey_symmetries_at_own_tolerances(seed, n,
                                                                   k):
    scn = scenario_from_dict(random_nonlinear_scenario(
        np.random.default_rng(seed), n, k, "random"))
    assert disagreement(scn) <= 2.0
