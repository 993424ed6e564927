"""The names the benchmark's tracer wraps still exist in the package.

`bench/tracing.py` replaces module globals of kcycle with counting
wrappers; a wrapped name the package no longer has is skipped there, and
the metrics that need it go missing from the benchmark's report. These
tests read that file (without importing it as a module, so nothing is
written next to it) and fail instead when a change to the package drops
or unbinds a traced name.
"""

import importlib
import pathlib
import types

import pytest

import kcycle.cycle
from kcycle import find_stasis

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "bench"
           / "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_exists_and_is_callable(tracing):
    targets = set(tracing.CORE_TARGETS) | set(tracing.CLI_TARGETS)
    assert targets
    for module_name, attr, name, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} (traced as {name}) is gone"


def test_traced_sweep_calls_solve_cycle_once_per_ladder_point(tracing,
                                                               corpus):
    scn = corpus["pair_1d"]
    sp = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                     scn.stasis_tol)
    tracer = tracing.Tracer()
    tracer.install(tracing.CORE_TARGETS)
    try:
        result = kcycle.cycle.sweep_delta(
            scn.fields, sp.weights, sp.x0, scn.sweep.delta_max, 4,
            scn.cycle_tol, scn.integrator)
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    solves = [span for span in tracer.spans if span[0] == "cycle.solve_cycle"]
    assert len(result.records) == 4
    assert len(solves) == 4
