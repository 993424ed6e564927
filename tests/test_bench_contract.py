"""The benchmark still runs on the package.

`bench/tracing.py` replaces module globals of kcycle with counting
wrappers; a wrapped name the package no longer has is skipped there, and
the metrics that need it go missing from the benchmark's report. These
tests read that file (without importing it as a module, so nothing is
written next to it) and fail instead when a change to the package drops
or unbinds a traced name. `bench/worker.py` times every solve of its
sweep passes through the module global `kcycle.cycle.solve_cycle`; the
smoke tests run it as the benchmark does, in a child process, so that a
worker that fails or times nothing shows here and not as a benchmark
run without a result. A traced run reports every declared per-layer
metric, or the benchmark prints it as not measured (or NaN) and gives
no result: the traced smoke test checks that each metric it computes
from the worker's output is there and finite.
"""

import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import types
from statistics import median

import numpy as np
import pytest

import kcycle.cycle
from kcycle import find_stasis, random_linear_scenario

from conftest import scenario_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKER = ROOT / "bench" / "worker.py"
SWEEP_POINTS = 32
# per-layer metrics that bench/run.py measures itself, not from the worker
RUN_METRICS = ("cli.", "cycle.verify_ratio_max")


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


def _worker_sweep(tmp_path, *options):
    """Run one untimed sweep pass of the worker in a child process on
    pair-1d and a random 3x3 family, both of which take Newton steps;
    returns (scenarios, the worker's result)."""
    scenarios = [json.loads(scenario_path("pair_1d").read_text("utf-8")),
                 random_linear_scenario(np.random.default_rng(1), 3, 3,
                                        "random-3x3")]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"scenarios": scenarios}), "utf-8")
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(WORKER), "sweep", str(inputs), "--seconds", "0",
         "--result", str(result), *options],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(result.read_text("utf-8"))
    assert out["failed"] == 0 and out["problems"] == []
    return scenarios, out


def test_worker_sweep_times_every_solve_and_checks_out(tmp_path):
    scenarios, out = _worker_sweep(tmp_path)
    assert out["passes"]
    assert [len(solves) for solves in out["jobs"]] == \
        [SWEEP_POINTS * len(scenarios)] * len(out["passes"])
    assert out["verify_ratio_max"] <= 1.0


def test_traced_worker_sweep_measures_every_per_layer_metric(tracing,
                                                              tmp_path):
    spans = tmp_path / "spans.json"
    _, out = _worker_sweep(tmp_path, "--spans", str(spans))
    traced = json.loads(spans.read_text("utf-8"))
    assert traced["missing"] == {}
    assert out["probes_missing"] == {}
    metrics, unsteady, empty = tracing.layer_metrics(
        traced["records"], out["traced_passes"], median(out["passes"]))
    assert unsteady == [] and empty == []
    metrics.update(out["probes"])
    assert [name for name, value in metrics.items()
            if not math.isfinite(value)] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = [m["name"] for m in spec["per_layer"]
                if not m["name"].startswith(RUN_METRICS)]
    assert [name for name in declared if name not in metrics] == []
