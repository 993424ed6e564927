"""In-process worker of the kcycle benchmark, started by bench/run.py.

    worker.py setup INPUTS
        Get ready to solve, then exit: import kcycle, parse the scenarios
        in INPUTS and make the first eval_field and jacobian_field call on
        every field (which builds and compiles the symbolic Jacobian).
        run.py times this whole process as setup_s.
    worker.py sweep INPUTS --seconds S --result FILE [--spans FILE]
        Sweep every scenario (find_stasis, then sweep_delta, as
        ``kcycle sweep`` does) in passes for S seconds after one untimed
        warm-up pass, timing each ladder-point solve, then check the
        outputs. With --spans, traced passes alternate with untraced ones
        and the layer probes run at the end.
    worker.py probe INPUTS --result FILE
        Only the layer probes.

INPUTS is a JSON file {"scenarios": [scenario dicts]} written by run.py;
the worker never sees the workload seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SWEEP_POINTS = 32
SLOPE_TOL = 0.05
VERIFY_FACTOR = 10.0  # verify passes within this multiple of cycle_tol
PROBE_BATCH_S = 0.02
PROBE_BATCHES = 7
REF_EVERY_S = 0.03  # machine-speed sampling interval within a pass


def ready(inputs_path):
    """Everything setup_s covers; returns (kcycle, dicts, scenarios)."""
    import kcycle

    with open(inputs_path, encoding="utf-8") as fh:
        dicts = json.load(fh)["scenarios"]
    scenarios = [kcycle.scenario_from_dict(d, origin=d["name"])
                 for d in dicts]
    for scn in scenarios:
        x = scn.guess_point()
        for field in scn.fields:
            kcycle.eval_field(field, x)
            kcycle.jacobian_field(field, x)
    return kcycle, dicts, scenarios


def sweep_pass(kc, scenarios, calls, tracer=None, pass_no=0):
    """One pass over the scenarios; returns (wall, outputs)."""
    find_stasis, sweep_delta = calls
    outputs = []
    start = perf_counter()
    for scn in scenarios:
        if tracer is not None:
            tracer.job = (pass_no, scn.name)
        try:
            point = find_stasis(scn.fields, scn.weights, scn.guess_point(),
                                scn.stasis_tol)
            result = sweep_delta(scn.fields, point.weights, point.x0,
                                 scn.sweep.delta_max, scn.sweep.steps,
                                 scn.cycle_tol, scn.integrator)
            outputs.append((point, result))
        except kc.KcycleError as exc:
            outputs.append(exc)
    return perf_counter() - start, outputs


class Sampler:
    """Times each solve_cycle call of one pass and samples machine speed.

    After a call, once REF_EVERY_S have passed since the last reference
    chunk, one more chunk runs (see speed.py); one also runs before and
    one after the pass. solves holds (start, end) of each call and chunks
    (start, seconds) of each chunk; chunk_time is what the chunks added to
    the pass.
    """

    def __init__(self):
        self.solves = []
        self.chunks = []
        self.chunk_time = 0.0
        self.reference()

    def reference(self):
        """Run one chunk; returns the wall time it took."""
        start = perf_counter()
        self.chunks.append((start, speed.chunk()))
        self._last = perf_counter()
        return self._last - start

    def wrap(self, fn):
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.solves.append((start, end))
                if end - self._last >= REF_EVERY_S:
                    self.chunk_time += self.reference()
        return wrapped


def fingerprint(output):
    """Bytes that two identical sweeps share and differing ones do not."""
    if isinstance(output, Exception):
        return repr(output).encode()
    point, result = output
    parts = [point.x0.tobytes(), repr(result.branch_lost).encode()]
    for rec in result.records:
        parts.append(repr(rec.delta).encode())
        parts.extend(p.tobytes() for p in rec.cycle.points)
    return b"|".join(parts)


def check(kc, scn, output):
    """Problems with one scenario's sweep, and its verify ratio."""
    if isinstance(output, Exception):
        return [f"{type(output).__name__}: {output}"], None
    point, result = output
    problems = []
    if not point.regularity.is_regular:
        problems.append("stasis point is not regular")
    if len(result.records) != SWEEP_POINTS:
        problems.append(f"{len(result.records)} of {SWEEP_POINTS} points "
                        "recorded")
    if result.branch_lost:
        problems.append(f"branch lost: {result.failure_reason}")
    slope = kc.loglog_slope(result)
    if slope is None or not abs(slope - 1.0) <= SLOPE_TOL:
        problems.append(f"loglog slope {slope} not within {SLOPE_TOL} of 1")
    if not result.records:
        return problems, None
    last = result.records[-1].cycle
    verdict = kc.verify_cycle(scn.fields, point.weights, last, scn.integrator)
    ratio = verdict.max_mismatch / (VERIFY_FACTOR * scn.cycle_tol)
    if not ratio <= 1.0:
        problems.append(f"verify mismatch {verdict.max_mismatch:.3e} over "
                        f"{VERIFY_FACTOR:g}*cycle_tol")
    return problems, ratio


def run_sweeps(kc, scenarios, seconds, tracer):
    """Untimed warm-up pass, then passes until `seconds` have elapsed.

    A job is one ladder-point solve: untraced passes time every call of
    kcycle.cycle.solve_cycle (two clock reads around a call of 5 to 50
    milliseconds) and sample machine speed between calls; nothing else is
    wrapped. With a tracer, each untraced pass is followed by a traced
    one, so drift in machine speed affects both kinds alike.
    """
    import tracing

    plain_calls = (kc.find_stasis, kc.sweep_delta)
    reference = [fingerprint(o) for o in
                 sweep_pass(kc, scenarios, plain_calls)[1]]
    solve = kc.cycle.solve_cycle
    plain, traced, samplers = [], [], []
    deadline = perf_counter() + seconds
    while True:
        sampler = Sampler()
        kc.cycle.solve_cycle = sampler.wrap(solve)
        try:
            wall, outputs = sweep_pass(kc, scenarios, plain_calls)
        finally:
            kc.cycle.solve_cycle = solve
        plain.append((wall - sampler.chunk_time, outputs))
        sampler.reference()
        samplers.append(sampler)
        if tracer is not None:
            calls = (tracer.span("stasis.find_stasis", kc.find_stasis),
                     tracer.span("cycle.sweep_delta", kc.sweep_delta))
            tracer.install(tracing.CORE_TARGETS)
            try:
                traced.append(sweep_pass(kc, scenarios, calls, tracer,
                                         len(traced)))
            finally:
                tracer.uninstall()
        if perf_counter() >= deadline:
            break

    last = plain[-1][1]
    verdicts = [check(kc, scn, out) for scn, out in zip(scenarios, last)]
    problems, attempted, failed = [], 0, 0
    for _, outputs in plain + traced:
        for scn, out, ref, (bad, _) in zip(scenarios, outputs, reference,
                                           verdicts):
            attempted += 1
            if bad:
                failed += 1
            elif fingerprint(out) != ref:
                failed += 1
                problems.append(f"{scn.name}: sweep differs between passes")
    for scn, (bad, _) in zip(scenarios, verdicts):
        problems.extend(f"{scn.name}: {p}" for p in bad)
    ratios = [r for _, r in verdicts if r is not None]
    return {
        "passes": [w for w, _ in plain],
        "jobs": [sampler.solves for sampler in samplers],
        "chunks": [sampler.chunks for sampler in samplers],
        "traced_passes": [w for w, _ in traced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "verify_ratio_max": max(ratios) if ratios else None,
    }


def per_call(fn):
    """Median seconds per call of fn, over batches of at least 20 ms."""
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= PROBE_BATCH_S:
            break
        n *= 2
    batches = []
    for _ in range(PROBE_BATCHES):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        batches.append((perf_counter() - t0) / n)
    return median(batches)


def _compile_s(kc, scenarios):
    """Seconds per field of the first eval_field + jacobian_field call."""
    fresh = [(kc.parse_field(src, scn.dimension), scn.guess_point())
             for scn in scenarios for src in scn.field_sources]
    t0 = perf_counter()
    for field, x in fresh:
        kc.eval_field(field, x)
        kc.jacobian_field(field, x)
    return (perf_counter() - t0) / len(fresh)


def _cycle_jacobian(kc, scn, delta):
    point = kc.find_stasis(scn.fields, scn.weights, scn.guess_point(),
                           scn.stasis_tol)
    seed = kc.CyclePoints.constant(point.x0, scn.k)
    return kc.cycle_jacobian(scn.fields, point.weights, seed, delta,
                             scn.integrator)


def probes(kc, dicts, scenarios):
    """Warm single-layer timings on fixed inputs.

    The trig-3d field and the two cycle Jacobians are the same on every
    workload (the 24x24 one comes from a fixed generator seed), so these
    numbers compare across workloads; scenario.load_ms and expr.compile_ms
    use the workload's own scenarios. Returns (metrics, missing).
    """
    import numpy as np

    trig = kc.load_scenario(SCENARIOS / "trig_3d.json")
    field, x = trig.fields[0], trig.guess_point()
    wide = kc.scenario_from_dict(kc.random_linear_scenario(
        np.random.default_rng(0), 6, 4, "probe-24"))
    jobs = {
        "scenario.load_ms": (1e3 / len(dicts), lambda: per_call(
            lambda: [kc.scenario_from_dict(d) for d in dicts])),
        "expr.compile_ms": (1e3, lambda: median(
            _compile_s(kc, scenarios) for _ in range(5))),
        "expr.eval_us": (1e6, lambda: per_call(
            lambda: kc.eval_field(field, x))),
        "expr.jac_us": (1e6, lambda: per_call(
            lambda: kc.jacobian_field(field, x))),
        "flow.integrate_ms": (1e3, lambda: per_call(
            lambda: kc.integrate_flow(field, x, 0.3))),
        "flow.endpoint_ms": (1e3, lambda: per_call(
            lambda: kc.flow_endpoint(field, x, 0.3))),
    }
    for name, scn in (("linalg.svd9_us", trig), ("linalg.svd24_us", wide)):
        jobs[name] = (1e6, lambda scn=scn: per_call(
            lambda jac=_cycle_jacobian(kc, scn, 0.1):
            kc.linalg.singular_values(jac)))
    metrics, missing = {}, {}
    for name, (scale, measure) in jobs.items():
        try:
            metrics[name] = measure() * scale
        except (AttributeError, TypeError) as exc:
            missing[name] = f"{type(exc).__name__}: {exc}"
    return metrics, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "sweep", "probe"))
    parser.add_argument("inputs")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    kc, dicts, scenarios = ready(args.inputs)
    if args.mode == "setup":
        return 0
    out = {}
    tracer = None
    if args.mode == "sweep":
        if args.spans:
            import tracing
            tracer = tracing.Tracer()
        out = run_sweeps(kc, scenarios, args.seconds, tracer)
    if args.mode == "probe" or tracer is not None:
        out["probes"], out["probes_missing"] = probes(kc, dicts, scenarios)
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
