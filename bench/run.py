#!/usr/bin/env python3
"""kcycle benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kcycle is imported from its src/
directory. --trace 0 measures the end-to-end metrics with nothing
wrapped. --trace 1 is a separate run that wraps kcycle's public functions
(see tracing.py) and reports the per-layer metrics. Every output is
checked. Lines before the last print each metric by name with its unit,
the seed and the environment; the last line is one JSON object with the
keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json. bench/BASELINE.md describes the workloads, the layer
map and the baseline.

Load is closed loop: one job at a time, from this driver, in at most one
worker process. BLAS runs single-threaded, and the driver and all its
children share one CPU. End-to-end times are scaled to nominal machine
speed by references measured next to each sample (see speed.py); the
report lines give the raw medians too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("corpus-sweep", "wide-sweep", "cli-batch")
SWEPT = ("pair_1d", "triad_2d", "linear_2d_a", "linear_3d_b", "trig_3d")
NON_REGULAR = ("degenerate_const", "degenerate_vv")
WIDE_N, WIDE_K, WIDE_SCENARIOS = 6, 4, 2
CYCLE_DELTA = "0.2"
COMMANDS = ("stasis", "cycle", "verify", "weights")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPS = 9   # fresh interpreters timed for setup_s, after one warm-up
PROBE_REPS = 5   # interpreters timed for cli.interp_s and cli.import_s
COMMAND_PROBE_REPS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    start: float
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Job:
    command: str
    stem: str
    argv: list
    expect: int


class Runner:
    """Starts one child process at a time inside the run directory."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self._seq = 0

    def child(self, argv) -> Child:
        """Run the interpreter on argv; wall time covers spawn to exit."""
        self._seq += 1
        out = self.run_dir / f"child-{self._seq}.out"
        err = self.run_dir / f"child-{self._seq}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             self.env, file_actions=actions)
        try:
            fd = os.pidfd_open(pid)
            try:
                done, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(fd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        if not done:
            raise BenchError(f"timed out after {CHILD_TIMEOUT_S:g} s: "
                             f"{' '.join(argv)}")
        child = Child(start, wall, os.waitstatus_to_exitcode(status),
                      usage.ru_maxrss / 1024.0, out.read_bytes(),
                      err.read_bytes())
        out.unlink()
        err.unlink()
        return child

    def reference(self):
        """(start, wall time) of a bare interpreter, the process speed
        reference."""
        ref = self.child(["-c", "pass"])
        return ref.start, ref.wall

    def worker(self, mode, inputs, seconds=0.0, spans=None):
        """Run worker.py; returns (its result dict, the Child)."""
        result = self.run_dir / f"{mode}-result.json"
        argv = [str(BENCH_DIR / "worker.py"), mode, str(inputs),
                "--seconds", repr(seconds), "--result", str(result)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        child = self.child(argv)
        if child.code != 0:
            raise BenchError(f"worker {mode} exited {child.code}:\n"
                             + child.stderr.decode(errors="replace")[-2000:])
        if mode == "setup":
            return None, child
        return json.loads(result.read_text(encoding="utf-8")), child


# ---------------------------------------------------------------------------
# inputs


def corpus_dict(stem):
    return json.loads((SCENARIOS / f"{stem}.json").read_text(
        encoding="utf-8"))


def scenario_dicts(workload, seed):
    """The workload's scenarios, made from the seed."""
    if workload == "corpus-sweep":
        stems = list(SWEPT)
        random.Random(seed).shuffle(stems)
        return [corpus_dict(stem) for stem in stems]
    if workload == "wide-sweep":
        import numpy as np
        import kcycle

        rng = np.random.default_rng(seed)
        return [kcycle.random_linear_scenario(rng, WIDE_N, WIDE_K,
                                              f"wide-{i + 1}")
                for i in range(WIDE_SCENARIOS)]
    return [corpus_dict(stem) for stem in SWEPT + NON_REGULAR]


def cli_jobs(out_dir, stems, weights_stem, rng=None):
    """stasis and cycle on each stem, weights on one, then verify on the
    records that the cycle jobs of the same pass write."""
    first, verify = [], []
    for stem in stems:
        path = str(SCENARIOS / f"{stem}.json")
        bad = stem in NON_REGULAR
        first.append(Job("stasis", stem,
                         ["stasis", "--scenario", path, "--json"],
                         2 if bad else 0))
        first.append(Job("cycle", stem,
                         ["cycle", "--scenario", path, "--delta", CYCLE_DELTA,
                          "--out", str(out_dir), "--json"],
                         1 if bad else 0))
        if not bad:
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", corpus_dict(stem)["name"])
            record = str(out_dir / f"{slug}_cycle.json")
            verify.append(Job("verify", stem, ["verify", record, "--json"], 0))
    first.append(Job("weights", weights_stem,
                     ["weights", "--scenario",
                      str(SCENARIOS / f"{weights_stem}.json"), "--json"], 0))
    if rng is not None:
        rng.shuffle(first)
        rng.shuffle(verify)
    return first + verify


def check_cli(job, child):
    """Returns (problem or None, verify mismatch / budget or None)."""
    if child.code != job.expect:
        return (f"{job.command} {job.stem}: exit {child.code}, expected "
                f"{job.expect}"), None
    if job.command == "cycle" and job.expect != 0:
        return None, None
    try:
        out = json.loads(child.stdout)
        if job.command == "verify":
            ratio = max(out["leg_mismatches"]) / out["budget"]
            return (None if out["pass"] is True
                    else f"verify {job.stem}: FAIL"), ratio
        if job.command == "cycle":
            ok = out["kind"] == "kcycle_record"
        else:
            ok = out["regularity"]["is_regular"] == (job.expect == 0)
    except (ValueError, KeyError, TypeError) as exc:
        return (f"{job.command} {job.stem}: unexpected output "
                f"({type(exc).__name__}: {exc})"), None
    return (None if ok else f"{job.command} {job.stem}: wrong output"), None


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Jobs attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verify_ratios = []

    def add(self, attempted, failed, problems=()):
        self.attempted += attempted
        self.failed += failed
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)

    def worker(self, result):
        self.add(result["attempted"], result["failed"], result["problems"])
        if result["verify_ratio_max"] is not None:
            self.verify_ratios.append(result["verify_ratio_max"])

    def cli(self, ran):
        for job, child in ran:
            problem, ratio = check_cli(job, child)
            self.add(1, problem is not None, [problem] if problem else [])
            if ratio is not None:
                self.verify_ratios.append(ratio)


def cli_pass(runner, jobs, spans_dir=None, pass_no=0):
    """Run the jobs in order, each followed by a reference interpreter.

    Returns (pass wall without the references, [(job, Child)],
    [(start, wall time)] of the references).
    """
    ran, refs = [], []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if spans_dir is None:
            argv = ["-m", "kcycle", *job.argv]
        else:
            spans = spans_dir / f"p{pass_no}-j{i}.json"
            argv = [str(BENCH_DIR / "launch.py"), str(spans), str(pass_no),
                    f"{job.command}:{job.stem}", "--", *job.argv]
        ran.append((job, runner.child(argv)))
        refs.append(runner.reference())
    return perf_counter() - start - sum(w for _, w in refs), ran, refs


def command_medians(ran):
    by_command = defaultdict(list)
    for job, child in ran:
        by_command[job.command].append(child.wall)
    return {f"cli.{c}_s": median(by_command[c]) for c in COMMANDS
            if by_command[c]}


def e2e_sweep(runner, inputs, seconds, tally):
    """Timed sweep passes: ([(wall, jobs, references)], peak RSS)."""
    result, child = runner.worker("sweep", inputs, seconds)
    tally.worker(result)
    return (list(zip(result["passes"], result["jobs"], result["chunks"])),
            child.rss_mb)


def e2e_cli(runner, jobs, seconds, tally):
    """Timed CLI passes: ([(wall, jobs, references)], peak RSS)."""
    passes, ran = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        wall, this, refs = cli_pass(runner, jobs)
        passes.append((wall, [(c.start, c.start + c.wall) for _, c in this],
                       refs))
        ran += this
    tally.cli(ran)
    return passes, max(c.rss_mb for _, c in ran)


def normalise(passes, nominal):
    """Scale each job by the speed references run near it.

    A pass is (wall time without the references, [(start, end)] of its
    jobs, [(start, seconds)] of its references). Its scaled time is the
    sum of its scaled jobs plus the rest of its wall time, which is scaled
    by the pass's median reference. Returns (pass times, [job times] of
    each pass, median factor of each pass).
    """
    walls, jobs, factors = [], [], []
    for wall, spans, refs in passes:
        fs = speed.local_factors(spans, refs, nominal)
        raw = [end - start for start, end in spans]
        scaled = [t * f for t, f in zip(raw, fs)]
        rest = speed.factor([t for _, t in refs], nominal)
        walls.append(sum(scaled) + (wall - sum(raw)) * rest)
        jobs.append(scaled)
        factors.append(median(fs))
    return walls, jobs, factors


def job_medians(by_pass):
    """Each job's median time over the passes.

    Every pass runs the same jobs in the same order, so a job's passes
    differ only by noise, which the median takes out; what is left is how
    the jobs differ in work.
    """
    if len({len(jobs) for jobs in by_pass}) != 1:
        raise BenchError("the passes ran different numbers of jobs")
    return [median(times) for times in zip(*by_pass)]


def layers_sweep(runner, inputs, seconds, tally, out_dir):
    spans = runner.run_dir / "spans.json"
    result, _ = runner.worker("sweep", inputs, seconds, spans)
    tally.worker(result)
    traced = json.loads(spans.read_text(encoding="utf-8"))
    metrics, unsteady, empty = tracing.layer_metrics(
        traced["records"], result["traced_passes"], median(result["passes"]))
    # the CLI layer is measured on a small fixed batch here
    probe_jobs = cli_jobs(out_dir, ("triad_2d",), "triad_2d")
    ran = []
    for _ in range(COMMAND_PROBE_REPS):
        ran += cli_pass(runner, probe_jobs)[1]
    tally.cli(ran)
    metrics.update(command_medians(ran))
    metrics.update(result["probes"])
    missing = dict(traced["missing"], **result["probes_missing"])
    return metrics, unsteady, empty, missing


def layers_cli(runner, jobs, inputs, seconds, tally):
    spans_dir = runner.run_dir / "spans"
    spans_dir.mkdir()
    plain, traced, ran = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        wall, this, _ = cli_pass(runner, jobs)
        plain.append(wall)
        ran += this
        wall, this, _ = cli_pass(runner, jobs, spans_dir, len(traced))
        traced.append(wall)
        tally.cli(this)
    tally.cli(ran)
    records, missing = [], {}
    for path in sorted(spans_dir.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        records += payload["records"]
        missing.update(payload["missing"])
    metrics, unsteady, empty = tracing.layer_metrics(records, traced,
                                                     median(plain))
    metrics.update(command_medians(ran))
    result, _ = runner.worker("probe", inputs)
    metrics.update(result["probes"])
    missing.update(result["probes_missing"])
    return metrics, unsteady, empty, missing


def measure_e2e(runner, args, inputs, jobs, tally):
    """The end-to-end metrics, with nothing wrapped but the solve timer.

    Times are scaled to nominal machine speed (see speed.py); the notes
    give the raw medians. Returns (values, notes, raw samples).
    """
    runner.worker("setup", inputs)  # fills the bytecode cache
    setups, refs = [], []
    for _ in range(SETUP_REPS):
        child = runner.worker("setup", inputs)[1]
        setups.append((child.start, child.start + child.wall))
        refs.append(runner.reference())
    if args.workload == "cli-batch":
        passes, rss = e2e_cli(runner, jobs, args.seconds, tally)
        unit, nominal = "processes", speed.PROCESS_NOMINAL_S
    else:
        passes, rss = e2e_sweep(runner, inputs, args.seconds, tally)
        unit, nominal = "ladder-point solves", speed.CHUNK_NOMINAL_S
    walls, by_pass, factors = normalise(passes, nominal)
    jobs_s = [t for jobs_of_pass in by_pass for t in jobs_of_pass]
    tail, pct, count = tracing.tail(job_medians(by_pass))
    setup_raw = [end - start for start, end in setups]
    setup_fs = speed.local_factors(setups, refs, speed.PROCESS_NOMINAL_S)
    values = {"setup_s": median(t * f for t, f in zip(setup_raw, setup_fs)),
              "pass_s": median(walls), "job_ms": median(jobs_s) * 1e3,
              "job_tail_ms": tail * 1e3, "peak_rss_mb": rss}
    raw_jobs = [end - start for _, spans, _ in passes
                for start, end in spans]
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{median(setup_raw):.4g} s, median speed factor "
                   f"{median(setup_fs):.3f}",
        "pass_s": f"median of {len(walls)} passes; raw "
                  f"{median(w for w, _, _ in passes):.4g} s, median speed "
                  f"factor {median(factors):.3f}",
        "job_ms": f"median of {len(jobs_s)} {unit}; raw "
                  f"{median(raw_jobs) * 1e3:.4g} ms",
        "job_tail_ms": f"p{pct:.4g} of the medians of {count} {unit} "
                       f"over {len(walls)} passes"}
    samples = {"setup_s": setups, "setup_refs": refs, "passes": passes}
    return values, notes, samples


def measure_layers(runner, args, inputs, jobs, tally, out_dir):
    """The per-layer metrics; returns (values, missing, unsteady)."""
    interp = [runner.child(["-c", "pass"]).wall for _ in range(PROBE_REPS)]
    imports = [runner.child(["-c", "import kcycle"]).wall
               for _ in range(PROBE_REPS)]
    if args.workload == "cli-batch":
        values, unsteady, empty, missing = layers_cli(
            runner, jobs, inputs, args.seconds, tally)
    else:
        values, unsteady, empty, missing = layers_sweep(
            runner, inputs, args.seconds, tally, out_dir)
    values["cli.interp_s"] = median(interp)
    values["cli.import_s"] = median(imports)
    if tally.verify_ratios:
        values["cycle.verify_ratio_max"] = max(tally.verify_ratios)
    for name in empty:
        missing.setdefault(name, "no samples")
    for name in missing:
        values.pop(name, None)
    if unsteady:
        tally.problems.append("counters differ between traced passes: "
                              + ", ".join(unsteady))
    return values, missing, unsteady


# ---------------------------------------------------------------------------
# report


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def report(args, env, values, notes, missing, tally, correct):
    print(f"kcycle benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    metrics = {}
    for name, unit in declared_metrics(args.trace):
        if name in values:
            value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            note = notes.get(name, "")
            print(f"  {name:24s} {value:>14.6g} {unit:6s} {note}".rstrip())
        else:
            print(f"  {name:24s} {'not measured':>14s} {unit:6s} "
                  f"{missing.get(name, 'no samples')}")
    error_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_frac':24s} {error_frac:>14.6g} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} outputs checked")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner.child's kill


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description="Time kcycle end to end, or trace it per layer.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "kcycle" / "__init__.py").is_file() or \
            not SCENARIOS.is_dir():
        print(f"bench: {SRC}/kcycle or {SCENARIOS} not found; run from the "
              "root of a kcycle checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # one CPU for this driver and every child, so a speed reference runs
    # on the CPU that ran the samples it scales
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import kcycle

    if Path(kcycle.__file__).resolve().parent != (SRC / "kcycle").resolve():
        print(f"bench: imported kcycle from {kcycle.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "pinned_cpu": cpu,
           "blas_threads": ",".join(f"{v}={BLAS_THREADS}"
                                    for v in BLAS_VARS)}

    run_dir = RUN_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir)
    out_dir = run_dir / "records"
    inputs = run_dir / "inputs.json"
    inputs.write_text(json.dumps(
        {"scenarios": scenario_dicts(args.workload, args.seed)}),
        encoding="utf-8")
    jobs = cli_jobs(out_dir, SWEPT + NON_REGULAR, "triad_2d",
                    random.Random(args.seed))
    tally = Tally()
    notes, samples, missing, unsteady = {}, {}, {}, []

    try:
        if args.trace == 0:
            values, notes, samples = measure_e2e(runner, args, inputs, jobs,
                                                 tally)
        else:
            values, missing, unsteady = measure_layers(runner, args, inputs,
                                                       jobs, tally, out_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    correct = tally.failed == 0 and not unsteady
    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": values, "notes": notes, "samples": samples,
        "missing": missing,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "correct": correct}, indent=1),
        encoding="utf-8")
    report(args, env, values, notes, missing, tally, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
