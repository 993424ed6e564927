"""Scenario-driven command line front end.

Commands: stasis, weights, cycle --delta, sweep, verify. Exit codes:
0 success (regular stasis / solved cycle / verify pass), 2 stasis found
but non-regular, 1 solver failure or failed verification, 64 usage or
scenario/record schema errors. All emitted JSON and CSV is byte-stable:
fixed key order, floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import serialize
from .cycle import (CyclePoints, KCycle, loglog_slope, solve_cycle,
                    sweep_delta, verify_cycle)
from .errors import (InputError, KcycleError, RecordError,
                     SingularJacobianError, SolverError)
from .flow import integrate_flow
from .scenario import (Scenario, finite_number, load_scenario, read_json,
                       scenario_from_dict, scenario_to_dict, whole_number)
from .stasis import (StasisPoint, Weights, check_regularity, find_stasis,
                     find_weights, residual_norm, stasis_residual,
                     weight_hull_dimension)

RECORD_KIND = "kcycle_record"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NON_REGULAR = 2
EXIT_USAGE = 64


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--scenario", metavar="PATH",
                        help="scenario JSON file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for result artifacts (default: .)")
    common.add_argument("--tol", type=float, metavar="F",
                        help="override the command's primary tolerance")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    common.add_argument("--verbose", action="store_true",
                        help="print solver and integrator statistics")
    parser = _Parser(prog="kcycle",
                     description="Stasis points and switching cycles of "
                                 "weighted vector-field systems.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.add_parser("stasis", parents=[common],
                   help="locate a stasis point (or its weights) and "
                        "certify regularity")
    sub.add_parser("weights", parents=[common],
                   help="solve for the probability weighting at a pinned "
                        "point")
    p_cycle = sub.add_parser("cycle", parents=[common],
                             help="solve one cycle at a given total time")
    p_cycle.add_argument("--delta", type=float, metavar="F", required=True,
                         help="total cycle time (> 0)")
    sub.add_parser("sweep", parents=[common],
                   help="continue the cycle branch up the scenario's "
                        "delta ladder")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="re-check a cycle record at tighter "
                                   "integration tolerance")
    p_verify.add_argument("record", metavar="FILE",
                          help="cycle record JSON written by 'cycle'")
    return parser


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _require_scenario(args) -> Scenario:
    if not args.scenario:
        raise _UsageError("--scenario is required for this command")
    if args.tol is not None and not (math.isfinite(args.tol)
                                     and args.tol > 0):
        raise _UsageError("--tol must be a positive finite number")
    return load_scenario(args.scenario)


def _resolve_stasis(scn: Scenario, tol: float):
    """Run the scenario's entry mode; returns (StasisPoint, mode)."""
    if scn.weights is not None:
        point = find_stasis(scn.fields, scn.weights, scn.guess_point(), tol)
        return point, "solve_point"
    return _stasis_at_point(scn, tol), "solve_weights"


def _stasis_at_point(scn: Scenario, tol: float) -> StasisPoint:
    """Weights, residual and regularity at the scenario's pinned point."""
    x0 = scn.stasis_point
    weights = find_weights(scn.fields, x0, tol)
    residual = residual_norm(stasis_residual(scn.fields, weights, x0))
    report = check_regularity(scn.fields, weights, x0)
    return StasisPoint(x0.copy(), weights, residual, report)


def _regularity_dict(report) -> dict:
    return {
        "sigma_min": report.smallest_singular_value,
        "condition_number": report.condition_number,
        "threshold": report.threshold,
        "is_regular": report.is_regular,
    }


def _stasis_dict(scn, point, mode) -> dict:
    return {
        "command": "stasis",
        "scenario": scn.name,
        "mode": mode,
        "x0": [float(v) for v in point.x0],
        "weights": list(point.weights.values),
        "residual_norm": point.residual_norm,
        "regularity": _regularity_dict(point.regularity),
    }


def _print_stasis(point, mode):
    reg = point.regularity
    print(f"mode:            {mode}")
    print("x0:              " + " ".join(f"{v:.12g}" for v in point.x0))
    print("weights:         " + " ".join(f"{v:.12g}"
                                         for v in point.weights))
    print(f"residual norm:   {point.residual_norm:.6e}")
    print(f"sigma_min:       {reg.smallest_singular_value:.6e} "
          f"(threshold {reg.threshold:.3e})")
    print(f"condition:       {reg.condition_number:.6e}")
    print(f"regular:         {'yes' if reg.is_regular else 'NO'}")


def cmd_stasis(args) -> int:
    scn = _require_scenario(args)
    tol = args.tol if args.tol is not None else scn.stasis_tol
    point, mode = _resolve_stasis(scn, tol)
    if args.json:
        sys.stdout.write(serialize.dumps(_stasis_dict(scn, point, mode)))
    else:
        _print_stasis(point, mode)
    return EXIT_OK if point.regularity.is_regular else EXIT_NON_REGULAR


def cmd_weights(args) -> int:
    scn = _require_scenario(args)
    if scn.stasis_point is None:
        raise _UsageError(
            "the 'weights' command needs 'stasis_point' in the scenario")
    tol = args.tol if args.tol is not None else scn.stasis_tol
    point = _stasis_at_point(scn, tol)
    hull_dim = weight_hull_dimension(scn.fields, point.x0)
    regular = point.regularity.is_regular
    if args.json:
        payload = {
            "command": "weights",
            "scenario": scn.name,
            "x0": [float(v) for v in point.x0],
            "weights": list(point.weights.values),
            "residual_norm": point.residual_norm,
            "weight_hull_dimension": hull_dim,
            "regularity": _regularity_dict(point.regularity),
        }
        sys.stdout.write(serialize.dumps(payload))
    else:
        print("weights:         " + " ".join(f"{v:.12g}"
                                             for v in point.weights))
        print(f"residual norm:   {point.residual_norm:.6e}")
        print(f"hull dimension:  {hull_dim}")
        print(f"regular:         {'yes' if regular else 'NO'}")
    return EXIT_OK if regular else EXIT_NON_REGULAR


def _require_regular(point: StasisPoint):
    if not point.regularity.is_regular:
        reg = point.regularity
        raise SingularJacobianError(
            "stasis point is not regular (sigma_min "
            f"{reg.smallest_singular_value:.3e} <= threshold "
            f"{reg.threshold:.3e}); cycle continuation needs a regular "
            "weighted Jacobian", sigma_min=reg.smallest_singular_value)


def _write_artifact(out_dir: str, name: str, text: str) -> str:
    """Write text to out_dir/name, creating out_dir; returns the path.

    An --out that names a file, lies under one or cannot be written is a
    usage error.
    """
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path} (--out {out_dir}): "
                          f"{exc.strerror or exc}") from exc
    return path


def _cycle_record(scn: Scenario, point: StasisPoint, cycle: KCycle) -> dict:
    return {
        "schema_version": 1,
        "kind": RECORD_KIND,
        "scenario": scenario_to_dict(scn),
        "weights": list(point.weights.values),
        "stasis_point": [float(v) for v in point.x0],
        "delta": cycle.delta,
        "leg_times": [float(t) for t in cycle.leg_times],
        "points": [[float(v) for v in p] for p in cycle.points],
        "closure_residual": cycle.closure_residual,
        "newton_iters": cycle.newton_iters,
        "cycle_tol": scn.cycle_tol,
    }


def cmd_cycle(args) -> int:
    if args.delta is None or not (math.isfinite(args.delta)
                                  and args.delta > 0):
        raise _UsageError("--delta must be a positive finite number")
    scn = _require_scenario(args)
    tol = args.tol if args.tol is not None else scn.cycle_tol
    point, _ = _resolve_stasis(scn, scn.stasis_tol)
    _require_regular(point)
    seed = CyclePoints.constant(point.x0, scn.k)
    cycle = solve_cycle(scn.fields, point.weights, seed, args.delta, tol,
                        scn.integrator)
    record = _cycle_record(scn, point, cycle)
    out_path = _write_artifact(args.out, f"{_slug(scn.name)}_cycle.json",
                               serialize.dumps(record))
    if args.json:
        sys.stdout.write(serialize.dumps(record))
    else:
        print(f"delta:            {cycle.delta:.12g}")
        print("leg times:        " + " ".join(f"{t:.12g}"
                                              for t in cycle.leg_times))
        for j, p in enumerate(cycle.points, start=1):
            print(f"x_{j}:              " + " ".join(f"{v:.12g}" for v in p))
        print(f"closure residual: {cycle.closure_residual:.6e}")
        print(f"newton iters:     {cycle.newton_iters}")
        print(f"record:           {out_path}")
    if args.verbose:
        _print_leg_stats(scn, cycle)
    return EXIT_OK


def _print_leg_stats(scn, cycle):
    print("leg integrations (steps, est local error):", file=sys.stderr)
    for j, (f, p, t) in enumerate(zip(scn.fields, cycle.points,
                                      cycle.leg_times), start=1):
        res = integrate_flow(f, p, t, scn.integrator)
        print(f"  leg {j}: {res.steps_taken} steps, "
              f"est {res.est_local_error:.3e}", file=sys.stderr)


def cmd_sweep(args) -> int:
    scn = _require_scenario(args)
    if scn.sweep is None:
        raise _UsageError("scenario has no 'sweep' block")
    tol = args.tol if args.tol is not None else scn.cycle_tol
    point, _ = _resolve_stasis(scn, scn.stasis_tol)
    _require_regular(point)
    result = sweep_delta(scn.fields, point.weights, point.x0,
                         scn.sweep.delta_max, scn.sweep.steps, tol,
                         scn.integrator)
    slope = loglog_slope(result)

    n, k = scn.dimension, scn.k
    header = ["delta"]
    header += [f"x_{j}_{i}" for j in range(1, k + 1) for i in range(1, n + 1)]
    header += ["max_distance_to_x0", "closure_residual", "newton_iters"]
    rows = []
    for rec in result.records:
        row = [rec.delta]
        for p in rec.cycle.points:
            row.extend(float(v) for v in p)
        row += [rec.max_distance_to_x0, rec.cycle.closure_residual,
                rec.cycle.newton_iters]
        rows.append(row)

    base = _slug(scn.name)
    csv_path = _write_artifact(args.out, f"{base}_sweep.csv",
                               serialize.csv_lines(header, rows))
    summary = {
        "schema_version": 1,
        "kind": "sweep_summary",
        "scenario": scn.name,
        "delta_max": scn.sweep.delta_max,
        "steps": scn.sweep.steps,
        "recorded": len(result.records),
        "largest_delta": result.largest_delta,
        "branch_lost": result.branch_lost,
        "failure_reason": result.failure_reason,
        "loglog_slope": slope,
        "x0": [float(v) for v in point.x0],
        "weights": list(point.weights.values),
    }
    json_path = _write_artifact(args.out, f"{base}_sweep.json",
                                serialize.dumps(summary))
    if args.json:
        sys.stdout.write(serialize.dumps(summary))
    else:
        print(f"recorded:      {len(result.records)} deltas "
              f"(largest {result.largest_delta:.12g})")
        print(f"loglog slope:  "
              f"{'not computed' if slope is None else f'{slope:.6g}'}")
        if result.branch_lost:
            print(f"branch lost:   {result.failure_reason}")
        print(f"csv:           {csv_path}")
        print(f"summary:       {json_path}")
    if args.verbose and result.records:
        last = result.records[-1].cycle
        _print_leg_stats(scn, last)
    return EXIT_OK


def _load_record(path) -> dict:
    data = read_json(path, RecordError, "record")
    if not isinstance(data, dict) or data.get("kind") != RECORD_KIND:
        raise RecordError(f"{path}: not a cycle record (kind != "
                          f"'{RECORD_KIND}')")
    for key in ("scenario", "weights", "delta", "leg_times", "points",
                "cycle_tol"):
        if key not in data:
            raise RecordError(f"{path}: record is missing '{key}'")
    return data


def cmd_verify(args) -> int:
    data = _load_record(args.record)
    scn = scenario_from_dict(data["scenario"], origin=args.record)
    try:
        weights = Weights(tuple(finite_number(v, "weight")
                                for v in data["weights"]))
        delta = finite_number(data["delta"], "delta")
        leg_times = [finite_number(t, "leg time") for t in data["leg_times"]]
        pts = CyclePoints(tuple(np.array([finite_number(v, "point entry")
                                          for v in p])
                                for p in data["points"]))
        cycle_tol = finite_number(data["cycle_tol"], "cycle_tol")
        closure = finite_number(data.get("closure_residual", 0.0),
                                "closure_residual")
        newton_iters = whole_number(data.get("newton_iters", 0),
                                    "newton_iters", 0)
    except (TypeError, ValueError, KcycleError) as exc:
        raise RecordError(f"{args.record}: bad record contents: {exc}") from exc
    if len(leg_times) != len(weights) or len(pts) != len(weights) \
            or len(weights) != scn.k or pts[0].shape != (scn.dimension,):
        raise RecordError(f"{args.record}: record sizes do not match its "
                          "scenario")
    if delta <= 0 or cycle_tol <= 0:
        raise RecordError(f"{args.record}: delta and cycle_tol must be "
                          "positive")
    # leg_times must be exactly delta*m_j as computed; an edited delta
    # cannot reproduce them
    for j, (t, m) in enumerate(zip(leg_times, weights), start=1):
        if t != delta * m:
            raise RecordError(
                f"{args.record}: leg_times[{j}] = {t!r} != delta*m_{j} = "
                f"{delta * m!r}; record is inconsistent")
    cycle = KCycle(pts, delta, tuple(leg_times), closure, newton_iters)
    check = verify_cycle(scn.fields, weights, cycle, scn.integrator)
    budget = 10.0 * cycle_tol
    passed = check.max_mismatch <= budget
    if args.json:
        payload = {
            "command": "verify",
            "record": str(args.record),
            "scenario": scn.name,
            "delta": delta,
            "leg_mismatches": list(check.leg_mismatches),
            "closure": check.closure,
            "budget": budget,
            "pass": passed,
        }
        sys.stdout.write(serialize.dumps(payload))
    else:
        for j, mism in enumerate(check.leg_mismatches, start=1):
            tag = "closure" if j == len(check.leg_mismatches) else f"leg {j}"
            print(f"{tag:9s} mismatch: {mism:.6e}")
        print(f"budget:             {budget:.6e}")
        print(f"verify:             {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAILURE


_COMMANDS = {
    "stasis": cmd_stasis,
    "weights": cmd_weights,
    "cycle": cmd_cycle,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("a command is required "
                              f"(one of {', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"kcycle: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"kcycle: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
