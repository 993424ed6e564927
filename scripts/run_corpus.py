#!/usr/bin/env python3
"""Run the full stasis -> cycle -> sweep -> verify pipeline on a scenario
directory and summarize the results.

Usage: python scripts/run_corpus.py [--scenarios DIR] [--out DIR]
                                    [--delta F]

Besides the artifacts the CLI writes itself (the cycle record and the
sweep CSV and JSON), every scenario leaves in --out the `--json` reports
of `stasis`, `weights` (scenarios with a `stasis_point`) and `verify` as
<file stem>.<command>.json, its stderr as <file stem>.stderr.txt when
there is any, and summary.txt holds the exit codes. Two --out
directories made from the same scenario path compare with `diff -r`.
"""

import argparse
import contextlib
import glob
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcycle import InputError  # noqa: E402
from kcycle.cli import _slug, main as cli_main  # noqa: E402
from kcycle.scenario import load_scenario  # noqa: E402


def _run(argv, stderr, json_path=None):
    """cli main on argv: stderr is echoed and kept in `stderr`; stdout goes
    to `json_path` when given and is echoed otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if json_path is None:
        sys.stdout.write(out.getvalue())
    elif out.getvalue():
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    sys.stderr.write(err.getvalue())
    stderr.write(err.getvalue())
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "scenarios"))
    parser.add_argument("--out", default="corpus_results")
    parser.add_argument("--delta", default="0.2",
                        help="total cycle time for the cycle stage")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for path in sorted(glob.glob(os.path.join(args.scenarios, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        stem = os.path.join(args.out, name)
        print(f"=== {name} ===")
        stderr = io.StringIO()
        stasis = _run(["stasis", "--scenario", path, "--json"], stderr,
                      f"{stem}.stasis.json")
        try:
            scn = load_scenario(path)
        except InputError:
            scn = None  # every command below exits 64 on it
        weights = None
        if scn is not None and scn.stasis_point is not None:
            weights = _run(["weights", "--scenario", path, "--json"], stderr,
                           f"{stem}.weights.json")
        cycle = _run(["cycle", "--scenario", path, "--delta", args.delta,
                      "--out", args.out], stderr)
        sweep = _run(["sweep", "--scenario", path, "--out", args.out], stderr)
        verify = None
        if cycle == 0:
            # from inside --out, so the report names the record the same
            # way whatever --out is
            with contextlib.chdir(args.out):
                verify = _run(["verify", f"{_slug(scn.name)}_cycle.json",
                               "--json"], stderr, f"{name}.verify.json")
        if stderr.getvalue():
            with open(f"{stem}.stderr.txt", "w", encoding="utf-8") as fh:
                fh.write(stderr.getvalue())
        rows.append((name, stasis, weights, cycle, sweep, verify))
        print()

    lines = [f"{'scenario':22s} stasis weights cycle sweep verify"]
    for name, *codes in rows:
        s, w, c, sw, v = ("-" if code is None else str(code) for code in codes)
        lines.append(f"{name:22s} {s:>6s} {w:>7s} {c:>5s} {sw:>5s} {v:>6s}")
    summary = "\n".join(lines) + "\n"
    sys.stdout.write(summary)
    with open(os.path.join(args.out, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(summary)


if __name__ == "__main__":
    main()
