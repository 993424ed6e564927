"""Smoke test of scripts/run_corpus.py, the tool that shows a refactor left
every corpus artifact byte-identical: two runs on the same scenarios must
give the expected exit codes and byte-identical output directories."""

import filecmp
import os
import pathlib
import shutil
import subprocess
import sys

from conftest import scenario_path

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "run_corpus.py"

# scenario -> exit codes of stasis, weights, cycle, sweep and verify
# ("-": not run; weights needs a pinned stasis point)
EXPECTED = {"pair_1d": ["0", "-", "0", "0", "0"],
            "triad_2d": ["0", "0", "0", "0", "0"]}


def _run_corpus(scenarios, out):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--scenarios", str(scenarios),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return out


def test_run_corpus_is_byte_identical_across_runs(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for name in EXPECTED:
        shutil.copy(scenario_path(name), scenarios)
    a = _run_corpus(scenarios, tmp_path / "a")
    b = _run_corpus(scenarios, tmp_path / "b")

    header, *rows = (a / "summary.txt").read_text().splitlines()
    assert header.split() == ["scenario", "stasis", "weights", "cycle",
                              "sweep", "verify"]
    assert {name: codes for name, *codes in map(str.split, rows)} == EXPECTED

    names = sorted(os.listdir(a))
    assert sorted(os.listdir(b)) == names
    assert {f"{stem}.{kind}.json" for stem in EXPECTED
            for kind in ("stasis", "verify")} <= set(names)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert match == names
