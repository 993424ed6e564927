"""scripts/flow_digest.py --against must not pass a run that covers less
than the saved one: every saved leg or sweep the run did not make is
named and counted as moved."""

import os
import pathlib
import subprocess
import sys

import numpy as np

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "flow_digest.py"


def _digest(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
        timeout=300, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def test_against_names_every_saved_key_the_run_did_not_make(tmp_path):
    save = tmp_path / "run.npz"
    first = _digest("--save", str(save))
    assert first.returncode == 0, first.stderr
    with np.load(save) as data:
        saved = dict(data)
    leg = "gone-1d|dopri_adaptive|0|0.3"
    saved[leg] = np.zeros(3)
    saved[leg + "|steps"] = np.array([1])
    saved["sweep|gone-1d"] = np.zeros((32, 2, 1))
    np.savez(tmp_path / "more.npz", **saved)

    again = _digest("--against", str(tmp_path / "more.npz"))
    assert again.returncode == 2, again.stderr
    lines = again.stdout.splitlines()
    assert f"  missing: {leg}" in lines
    assert "  missing: sweep|gone-1d" in lines
    assert lines[-1].endswith(": 2 legs and sweeps moved")
