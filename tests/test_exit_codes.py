"""Exit-code contract as a property: any scenario or cycle record, however
malformed, ends in exit code 0, 1, 2 or 64 and never in a traceback.

Corpus scenarios and cycle records get up to three edits, each at a
node chosen from the whole document: keys dropped, values replaced by
wrong types, NaN and +-Inf, wrong shapes, empty containers and deeply
nested field expressions. Scenarios go through `stasis`, `weights` and
`cycle`, and through `sweep` in a test of their own, whose scenarios ask
for SWEEP_STEPS ladder points before they are edited so that a sweep
stays fast.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcycle.cli import main

from conftest import nested, scenario_path

EXIT_CODES = {0, 1, 2, 64}

# a field nested 3000 levels deep by each construct the parser recurses on
DEEP_FIELDS = ["(" * 3000 + "x1" + ")" * 3000,
               "sin(" * 3000 + "x1" + ")" * 3000,
               "-(" * 3000 + "x1" + ")" * 3000]

# a field whose exponent int() refuses to convert (over 4300 digits)
HUGE_EXPONENT = "x1^" + "9" * 5000 + " + 1 - x1"

BAD_VALUES = [None, True, 0, -1, 1e300, math.nan, math.inf, -math.inf, "",
              "abc", [], {}, [[0.5]], [0.1, 0.2, 0.3],
              {"x": 1}, HUGE_EXPONENT, nested([0.5], 32)] + DEEP_FIELDS

SCENARIOS = ["pair_1d", "triad_2d", "linear_2d_a", "degenerate_vv"]
RECORDS = ["pair_1d", "triad_2d"]

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

SWEEP_STEPS = 4


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _paths(node, prefix=()):
    """Key paths to every node of a parsed JSON document, root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutation(draw, doc):
    """One edit of doc: a node's path, whether to drop it, its new value."""
    path = draw(st.sampled_from(list(_paths(doc))))
    drop = bool(path) and draw(st.booleans())
    value = None if drop else copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return path, drop, value


def _apply(doc, path, drop, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@st.composite
def _mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(doc, (dict, list)):
            break
        doc = _apply(doc, *draw(_mutation(doc)))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@pytest.fixture(scope="module")
def records(workdir):
    """One valid cycle record per name in RECORDS, as parsed JSON."""
    out = {}
    for name in RECORDS:
        code = _quiet_main(["cycle", "--scenario", str(scenario_path(name)),
                            "--delta", "0.2", "--out", str(workdir)])
        assert code == 0
        path = workdir / f"{name.replace('_', '-')}_cycle.json"
        out[name] = json.loads(path.read_text())
    return out


@SETTINGS
@given(data=st.data(), name=st.sampled_from(SCENARIOS),
       command=st.sampled_from(["stasis", "weights", "cycle"]))
def test_mutated_scenario_exit_code(workdir, data, name, command):
    base = json.loads(scenario_path(name).read_text())
    doc = data.draw(_mutated(base))
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--scenario", str(path)]
    if command == "cycle":
        # stasis and weights take no --out: it would be a usage error (64)
        # before the scenario is read
        argv += ["--delta", "0.2", "--out", str(workdir)]
    assert _quiet_main(argv) in EXIT_CODES


@SETTINGS
@given(data=st.data(), name=st.sampled_from(RECORDS))
def test_mutated_record_exit_code(workdir, records, data, name):
    doc = data.draw(_mutated(records[name]))
    path = workdir / "record.json"
    path.write_text(json.dumps(doc))
    assert _quiet_main(["verify", str(path)]) in EXIT_CODES


@SETTINGS
@given(data=st.data(), name=st.sampled_from(SCENARIOS))
def test_mutated_sweep_exit_code(workdir, data, name):
    base = json.loads(scenario_path(name).read_text())
    base["sweep"]["steps"] = SWEEP_STEPS
    doc = data.draw(_mutated(base))
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", "--scenario", str(path), "--out", str(workdir)]
    assert _quiet_main(argv) in EXIT_CODES
