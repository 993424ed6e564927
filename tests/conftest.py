import pathlib

import pytest

from kcycle import load_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

CORPUS_NAMES = [
    "pair_1d",
    "triad_2d",
    "linear_2d_a",
    "linear_3d_b",
    "trig_3d",
    "degenerate_vv",
    "degenerate_const",
]

# scenarios whose stasis point is regular (the degenerate two are not)
REGULAR_NAMES = ["pair_1d", "triad_2d", "linear_2d_a", "linear_3d_b",
                 "trig_3d"]


def scenario_path(name: str) -> pathlib.Path:
    return SCENARIO_DIR / f"{name}.json"


def nested(value, levels: int):
    """value wrapped in `levels` one-element lists; numpy iterates an
    array of at most 32 axes, so a point nested past that tests the
    point rule's own shape check."""
    for _ in range(levels):
        value = [value]
    return value


@pytest.fixture(scope="session")
def corpus():
    return {name: load_scenario(scenario_path(name)) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def regular_corpus(corpus):
    return {name: corpus[name] for name in REGULAR_NAMES}
