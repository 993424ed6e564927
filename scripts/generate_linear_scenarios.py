#!/usr/bin/env python3
"""Generate random regular linear scenario files.

The RNG seed comes from the KCYCLE_SEED environment variable, a
non-negative integer (default 0; anything else exits 2), so a pinned
seed reproduces the exact same scenario files. The bundled linear_2d_a /
linear_3d_b corpus scenarios were frozen from this generator.

Usage: python scripts/generate_linear_scenarios.py [--out DIR] [--count N]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcycle import random_linear_scenario  # noqa: E402
from kcycle.serialize import dumps  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="generated", help="output directory")
    parser.add_argument("--count", type=int, default=4,
                        help="number of scenarios")
    args = parser.parse_args()

    raw = os.environ.get("KCYCLE_SEED", "0")
    try:
        seed = int(raw)
        rng = np.random.default_rng(seed)
    except ValueError:
        parser.error(
            f"KCYCLE_SEED must be a non-negative integer, got {raw!r}")
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        name = f"linear-{n}d-{k}f-seed{seed}-{i}"
        data = random_linear_scenario(rng, n, k, name)
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(dumps(data))
        print(f"wrote {path}  (n={n}, k={k})")


if __name__ == "__main__":
    main()
