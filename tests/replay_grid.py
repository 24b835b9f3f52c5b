"""The replay grid: one short hash per run of a fixed grid of points.

Both modes, n = 1..12, every k <= min(n, 8), six thetas, seeds 0 and 7, 100
shots: 1632 runs.  A point's hash covers what a seed must replay: the
counts in value order, fidelity_sampled as float.hex, the .9g CSV cell of
fidelity_exact, every counter of the run's metrics and the generator's next
draw after the run.  Raw amplitudes are left out; tests/test_envelope.py
bounds them.

Run as a script, it rewrites tests/replay_grid.json from the tree it runs
in.  Do that only in a change that means to move outputs, and name the
points that moved:

    PYTHONPATH=src python tests/replay_grid.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dqft import runner
from dqft.fabric import make_partition
from dqft.runner import run_distributed

PATH = Path(__file__).with_name("replay_grid.json")
SHOTS = 100
SEEDS = (0, 7)
COUNTERS = ("epr_count", "classical_msg_count", "midcircuit_measurements", "block_slots",
            "shots", "peak_state_bytes")


def thetas(n: int):
    return 0.0, 1 / 3, 2 / 3, 0.123, 0.71, ((5 << n) // 7) / (1 << n)


def points():
    """(mode, n, k, theta, seed) of every grid point, in a fixed order."""
    for mode in runner.MODES:
        for n in range(1, 13):
            for k in range(1, min(n, 8) + 1):
                for theta in thetas(n):
                    for seed in SEEDS:
                        yield mode, n, k, theta, seed


def key(mode: str, n: int, k: int, theta: float, seed: int) -> str:
    return f"{mode} n={n} k={k} theta={theta.hex()} seed={seed}"


def point_hash(mode: str, n: int, k: int, theta: float, seed: int) -> str:
    """The run's replayed outputs as 16 hex digits."""
    made, real = [], np.random.default_rng

    def default_rng(*args):
        made.append(real(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner.np.random, "default_rng", default_rng)
        res = run_distributed(make_partition(n, k), theta, mode=mode, shots=SHOTS, seed=seed)
    m = res.metrics
    text = repr((sorted(res.counts.items()), m.fidelity_sampled.hex(),
                 format(m.fidelity_vs_reference, ".9g"),
                 [getattr(m, c) for c in COUNTERS], made[0].random().hex()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid() -> dict[str, str]:
    return {key(*p): point_hash(*p) for p in points()}


if __name__ == "__main__":
    hashes = grid()
    PATH.write_text(json.dumps(hashes, indent=0) + "\n")
    print(f"wrote {len(hashes)} points to {PATH}")
