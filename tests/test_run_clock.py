"""The run report: the clock covers emulation only, and the reference fallback."""

import dataclasses
import time

import pytest

import dqft.runner as runner
from dqft.fabric import make_partition
from dqft.runner import (monolithic_exact_distribution, run_distributed,
                         run_monolithic_reference)

VERIFY_SLEEP_S = 0.2
EXACT_DISTRIBUTIONS = ("exact_value_distribution", "semiclassical_exact_distribution",
                       "monolithic_exact_distribution")


@pytest.fixture
def slow_verification(monkeypatch):
    """Make every exact distribution the runner computes sleep first."""
    for name in EXACT_DISTRIBUTIONS:
        original = getattr(runner, name)

        def slow(*args, _original=original):
            time.sleep(VERIFY_SLEEP_S)
            return _original(*args)

        monkeypatch.setattr(runner, name, slow)


@pytest.mark.parametrize("run", [
    lambda: run_distributed(make_partition(4, 2), 1 / 3, mode="telegate", shots=20),
    lambda: run_distributed(make_partition(4, 2), 1 / 3, mode="semiclassical", shots=20),
    lambda: run_monolithic_reference(4, 1 / 3, shots=20),
], ids=["telegate", "semiclassical", "monolithic"])
def test_wall_time_excludes_verification(slow_verification, run):
    res = run()
    assert res.metrics.fidelity_vs_reference == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < res.metrics.wall_time_seconds < VERIFY_SLEEP_S


@pytest.mark.parametrize("mode", ["telegate", "semiclassical"])
def test_reference_none_equals_passed_reference(mode):
    n, k, theta = 6, 3, 2 / 3
    plan = make_partition(n, k)
    own = run_distributed(plan, theta, mode=mode, shots=50, seed=4)
    given = run_distributed(plan, theta, mode=mode, shots=50, seed=4,
                            reference=monolithic_exact_distribution(n, theta))
    assert own.counts == given.counts
    assert (dataclasses.replace(own.metrics, wall_time_seconds=0.0)
            == dataclasses.replace(given.metrics, wall_time_seconds=0.0))
