"""Fidelity, resource budgets, and the run metrics record."""

import numpy as np
import pytest

from dqft.fabric import make_partition
from dqft.metrics import (classical_fidelity, counts_to_distribution,
                          epr_budget, naive_epr_budget, state_bytes)
from dqft.runner import run_distributed, run_monolithic_reference


def test_fidelity_identical_distributions():
    p = {0: 0.25, 1: 0.25, 2: 0.5}
    assert classical_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_disjoint_support():
    assert classical_fidelity({0: 1.0}, {1: 1.0}) == 0.0


def test_fidelity_half_overlap():
    f = classical_fidelity({0: 0.5, 1: 0.5}, {0: 1.0})
    assert f == pytest.approx(np.sqrt(0.5), abs=1e-9)  # ~0.70711


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.random(8)
        b = rng.random(8)
        p = {i: float(x) for i, x in enumerate(a / a.sum())}
        q = {i: float(x) for i, x in enumerate(b / b.sum())}
        fpq = classical_fidelity(p, q)
        fqp = classical_fidelity(q, p)
        assert fpq == pytest.approx(fqp, abs=1e-12)
        assert 0.0 <= fpq <= 1.0 + 1e-12


def test_invalid_distributions_rejected():
    for bad in ({0: -0.1, 1: 1.1}, {0: 0.4}):
        with pytest.raises(ValueError):
            classical_fidelity(bad, bad)
    with pytest.raises(ValueError):
        classical_fidelity({0: 0.5}, {0: 1.0})


def test_missing_keys_count_as_zero():
    f = classical_fidelity({0: 0.5, 1: 0.5}, {1: 0.5, 2: 0.5})
    assert f == pytest.approx(0.5, abs=1e-12)


# -- budget formulas ------------------------------------------------------------


def test_epr_budget_examples():
    assert epr_budget(make_partition(8, 4)) == 12
    assert naive_epr_budget(8) == 28
    assert epr_budget(make_partition(4, 1)) == 0
    # unequal sizes [2,2,2,4]: 2*3 + 2*2 + 2*1
    assert epr_budget(make_partition(10, 4)) == 12
    assert epr_budget(make_partition(6, 2)) == 3


def test_epr_budget_equal_sizes_closed_form():
    for k in (1, 2, 4, 8):
        m = 2
        plan = make_partition(m * k, k)
        assert epr_budget(plan) == m * k * (k - 1) // 2


def test_counts_to_distribution():
    d = counts_to_distribution({3: 25, 5: 75})
    assert d == {3: 0.25, 5: 0.75}
    with pytest.raises(ValueError):
        counts_to_distribution({})


def test_state_bytes():
    assert state_bytes(6) == 1024
    assert state_bytes(10) == 16 * 1024


def test_run_metrics_allocation_model():
    res = run_distributed(make_partition(4, 2), 0.0, shots=10, seed=0)
    assert res.metrics.peak_state_bytes == 1024  # 16 * 2^(4+2)
    assert res.metrics.wall_time_seconds > 0.0


def test_monolithic_run_has_no_network_costs():
    res = run_monolithic_reference(6, 1 / 3, shots=10, seed=0)
    m = res.metrics
    assert (m.epr_count, m.classical_msg_count, m.midcircuit_measurements) == (0, 0, 0)


def test_fidelity_between_modes_is_one():
    # noiseless invariance: every mode reproduces the reference distribution
    for mode in ("telegate", "semiclassical"):
        res = run_distributed(make_partition(6, 3), 2 / 3, mode=mode,
                              shots=10, seed=1)
        assert res.metrics.fidelity_vs_reference == pytest.approx(1.0, abs=1e-10)


def test_empirical_fidelity_floor_at_100_shots():
    # shot-noise floor from the sweep contract: sampled fidelity >= 0.9
    from dqft.runner import monolithic_exact_distribution
    for n, k, theta in ((8, 4, 1 / 3), (10, 2, 2 / 3), (12, 4, 0.0)):
        res = run_distributed(make_partition(n, k), theta, shots=100, seed=2)
        ref = monolithic_exact_distribution(n, theta)
        f = classical_fidelity(counts_to_distribution(res.counts), ref)
        assert f >= 0.9, (n, k, theta, f)
