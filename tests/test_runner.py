"""End-to-end runs: telegate and semiclassical vs the monolithic reference."""

from dataclasses import replace

import numpy as np
import pytest

import dqft.runner as runner
from dqft.circuits import build_schedule
from dqft.fabric import PartitionPlan, make_partition
from dqft.metrics import epr_budget
from dqft.runner import (exact_value_distribution, monolithic_exact_distribution,
                         run_distributed, run_monolithic_reference,
                         run_semiclassical, semiclassical_exact_distribution)
from dqft.statevector import equal_up_to_global_phase
from oracles import (best_dyadic_approx, expected_final_state,
                     oracle_value_distribution, total_variation)


def test_theta_zero_counts_are_all_zero_value():
    for n, k in ((4, 2), (6, 3), (5, 1)):
        res = run_distributed(make_partition(n, k), 0.0, shots=40, seed=0)
        assert res.counts == {0: 40}


def test_a_plan_with_list_sizes_runs_like_its_tuple_plan():
    listed, plan = PartitionPlan(n=4, k=2, sizes=[2, 2]), PartitionPlan(n=4, k=2, sizes=(2, 2))
    assert listed == plan and build_schedule(listed) is build_schedule(plan)
    got = run_distributed(listed, 1 / 3, shots=50, seed=2)
    want = run_distributed(plan, 1 / 3, shots=50, seed=2)
    assert list(got.counts.items()) == list(want.counts.items())
    assert replace(got.metrics, wall_time_seconds=0) == replace(want.metrics, wall_time_seconds=0)


def test_exactly_representable_theta_deterministic():
    res = run_distributed(make_partition(4, 2), 0.5, shots=30, seed=1)
    assert res.counts == {8: 30}  # binary 1000


def test_monolithic_exact_value():
    res = run_monolithic_reference(4, 5 / 16, shots=25, seed=3)
    assert res.counts == {5: 25}


def test_monolithic_state_matches_matrix_oracle():
    for theta in (0.0, 1 / 3, 5 / 16):
        res = run_monolithic_reference(4, theta, shots=1, seed=0)
        assert np.max(np.abs(res.state.amps - expected_final_state(4, theta))) < 1e-10


def test_distributed_equals_monolithic_counts_at_k1():
    for theta in (0.0, 1 / 3):
        mono = run_monolithic_reference(6, theta, shots=100, seed=9)
        dist = run_distributed(make_partition(6, 1), theta, shots=100, seed=9)
        assert mono.counts == dist.counts


def test_distributed_exact_distribution_matches_oracle():
    res = run_distributed(make_partition(4, 4), 1 / 3, shots=1, seed=0,
                          return_state=True)
    dist = exact_value_distribution(res.state)
    oracle = oracle_value_distribution(4, 1 / 3)
    for v in range(16):
        assert abs(dist.get(v, 0.0) - oracle[v]) < 1e-10
    # modal outcome is the best 4-bit approximation of 1/3, with the
    # oracle-computed probability (frozen: v = 5, p = 0.6848953893)
    modal = max(dist, key=dist.get)
    assert modal == best_dyadic_approx(1 / 3, 4) == 5
    assert dist[modal] == pytest.approx(0.6848953893117378, abs=1e-10)
    assert dist[modal] >= 0.4


def test_distributed_state_equality_small_grid():
    for n, k, theta, seed in ((6, 2, 1 / 3, 0), (6, 3, 2 / 3, 1), (8, 4, 1 / 3, 2)):
        mono = run_monolithic_reference(n, theta, shots=1, seed=0)
        res = run_distributed(make_partition(n, k), theta, shots=1, seed=seed,
                              return_state=True)
        assert equal_up_to_global_phase(res.state, mono.state, 1e-8)


def test_counts_sum_and_range():
    res = run_distributed(make_partition(6, 2), 2 / 3, shots=77, seed=5)
    assert sum(res.counts.values()) == 77
    assert all(0 <= v < 64 for v in res.counts)


def test_run_reproducible_from_seed():
    a = run_distributed(make_partition(8, 4), 1 / 3, shots=100, seed=13)
    b = run_distributed(make_partition(8, 4), 1 / 3, shots=100, seed=13)
    assert a.counts == b.counts
    assert a.metrics.epr_count == b.metrics.epr_count


def test_resource_counters_telegate():
    res = run_distributed(make_partition(8, 4), 1 / 3, shots=10, seed=0)
    m = res.metrics
    assert m.epr_count == 12  # m * C(k,2) = 2 * 6
    assert m.classical_msg_count == 24  # two per session
    assert m.midcircuit_measurements == 24
    assert m.block_slots == 7  # 2k - 1
    assert m.peak_state_bytes == 16 * 2 ** 12
    assert m.fidelity_vs_reference == pytest.approx(1.0, abs=1e-10)


def test_epr_counter_matches_budget_formula():
    for n, k in ((6, 2), (10, 4), (12, 8), (9, 3)):
        plan = make_partition(n, k)
        res = run_distributed(plan, 1 / 3, shots=1, seed=0)
        assert res.metrics.epr_count == epr_budget(plan)
        assert res.metrics.classical_msg_count == 2 * res.metrics.epr_count


def test_invalid_arguments():
    plan = make_partition(4, 2)
    with pytest.raises(ValueError):
        run_distributed(plan, 1.0, shots=10)
    with pytest.raises(ValueError):
        run_distributed(plan, -0.1, shots=10)
    with pytest.raises(ValueError):
        run_distributed(plan, 0.3, shots=0)
    with pytest.raises(ValueError):
        run_distributed(plan, 0.3, mode="noisy")


def test_a_semiclassical_run_has_no_state_to_return(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the semiclassical run started")

    monkeypatch.setattr(runner, "run_semiclassical", must_not_run)
    with pytest.raises(ValueError, match="no final state"):
        run_distributed(make_partition(4, 2), 0.3, mode="semiclassical", return_state=True)


# -- semiclassical mode ----------------------------------------------------------


def test_semiclassical_theta_zero():
    res = run_semiclassical(make_partition(5, 1), 0.0, shots=20, seed=0)
    assert res.counts == {0: 20}
    assert res.metrics.epr_count == 0


def test_semiclassical_representable_theta_deterministic():
    for j in (1, 6, 11):
        res = run_semiclassical(make_partition(4, 2), j / 16, shots=15, seed=j)
        assert res.counts == {j: 15}
        assert res.metrics.epr_count == 0


def test_semiclassical_counters():
    res = run_semiclassical(make_partition(8, 4), 1 / 3, shots=5, seed=0)
    m = res.metrics
    assert m.epr_count == 0
    assert m.classical_msg_count == 12  # one per (measured qubit, later node)
    assert m.classical_msg_count > 0
    assert m.midcircuit_measurements == 8  # every qubit measured early
    assert m.peak_state_bytes == 16 * 2 ** 8  # no communication qubits
    assert m.block_slots == 0
    assert m.fidelity_vs_reference == pytest.approx(1.0, abs=1e-10)


def test_semiclassical_exact_distribution_equals_telegate():
    # deferred measurement cannot change the output law; exhaustive at n <= 8
    for n, k, theta in ((4, 2, 1 / 3), (6, 3, 2 / 3), (8, 4, 1 / 3)):
        semi = semiclassical_exact_distribution(n, theta)
        tele = run_distributed(make_partition(n, k), theta, shots=1, seed=0,
                               return_state=True)
        assert total_variation(semi, exact_value_distribution(tele.state)) < 1e-10


def test_semiclassical_exact_distribution_matches_oracle():
    for theta in (0.25, 1 / 3, 0.9):
        semi = semiclassical_exact_distribution(4, theta)
        oracle = oracle_value_distribution(4, theta)
        for v in range(16):
            assert abs(semi.get(v, 0.0) - oracle[v]) < 1e-10


def test_semiclassical_sampled_counts_follow_exact_distribution():
    n, theta = 4, 1 / 3
    res = run_semiclassical(make_partition(n, 2), theta, shots=4000, seed=21)
    dist = semiclassical_exact_distribution(n, theta)
    empirical = {v: c / 4000 for v, c in res.counts.items()}
    assert total_variation(dist, empirical) < 0.05


def test_semiclassical_reproducible():
    a = run_semiclassical(make_partition(6, 2), 1 / 3, shots=50, seed=8)
    b = run_semiclassical(make_partition(6, 2), 1 / 3, shots=50, seed=8)
    assert a.counts == b.counts


def test_mode_dispatch_through_run_distributed():
    res = run_distributed(make_partition(4, 2), 1 / 3, mode="semiclassical",
                          shots=10, seed=0)
    assert res.metrics.epr_count == 0
    assert res.state is None


def test_monolithic_exact_distribution_helper():
    dist = monolithic_exact_distribution(4, 1 / 3)
    oracle = oracle_value_distribution(4, 1 / 3)
    for v in range(16):
        assert abs(dist[v] - oracle[v]) < 1e-10


def test_telegate_sampled_histogram_follows_oracle():
    res = run_distributed(make_partition(4, 4), 1 / 3, shots=10_000, seed=17)
    empirical = {v: c / 10_000 for v, c in res.counts.items()}
    assert total_variation(empirical, oracle_value_distribution(4, 1 / 3)) < 0.05
