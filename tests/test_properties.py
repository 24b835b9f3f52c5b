"""Property tests over general partitions, the one bit reversal, and exact distributions.

Node sizes m_0..m_{k-1} are drawn freely, not only the equal split that
make_partition builds.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import (GradientBlock, LocalInverseQFT, bit_reverse, build_schedule,
                           flatten_schedule, inverse_qft_gates)
from dqft.fabric import PartitionPlan
from dqft.runner import (_distribution, _reference, _semiclassical_law,
                         run_distributed, run_monolithic_reference,
                         semiclassical_exact_distribution)
from dqft.statevector import equal_up_to_global_phase
from oracles import bitrev, fft_value_distribution, oracle_value_distribution, rev_postprocess


def _plan(sizes) -> PartitionPlan:
    return PartitionPlan(n=sum(sizes), k=len(sizes), sizes=tuple(sizes))


@st.composite
def node_sizes(draw, max_n: int, max_k: int = 8):
    """1 to max_k node sizes, each at least 1, summing to at most max_n."""
    k = draw(st.integers(1, min(max_k, max_n)))
    spare = max_n - k
    sizes = []
    for _ in range(k):
        extra = draw(st.integers(0, spare))
        spare -= extra
        sizes.append(1 + extra)
    return draw(st.permutations(sizes))


THETAS = st.sampled_from([0.0, 1 / 3, 2 / 3, 0.125, 0.8])


@st.composite
def register_and_theta(draw, max_n: int):
    """n in 1..max_n with theta any float in [0, 1) or a dyadic j/2^n."""
    n = draw(st.integers(1, max_n))
    theta = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                           st.integers(0, (1 << n) - 1).map(lambda j: j / (1 << n))))
    return n, theta


@settings(deadline=None)
@given(node_sizes(16))
def test_node_of_names_the_node_of_every_plan_index(sizes):
    plan = _plan(sizes)
    for node in range(plan.k):
        assert [plan.node_of(q) for q in plan.node_qubits(node)] == [node] * sizes[node]
        assert plan.node_of(plan.comm_slots[node]) == node
    for q in (-1, plan.n + plan.k):
        with pytest.raises(ValueError):
            plan.node_of(q)


@settings(deadline=None)
@given(node_sizes(16))
def test_schedule_slots_disjoint_and_ordered(sizes):
    plan = _plan(sizes)
    sched = build_schedule(plan)
    assert sched.num_slots == 2 * plan.k - 1
    assert {b.slot for b in sched.blocks} == set(range(sched.num_slots))

    def key(b):
        if isinstance(b, LocalInverseQFT):
            return (b.slot, False, b.node, 0)
        return (b.slot, True, b.control_node, b.target_node)

    assert [key(b) for b in sched.blocks] == sorted(key(b) for b in sched.blocks)
    for slot, group in sched.blocks_by_slot():
        nodes = [n for b in group for n in (
            (b.node,) if isinstance(b, LocalInverseQFT) else (b.control_node, b.target_node))]
        assert len(nodes) == len(set(nodes)), f"slot {slot} reuses a node"
        assert all(b.slot == slot for b in group)
    for b in sched.blocks:
        if isinstance(b, GradientBlock):
            assert b.control_node < b.target_node and b.slot == b.control_node + b.target_node


@settings(deadline=None)
@given(node_sizes(16))
def test_flattened_schedule_is_the_monolithic_gate_multiset(sizes):
    plan = _plan(sizes)
    assert Counter(flatten_schedule(build_schedule(plan))) == Counter(
        inverse_qft_gates(range(plan.n)))


@settings(max_examples=40, deadline=None)
@given(node_sizes(8), THETAS, st.integers(0, 2**32 - 1))
def test_distributed_run_matches_monolithic_and_budget(sizes, theta, seed):
    plan = _plan(sizes)
    res = run_distributed(plan, theta, shots=1, seed=seed, return_state=True)
    mono = run_monolithic_reference(plan.n, theta, shots=1, seed=0).state
    assert equal_up_to_global_phase(res.state, mono, 1e-8)
    epr = sum(m * (plan.k - 1 - i) for i, m in enumerate(sizes))
    assert res.metrics.epr_count == epr
    assert res.metrics.classical_msg_count == 2 * epr
    assert res.metrics.block_slots == 2 * plan.k - 1


@settings(deadline=None)
@given(st.integers(1, 12))
def test_bit_reverse_array_matches_scalar_and_oracle(n):
    values = bit_reverse(np.arange(1 << n), n)
    assert values.tolist() == [bit_reverse(i, n) for i in range(1 << n)]
    assert values.tolist() == [bitrev(i, n) for i in range(1 << n)]
    assert values.tolist() == [rev_postprocess(format(i, f"0{n}b")) for i in range(1 << n)]


@settings(deadline=None)
@given(register_and_theta(8))
def test_semiclassical_exact_distribution_is_dense_and_matches_oracle(case):
    n, theta = case
    dist = semiclassical_exact_distribution(n, theta)
    assert sorted(dist) == list(range(1 << n))
    oracle = oracle_value_distribution(n, theta)
    assert max(abs(dist[v] - p) for v, p in oracle.items()) <= 1e-10


@settings(deadline=None)
@given(register_and_theta(12))
def test_closed_forms_match_the_oracle_and_the_engine(case):
    n, theta = case
    engine = _distribution(run_monolithic_reference(n, theta, shots=1).state)
    oracle = fft_value_distribution(n, theta)
    for law in (_reference(n, theta), _semiclassical_law(n, theta)):
        assert law.shape == (1 << n,)
        assert abs(law.sum() - 1.0) <= 1e-12
        assert np.abs(law - oracle).max() <= 1e-12
        assert np.abs(law - engine).max() <= 1e-12


@pytest.mark.parametrize("raw", ["", "0b1", "1_0", " 01", "012", "-1"])
def test_rev_postprocess_rejects_non_bitstrings(raw):
    with pytest.raises(ValueError):
        rev_postprocess(raw)


@pytest.mark.parametrize("n, k, sizes", [
    (4, 2, (1, 1)),     # too few qubits for n
    (4, 2, (2, 1, 1)),  # more sizes than nodes
    (4, 3, (2, 2)),     # fewer sizes than nodes
    (4, 2, (4, 0)),     # an empty node
    (4, 2, (5, -1)),    # a negative size
])
def test_partition_plan_rejects_inconsistent_sizes(n, k, sizes):
    with pytest.raises(ValueError):
        PartitionPlan(n=n, k=k, sizes=sizes)
