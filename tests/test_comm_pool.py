"""Communication qubits cost no amplitudes: the fabric's state is the n logical qubits.

Each node's comm slot holds a frame entry, not a qubit of the state (see
test_comm_frame.py), while RNG draws and replayed counts stay as they were
when every node had its own comm qubit in the state.
"""

import numpy as np
import pytest

from dqft.circuits import build_schedule, fourier_product
from dqft.fabric import CommSlotBusyError, Fabric, make_partition
from dqft.metrics import epr_budget
from dqft.runner import _execute_schedule, run_distributed
from dqft.telegate import cat_disentangle, cat_entangle


class CountingRng:
    """A generator that counts its random() draws."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


def test_schedule_holds_at_most_two_comm_qubits():
    for n in range(1, 11):
        for k in range(1, n + 1):
            plan = make_partition(n, k)
            fabric = Fabric(plan, prep=fourier_product(n, 0.3))
            rng = CountingRng()
            _execute_schedule(fabric, build_schedule(plan), rng)
            assert fabric.state.num_qubits == n, (n, k)
            # per session: 2 EPR resets, 2 measurements, 2 resets
            assert rng.draws == 6 * epr_budget(plan), (n, k)
            assert fabric.logical_state().num_qubits == n


def test_one_draw_per_measure_and_reset():
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    rng = CountingRng(3)
    fabric.reset(plan.comm_slots[1], rng)  # never used: |0>, one draw
    assert (rng.draws, fabric.state.num_qubits) == (1, 4)
    assert fabric.measure(plan.comm_slots[0], rng) == 0
    assert (rng.draws, fabric.counters.midcircuit_measurements) == (2, 1)
    fabric.measure(plan.node_qubits(0)[1], rng)
    fabric.reset(plan.comm_slots[0], rng)
    assert rng.draws == 4
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    assert rng.draws == 4 + 4  # 2 EPR resets, 1 measurement, 1 reset
    cat_disentangle(fabric, handle, rng)
    assert rng.draws == 8 + 2  # 1 measurement, 1 reset
    fabric.reset(plan.comm_slots[0], rng)
    fabric.reset(plan.comm_slots[1], rng)
    assert rng.draws == 12
    assert fabric.counters.midcircuit_measurements == 4


def test_fabric_without_comm_rejects_comm_slots():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    plan = fabric.plan
    with pytest.raises(CommSlotBusyError):
        fabric.apply("h", (plan.comm_slots[0],))
    with pytest.raises(CommSlotBusyError):
        fabric.reset(plan.comm_slots[1], np.random.default_rng(0))
    assert fabric.state.num_qubits == 4


def test_measuring_a_known_zero_pool_qubit_keeps_it_in_its_window():
    # resetting an EPR half collapses the pair into a known bit on its partner,
    # so both slots end |0> and free; measuring them reads 0 with one draw each
    # and leaves the state alone
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    rng = np.random.default_rng(0)
    fabric.allocate_epr(0, 1, rng)
    for node in (0, 1):
        fabric.reset(plan.comm_slots[node], rng)  # |0> and free: a reset frees its slot
    before = fabric.state.amps.copy()
    assert [fabric.measure(plan.comm_slots[node], rng) for node in (1, 0)] == [0, 0]
    assert np.max(np.abs(fabric.state.amps - before)) <= 1e-12


# Counts captured with one comm qubit per node (state of n + k qubits); the
# frame must replay them bit for bit.
PINNED_COUNTS = [
    ((8, 4, 0.3, 7, 200), {69: 1, 72: 1, 74: 1, 75: 1, 76: 14, 77: 178, 78: 3, 81: 1}),
    ((9, 8, 0.123, 3, 200), {62: 1, 63: 199}),
    ((6, 3, 1 / 3, 0, 100), {18: 2, 19: 2, 20: 4, 21: 68, 22: 15, 23: 3, 24: 1, 25: 1,
                             27: 2, 29: 1, 36: 1}),
    ((7, 7, 0.71, 11, 150), {75: 1, 90: 2, 91: 146, 92: 1}),
]


@pytest.mark.parametrize("point,counts", PINNED_COUNTS,
                         ids=[f"n{p[0]}-k{p[1]}" for p, _ in PINNED_COUNTS])
def test_telegate_counts_replay_across_the_pool(point, counts):
    n, k, theta, seed, shots = point
    res = run_distributed(make_partition(n, k), theta, shots=shots, seed=seed)
    assert res.counts == counts
    assert res.metrics.peak_state_bytes == 16 * 2 ** (n + k)
