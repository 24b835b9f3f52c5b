"""Comm-qubit pool: the fabric holds only the communication qubits in use.

Each node's comm slot is bound to a pool qubit only between allocate_epr
and release_comm, so the state grows past n qubits only by the number of
slots bound at once, while RNG draws and replayed counts stay as they were
when every node had its own comm qubit.
"""

import numpy as np
import pytest

from dqft.circuits import build_schedule, fourier_prep_gates
from dqft.fabric import CommSlotBusyError, Fabric, make_partition
from dqft.metrics import epr_budget
from dqft.runner import _apply_local_gates, _execute_schedule, run_distributed
from dqft.statevector import Gate, StateVector
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
            fabric = Fabric(plan)
            _apply_local_gates(fabric, fourier_prep_gates(range(n), 0.3))
            rng = CountingRng()
            _execute_schedule(fabric, build_schedule(plan), rng)
            assert fabric.state.num_qubits <= n + min(k, 2), (n, k)
            assert fabric.state.num_qubits == n + (2 if k > 1 else 0), (n, k)
            # per session: 2 EPR resets, 2 measurements, 2 resets
            assert rng.draws == 6 * epr_budget(plan), (n, k)
            assert fabric.logical_state().num_qubits == n


def test_pool_grows_only_when_every_qubit_is_bound():
    fabric = Fabric(make_partition(4, 4))
    rng = np.random.default_rng(0)
    assert fabric.state.num_qubits == 4
    fabric.allocate_epr(0, 1, rng)
    assert fabric.state.num_qubits == 6
    fabric.release_comm(0)
    fabric.allocate_epr(2, 3, rng)  # node 2 reuses node 0's pool qubit
    assert fabric.state.num_qubits == 7
    assert fabric.state.probabilities([0, 2]) == pytest.approx([0.5, 0, 0, 0.5])
    fabric.release_comm(1)
    fabric.release_comm(2)
    fabric.allocate_epr(0, 1, rng)  # both freed qubits are reused
    assert fabric.state.num_qubits == 7
    assert fabric.state.probabilities([0, 1]) == pytest.approx([0.5, 0, 0, 0.5])


def test_one_draw_per_measure_and_reset():
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    rng = CountingRng(3)
    fabric.reset(plan.comm_slots[1], rng)  # unbound: no pool qubit, one draw
    assert (rng.draws, fabric.state.num_qubits) == (1, 4)
    assert fabric.measure(plan.comm_slots[0], rng) == 0
    assert (rng.draws, fabric.counters.midcircuit_measurements) == (2, 1)
    fabric.measure(plan.node_qubits(0)[1], rng)
    fabric.reset(plan.node_qubits(1)[0], rng)
    assert rng.draws == 4
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    assert rng.draws == 4 + 4  # 2 EPR resets, 1 measurement, 1 reset
    cat_disentangle(fabric, handle, rng)
    assert rng.draws == 8 + 2  # 1 measurement, 1 reset
    fabric.reset(plan.comm_slots[0], rng)
    fabric.reset(plan.comm_slots[1], rng)
    assert rng.draws == 12
    assert fabric.counters.midcircuit_measurements == 4


@pytest.mark.parametrize("kind", ["cp", "cnot"])
@pytest.mark.parametrize("logical_first", [True, False], ids=["logical-first", "comm-first"])
def test_comm_operand_that_grows_the_pool_does_not_shift_the_logical_one(kind, logical_first):
    # the comm operand's growth puts a pool qubit in front of the logical
    # qubits, so resolving the logical operand before binding the comm one
    # would name the wrong qubit
    plan = make_partition(4, 2)
    for q in range(plan.n):
        fabric, direct = Fabric(plan), StateVector(plan.n)
        for p in range(plan.n):
            for gate in (Gate.h(p), Gate.p(0.3 + 0.5 * p, p)):
                fabric.apply(gate.kind, gate.qubits, gate.phi)
                direct.apply_gate(gate)
        comm = plan.comm_slots[plan.node_of(q)]
        # on the grown state the comm qubit is pool qubit 0 and q sits at q + 1
        operands, resolved = ((q, comm), (q + 1, 0)) if logical_first else ((comm, q), (0, q + 1))
        fabric.apply(kind, operands, 0.7)
        expected = StateVector.from_amplitudes(np.kron([1, 0], direct.amps))
        expected.apply_gate(Gate(kind, resolved, 0.7))
        assert np.array_equal(fabric.state.amps, expected.amps), q
        fabric.apply(kind, operands, 0.7)  # cnot uncopies, cp stays the identity on a |0> comm
        assert np.array_equal(fabric.logical_state().amps, direct.amps), q


def test_fabric_without_comm_rejects_comm_slots():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    plan = fabric.plan
    with pytest.raises(CommSlotBusyError):
        fabric.apply("h", (plan.comm_slots[0],))
    with pytest.raises(CommSlotBusyError):
        fabric.reset(plan.comm_slots[1], np.random.default_rng(0))
    assert fabric.state.num_qubits == 4


def test_gates_past_known_zero_pool_qubits_run_on_the_live_window(monkeypatch):
    # n=8 on 2 nodes: the prep makes no pass, the pool grows to 2 qubits in
    # node 0's first session and is known |0> again after each; a gate or a
    # fan then skips the 2^10 - 2^8 or 2^10 - 2^9 amplitudes behind the pool
    # qubits that precede its operands
    plan = make_partition(8, 2)
    kinds = []
    original, original_fan = StateVector.apply_gate, StateVector.apply_fan

    def recorded(self, gate):
        kinds.append((gate.kind, self.num_qubits))
        return original(self, gate)

    def recorded_fan(self, source, targets, phis):
        kinds.append((f"fan{len(targets)}", self.num_qubits))
        return original_fan(self, source, targets, phis)

    monkeypatch.setattr(StateVector, "apply_gate", recorded)
    monkeypatch.setattr(StateVector, "apply_fan", recorded_fan)
    run_distributed(plan, 0.3)
    block = ["h", "fan1", "h", "fan2", "h", "fan3", "h"]  # a 4-qubit inverse QFT
    assert kinds[:7] == [(kind, 8) for kind in block]  # node 0's block, no pool yet
    assert kinds[-7:] == [(kind, 8) for kind in block]  # node 1's block
    session_fans = [(kind, nq) for kind, nq in kinds[7:-7] if kind.startswith("fan")]
    assert session_fans == [("fan4", 9)] * 4  # each of node 0's 4 qubits onto node 1's 4
    assert ("cnot", 10) in kinds  # the cat CNOT onto pool qubit 0 covers the whole state
    assert "cp" not in [kind for kind, _ in kinds]


def test_measuring_a_known_zero_pool_qubit_keeps_it_in_its_window():
    # lead counts only the pool qubits before the operand, or it would drop the operand itself
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    rng = np.random.default_rng(0)
    fabric.allocate_epr(0, 1, rng)
    for node in (0, 1):
        fabric.reset(plan.comm_slots[node], rng)  # known |0> and still bound
    before = fabric.state.amps.copy()
    assert [fabric.measure(plan.comm_slots[node], rng) for node in (1, 0)] == [0, 0]
    assert np.max(np.abs(fabric.state.amps - before)) <= 1e-12


# Counts captured with one comm qubit per node (state of n + k qubits); the
# pool must replay them bit for bit.
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
