"""Telegate protocol: cat sessions equal direct gates, at exact resource cost."""

import numpy as np
import pytest

from dqft.fabric import CommSlotBusyError, Fabric, make_partition
from dqft.statevector import Gate, StateVector, equal_up_to_global_phase
from dqft.telegate import (ProtocolError, apply_remote_controlled,
                           cat_disentangle, cat_entangle)
from dqft.verify import ScriptedRng, telegate_branch_states

SQ2 = 1 / np.sqrt(2)


def _fabric_2x1():
    # two nodes, one logical qubit each; control lives on node 0
    return Fabric(make_partition(2, 2))


def test_entangle_classical_branches():
    # the cat qubit copies a classical control: a fan of phase pi from it is a
    # Z on node 1's |+> qubit exactly when the control is 1; the control is unchanged
    for bit in (0, 1):
        fabric = _fabric_2x1()
        plan = fabric.plan
        fabric.state.amps[:] = np.eye(4)[2 * bit]  # |bit 0>
        fabric.state.apply_gate(Gate.h(1))
        handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, np.random.default_rng(0))
        apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [np.pi])
        expected = np.zeros(4, dtype=complex)
        expected[2 * bit:2 * bit + 2] = [SQ2, -SQ2 if bit else SQ2]
        assert np.allclose(fabric.state.amps, expected, atol=1e-12)


def test_entangle_superposed_control_gives_cat_state_on_both_branches():
    for forced in (0.0, 0.999999999):  # force each entangle measurement outcome
        fabric = _fabric_2x1()
        plan = fabric.plan
        fabric.state.apply_gate(Gate.h(0))
        fabric.state.apply_gate(Gate.h(1))
        rng = ScriptedRng([0.0, 0.0, forced])
        handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
        # the cat qubit is perfectly correlated with the control: a fan of
        # phase pi from it is CZ from the control, on either outcome
        apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [np.pi])
        assert np.allclose(fabric.state.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_entangle_disentangle_identity_roundtrip():
    fabric = _fabric_2x1()
    plan = fabric.plan
    fabric.state.apply_gate(Gate.h(0))
    fabric.state.apply_gate(Gate.p(0.9, 0))
    before = fabric.logical_state()
    rng = np.random.default_rng(4)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    cat_disentangle(fabric, handle, rng)
    assert equal_up_to_global_phase(fabric.logical_state(), before, 1e-10)


def test_remote_cp_matches_direct_gate_over_random_states():
    phi = np.pi / 4
    for seed in range(100):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-np.pi, np.pi, size=4)
        prep = [Gate.h(0), Gate.p(angles[0], 0), Gate.h(1), Gate.p(angles[1], 1),
                Gate.cp(angles[2], 0, 1), Gate.p(angles[3], 0)]

        fabric = _fabric_2x1()
        plan = fabric.plan
        fabric.state.apply_gates(prep)
        handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
        apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [phi])
        cat_disentangle(fabric, handle, rng)

        direct = StateVector(2).apply_gates(prep).apply_gate(Gate.cp(phi, 0, 1))
        assert equal_up_to_global_phase(fabric.logical_state(), direct, 1e-10)


def test_remote_cz_on_plus_plus():
    fabric = _fabric_2x1()
    plan = fabric.plan
    fabric.state.apply_gate(Gate.h(0))
    fabric.state.apply_gate(Gate.h(1))
    rng = np.random.default_rng(1)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [np.pi])
    cat_disentangle(fabric, handle, rng)
    expected = np.array([0.5, 0.5, 0.5, -0.5])
    assert equal_up_to_global_phase(fabric.logical_state(), expected, 1e-10)


def test_all_four_measurement_branches_match_direct_circuit():
    phis = (np.pi / 4, -np.pi / 3)
    plan = make_partition(3, 2)
    direct = StateVector(3)
    for q in range(3):
        direct.apply_gate(Gate.h(q))
        direct.apply_gate(Gate.p(0.3 + 0.4 * q, q))
    for t_loc, phi in enumerate(phis):
        direct.apply_gate(Gate.cp(phi, 0, 1 + t_loc))
    states = telegate_branch_states(phis)
    assert set(states) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for branch, state in states.items():
        assert equal_up_to_global_phase(state, direct, 1e-10), branch


# -- resource accounting -----------------------------------------------------------


def test_session_cost_independent_of_gate_count():
    for n_gates in (0, 1, 3):
        fabric = Fabric(make_partition(4, 2))  # node 1 holds qubits 2, 3
        plan = fabric.plan
        for q in range(4):
            fabric.state.apply_gate(Gate.h(q))
        rng = np.random.default_rng(2)
        handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
        for i in range(n_gates):
            apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[i % 2]],
                                    [0.1 * (i + 1)])
        cat_disentangle(fabric, handle, rng)
        c = fabric.counters
        assert c.epr_created == 1
        assert c.classical_messages == 2
        assert c.midcircuit_measurements == 2


def test_comm_qubits_end_reset_and_factorized():
    fabric = _fabric_2x1()
    plan = fabric.plan
    fabric.state.apply_gate(Gate.h(0))
    rng = np.random.default_rng(6)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [0.77])
    cat_disentangle(fabric, handle, rng)
    before = fabric.state.amps.copy()
    for node in (0, 1):
        fabric.reset(plan.comm_slots[node], rng)
    assert np.max(np.abs(fabric.state.amps - before)) < 1e-12
    assert not fabric.comm_busy(0) and not fabric.comm_busy(1)


def test_sender_slot_frees_within_session():
    # three nodes: while node 0 -> node 1 session is open, node 0 can host a new EPR
    fabric = Fabric(make_partition(3, 3))
    plan = fabric.plan
    rng = np.random.default_rng(0)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    assert not fabric.comm_busy(0)
    assert fabric.comm_busy(1)
    fabric.allocate_epr(0, 2, rng)
    cat_disentangle(fabric, handle, rng)
    assert not fabric.comm_busy(1)


# -- protocol misuse ------------------------------------------------------------------


def test_double_disentangle_raises():
    fabric = _fabric_2x1()
    plan = fabric.plan
    rng = np.random.default_rng(0)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    cat_disentangle(fabric, handle, rng)
    with pytest.raises(ProtocolError):
        cat_disentangle(fabric, handle, rng)


def test_remote_gate_after_disentangle_raises():
    fabric = _fabric_2x1()
    plan = fabric.plan
    rng = np.random.default_rng(0)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    cat_disentangle(fabric, handle, rng)
    with pytest.raises(ProtocolError):
        apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [0.1])


def test_remote_gate_wrong_node_raises():
    fabric = Fabric(make_partition(3, 3))
    plan = fabric.plan
    rng = np.random.default_rng(0)
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    with pytest.raises(ProtocolError):
        apply_remote_controlled(fabric, handle, [plan.node_qubits(2)[0]], [0.1])


def test_entangle_preconditions():
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    rng = np.random.default_rng(0)
    with pytest.raises(ProtocolError):
        cat_entangle(fabric, plan.comm_slots[0], 1, rng)
    with pytest.raises(ProtocolError):
        cat_entangle(fabric, plan.node_qubits(1)[0], 1, rng)
    cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    with pytest.raises(CommSlotBusyError):
        cat_entangle(fabric, plan.node_qubits(0)[1], 1, rng)


# -- mutation sensitivity: the oracles must catch broken protocols ---------------------


def test_dropping_z_correction_breaks_equivalence():
    # a disentangler that forgets the conditional Z must fail the state check
    # on the branch where the correction fires
    fabric = _fabric_2x1()
    plan = fabric.plan
    fabric.state.apply_gate(Gate.h(0))
    rng = ScriptedRng([0.0, 0.0, 0.0, 0.0, 0.999999999, 0.0])  # disentangle -> 1
    handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
    apply_remote_controlled(fabric, handle, [plan.node_qubits(1)[0]], [np.pi / 4])
    # broken disentangle: H, measure, reset, no classical correction
    fabric.apply("h", (handle.remote_cat,))
    bit = fabric.measure(handle.remote_cat, rng)
    assert bit == 1
    fabric.reset(handle.remote_cat, rng)
    direct = StateVector(2).apply_gate(Gate.h(0)).apply_gate(Gate.cp(np.pi / 4, 0, 1))
    assert not equal_up_to_global_phase(fabric.logical_state(), direct, 1e-8)
