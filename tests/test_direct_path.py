"""Plan-index operands: the fabric names every qubit by its plan index.

Node b's comm slot is plan index n + b, out-of-range indices raise, the
feed-forward bits rely on receive_all's delivery order, and the dense
readout's axis reversal must equal the bit_reverse gather it replaced.
"""

import numpy as np
import pytest

from dqft.circuits import bit_reverse
from dqft.fabric import (CommSlotBusyError, CrossNodeGateError, Fabric,
                         check_locality, make_partition)
from dqft.runner import _distribution
from dqft.statevector import Gate, StateVector


def test_cross_node_gate_on_plan_indices_raises_before_binding():
    plan = make_partition(6, 3)
    fabric = Fabric(plan)
    for qubits in [(0, 5), (6 + 1, 0), (6 + 0, 6 + 2), (2, 6 + 0)]:
        with pytest.raises(CrossNodeGateError):
            fabric.apply("cp", qubits, 0.3)
        assert fabric.state.num_qubits == 6
    with pytest.raises(CrossNodeGateError):
        check_locality(plan, (1, plan.node_qubits(2)[0]))


@pytest.mark.parametrize("q", [-1, 8 + 3])
def test_plan_index_out_of_range_raises(q):
    plan = make_partition(8, 3)
    fabric = Fabric(plan)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fabric.apply("h", (q,))
    with pytest.raises(ValueError):
        fabric.apply("cp", (q, 0), 0.3)
    with pytest.raises(ValueError):
        fabric.measure(q, rng)
    with pytest.raises(ValueError):
        fabric.reset(q, rng)
    with pytest.raises(ValueError):
        check_locality(plan, (0, q))
    assert fabric.state.num_qubits == 8


@pytest.mark.parametrize("node", [0, 1, 2])
def test_comm_slot_index_binds_like_its_address(node):
    # plan index 5 + node names node's comm qubit, as the address (node, comm) did
    plan = make_partition(5, 3)
    fabric = Fabric(plan)
    rng = np.random.default_rng(4)
    # a slot never used is |0>: it measures 0 and resets with one draw each, and no pass
    assert fabric.measure(5 + node, rng) == 0
    fabric.reset(5 + node, rng)
    other = (node + 1) % 3
    logical, target = plan.node_qubits(node)[0], plan.node_qubits(other)[0]
    direct = StateVector(5)
    for q in range(5):
        fabric.apply("h", (q,))
        direct.apply_gate(Gate.h(q))
    assert fabric.allocate_epr(node, other, rng)[:2] == (5 + node, 5 + other)
    fabric.apply("cnot", (logical, 5 + node))
    if fabric.measure(5 + node, rng):
        fabric.apply("x", (5 + other,))
    fabric.apply_fan(5 + other, [target], [0.7])  # other's slot now copies logical
    direct.apply_gate(Gate.cp(0.7, logical, target))
    assert fabric.state.num_qubits == 5
    assert np.max(np.abs(fabric.state.amps - direct.amps)) <= 1e-12


def test_comm_slot_index_without_comm_qubits_raises():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    rng = np.random.default_rng(0)
    with pytest.raises(CommSlotBusyError):
        fabric.apply("h", (4 + 1,))
    with pytest.raises(CommSlotBusyError):
        fabric.measure(4 + 0, rng)
    with pytest.raises(CommSlotBusyError):
        fabric.reset(4 + 1, rng)


def test_receive_all_orders_by_source_node_then_fifo():
    fabric = Fabric(make_partition(8, 4))
    sends = [(2, 0), (0, 1), (1, 2), (0, 3), (2, 4), (1, 5), (0, 6)]
    for src, payload in sends:
        fabric.send_classical(src, 3, "feedforward", payload)
    fabric.send_classical(0, 1, "feedforward", 99)  # another destination
    fabric.advance_clock(1)
    fabric.send_classical(0, 3, "feedforward", 7)  # not deliverable yet
    msgs = fabric.receive_all(3)
    assert [(m.src, m.payload) for m in msgs] == sorted(sends, key=lambda s: s[0])
    fabric.advance_clock(1)
    assert [(m.src, m.payload) for m in fabric.receive_all(3)] == [(0, 7)]
    assert fabric.receive_all(3) == []


@pytest.mark.parametrize("n", range(1, 15))
def test_axis_reversal_readout_equals_bit_reverse_gather(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    probs = np.abs(state.amps) ** 2
    expected = probs[bit_reverse(np.arange(1 << n), n)]
    got = _distribution(state)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, expected)
