"""Plan-index operands: the fabric names every qubit by its plan index.

Node b's comm slot is plan index n + b.  Gates, measurements and resets run
on the live window as they would on the whole state, out-of-range indices
raise, the feed-forward bits rely on receive_all's delivery order, and the
dense readout's axis reversal must equal the bit_reverse gather it replaced.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import bit_reverse
from dqft.fabric import (CommSlotBusyError, CrossNodeGateError, Fabric,
                         check_locality, make_partition)
from dqft.runner import _distribution
from dqft.statevector import Gate, StateVector


@st.composite
def programs(draw):
    """A plan and a random program of node-local ops on plan indices."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    plan = make_partition(n, k)
    with_comm = draw(st.booleans())
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        node = draw(st.integers(0, k - 1))
        local = list(plan.node_qubits(node)) + ([n + node] if with_comm else [])
        op = draw(st.sampled_from(["h", "x", "z", "p", "cp", "cnot", "measure", "reset", "release"]
                                  if with_comm else ["h", "x", "z", "p", "measure", "reset"]))
        if op in ("cp", "cnot"):
            qubits = tuple(draw(st.permutations(local))[:2])
        elif op == "release":
            qubits = (node,)
        else:
            qubits = (draw(st.sampled_from(local)),)
        ops.append((op, qubits, draw(st.floats(-np.pi, np.pi))))
    return plan, with_comm, ops


def _run(plan, with_comm, ops, seed):
    fabric = Fabric(plan, with_comm=with_comm)
    rng = np.random.default_rng(seed)
    outcomes = []
    for op, qubits, phi in ops:
        if op == "release":
            fabric.release_comm(qubits[0])
        elif op == "measure":
            outcomes.append(fabric.measure(qubits[0], rng))
        elif op == "reset":
            fabric.reset(qubits[0], rng)
        else:
            fabric.apply(op, qubits, phi)
    return fabric, outcomes


@settings(max_examples=150, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_live_window_runs_programs_like_the_whole_state(program, seed):
    # measuring or resetting a pool qubit known |0> must not drop it from its own window.
    # The amplitudes may differ in the last bit: numpy multiplies a lone element by the
    # phase with the scalar formula and a longer run with its vector loop, so a phase
    # gate on a one-amplitude window can round unlike the same gate on the whole state.
    plan, with_comm, ops = program
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fabric, "_live", lambda fabric, first: (fabric.state, 0))
        whole, out_whole = _run(plan, with_comm, ops, seed)
    live, out_live = _run(plan, with_comm, ops, seed)
    assert out_live == out_whole
    assert live.counters == whole.counters
    assert live._known == whole._known
    assert live.state.num_qubits == whole.state.num_qubits
    assert np.max(np.abs(live.state.amps - whole.state.amps), initial=0.0) <= 1e-12


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
    plan = make_partition(5, 3)
    fabric = Fabric(plan)
    rng = np.random.default_rng(4)
    # an unbound slot measures 0 and resets with one draw, binding nothing
    assert fabric.measure(5 + node, rng) == 0
    fabric.reset(5 + node, rng)
    assert fabric.state.num_qubits == 5
    logical = plan.node_qubits(node)[0]
    fabric.apply("h", (logical,))
    fabric.apply("cnot", (logical, 5 + node))
    # the slot binds pool qubit 0, in front of the logical qubits
    expected = StateVector.from_amplitudes(
        np.kron([1, 0], StateVector(5).apply_gate(Gate.h(logical)).amps))
    expected.apply_gate(Gate.cnot(logical + 1, 0))
    assert fabric._bound == {node: 0}
    assert fabric.state.num_qubits == 6
    assert np.array_equal(fabric.state.amps, expected.amps)
    twin = copy.deepcopy(rng)
    assert fabric.measure(5 + node, rng) == expected.measure(0, twin)
    assert np.array_equal(fabric.state.amps, expected.amps)


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
