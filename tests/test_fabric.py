"""Fabric: partitioning, locality enforcement, EPR source, messaging, clock."""

import dataclasses

import numpy as np
import pytest

from dqft.fabric import (CommSlotBusyError, CrossNodeGateError, Fabric,
                         PartitionPlan, check_locality, make_partition)
from dqft.metrics import epr_budget, naive_epr_budget
from dqft.statevector import StateVector
from dqft.verify import ScriptedRng
from test_product_state import CountingRng

SQ2 = 1 / np.sqrt(2)


def test_make_partition_even():
    assert make_partition(8, 4).sizes == (2, 2, 2, 2)


def test_make_partition_remainder_in_last_node():
    assert make_partition(10, 4).sizes == (2, 2, 2, 4)


def test_make_partition_degenerate():
    plan = make_partition(4, 1)
    assert plan.sizes == (4,)
    assert plan.k == 1


def test_make_partition_errors():
    with pytest.raises(ValueError):
        make_partition(4, 8)
    with pytest.raises(ValueError):
        make_partition(4, 0)
    with pytest.raises(ValueError):
        make_partition(0, 1)


def test_partition_invariants_across_plans():
    for n in range(1, 16):
        for k in range(1, n + 1):
            plan = make_partition(n, k)
            assert sum(plan.sizes) == n
            assert all(m >= 1 for m in plan.sizes)
            assert plan.sizes[:-1] == tuple([n // k] * (k - 1))


def test_plan_without_nodes_is_rejected():
    # k=0 would pass the size checks: no sizes, summing to n=0
    with pytest.raises(ValueError):
        PartitionPlan(n=0, k=0, sizes=())


# -- locality -----------------------------------------------------------------


def test_locality_local_gate_ok():
    plan = make_partition(4, 2)
    check_locality(plan, (plan.node_qubits(0)[0], plan.node_qubits(0)[1]))


def test_locality_cross_node_raises():
    plan = make_partition(4, 2)
    with pytest.raises(CrossNodeGateError) as err:
        check_locality(plan, (plan.node_qubits(0)[1], plan.node_qubits(1)[0]))
    assert "node" in str(err.value)


def test_locality_comm_qubit_belongs_to_its_node():
    plan = make_partition(4, 2)
    check_locality(plan, (plan.comm_slots[1], plan.node_qubits(1)[0]))
    with pytest.raises(CrossNodeGateError):
        check_locality(plan, (plan.comm_slots[0], plan.node_qubits(1)[0]))


def test_fabric_apply_enforces_locality():
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    fabric.apply("h", (plan.node_qubits(0)[0],))
    with pytest.raises(CrossNodeGateError):
        fabric.apply("cnot", (plan.node_qubits(0)[0], plan.node_qubits(1)[0]))


def _kick_z(fabric, control, node):
    """The protocol's steps up to a Z owed to control: copy it to node, then an X-basis outcome 1."""
    rng = ScriptedRng([0.0, 0.0, 0.0, 0.99])
    a, b, _ = fabric.allocate_epr(fabric.plan.node_of(control), node, rng)
    fabric.apply("cnot", (control, a))
    fabric.measure(a, rng)
    fabric.apply("h", (b,))
    assert fabric.measure(b, rng) == 1


def test_a_two_operand_z_is_rejected_and_the_pending_z_survives():
    fabric = Fabric(make_partition(4, 2))
    fabric.apply("h", (0,))
    _kick_z(fabric, 0, 1)
    before = fabric.state.amps.copy()
    with pytest.raises(ValueError, match=r"z takes 1 operand\(s\), got \(0, 1\)"):
        fabric.apply("z", (0, 1))
    assert np.array_equal(fabric.state.amps, before)
    fabric.apply("z", (0,))  # the correction still meets its kick: no pass on the state
    assert np.array_equal(fabric.state.amps, before)
    assert np.array_equal(fabric.logical_state().amps, before)


@pytest.mark.parametrize("with_comm", [True, False])
@pytest.mark.parametrize("kind, want", [("h", 1), ("z", 1), ("cp", 2), ("cnot", 2)])
def test_a_gate_without_operands_is_rejected_by_its_operand_count(with_comm, kind, want):
    fabric = Fabric(make_partition(4, 2), with_comm=with_comm)
    if with_comm:
        _kick_z(fabric, 0, 1)  # a live frame and a pending Z: the check comes first
    before = fabric.state.amps.copy()
    with pytest.raises(ValueError, match=rf"{kind} takes {want} operand\(s\), got \(\)"):
        fabric.apply(kind, ())
    assert np.array_equal(fabric.state.amps, before)


def _live_frame_and_pending_z(rng):
    """4 qubits on 2 nodes: qubit 0 owed a Z, and node 1's comm qubit a copy of qubit 1."""
    fabric = Fabric(make_partition(4, 2))
    for q in range(4):
        fabric.apply("h", (q,))
    _kick_z(fabric, 0, 1)
    a, _, _ = fabric.allocate_epr(0, 1, rng)
    fabric.apply("cnot", (1, a))
    fabric.measure(a, rng)
    assert fabric._pending_z == {0} and fabric._frame[1].control == 1
    return fabric


def _snapshot(fabric, rng):
    """Everything a rejected call must leave as it was."""
    return (dict(fabric._frame), set(fabric._pending_z), fabric.state.amps.copy(),
            dataclasses.replace(fabric.counters), rng.draws)


def _assert_unchanged(fabric, rng, before):
    frame, pending, amps, counters, draws = before
    assert (fabric._frame, fabric._pending_z, fabric.counters, rng.draws) == (
        frame, pending, counters, draws)
    assert np.array_equal(fabric.state.amps.view(np.int64), amps.view(np.int64))


@pytest.mark.parametrize("kind, qubits", [("x", (0,)), ("x", (1,)), ("cnot", (0, 1)),
                                          ("cnot", (1, 0))])
def test_a_dense_x_or_cnot_on_logical_qubits_is_rejected_before_anything_changes(kind, qubits):
    # the dense engine applies no X or CNOT: the protocol's act on comm-qubit frame entries
    rng = CountingRng(5)
    fabric = _live_frame_and_pending_z(rng)
    before = _snapshot(fabric, rng)
    with pytest.raises(ValueError, match=rf"{kind} on \({qubits[0]}, ?"):
        fabric.apply(kind, qubits)
    _assert_unchanged(fabric, rng, before)
    fabric.apply("z", (0,))  # the correction still meets its kick
    assert fabric._pending_z == set()


@pytest.mark.parametrize("with_comm", [True, False])
@pytest.mark.parametrize("q", [0, 1, 3])
def test_a_reset_of_a_logical_qubit_is_rejected_before_any_draw(with_comm, q):
    rng = CountingRng(5)
    fabric = _live_frame_and_pending_z(rng) if with_comm else Fabric(make_partition(4, 2),
                                                                      with_comm=False)
    before = _snapshot(fabric, rng)
    with pytest.raises(ValueError, match=f"reset of logical qubit {q}: only a comm slot resets"):
        fabric.reset(q, rng)
    _assert_unchanged(fabric, rng, before)


def _copy_on_node_1(fabric, rng):
    a, b, _ = fabric.allocate_epr(0, 1, rng)
    fabric.apply("cnot", (0, a))
    fabric.measure(a, rng)
    return b


def _corrupt(fabric, rng):
    fabric.state.amps[:] = 0.0
    return 0


REJECTED_MEASUREMENTS = {  # (with_comm, what the measurement is of, the error)
    "index-above-range": (True, lambda f, rng: f.plan.n + f.plan.k, ValueError),
    "negative-index": (True, lambda f, rng: -1, ValueError),
    "comm-slot-on-product-fabric": (False, lambda f, rng: f.plan.n, CommSlotBusyError),
    "copy": (True, _copy_on_node_1, ValueError),
    "corrupt-state": (True, _corrupt, ValueError),
}


@pytest.mark.parametrize("case", list(REJECTED_MEASUREMENTS))
def test_a_rejected_measurement_counts_nothing_and_draws_nothing(case):
    with_comm, target, error = REJECTED_MEASUREMENTS[case]
    fabric = Fabric(make_partition(2, 2), with_comm=with_comm)
    rng = np.random.default_rng(0)
    qubit = target(fabric, rng)
    counted, drawn = dataclasses.replace(fabric.counters), rng.bit_generator.state
    for _ in range(2):
        with pytest.raises(error):
            fabric.measure(qubit, rng)
    assert fabric.counters == counted
    assert rng.bit_generator.state == drawn


# -- EPR source -------------------------------------------------------------------


def test_allocate_epr_prepares_bell_pair():
    plan = make_partition(2, 2)
    for draw in (0.0, 0.999999999):  # force each outcome of the first half's measurement
        fabric = Fabric(plan)
        rng = ScriptedRng([0.0, 0.0, draw])
        a, b, epr_id = fabric.allocate_epr(0, 1, rng)
        assert (a, b) == (plan.comm_slots[0], plan.comm_slots[1])
        assert epr_id == 1
        assert fabric.counters.epr_created == 1
        # the halves are perfectly correlated fair coins, and the logical qubits are untouched
        bit = fabric.measure(a, rng)
        assert bit == (draw > 0.5)
        assert fabric.measure(b, rng) == bit
        assert np.array_equal(fabric.state.amps, [1, 0, 0, 0])


def test_allocate_epr_busy_slot():
    fabric = Fabric(make_partition(3, 3))
    rng = np.random.default_rng(0)
    fabric.allocate_epr(0, 1, rng)
    with pytest.raises(CommSlotBusyError):
        fabric.allocate_epr(1, 2, rng)
    fabric.reset(fabric.plan.comm_slots[1], rng)  # a reset frees the slot
    fabric.allocate_epr(1, 2, rng)


def test_measuring_both_halves_of_a_bare_pair_frees_both_slots():
    fabric = Fabric(make_partition(2, 2))
    fabric.apply("h", (0,))
    fabric.apply("p", (1,), 0.3)
    before = fabric.state.amps.copy()
    rng = np.random.default_rng(0)
    a, b, _ = fabric.allocate_epr(0, 1, rng)
    assert fabric.measure(a, rng) == fabric.measure(b, rng)
    assert not fabric.comm_busy(0) and not fabric.comm_busy(1)
    assert np.array_equal(fabric.logical_state().amps, before)


def test_a_sender_slot_is_free_after_its_measurement_before_its_reset():
    fabric = Fabric(make_partition(2, 2))
    rng = np.random.default_rng(0)
    a, _, _ = fabric.allocate_epr(0, 1, rng)
    fabric.apply("cnot", (0, a))
    fabric.measure(a, rng)
    assert not fabric.comm_busy(0)
    assert fabric.comm_busy(1)  # the receiver's half is now a copy of qubit 0
    fabric.reset(a, rng)
    assert not fabric.comm_busy(0)


def test_allocate_epr_onto_a_live_copy_raises_before_any_draw():
    fabric = Fabric(make_partition(3, 3))
    rng = np.random.default_rng(0)
    a, _, _ = fabric.allocate_epr(0, 1, rng)
    fabric.apply("cnot", (0, a))
    fabric.measure(a, rng)  # node 1's slot holds a copy of qubit 0
    drawn = rng.bit_generator.state
    for pair in ((2, 1), (1, 2)):
        with pytest.raises(CommSlotBusyError):
            fabric.allocate_epr(*pair, rng)
    assert rng.bit_generator.state == drawn
    assert fabric.counters.epr_created == 1


@pytest.mark.parametrize("node", [-2, -1, 3, 5])
def test_node_outside_the_plan_raises_and_leaves_the_slots_alone(node):
    # a list index would wrap a negative node onto another node's slot
    fabric = Fabric(make_partition(3, 3))
    rng = np.random.default_rng(0)
    fabric.allocate_epr(0, 1, rng)
    for call in (lambda: fabric.allocate_epr(node, 2, rng),
                 lambda: fabric.allocate_epr(2, node, rng),
                 lambda: fabric.comm_busy(node)):
        with pytest.raises(ValueError):
            call()
    assert [fabric.comm_busy(b) for b in range(3)] == [True, True, False]
    assert fabric.counters.epr_created == 1
    with pytest.raises(CommSlotBusyError):  # node 1's EPR half is still live
        fabric.allocate_epr(1, 2, rng)


def test_allocate_epr_same_node_and_no_comm():
    fabric = Fabric(make_partition(4, 2))
    with pytest.raises(ValueError):
        fabric.allocate_epr(1, 1, np.random.default_rng(0))
    bare = Fabric(make_partition(4, 2), with_comm=False)
    assert bare.state.num_qubits == 4
    with pytest.raises(CommSlotBusyError):
        bare.allocate_epr(0, 1, np.random.default_rng(0))


# -- classical messaging and clock ---------------------------------------------------


def test_send_classical_counts_and_latency():
    fabric = Fabric(make_partition(4, 2))
    fabric.advance_clock(5)
    msg = fabric.send_classical(0, 1, "test", 1)
    assert msg.tick == 6  # sent at tick 5, deliverable at >= 6
    assert fabric.counters.classical_messages == 1
    with pytest.raises(RuntimeError):
        fabric.receive(0, 1)  # not deliverable yet
    fabric.advance_clock(1)
    assert fabric.receive(0, 1).payload == 1


def test_send_classical_same_node_raises():
    fabric = Fabric(make_partition(4, 2))
    with pytest.raises(ValueError):
        fabric.send_classical(0, 0, "t", 0)


def test_messages_in_order_per_channel():
    fabric = Fabric(make_partition(4, 2))
    fabric.send_classical(0, 1, "a", 0)
    fabric.send_classical(0, 1, "b", 1)
    fabric.advance_clock(1)
    assert fabric.receive(0, 1).tag == "a"
    assert fabric.receive(0, 1).tag == "b"


def test_receive_all_collects_deliverable():
    fabric = Fabric(make_partition(6, 3))
    fabric.send_classical(0, 2, "x", 1)
    fabric.send_classical(1, 2, "y", 0)
    assert fabric.receive_all(2) == []
    fabric.advance_clock(1)
    msgs = fabric.receive_all(2)
    assert {m.tag for m in msgs} == {"x", "y"}
    assert fabric.receive_all(2) == []


def test_advance_clock():
    fabric = Fabric(make_partition(2, 1))
    fabric.advance_clock(0)
    assert fabric.counters.current_tick == 0
    fabric.advance_clock(3)
    assert fabric.counters.current_tick == 3
    with pytest.raises(ValueError):
        fabric.advance_clock(-1)


def test_counters_zero_after_construction():
    fabric = Fabric(make_partition(8, 4))
    c = fabric.counters
    assert (c.epr_created, c.classical_messages, c.midcircuit_measurements,
            c.current_tick) == (0, 0, 0, 0)


# -- logical state extraction -------------------------------------------------------


def test_logical_state_strips_comm_qubits():
    fabric = Fabric(make_partition(2, 2))
    plan = fabric.plan
    fabric.apply("h", (plan.node_qubits(0)[0],))
    for kind in ("h", "z", "h"):  # an X on qubit 1
        fabric.apply(kind, (plan.node_qubits(1)[0],))
    logical = fabric.logical_state()
    assert logical.num_qubits == 2
    assert np.allclose(logical.amps, [0, SQ2, 0, SQ2])


def test_logical_state_rejects_entangled_comm():
    fabric = Fabric(make_partition(2, 2))
    fabric.allocate_epr(0, 1, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="comm"):
        fabric.logical_state()


def test_the_norm_check_makes_no_blas_call(monkeypatch):
    # np.vdot goes to OpenBLAS, multi-threaded unless OPENBLAS_NUM_THREADS pins it
    def no_blas(*args):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", no_blas)
    fabric = Fabric(make_partition(2, 2))
    fabric.apply("h", (0,))
    assert np.allclose(fabric.logical_state().amps, [SQ2, 0, SQ2, 0])
    strided = np.array([SQ2, 0, 1j * SQ2, 0])[::2]
    assert np.array_equal(StateVector.from_amplitudes(strided).amps, strided)
    with pytest.raises(ValueError, match="normalized"):
        StateVector.from_amplitudes([1, 1])


# -- budget formulas over plans -------------------------------------------------------


def test_naive_budget_dominates_grouped():
    for n in range(2, 14):
        for k in range(1, n + 1):
            plan = make_partition(n, k)
            grouped = epr_budget(plan)
            naive = naive_epr_budget(n)
            if k == n:
                assert grouped == naive
            else:
                assert grouped < naive
