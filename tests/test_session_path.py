"""The lean telegate path against its definitions, bit for bit and draw for draw.

phase_turns and ProductState.to_statevector are checked against the
Fraction and np.kron definitions they replace, the memoized schedule
against a fresh build, receive_all against an explicit delivery order, and
the cat session's draws, checks and exception types against the protocol.
"""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import build_schedule, fourier_product, phase_turns
from dqft.fabric import CrossNodeGateError, Fabric, check_locality, make_partition
from dqft.statevector import ProductState
from dqft.telegate import ProtocolError, apply_remote_controlled, cat_disentangle, cat_entangle


def _turns_oracle(theta: float, exponent: int) -> float:
    return float((Fraction(theta) * (1 << exponent)) % 1)


@st.composite
def thetas(draw):
    kind = draw(st.sampled_from(["float", "dyadic", "third"]))
    if kind == "float":
        return draw(st.floats(0.0, 1.0, exclude_max=True))
    if kind == "dyadic":
        bits = draw(st.integers(0, 60))
        return draw(st.integers(0, (1 << bits) - 1)) / (1 << bits)
    return draw(st.sampled_from([1 / 3, 2 / 3]))


@settings(max_examples=400, deadline=None)
@given(thetas(), st.integers(0, 64))
def test_phase_turns_is_the_fraction_definition(theta, exponent):
    got = phase_turns(theta, exponent)
    assert got == _turns_oracle(theta, exponent)
    assert 0.0 <= got < 1.0


def test_phase_turns_on_the_thirds_and_the_largest_exponents():
    for theta in (1 / 3, 2 / 3, 0.1, 1 - 2 ** -53, 2 ** -1074):
        for exponent in range(65):
            assert phase_turns(theta, exponent) == _turns_oracle(theta, exponent)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 11, 15, 17])
def test_to_statevector_is_the_kronecker_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    states = [fourier_product(n, float(rng.random())), ProductState(n)]
    scrambled = ProductState(n)
    for q in range(n):  # factors with four distinct non-trivial amplitudes
        scrambled.apply_one("h", q)
        scrambled.apply_one("p", q, float(rng.uniform(-np.pi, np.pi)))
        scrambled.apply_one("h", q)
    states.append(scrambled)
    for product in states:
        dense = product.to_statevector()
        expected = reduce(np.kron, product.amps.reshape(-1, 2))
        assert dense.num_qubits == n
        assert dense.amps.dtype == np.complex128 and dense.amps.flags.c_contiguous
        assert np.array_equal(dense.amps, expected)


def _regrouped(block):
    # the fans by their definition: one per control, its targets and phases in gate order
    fans = {}
    for c, t, phi in block.gates:
        fans.setdefault(c, ([], []))
        fans[c][0].append(t)
        fans[c][1].append(phi)
    return [(c, tuple(ts), tuple(ps)) for c, (ts, ps) in fans.items()]


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (5, 3), (8, 4), (11, 8), (13, 5)])
def test_memoized_schedule_equals_a_fresh_build(n, k):
    plan = make_partition(n, k)
    memo, fresh = build_schedule(plan), build_schedule.__wrapped__(plan)
    assert memo == fresh
    assert build_schedule(make_partition(n, k)) is memo  # an equal plan shares it
    gradient = [(a, b) for a, b in zip(memo.blocks, fresh.blocks) if hasattr(a, "fans")]
    assert len(gradient) == k * (k - 1) // 2
    for a, b in gradient:
        assert a.fans() == b.fans() == tuple(_regrouped(b))
        assert a.fans() is a.fans()  # grouped once


def test_receive_all_orders_sources_ascending_and_each_channel_fifo():
    fabric = Fabric(make_partition(6, 3))
    for src, tag in [(1, "b0"), (1, "b1"), (0, "a0"), (0, "a1")]:
        fabric.send_classical(src, 2, tag, 0)
    fabric.advance_clock(1)
    assert [m.tag for m in fabric.receive_all(2)] == ["a0", "a1", "b0", "b1"]
    assert fabric.receive_all(2) == []


@pytest.mark.parametrize("src,dst", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_a_message_must_travel_between_nodes_of_the_plan(src, dst):
    fabric = Fabric(make_partition(6, 3))
    with pytest.raises(ValueError):
        fabric.send_classical(src, dst, "t", 0)
    assert fabric.counters.classical_messages == 0


def test_allocate_epr_draws_the_two_known_bit_resets():
    fabric = Fabric(make_partition(4, 2))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    a, b, _ = fabric.allocate_epr(0, 1, rng)
    fabric.measure(a, rng)
    fabric.measure(b, rng)  # both slots now hold a measured bit, not |0>
    fabric.allocate_epr(1, 0, rng)
    for _ in range(6):
        twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state
    assert fabric.comm_busy(0) and fabric.comm_busy(1)


@pytest.mark.parametrize("control,target_node,targets", [(0, 7, (7, 8, 9, 10)), (3, 5, (5,))])
def test_a_cat_session_makes_six_draws(control, target_node, targets):
    fabric = Fabric(make_partition(11, 8), prep=fourier_product(11, 0.3))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    handle = cat_entangle(fabric, control, target_node, rng)
    apply_remote_controlled(fabric, handle, targets, [0.1] * len(targets))
    cat_disentangle(fabric, handle, rng)
    for _ in range(6):
        twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state
    assert not any(fabric.comm_busy(b) for b in range(8))


def test_locality_raises_value_error_for_any_operand_out_of_range():
    plan = make_partition(6, 3)  # nodes of 2, 2 and 2 qubits; comm slots 6, 7, 8
    check_locality(plan, (8, 4, 5))
    for qubits in [(0, 5, -1), (0, 9), (-1,), (6, 0, 9)]:
        with pytest.raises(ValueError):
            check_locality(plan, qubits)
    with pytest.raises(CrossNodeGateError, match=r"nodes \[0, 2\]"):
        check_locality(plan, (0, 5))
    with pytest.raises(CrossNodeGateError):
        check_locality(plan, iter([7, 2, 8]))


@pytest.mark.parametrize("target,error", [(-1, ValueError), (9, ValueError), (7, ProtocolError),
                                          (0, ProtocolError), (4, ProtocolError)])
def test_remote_target_checks_keep_their_exception_types(target, error):
    fabric = Fabric(make_partition(6, 3))
    rng = np.random.default_rng(0)
    handle = cat_entangle(fabric, 0, 1, rng)  # the cat is node 1's comm qubit, plan index 7
    before = fabric.state.amps.copy()
    with pytest.raises(error):
        apply_remote_controlled(fabric, handle, [2, target], [0.1, 0.2])
    assert np.array_equal(fabric.state.amps, before)
