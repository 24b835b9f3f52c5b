"""The resolved product path of a fabric built without communication qubits.

Fabric.apply sends an h or p on a logical qubit of a product
fabric straight to ProductState.apply_one, with no Gate and no operand
check.  It must give the checked path's factors bit for bit and draw for
draw, and every call it does not serve must still raise what the checked
path raises.  The P phase is pinned to the numpy formula it replaced.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import fourier_product
from dqft.fabric import CommSlotBusyError, Fabric, make_partition
from dqft.statevector import Gate, ProductState
from test_product_state import CountingRng


@st.composite
def product_program(draw):
    """A plan, a prep angle and a sequence of one-qubit gates and measurements."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    qubit = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.sampled_from(["h", "measure"]), qubit),
        st.tuples(st.just("p"), qubit, st.floats(-7.0, 7.0)))
    return n, k, draw(st.floats(0.0, 1.0, exclude_max=True)), draw(st.lists(op, max_size=40))


@settings(deadline=None, max_examples=200)
@given(product_program(), st.integers(0, 2**32 - 1))
def test_resolved_path_equals_the_checked_one(program, seed):
    n, k, theta, ops = program
    prep = fourier_product(n, theta)
    fabric, bare = Fabric(make_partition(n, k), with_comm=False, prep=prep), prep.copy()
    rng_f, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind, q, *phi in ops:
        if kind == "measure":
            assert fabric.measure(q, rng_f) == bare.measure(q, rng_b)
        else:
            fabric.apply(kind, (q,), *phi)
            bare.apply_gate(Gate(kind, (q,), *phi))
    assert rng_f.random() == rng_b.random()  # the same number of draws
    assert np.array_equal(fabric.state.amps.view(np.int64), bare.amps.view(np.int64))
    assert fabric.counters.midcircuit_measurements == sum(op[0] == "measure" for op in ops)


@pytest.mark.parametrize("kind,qubits,phi,error", [
    ("cnot", (0,), 0.0, ValueError),
    ("cp", (0,), 0.1, ValueError),
    ("y", (0,), 0.0, ValueError),
    ("h", (4,), 0.0, CommSlotBusyError),  # n: a comm slot, on a fabric without comm qubits
    ("h", (-1,), 0.0, ValueError),
    ("h", (6,), 0.0, ValueError),  # n + k: past the last comm slot
    ("cnot", (0, 1), 0.0, ValueError),
    ("cp", (0, 1), 0.1, ValueError),
    ("h", (), 0.0, ValueError),
])
def test_unresolved_calls_raise_as_the_checked_path(kind, qubits, phi, error):
    fabric = Fabric(make_partition(4, 2), with_comm=False, prep=fourier_product(4, 0.3))
    before = fabric.state.amps
    with pytest.raises(error):
        fabric.apply(kind, qubits, phi)
    assert np.array_equal(fabric.state.amps, before)


@pytest.mark.parametrize("kind", ["x", "z"])
def test_a_product_x_or_z_is_rejected_before_anything_changes(kind):
    # the product engine applies H and P only: the kinds a measure-early shot makes
    rng = CountingRng(3)
    fabric = Fabric(make_partition(4, 2), with_comm=False, prep=fourier_product(4, 0.3))
    fabric.measure(1, rng)
    before = (fabric.state.amps, dataclasses.replace(fabric.counters), rng.draws)
    for q in range(4):
        with pytest.raises(ValueError, match=rf"{kind} on \({q},\): this engine applies only"):
            fabric.apply(kind, (q,))
        with pytest.raises(ValueError, match=rf"{kind} on \({q},\): this engine applies only"):
            fabric.state.apply_gate(Gate(kind, (q,)))
    after = (fabric.state.amps, dataclasses.replace(fabric.counters), rng.draws)
    assert np.array_equal(after[0].view(np.int64), before[0].view(np.int64))
    assert after[1:] == before[1:]
    assert (fabric._frame, fabric._pending_z) == ({}, set())


def test_operands_may_be_any_iterable():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    bare = ProductState(4)
    fabric.apply("h", range(2, 3))
    fabric.apply("p", (q for q in [2]), 0.3)
    fabric.apply("h", [0])
    bare.apply_gates([Gate.h(2), Gate.p(0.3, 2), Gate.h(0)])
    assert np.array_equal(fabric.state.amps, bare.amps)


def feedforward_phis():
    """Every feed-forward phase -2 pi b / 2^j for j <= 16: b / 2^j is some b' / 2^16 exactly."""
    return [-2 * math.pi * (b / 2**16) for b in range(1 << 16)]


def test_p_phase_is_the_numpy_formula_bit_for_bit():
    # cmath.exp and numpy's scalar exp agree on these; if a platform's libm made them
    # diverge, this names the cause before the pinned semiclassical counts move
    random_phis = np.random.default_rng(20261019).uniform(-2 * math.pi, 2 * math.pi, 10**4)
    phis = feedforward_phis() + random_phis.tolist()
    got = np.array([cmath.exp(1j * phi) for phi in phis])
    want = np.array([complex(np.exp(1j * phi)) for phi in phis])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    factors = []  # a P gate on the factor (0, 1) leaves (0, its phase)
    for phi in phis:
        state = ProductState(1)
        state._factors[0] = [0j, 1 + 0j]
        factors.append(state.apply_gate(Gate.p(phi, 0)).amps[1])
    want = np.array([(1 + 0j) * complex(np.exp(1j * phi)) for phi in phis])
    assert np.array_equal(np.array(factors).view(np.int64), want.view(np.int64))
