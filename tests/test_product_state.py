"""Product engine for measure-early shots, and the draws of comm-qubit resets.

A fabric built without communication qubits holds a copy of its prep, a
ProductState: one pair of amplitudes per qubit.  It must replay the dense
engine draw for draw, and the semiclassical counts it gives are pinned to
the dense engine's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import fourier_product
from dqft.fabric import Fabric, make_partition
from dqft.runner import _semiclassical_once, run_semiclassical
from dqft.statevector import Gate, ProductState, StateVector, equal_up_to_global_phase
from dqft.telegate import cat_disentangle, cat_entangle


class CountingRng:
    """A generator that counts its random() draws."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


@st.composite
def one_qubit_program(draw):
    """A register size and a sequence of one-qubit gates and measurements."""
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.sampled_from(["h", "measure"]), qubit),
        st.tuples(st.just("p"), qubit, st.floats(-7.0, 7.0)))
    return n, draw(st.lists(op, max_size=40))


@settings(deadline=None, max_examples=200)
@given(one_qubit_program(), st.integers(0, 2**32 - 1))
def test_product_state_replays_the_dense_engine(program, seed):
    n, ops = program
    product, dense = ProductState(n), StateVector(n)
    rng_p, rng_d = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind, q, *phi in ops:
        if kind == "measure":
            assert product.measure(q, rng_p) == dense.measure(q, rng_d)
        else:
            gate = Gate(kind, (q,), *phi)
            product.apply_gate(gate)
            dense.apply_gate(gate)
    assert rng_p.random() == rng_d.random()  # the same number of draws
    assert product.amps.size == 2 * n
    assert equal_up_to_global_phase(product.to_statevector(), dense, 1e-12)


def test_product_state_rejects_entangling_and_bad_operands():
    state = ProductState(3)
    for gate in (Gate.cp(0.3, 0, 1), Gate.cnot(2, 0), Gate.h(3), Gate("swap", (0, 1))):
        with pytest.raises(ValueError):
            state.apply_gate(gate)
    with pytest.raises(ValueError):
        state.measure(-1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ProductState(0)


def test_fabric_without_comm_holds_factors_and_rejects_two_qubit_gates():
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    plan = fabric.plan
    assert isinstance(fabric.state, ProductState)
    assert fabric.state.amps.size == 8
    for kind in ("cp", "cnot"):
        with pytest.raises(ValueError):
            fabric.apply(kind, (plan.node_qubits(0)[0], plan.node_qubits(0)[1]), 0.5)
    fabric.apply("h", (plan.node_qubits(1)[0],))
    fabric.apply("p", (plan.node_qubits(1)[0],), 0.7)
    expected = StateVector(4).apply_gates([Gate.h(2), Gate.p(0.7, 2)])
    assert np.allclose(fabric.logical_state().amps, expected.amps, atol=1e-15)


@pytest.mark.parametrize("n,k", [(1, 1), (6, 3), (15, 4)])
def test_one_draw_per_qubit_per_shot(n, k):
    plan = make_partition(n, k)
    prep = fourier_product(n, 0.4321)
    rng = CountingRng(2)
    for shot in range(1, 4):
        _semiclassical_once(Fabric(plan, with_comm=False, prep=prep), rng)
        assert rng.draws == n * shot


def test_fabric_without_comm_leaves_its_prep_unchanged():
    prep = fourier_product(6, 0.4321)
    before = prep.amps
    fabric = Fabric(make_partition(6, 3), with_comm=False, prep=prep)
    rng = np.random.default_rng(5)
    for q in range(6):
        fabric.apply("h", (q,))
        fabric.apply("p", (q,), 0.3)
        fabric.measure(q, rng)
    assert np.array_equal(prep.amps, before)


@pytest.mark.parametrize("n,k", [(1, 1), (6, 3), (15, 4)])
def test_a_shot_makes_at_most_2n_fabric_gates(monkeypatch, n, k):
    # the Fourier state comes prepared: a shot applies only its H and feed-forward P gates
    kinds = []
    original = Fabric.apply

    def counted(self, kind, qubits, phi=0.0):
        kinds.append(kind)
        return original(self, kind, qubits, phi)

    monkeypatch.setattr(Fabric, "apply", counted)
    for seed in range(4):
        kinds.clear()
        run_semiclassical(make_partition(n, k), 0.4321, shots=1, seed=seed)
        assert len(kinds) <= 2 * n
        assert kinds.count("h") == n


# Counts captured with the dense engine under every shot; the product
# engine must replay them bit for bit.
PINNED_COUNTS = [
    ((15, 4, 0.4321, 5, 300), {14159: 297, 14160: 2, 14161: 1}),
    ((5, 2, 1 / 3, 0, 100), {2: 1, 7: 1, 9: 1, 10: 13, 11: 74, 12: 3, 13: 2, 15: 2,
                             21: 2, 28: 1}),
    ((7, 3, 0.71, 11, 150), {90: 1, 91: 143, 92: 4, 93: 2}),
    ((9, 8, 0.123, 3, 200), {63: 200}),
]


@pytest.mark.parametrize("point,counts", PINNED_COUNTS,
                         ids=[f"n{p[0]}-k{p[1]}" for p, _ in PINNED_COUNTS])
def test_semiclassical_counts_replay_on_factors(point, counts):
    n, k, theta, seed, shots = point
    res = run_semiclassical(make_partition(n, k), theta, shots=shots, seed=seed)
    assert res.counts == counts
    assert res.metrics.peak_state_bytes == 16 * 2 ** n


@pytest.fixture
def measure_passes(monkeypatch):
    """One (qubit, num_qubits) entry per StateVector.measure pass (resets included)."""
    passes = []
    original = StateVector.measure

    def counted(self, qubit, rng):
        passes.append((qubit, self.num_qubits))
        return original(self, qubit, rng)

    monkeypatch.setattr(StateVector, "measure", counted)
    return passes


def test_cat_session_skips_the_reset_pass_of_known_zero_qubits(measure_passes):
    fabric = Fabric(make_partition(4, 2))
    plan = fabric.plan
    fabric.apply("h", (plan.node_qubits(0)[0],))
    rng = CountingRng(1)
    for session in range(1, 3):  # fresh comm qubits, then reset and reused ones
        handle = cat_entangle(fabric, plan.node_qubits(0)[0], 1, rng)
        cat_disentangle(fabric, handle, rng)
        assert measure_passes == []  # comm qubits are frame entries: no pass at all
        assert rng.draws == 6 * session  # the EPR resets still draw
    assert fabric.state.num_qubits == 4
