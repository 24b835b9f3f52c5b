"""Statevector engine: gate actions, measurement, sampling, phase-blind equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.statevector import Gate, StateVector, equal_up_to_global_phase

SQ2 = 1 / np.sqrt(2)


def basis(n: int, index: int) -> StateVector:
    """The basis state |index> of n qubits."""
    return StateVector.from_amplitudes(np.eye(1 << n)[index])


def bell() -> StateVector:
    """(|00> + |11>)/sqrt2: H on qubit 0, then a CNOT(0, 1) as H(1) CP(pi) H(1)."""
    sv = StateVector(2).apply_gate(Gate.h(0)).apply_gate(Gate.h(1))
    return sv.apply_gate(Gate.cp(np.pi, 0, 1)).apply_gate(Gate.h(1))


def test_hadamard_on_zero():
    sv = StateVector(1).apply_gate(Gate.h(0))
    assert np.allclose(sv.amps, [SQ2, SQ2])


def test_phase_gate_action():
    phi = 0.7
    sv = basis(1, 1).apply_gate(Gate.p(phi, 0))
    assert np.allclose(sv.amps, [0, np.exp(1j * phi)])
    sv0 = StateVector(1).apply_gate(Gate.p(phi, 0))
    assert np.allclose(sv0.amps, [1, 0])


def test_controlled_phase_on_basis_states():
    # CP(pi) flips the sign of |11> only
    for i in range(4):
        sv = StateVector(2)
        sv.amps[:] = 0
        sv.amps[i] = 1.0
        sv.apply_gate(Gate.cp(np.pi, 0, 1))
        expected = -1.0 if i == 3 else 1.0
        assert sv.amps[i] == pytest.approx(expected)


def test_x_and_z():
    sv = basis(2, 2)
    assert sv.amps[2] == 1.0  # |10>, qubit 0 is the most significant bit
    sv.apply_gate(Gate.z(0))
    assert sv.amps[2] == -1.0


def test_bell_state_construction():
    sv = bell()
    assert np.allclose(sv.amps, [SQ2, 0, 0, SQ2])


def test_operand_validation():
    sv = StateVector(2)
    with pytest.raises(ValueError):
        sv.apply_gate(Gate.h(2))
    with pytest.raises(ValueError):
        sv.apply_gate(Gate.cnot(1, 1))
    with pytest.raises(ValueError):
        sv.apply_gate(Gate("cp", (0,), 0.1))
    with pytest.raises(ValueError):
        sv.apply_gate(Gate("hh", (0,)))


# -- measurement ----------------------------------------------------------------


def test_measure_symmetric_superposition_hits_both_branches():
    outcomes = set()
    for seed in range(20):
        sv = StateVector(1).apply_gate(Gate.h(0))
        outcomes.add(sv.measure(0, np.random.default_rng(seed)))
    assert outcomes == {0, 1}


def test_measure_basis_state_deterministic():
    sv = basis(2, 2)  # |10>
    for seed in range(5):
        bit = sv.copy().measure(0, np.random.default_rng(seed))
        assert bit == 1
    sv.measure(0, np.random.default_rng(0))
    assert np.allclose(sv.amps, [0, 0, 1, 0])  # post-state still |10>


def test_bell_measurement_correlation():
    seen = {0: 0, 1: 0}
    for seed in range(200):
        sv = bell()
        rng = np.random.default_rng(seed)
        first = sv.measure(0, rng)
        second = sv.measure(1, rng)
        assert first == second
        seen[first] += 1
    assert 60 <= seen[0] <= 140  # both pairs occur, roughly half-half


def test_measure_corrupt_state_raises():
    sv = StateVector(1)
    sv.amps[:] = 0
    with pytest.raises(ValueError, match="corrupt"):
        sv.measure(0, np.random.default_rng(0))


@pytest.mark.parametrize("amps", [[np.nan, 0], [1, np.nan], [np.nan, 0, 0, 0], [0.5, 0.5, 0.5, np.nan]])
def test_from_amplitudes_rejects_nan(amps):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector.from_amplitudes(amps)


def test_reset_examples():
    rng = np.random.default_rng(0)
    sv = basis(1, 1).reset(0, rng)
    assert np.allclose(sv.amps, [1, 0])
    sv = StateVector(1).apply_gate(Gate.h(0)).reset(0, rng)
    assert np.allclose(np.abs(sv.amps), [1, 0])
    assert np.linalg.norm(sv.amps) == pytest.approx(1.0, abs=1e-12)


# -- sampling ---------------------------------------------------------------------


def test_sample_counts_deterministic_state():
    sv = StateVector(2)
    counts = sv.sample_counts([0, 1], 100, np.random.default_rng(0))
    assert counts == {"00": 100}


def test_sample_counts_frequencies():
    sv = StateVector(2).apply_gate(Gate.h(0))  # (|00> + |10>)/sqrt(2)
    counts = sv.sample_counts([0, 1], 10_000, np.random.default_rng(7))
    assert set(counts) == {"00", "10"}
    for key in counts:
        assert abs(counts[key] / 10_000 - 0.5) < 0.05


def test_sample_counts_total_and_errors():
    sv = StateVector(2).apply_gate(Gate.h(1))
    counts = sv.sample_counts([0, 1], 57, np.random.default_rng(1))
    assert sum(counts.values()) == 57
    with pytest.raises(ValueError):
        sv.sample_counts([], 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sv.sample_counts([0], 0, np.random.default_rng(0))


def test_sample_counts_reproducible():
    sv = StateVector(3).apply_gate(Gate.h(0)).apply_gate(Gate.h(2))
    a = sv.sample_counts([0, 1, 2], 500, np.random.default_rng(11))
    b = sv.sample_counts([0, 1, 2], 500, np.random.default_rng(11))
    assert a == b


def test_probabilities_respects_listed_order():
    sv = basis(2, 2)  # |10>
    assert np.allclose(sv.probabilities([0, 1]), [0, 0, 1, 0])
    assert np.allclose(sv.probabilities([1, 0]), [0, 1, 0, 0])


@st.composite
def marginals(draw):
    """A random normalized state of n <= 8 qubits and a random ordered subset of them."""
    n = draw(st.integers(1, 8))
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    seed = draw(st.integers(0, 2**32 - 1))
    re, im = np.random.default_rng(seed).normal(size=(2, 1 << n))
    amps = re + 1j * im
    return StateVector.from_amplitudes(amps / np.linalg.norm(amps)), qubits


@settings(deadline=None)
@given(marginals())
def test_probabilities_equal_a_loop_over_basis_indices(case):
    sv, qubits = case
    n, m = sv.num_qubits, len(qubits)
    want = [0.0] * (1 << m)
    for i, amp in enumerate(sv.amps.tolist()):
        bits = [(i >> (n - 1 - q)) & 1 for q in qubits]  # qubit 0 most significant
        want[sum(bit << (m - 1 - p) for p, bit in enumerate(bits))] += abs(amp) ** 2
    np.testing.assert_allclose(sv.probabilities(qubits), want, rtol=0, atol=1e-14)


def test_the_whole_register_in_order_is_the_squared_amplitudes():
    sv = StateVector(3).apply_gate(Gate.h(0)).apply_gate(Gate.p(0.3, 0)).apply_gate(Gate.h(2))
    assert np.array_equal(sv.probabilities(range(3)), np.abs(sv.amps) ** 2)


@pytest.mark.parametrize("qubits", [[5], [0, 3], [-1], [2, -3]])
def test_probabilities_and_sampling_reject_a_qubit_out_of_range(qubits):
    sv = StateVector(3)
    bad = next(q for q in qubits if not 0 <= q < 3)
    with pytest.raises(ValueError, match=f"qubit {bad} out of range for 3-qubit state"):
        sv.probabilities(qubits)
    with pytest.raises(ValueError, match="out of range"):
        sv.sample_counts(qubits, 10, np.random.default_rng(0))


# -- global-phase equality -----------------------------------------------------------


def test_equal_up_to_global_phase_true():
    a = basis(2, 1)  # |01>
    b = a.copy()
    b.amps *= np.exp(1j * np.pi / 7)
    assert equal_up_to_global_phase(a, b, 1e-10)


def test_equal_up_to_global_phase_false():
    a = basis(2, 1)  # |01>
    b = basis(2, 2)  # |10>
    assert not equal_up_to_global_phase(a, b, 1e-10)


def test_equal_up_to_global_phase_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        equal_up_to_global_phase(StateVector(1), StateVector(2))


# -- invariants -----------------------------------------------------------------------


def _random_gate(rng, n):
    kind = rng.choice(["h", "z", "p", "cp"])
    q = int(rng.integers(n))
    if kind in ("h", "z"):
        return Gate(kind, (q,))
    if kind == "p":
        return Gate.p(float(rng.uniform(-np.pi, np.pi)), q)
    r = int(rng.integers(n - 1))
    r = r + 1 if r >= q else r
    return Gate.cp(float(rng.uniform(-np.pi, np.pi)), q, r)


def test_norm_preserved_under_random_gates():
    rng = np.random.default_rng(42)
    sv = StateVector(5)
    for _ in range(300):
        sv.apply_gate(_random_gate(rng, 5))
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-10


def test_self_inverse_gates_roundtrip():
    rng = np.random.default_rng(3)
    sv = StateVector(3)
    for _ in range(40):
        sv.apply_gate(_random_gate(rng, 3))
    before = sv.amps.copy()
    phi = 1.234
    pairs = [
        (Gate.h(1), Gate.h(1)),
        (Gate.z(0), Gate.z(0)),
        (Gate.cp(phi, 1, 2), Gate.cp(-phi, 1, 2)),
    ]
    for g, g_inv in pairs:
        sv.apply_gate(g).apply_gate(g_inv)
        assert np.max(np.abs(sv.amps - before)) < 1e-12


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    sv = StateVector(4)
    for _ in range(60):
        sv.apply_gate(_random_gate(rng, 4))
    for q in range(4):
        probs = sv.probabilities([q])
        assert abs(probs.sum() - 1.0) < 1e-12


def test_phase_gates_commute_on_same_qubit():
    rng = np.random.default_rng(5)
    base = StateVector(2)
    for _ in range(20):
        base.apply_gate(_random_gate(rng, 2))
    a = base.copy().apply_gate(Gate.p(0.4, 1)).apply_gate(Gate.p(-1.1, 1))
    b = base.copy().apply_gate(Gate.p(-1.1, 1)).apply_gate(Gate.p(0.4, 1))
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12
