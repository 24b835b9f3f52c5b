"""In-place dense kernels, checked against matrix oracles.

The oracles below are Kronecker products of 2x2 matrices and basis-index
permutations; they share no code with the engine's half-state views.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.statevector import Gate, StateVector
from dqft.verify import ScriptedRng
from test_product_state import CountingRng

I2 = np.eye(2)
H2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X2 = np.array([[0, 1], [1, 0]])
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
FORCE_1 = 0.999999999  # a scripted draw that picks outcome 1 whenever p1 > 1e-9


# -- independent oracles ---------------------------------------------------------------


def embed(ops: dict, n: int) -> np.ndarray:
    """kron over qubits 0..n-1 (qubit 0 most significant) of ops[q], identity elsewhere."""
    return reduce(np.kron, [ops.get(q, I2) for q in range(n)])


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    kind, qs = gate.kind, gate.qubits
    if kind == "h":
        return embed({qs[0]: H2}, n)
    if kind == "z":
        return embed({qs[0]: np.diag([1, -1])}, n)
    if kind == "p":
        return embed({qs[0]: np.diag([1, np.exp(1j * gate.phi)])}, n)
    return embed({}, n) + (np.exp(1j * gate.phi) - 1) * embed({qs[0]: P1, qs[1]: P1}, n)  # cp


def flipped(amps: np.ndarray, q: int, n: int) -> np.ndarray:
    """X on qubit q as a gather of basis indices: exact, no arithmetic."""
    return amps[np.arange(amps.size) ^ (1 << (n - 1 - q))]


def projected(amps: np.ndarray, q: int, n: int, bit: int) -> np.ndarray:
    """Project qubit q onto |bit> and renormalize."""
    out = embed({q: (P0, P1)[bit]}, n) @ amps
    return out / np.linalg.norm(out)


@st.composite
def random_state(draw, max_n: int = 7):
    """A register size and a random unit-norm state on it."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return n, amps / np.linalg.norm(amps)


def layouts(n: int) -> list[int]:
    """The first, a middle and the last qubit."""
    return sorted({0, n // 2, n - 1})


# -- gates -----------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(state=random_state(), phi=st.floats(-7.0, 7.0), pick=st.integers(0, 8))
def test_every_gate_matches_its_kronecker_matrix(state, phi, pick):
    n, amps = state
    ones = [Gate.h(q) for q in layouts(n)]
    ones += [Gate.z(q) for q in layouts(n)] + [Gate.p(phi, q) for q in layouts(n)]
    pairs = [(a, b) for a in layouts(n) for b in range(n) if a != b]
    twos = [Gate.cp(phi, a, b) for a, b in pairs]
    for gate in ones + twos[pick::9]:
        got = StateVector.from_amplitudes(amps).apply_gate(gate).amps
        assert np.max(np.abs(got - gate_matrix(gate, n) @ amps)) <= 1e-12, gate


def test_kernels_allocate_no_state_sized_temporary():
    # 2^18 amplitudes is 4 MiB: a half-state copy would be 2 MiB, a quarter 1 MiB
    n = 18
    sv = StateVector(n)
    sv.amps[:] = 1 / np.sqrt(sv.amps.size)
    rng = np.random.default_rng(0)
    for q in layouts(n):
        other = n - 1 if q != n - 1 else 0
        for op in (lambda: sv.apply_gate(Gate.h(q)),
                   lambda: sv.apply_gate(Gate.p(0.3, q)), lambda: sv.apply_gate(Gate.cp(0.3, q, other)),
                   lambda: sv.measure(q, rng),
                   lambda: sv.apply_gate(Gate.h(q)), lambda: sv.reset(q, rng)):
            tracemalloc.start()
            try:
                op()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < sv.amps.nbytes // 8, (q, peak)


# -- measure and reset -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(state=random_state(), seed=st.integers(0, 1000), which=st.integers(0, 2))
def test_measure_and_reset_match_the_projector_oracle(state, seed, which):
    n, amps = state
    q = layouts(n)[min(which, len(layouts(n)) - 1)]
    p0 = np.linalg.norm(embed({q: P0}, n) @ amps) ** 2
    expected_bit = 0 if np.random.default_rng(seed).random() < p0 else 1
    expected = projected(amps, q, n, expected_bit)

    rng = CountingRng(seed)
    sv = StateVector.from_amplitudes(amps)
    assert sv.measure(q, rng) == expected_bit
    assert rng.draws == 1
    assert np.max(np.abs(sv.amps - expected)) <= 1e-12

    rng = CountingRng(seed)
    sv = StateVector.from_amplitudes(amps).reset(q, rng)
    assert rng.draws == 1
    expected_reset = embed({q: X2}, n) @ expected if expected_bit else expected
    assert np.max(np.abs(sv.amps - expected_reset)) <= 1e-12
    assert sv.probabilities([q])[1] == 0.0


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("n", [6, 16])
def test_reset_is_the_measured_state_under_an_exact_x(n, bit):
    # n = 16: halves of 2^15 amplitudes; the 1 half moves onto the 0 half bit for bit
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    for q in layouts(n):
        measured = StateVector.from_amplitudes(amps)
        assert measured.measure(q, ScriptedRng([FORCE_1 if bit else 0.0])) == bit
        reset = StateVector.from_amplitudes(amps).reset(q, ScriptedRng([FORCE_1 if bit else 0.0]))
        want = flipped(measured.amps, q, n) if bit else measured.amps
        assert np.array_equal(reset.amps.view(np.int64), want.view(np.int64)), q


@pytest.mark.parametrize("q", [0, 2, 4])
def test_corrupt_state_still_raises(q):
    sv = StateVector(5)
    sv.amps[:] = 0.0
    with pytest.raises(ValueError, match="corrupt state"):
        sv.measure(q, np.random.default_rng(0))
    with pytest.raises(ValueError, match="corrupt state"):
        sv.reset(q, np.random.default_rng(0))
