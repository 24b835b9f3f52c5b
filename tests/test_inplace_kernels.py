"""In-place dense kernels and fabric resets, checked against matrix oracles.

The oracles below are Kronecker products of 2x2 matrices and basis-index
permutations; they share no code with the engine's half-state views.  The
fabric cases pin that a reset of a logical qubit, measured or not, draws
its one number and leaves the state a full reset leaves.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.fabric import Fabric, make_partition
from dqft.statevector import Gate, StateVector
from dqft.verify import ScriptedRng
from test_product_state import CountingRng, measure_passes  # noqa: F401 (a fixture)

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
    if kind == "x":
        return embed({qs[0]: X2}, n)
    if kind == "z":
        return embed({qs[0]: np.diag([1, -1])}, n)
    if kind == "p":
        return embed({qs[0]: np.diag([1, np.exp(1j * gate.phi)])}, n)
    if kind == "cp":
        return embed({}, n) + (np.exp(1j * gate.phi) - 1) * embed({qs[0]: P1, qs[1]: P1}, n)
    return embed({qs[0]: P0}, n) + embed({qs[0]: P1, qs[1]: X2}, n)  # cnot


def permuted(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """X or CNOT as a gather of basis indices: exact, no arithmetic."""
    idx = np.arange(amps.size)
    bit = lambda q: (idx >> (n - 1 - q)) & 1  # noqa: E731
    if gate.kind == "x":
        return amps[idx ^ (1 << (n - 1 - gate.qubits[0]))]
    c, t = gate.qubits
    return amps[idx ^ (bit(c) << (n - 1 - t))]


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
    ones = [Gate.h(q) for q in layouts(n)] + [Gate.x(q) for q in layouts(n)]
    ones += [Gate.z(q) for q in layouts(n)] + [Gate.p(phi, q) for q in layouts(n)]
    pairs = [(a, b) for a in layouts(n) for b in range(n) if a != b]
    twos = [Gate.cp(phi, a, b) for a, b in pairs] + [Gate.cnot(a, b) for a, b in pairs]
    for gate in ones + twos[pick::9]:
        got = StateVector.from_amplitudes(amps).apply_gate(gate).amps
        assert np.max(np.abs(got - gate_matrix(gate, n) @ amps)) <= 1e-12, gate
        if gate.kind in ("x", "cnot"):
            assert np.array_equal(got.view(np.int64), permuted(amps, gate, n).view(np.int64)), gate


@pytest.mark.parametrize("n", [6, 16])
def test_swaps_match_the_permutation_oracle_on_every_operand(n):
    # n = 6: every X and CNOT; n = 16: halves of 2^15 amplitudes, swapped in several slabs
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    controls = range(n) if n == 6 else [11]
    gates = [Gate.x(q) for q in range(n)]
    gates += [Gate.cnot(c, t) for c in controls for t in range(n) if c != t]
    for gate in gates:
        got = StateVector.from_amplitudes(amps).apply_gate(gate).amps
        assert np.array_equal(got.view(np.int64), permuted(amps, gate, n).view(np.int64)), gate


def test_kernels_allocate_no_state_sized_temporary():
    # 2^18 amplitudes is 4 MiB: a half-state copy would be 2 MiB, a quarter 1 MiB
    n = 18
    sv = StateVector(n)
    sv.amps[:] = 1 / np.sqrt(sv.amps.size)
    rng = np.random.default_rng(0)
    for q in layouts(n):
        other = n - 1 if q != n - 1 else 0
        for op in (lambda: sv.apply_gate(Gate.h(q)), lambda: sv.apply_gate(Gate.x(q)),
                   lambda: sv.apply_gate(Gate.p(0.3, q)), lambda: sv.apply_gate(Gate.cp(0.3, q, other)),
                   lambda: sv.apply_gate(Gate.cnot(q, other)), lambda: sv.measure(q, rng),
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


@pytest.mark.parametrize("q", [0, 2, 4])
def test_corrupt_state_still_raises(q):
    sv = StateVector(5)
    sv.amps[:] = 0.0
    with pytest.raises(ValueError, match="corrupt state"):
        sv.measure(q, np.random.default_rng(0))
    with pytest.raises(ValueError, match="corrupt state"):
        sv.reset(q, np.random.default_rng(0))


# -- resets in the fabric --------------------------------------------------------------


def _generic_fabric() -> Fabric:
    # 4 logical qubits on 2 nodes, every one with both outcomes likely
    plan = make_partition(4, 2)
    fabric = Fabric(plan)
    for q in range(4):
        fabric.apply("h", (q,))
        fabric.apply("p", (q,), 0.3 + 0.5 * q)
    fabric.apply("cnot", (plan.node_qubits(0)[0], plan.node_qubits(0)[1]))
    return fabric


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("node", [0, 1])
def test_reset_after_measure_makes_no_pass_and_equals_a_full_reset(node, bit):
    # despite the name, the reset makes the probability pass of any other reset
    fabric = _generic_fabric()
    q = fabric.plan.node_qubits(node)[1]
    rng = CountingRng(0)
    force = ScriptedRng([FORCE_1 if bit else 0.0])
    assert fabric.measure(q, force) == bit
    reference = fabric.state.copy().reset(q, rng)  # the full reset: a probability pass
    fabric.reset(q, rng)
    assert rng.draws == 2  # one for the reference's reset, one for the fabric's
    assert np.max(np.abs(fabric.state.amps - reference.amps)) <= 1e-12
    assert fabric.state.probabilities([q])[1] == 0.0


def test_gate_between_measure_and_reset_forces_the_full_pass(measure_passes):
    fabric = _generic_fabric()
    q = fabric.plan.node_qubits(1)[0]
    rng = np.random.default_rng(3)
    fabric.measure(q, ScriptedRng([FORCE_1]))
    fabric.apply("h", (q,))  # the bit is no longer known
    before = fabric.state.copy()
    measure_passes.clear()
    fabric.reset(q, rng)
    assert measure_passes == [(q, 4)]  # the pass covers the whole state
    bit = 0 if np.random.default_rng(3).random() < 0.5 else 1  # H left p0 = p1 = 1/2
    expected = projected(before.amps, q, 4, bit)
    if bit:
        expected = embed({q: X2}, 4) @ expected
    assert np.max(np.abs(fabric.state.amps - expected)) <= 1e-12
