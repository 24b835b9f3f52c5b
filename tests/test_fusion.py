"""Fans: the CPs from one qubit onto a run of consecutive qubits, as one phase pass.

The oracle builds the diagonal from each index's bits by the CP definition
and shares no code with the kernel.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqft import verify
from dqft.fabric import CrossNodeGateError, Fabric, make_partition
from dqft.statevector import FAN_CHUNK, StateVector


def cp_product(amps: np.ndarray, source: int, targets, phis) -> np.ndarray:
    """amps times the diagonal of CP(phis[i], source, targets[i]) for every i."""
    size = amps.size.bit_length() - 1
    index = np.arange(amps.size)
    bit = lambda q: (index >> (size - 1 - q)) & 1  # noqa: E731
    phase = sum(phi * bit(source) * bit(t) for t, phi in zip(targets, phis))
    return amps * np.exp(1j * phase)


def random_state(size: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << size) + 1j * rng.normal(size=1 << size)
    return StateVector.from_amplitudes(amps / np.linalg.norm(amps))


@st.composite
def fans(draw, max_qubits: int = 9):
    """(Q, source, run, phases, seed): a run of consecutive qubits and a source outside it."""
    size = draw(st.integers(2, max_qubits))
    width = draw(st.integers(1, size - 1))
    lo = draw(st.integers(0, size - width))
    source = draw(st.sampled_from([q for q in range(size) if not lo <= q < lo + width]))
    phis = draw(st.lists(st.floats(-7.0, 7.0), min_size=width, max_size=width))
    return size, source, list(range(lo, lo + width)), phis, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None)
@given(fans())
@example((9, 0, [1, 2, 3, 4, 5, 6, 7, 8], [0.1 * i for i in range(1, 9)], 1))  # first, adjacent
@example((9, 8, [0, 1, 2, 3, 4, 5, 6, 7], [0.3 * i for i in range(1, 9)], 2))  # last, adjacent
@example((9, 4, [6, 7, 8], [0.5, -1.25, 3.0], 3))  # middle, before the run
@example((9, 4, [0, 1], [2.5, -0.75], 4))  # middle, after the run
@example((9, 8, [2, 3, 4], [1.0, 2.0, 3.0], 5))  # last, apart from the run
def test_fan_is_the_product_of_its_cps(case):
    size, source, run, phis, seed = case
    state = random_state(size, seed)
    want = cp_product(state.amps, source, run, phis)
    state.apply_fan(source, run, phis)
    np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", [0, 13])
def test_a_fan_wider_than_a_chunk_is_the_product_of_its_cps(source):
    run = [q for q in range(14) if q != source]  # 13 qubits: a full chunk and a partial one
    assert len(run) > FAN_CHUNK
    phis = [0.7 * (i + 1) for i in range(len(run))]
    state = random_state(14, source)
    want = cp_product(state.amps, source, run, phis)
    state.apply_fan(source, run, phis)
    np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-12)


def test_a_wide_fan_makes_no_temporary_the_size_of_the_state():
    # the last fan of a k=1 block at n=18: 17 run qubits before the source
    state = StateVector(18)
    state.amps[:] = 2.0 ** -9
    phis = [-np.pi / 2 ** d for d in range(18, 1, -1)]
    tracemalloc.start()
    try:
        state.apply_fan(17, range(17), phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.amps.nbytes / 8, peak


@pytest.mark.parametrize("source, run, phis", [
    (0, [1, 3], [0.1, 0.2]),  # not consecutive
    (2, [1, 2, 3], [0.1, 0.2, 0.3]),  # the source inside the run
    (0, [1, 2], [0.1]),  # a phase short
    (0, [3, 4], [0.1, 0.2]),  # past the last qubit
])
def test_a_malformed_fan_raises(source, run, phis):
    with pytest.raises(ValueError):
        StateVector(4).apply_fan(source, run, phis)


def test_a_fan_across_nodes_raises_before_any_pool_qubit_binds():
    fabric = Fabric(make_partition(4, 2))  # node 0 holds qubits 0 and 1, node 1 qubits 2 and 3
    plan = fabric.plan
    before = fabric.state.amps.copy()
    for source, run in ((plan.comm_slots[1], [0, 1]), (plan.comm_slots[0], [1, 2]), (1, [2, 3])):
        with pytest.raises(CrossNodeGateError):
            fabric.apply_fan(source, run, [0.1, 0.2])
    assert fabric.state.num_qubits == 4 and not any(map(fabric.comm_busy, range(2)))
    assert np.array_equal(fabric.state.amps, before)


def test_a_fan_on_a_fabric_without_comm_qubits_raises():
    # its state is a ProductState, which no two-qubit gate may entangle
    fabric = Fabric(make_partition(4, 2), with_comm=False)
    with pytest.raises(ValueError):
        fabric.apply_fan(0, [1], [0.3])


def test_verify_runs_the_fused_application_check_and_passes_it():
    results = {name: (passed, detail) for name, passed, detail in verify.run_all()}
    passed, detail = results["fused-application"]
    assert passed, detail


def test_the_fused_application_check_sees_one_negated_fan_phase(monkeypatch):
    original = StateVector.apply_fan

    def negated(self, source, targets, phis):
        return original(self, source, targets, [-phis[0], *phis[1:]])

    monkeypatch.setattr(StateVector, "apply_fan", negated)
    name, passed, _ = verify.check_fused_application()
    assert (name, passed) == ("fused-application", False)
