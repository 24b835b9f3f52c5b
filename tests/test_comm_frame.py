"""Communication qubits as a copy frame, checked against a dense replay of the protocol.

The fabric holds no amplitudes for a comm qubit: a cat session is one fan on
the 2^n logical state plus GF(2) bookkeeping.  oracles.dense_cat_session
replays the same session gate by gate on n + 2 dense qubits from the same
draws, so the frame must give the same outcomes and the same logical state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import circuits, telegate, verify
from dqft.circuits import inv_qft_angle
from dqft.fabric import Fabric, PartitionPlan, make_partition
from dqft.runner import run_distributed
from dqft.statevector import StateVector
from dqft.telegate import apply_remote_controlled, cat_disentangle, cat_entangle
from oracles import dense_cat_session


class ListRng:
    """Yields the listed draws in order and counts them."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self) -> float:
        self.used += 1
        return self.draws[self.used - 1]


# a draw within 0.01 of 1/2 could fall between the oracle's computed p0 and the frame's 1/2
DRAWS = st.one_of(st.floats(0.0, 0.49), st.floats(0.51, 1.0, exclude_max=True))


@st.composite
def sessions(draw):
    """A plan of 2..5 nodes, a unit logical state, and 1..3 cat sessions with their draws."""
    k = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    plan = PartitionPlan(n=sum(sizes), k=k, sizes=tuple(sizes))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        src, dst = draw(st.permutations(range(k)))[:2]
        control = draw(st.sampled_from(plan.node_qubits(src)))
        run = plan.node_qubits(dst)
        lo = draw(st.integers(0, len(run) - 1))
        width = draw(st.integers(1, len(run) - lo))
        phis = draw(st.lists(st.floats(-np.pi, np.pi), min_size=width, max_size=width))
        draws = draw(st.lists(DRAWS, min_size=6, max_size=6))
        out.append((control, dst, list(run[lo:lo + width]), phis, draws))
    return plan, draw(st.integers(0, 2**32 - 1)), out


@settings(max_examples=150, deadline=None)
@given(sessions())
def test_frame_sessions_equal_the_dense_replay(case):
    plan, seed, script = case
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << plan.n) + 1j * rng.normal(size=1 << plan.n)
    amps /= np.linalg.norm(amps)
    fabric = Fabric(plan)
    fabric.state.amps[:] = amps
    outcomes = []
    measure = fabric.measure
    fabric.measure = lambda qubit, rng: outcomes.append(measure(qubit, rng)) or outcomes[-1]
    dense = amps
    for control, dst, targets, phis, draws in script:
        rng = ListRng(draws)
        handle = cat_entangle(fabric, control, dst, rng)
        apply_remote_controlled(fabric, handle, targets, phis)
        cat_disentangle(fabric, handle, rng)
        assert rng.used == 6
        want, dense = dense_cat_session(dense, control, targets, phis, draws)
        assert tuple(outcomes[-2:]) == want
    assert fabric.state.num_qubits == plan.n
    assert np.max(np.abs(fabric.logical_state().amps - dense)) <= 1e-12


def test_a_cat_session_makes_no_pass_and_its_fan_folds_into_the_node_pass(monkeypatch):
    # n=8 on 2 nodes: each node's block is 4 H and 3 fans, node 0's on its own 2^4
    # amplitudes before the state is expanded.  Node 0's 4 sessions onto node 1 make
    # no pass over the 2^8 logical amplitudes: their fans are recorded, and node 1's
    # pass takes them from the record and folds them into one twiddle
    kernels, folded = [], []
    gate, fan, measure = StateVector.apply_gate, StateVector.apply_fan, StateVector.measure
    local = Fabric._local

    def recorded_gate(self, g):
        kernels.append((g.kind, self.num_qubits))
        return gate(self, g)

    def recorded_fan(self, source, targets, phis, on=1):
        kernels.append((f"fan{len(targets)}", self.num_qubits))
        return fan(self, source, targets, phis, on)

    def recorded_measure(self, qubit, rng):
        kernels.append(("measure", self.num_qubits))
        return measure(self, qubit, rng)

    def recorded_local(self, qubits):
        state, fans = local(self, qubits)
        folded.append(fans)
        return state, fans

    monkeypatch.setattr(StateVector, "apply_gate", recorded_gate)
    monkeypatch.setattr(StateVector, "apply_fan", recorded_fan)
    monkeypatch.setattr(StateVector, "measure", recorded_measure)
    monkeypatch.setattr(Fabric, "_local", recorded_local)
    run_distributed(make_partition(8, 2), 0.3)
    block = ["h", "fan1", "h", "fan2", "h", "fan3", "h"]  # a 4-qubit inverse QFT
    assert kernels == [(kind, 4) for kind in block] + [(kind, 8) for kind in block]
    (fans,) = folded  # node 1's pass takes the four sessions' fans, and folds each
    assert fans == [(c, 1, (4, 5, 6, 7), tuple(inv_qft_angle(t - c + 1) for t in range(4, 8)))
                    for c in range(4)]
    factors, rest = circuits._fold(tuple(fans), 4, 4, 1 << 4)
    assert factors is not None and rest == ()


@pytest.mark.parametrize("flip", [0, 1])
def test_a_dropped_x_correction_moves_the_fan_to_the_other_half(flip):
    # with the X dropped, the cat copy reads x_c xor 1: the fan acts where the control is 0
    plan = make_partition(2, 2)
    fabric = Fabric(plan)
    fabric.state.amps[:] = 0.5
    rng = ListRng([0.0, 0.0, 0.99 if flip else 0.0, 0.0])
    a, b, _ = fabric.allocate_epr(0, 1, rng)
    fabric.apply("cnot", (0, a))
    assert fabric.measure(a, rng) == flip
    fabric.reset(a, rng)
    fabric.apply_fan(b, [1], [np.pi])
    expected = np.full(4, 0.5, dtype=complex)
    expected[1 if flip else 3] *= np.exp(1j * np.pi)  # CZ on the control's 1 half, or its 0 half
    assert np.array_equal(fabric.state.amps, expected)


MISUSES = {
    "h-on-pair": lambda f, cat, pair, rng: f.apply("h", (pair,)),
    "fan-from-pair": lambda f, cat, pair, rng: f.apply_fan(pair, [2], [0.3]),
    "cp-from-copy": lambda f, cat, pair, rng: f.apply("cp", (cat, 1), 0.3),  # fans only
    "cnot-from-copy": lambda f, cat, pair, rng: f.apply("cnot", (cat, 1)),
    "measure-copy": lambda f, cat, pair, rng: f.measure(cat, rng),  # would collapse qubit 0
    "reset-copy": lambda f, cat, pair, rng: f.reset(cat, rng),
    "h-on-control": lambda f, cat, pair, rng: f.apply("h", (0,)),  # the copy would go stale
    "x-on-control": lambda f, cat, pair, rng: f.apply("x", (0,)),
}


@pytest.mark.parametrize("misuse", list(MISUSES))
def test_any_other_step_on_a_comm_qubit_raises(misuse):
    # three nodes of one qubit each: node 1's comm qubit copies qubit 0, and
    # node 0's freed slot then shares a fresh EPR pair with node 2
    fabric = Fabric(make_partition(3, 3))
    rng = np.random.default_rng(0)
    cat = cat_entangle(fabric, 0, 1, rng).remote_cat
    _, pair, _ = fabric.allocate_epr(0, 2, rng)
    with pytest.raises(ValueError):
        MISUSES[misuse](fabric, cat, pair, rng)


# -- the checks still bite: protocol mutants fail dqft verify's telegate-branches check --


def _drop_comm_x(monkeypatch):
    apply = Fabric.apply
    monkeypatch.setattr(Fabric, "apply", lambda self, kind, qubits, phi=0.0: None if (
        kind == "x" and qubits[0] >= self.plan.n) else apply(self, kind, qubits, phi))


def _drop_z(monkeypatch):
    apply = Fabric.apply
    monkeypatch.setattr(Fabric, "apply", lambda self, kind, qubits, phi=0.0: None
                        if kind == "z" else apply(self, kind, qubits, phi))


def _flip_delivered_bit(monkeypatch):
    signal = telegate._signal
    monkeypatch.setattr(telegate, "_signal", lambda *args: 1 - signal(*args))


@pytest.mark.parametrize("mutant", [_drop_comm_x, _drop_z, _flip_delivered_bit],
                         ids=["drop-x-correction", "drop-z-correction", "flip-delivered-bit"])
def test_protocol_mutants_fail_the_branch_check(monkeypatch, mutant):
    assert verify.check_telegate_branches()[1]
    mutant(monkeypatch)
    name, passed, detail = verify.check_telegate_branches()
    assert not passed, detail
