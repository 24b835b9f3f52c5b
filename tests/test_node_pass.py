"""Recorded fans and the node pass, against a dense model of the logical state.

Fabric.apply_fan records a session's fan instead of applying it; a node
pass (runner._node_pass) takes the fans on its node from the record and
folds those it can into one twiddle, and any other access to the state
applies the record first.  Random legal sequences of sessions,
logical measurements, state reads, node passes and logical_state are
replayed on a dense numpy model that shares no engine code: a fan is its
CPs' diagonal, built from each index's bits, and a node's block is the
inverse DFT along its axis, bit-reversed.  Then three mutants of the fold
must each fail dqft verify.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import circuits, verify
from dqft.fabric import Fabric, PartitionPlan
from dqft.runner import _node_pass
from dqft.telegate import apply_remote_controlled, cat_disentangle, cat_entangle
from test_comm_frame import ListRng

TOL = 1e-12


def _bit(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _fan(psi, control, on, targets, phis):
    """The CPs from control's on half onto targets, as a diagonal."""
    n = psi.size.bit_length() - 1
    phase = sum(phi * _bit(n, t) for t, phi in zip(targets, phis))
    return psi * np.exp(1j * phase * (_bit(n, control) == on))


def _block(psi, qubits):
    """The swap-free inverse QFT on consecutive qubits: F^dag along their axis, bit-reversed."""
    lo, m = qubits[0], len(qubits)
    view = psi.reshape(1 << lo, 1 << m, -1)
    size = 1 << m
    k = np.arange(size)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / size) / np.sqrt(size)
    rev = [int(format(i, f"0{m}b")[::-1], 2) for i in range(size)]
    return np.einsum("vb,abc->avc", dft, view)[:, rev, :].reshape(-1)


def _gap(got, want) -> float:
    """max |got - c want| for the unit c that aligns their largest entry."""
    i = int(np.argmax(np.abs(want)))
    return float(np.abs(got * (want[i] / got[i]) - want).max())


@st.composite
def scripts(draw):
    """A plan of 2..4 nodes on at most 6 qubits, a seed, a tile size and up to 30 steps."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    if sum(sizes) < 6 and draw(st.booleans()):
        sizes[draw(st.integers(0, k - 1))] += 1
    plan = PartitionPlan(n=sum(sizes), k=k, sizes=tuple(sizes))
    n, steps = plan.n, []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["session", "session", "session", "measure", "read",
                                     "pass", "logical"]))
        if kind == "session":
            control = draw(st.integers(0, n - 1))
            node = draw(st.sampled_from([t for t in range(k) if t != plan.node_of(control)]))
            run = plan.node_qubits(node)
            lo = draw(st.integers(run[0], run[-1]))
            width = draw(st.integers(1, run[-1] + 1 - lo))
            # a dyadic turn folds into a node pass; any other phase is applied first
            phis = draw(st.lists(st.one_of(
                st.integers(-64, 64).map(lambda j: j * np.pi / 32), st.floats(-4.0, 4.0)),
                min_size=width, max_size=width))
            steps.append((kind, control, node, list(range(lo, lo + width)), phis,
                           draw(st.booleans())))
        elif kind == "measure":
            steps.append((kind, draw(st.integers(0, n - 1)), draw(st.floats(0.0, 1.0))))
        elif kind == "pass":
            steps.append((kind, draw(st.integers(0, k - 1))))
        else:
            steps.append((kind,))
    return plan, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1 << 40, 1 << 3])), steps


@settings(max_examples=120, deadline=None)
@given(scripts())
def test_recorded_fans_and_node_passes_equal_the_dense_model(script):
    plan, seed, tile, steps = script
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << plan.n) + 1j * rng.normal(size=1 << plan.n)
    psi /= np.linalg.norm(psi)
    fabric = Fabric(plan)
    fabric.state.amps[:] = psi
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuits, "TILE_AMPS", tile)  # 2^3: every pass of these states in tiles
        for step in steps:
            if step[0] == "session":  # an X on the copy moves the fan to the control's 0 half
                _, control, node, targets, phis, flip = step
                handle = cat_entangle(fabric, control, node, rng)
                if flip:
                    fabric.apply("x", (handle.remote_cat,))
                apply_remote_controlled(fabric, handle, targets, phis)
                cat_disentangle(fabric, handle, rng)
                psi = _fan(psi, control, 1 - flip, targets, phis)
            elif step[0] == "measure":  # a draw kept 0.01 from p0, the outcome the model's
                _, q, u = step
                p0 = float(np.sum(np.abs(psi[_bit(plan.n, q) == 0]) ** 2))
                bit = int(u >= p0) if 0.02 < p0 < 0.98 else int(p0 <= 0.5)
                draw = max(0.0, p0 - 0.01) if bit == 0 else min(p0 + 0.01, 0.999)
                assert fabric.measure(q, ListRng([draw])) == bit
                psi = np.where(_bit(plan.n, q) == bit, psi, 0)
                psi /= np.linalg.norm(psi)
            elif step[0] == "pass":
                qubits = plan.node_qubits(step[1])
                _node_pass(fabric, qubits)
                psi = _block(psi, qubits)
            elif step[0] == "read":
                assert _gap(fabric.state.amps, psi) <= TOL
            else:
                assert _gap(fabric.logical_state().amps, psi) <= TOL
        assert _gap(fabric.logical_state().amps, psi) <= TOL
        assert not fabric._fans  # logical_state applied the whole record


# -- the checks bite: mutants of the fold fail dqft verify -----------------------------


def _drop_a_recorded_fan(monkeypatch):
    local = Fabric._local

    def dropped(self, qubits):
        self._fans = self._fans[1:]  # the pass never sees the first recorded fan
        return local(self, qubits)

    monkeypatch.setattr(Fabric, "_local", dropped)


def _invert_on(monkeypatch):
    local = Fabric._local

    def inverted(self, qubits):
        self._fans = [(source, 1 - on, targets, phis) for source, on, targets, phis in self._fans]
        return local(self, qubits)

    monkeypatch.setattr(Fabric, "_local", inverted)


def _misindex_a_pending_z(monkeypatch):
    local = Fabric._local

    def misindexed(self, qubits):  # each Z on the block lands on the block's next qubit
        lo, m = qubits[0], len(qubits)
        self._pending_z = {lo + (q - lo + 1) % m if lo <= q < lo + m else q
                           for q in self._pending_z}
        return local(self, qubits)

    monkeypatch.setattr(Fabric, "_local", misindexed)


@pytest.mark.parametrize("mutant", [_drop_a_recorded_fan, _invert_on, _misindex_a_pending_z],
                         ids=["drop-a-recorded-fan", "invert-on", "misindex-a-pending-z"])
def test_fold_mutants_fail_dqft_verify(monkeypatch, mutant):
    assert verify.check_fused_application()[1]
    mutant(monkeypatch)
    name, passed, detail = verify.check_fused_application()
    assert not passed and "pass differs" in detail, detail
    if mutant is not _misindex_a_pending_z:  # a run never leaves a Z pending
        assert not verify.check_state_equivalence()[1]
