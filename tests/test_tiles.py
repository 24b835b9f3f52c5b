"""A node's local block, run tile by tile with its qubits leading, and the run's ufunc buffer.

inverse_qft_local copies a slab of at most TILE_AMPS amplitudes into one
buffer, takes the block there and copies it back.  Every amplitude sees the
same products in the same order as in place, so every result here is
compared bit for bit.  The tile is forced down to 2^3-2^5 amplitudes, so
that small states cut into many tiles.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dqft import circuits, runner
from dqft.circuits import fourier_product, inverse_qft_local
from dqft.fabric import CrossNodeGateError, Fabric, PartitionPlan, make_partition
from dqft.runner import run_distributed, run_monolithic_reference
from dqft.statevector import Gate, StateVector
from dqft.telegate import cat_entangle
from test_closed_forms import cp_conjugated  # noqa: F401 (a fixture)
from test_comm_frame import ListRng
from test_readout import _scale

UNTILED = 1 << 40  # no state here is larger: every block runs in place
SMALL_TILES = (1 << 3, 1 << 4, 1 << 5)


def _bits(amps):
    return amps.view(np.int64).copy()


@pytest.mark.parametrize("tile", SMALL_TILES)
def test_a_tiled_block_is_the_block_in_place_bit_for_bit(monkeypatch, tile):
    rng = np.random.default_rng(tile)
    for n in range(1, 11):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for lo in range(n):
            for m in range(1, n - lo + 1):
                monkeypatch.setattr(circuits, "TILE_AMPS", UNTILED)
                in_place = _bits(inverse_qft_local(StateVector._of(amps.copy()),
                                                   range(lo, lo + m)).amps)
                monkeypatch.setattr(circuits, "TILE_AMPS", tile)
                tiled = inverse_qft_local(StateVector._of(amps.copy()), range(lo, lo + m))
                assert np.array_equal(_bits(tiled.amps), in_place), (n, lo, m)


def _plans(n):
    """Every k, as make_partition's sizes and reversed, each passed as a list."""
    for k in range(1, n + 1):
        sizes = make_partition(n, k).sizes
        for order in {sizes, sizes[::-1]}:
            yield PartitionPlan(n=n, k=k, sizes=list(order))


def _telegate(plan, theta, seed):
    """The final state's bits, the counts in order, and the generator's next draw."""
    seen = {}
    real_execute = runner._execute_schedule

    def execute(fabric, schedule, rng):
        seen["rng"] = rng
        return real_execute(fabric, schedule, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_execute_schedule", execute)
        res = run_distributed(plan, theta, shots=37, seed=seed, return_state=True)
    return _bits(res.state.amps), list(res.counts.items()), seen["rng"].random()


@pytest.mark.parametrize("tile", [1 << 3, 1 << 5])
def test_a_tiled_telegate_run_is_the_run_in_place_bit_for_bit(monkeypatch, tile):
    for n in range(2, 13, 2 if tile == 1 << 3 else 1):
        for plan in _plans(n):
            theta, seed = (n * 0.0731 + plan.k * 0.01) % 1, n + plan.k
            monkeypatch.setattr(circuits, "TILE_AMPS", UNTILED)
            bits, counts, draw = _telegate(plan, theta, seed)
            monkeypatch.setattr(circuits, "TILE_AMPS", tile)
            got = _telegate(plan, theta, seed)
            assert np.array_equal(got[0], bits), plan
            assert got[1:] == (counts, draw), plan


def test_a_tiled_block_allocates_at_most_one_tile():
    n, lo, m = 18, 9, 9
    state = StateVector._of(fourier_product(n, 0.123).to_statevector().amps)
    inverse_qft_local(state.copy(), range(lo, lo + m))  # the fan tables are cached
    with np.errstate():
        np.setbufsize(runner.UFUNC_BUFSIZE)  # as a dense run sets it
        tracemalloc.start()
        try:
            inverse_qft_local(state, range(lo, lo + m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tile_bytes = 16 * circuits.TILE_AMPS
    assert state.amps.nbytes > tile_bytes
    assert tile_bytes <= peak <= tile_bytes + (32 << 10)  # one tile, plus its bookkeeping


def test_concurrent_tiled_runs_each_equal_the_run_alone():
    # three threads, more than this suite's two cores, run tiled node passes at once, the
    # FFT form and the narrow one: each pass has its own tile buffer, so no thread sees
    # another's amplitudes
    plans = [PartitionPlan(n=17, k=2, sizes=(8, 9)), PartitionPlan(n=17, k=4, sizes=(8, 3, 3, 3)),
             PartitionPlan(n=17, k=2, sizes=(8, 9))]

    def run(plan):
        res = run_distributed(plan, 0.123, shots=37, seed=7, return_state=True)
        return _bits(res.state.amps), res.counts

    alone, seen = [run(plan) for plan in plans], [[] for _ in plans]

    def work(i):
        for _ in range(6):
            seen[i].append(run(plans[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(plans))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(alone, seen):
        assert len(got) == 6
        assert all(np.array_equal(bits, want[0]) and counts == want[1] for bits, counts in got)


# -- the ufunc buffer: set for a run's emulation, and the caller's own value after it --


def _buffer_seen(monkeypatch):
    """Record np.getbufsize() inside each run's emulation, and from a fresh thread there."""
    seen = []
    real_execute, real_local = runner._execute_schedule, runner.inverse_qft_local

    def record():
        other = []
        thread = threading.Thread(target=lambda: other.append(np.getbufsize()))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        seen.append((np.getbufsize(), other[0]))

    def execute(fabric, schedule, rng):
        record()
        return real_execute(fabric, schedule, rng)

    def local(*args):
        record()
        return real_local(*args)

    monkeypatch.setattr(runner, "_execute_schedule", execute)
    monkeypatch.setattr(runner, "inverse_qft_local", local)
    return seen


def test_a_dense_run_scopes_its_ufunc_buffer(monkeypatch):
    seen = _buffer_seen(monkeypatch)
    assert np.getbufsize() == 8192
    run_distributed(make_partition(6, 2), 0.3, shots=5, seed=1)
    run_monolithic_reference(6, 0.3, shots=5, seed=1)
    assert np.getbufsize() == 8192
    # node 0's block (in the prep), the schedule and node 1's block, then the
    # monolithic run's one block and its schedule; another thread keeps numpy's default
    assert seen == [(runner.UFUNC_BUFSIZE, 8192)] * 5
    np.setbufsize(4096)
    try:
        run_distributed(make_partition(6, 2), 0.3, shots=5, seed=1)
        run_monolithic_reference(6, 0.3, shots=5, seed=1)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(8192)


def _raise_inside(*args):
    raise KeyError("inside the emulation")


@pytest.mark.parametrize("run", ["telegate", "monolithic"])
def test_a_run_that_raises_restores_the_callers_ufunc_buffer(monkeypatch, run):
    real_execute = runner._execute_schedule

    def execute(fabric, schedule, rng):  # the corrupt-state wrapper of test_readout.py
        slots = real_execute(fabric, schedule, rng)
        _scale(fabric.state.amps)
        return slots

    call = ((lambda: run_distributed(make_partition(5, 2), 0.3, shots=20, seed=1))
            if run == "telegate" else lambda: run_monolithic_reference(5, 0.3, shots=20, seed=1))
    np.setbufsize(4096)
    try:
        with monkeypatch.context() as mp:
            mp.setattr(runner, "_execute_schedule", execute)
            with pytest.raises(ValueError):
                call()
        assert np.getbufsize() == 4096
        with monkeypatch.context() as mp:  # raised inside the scope itself
            mp.setattr(runner, "inverse_qft_local", _raise_inside)
            with pytest.raises(KeyError):
                call()
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(8192)


# -- the checks still bite on a tiled run ---------------------------------------------------


def test_cp_only_conjugation_fails_a_tiled_telegate_run(monkeypatch, cp_conjugated):  # noqa: F811
    monkeypatch.setattr(circuits, "TILE_AMPS", 1 << 4)
    res = run_distributed(make_partition(8, 4), 0.123)
    assert res.metrics.fidelity_vs_reference < 1 - 1e-9


def test_one_negated_fan_phase_fails_a_tiled_telegate_run(monkeypatch):
    real_fans = circuits.inverse_qft_fans

    def fans(qubits):  # the CP between a block's first two qubits, negated
        for q, earlier, phis in real_fans(qubits):
            yield q, earlier, ([-phis[0]] if len(phis) == 1 else phis)

    monkeypatch.setattr(circuits, "TILE_AMPS", 1 << 4)
    monkeypatch.setattr(circuits, "inverse_qft_fans", fans)
    res = run_distributed(make_partition(8, 2), 0.123)
    assert res.metrics.fidelity_vs_reference < 1 - 1e-9


# -- the fabric checks a block once, then hands its state over --------------------------------


def _pending_z(fabric, control, node):
    """A session from control whose disentangler measures 1 and skips the Z correction."""
    rng = ListRng([0.9] * 5)
    cat = cat_entangle(fabric, control, node, rng).remote_cat
    fabric.apply("h", (cat,))
    assert fabric.measure(cat, rng) == 1


def test_a_pending_z_is_applied_before_the_block(monkeypatch):
    monkeypatch.setattr(circuits, "TILE_AMPS", 1 << 4)  # node 1's block, 3 qubits, in 8 tiles
    plan = make_partition(6, 2)
    fabric = Fabric(plan, prep=fourier_product(6, 0.3))
    _pending_z(fabric, 4, 0)
    assert fabric._pending_z == {4}
    want = fabric.state.copy().apply_gate(Gate.z(4))
    inverse_qft_local(want, range(3, 6))
    runner._node_pass(fabric, range(3, 6))
    assert fabric._pending_z == set()
    assert np.array_equal(_bits(fabric.state.amps), _bits(want.amps))


def test_a_block_under_a_live_copy_raises_and_changes_nothing():
    plan = make_partition(6, 2)
    fabric = Fabric(plan, prep=fourier_product(6, 0.3))
    _pending_z(fabric, 4, 0)
    cat_entangle(fabric, 3, 0, ListRng([0.9] * 4))  # node 0's comm qubit copies qubit 3
    before = (_bits(fabric.state.amps), dict(fabric._frame), set(fabric._pending_z))
    with pytest.raises(ValueError, match="copies"):
        fabric._local(range(3, 6))
    with pytest.raises(CrossNodeGateError):
        fabric._local(range(2, 5))
    with pytest.raises(ValueError, match="comm qubit"):
        fabric._local((plan.comm_slots[1],))
    assert np.array_equal(_bits(fabric.state.amps), before[0])
    assert (fabric._frame, fabric._pending_z) == before[1:]
