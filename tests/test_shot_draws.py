"""A semiclassical run's one fabric and its blocks of draws against the per-shot loop.

run_semiclassical runs every shot on one product fabric, restarted from
the prep before each shot (Fabric._restart), and reads each measurement's
uniform from a block of shot-major draws (runner._semiclassical_shots).
oracles.fresh_fabric_shots is the loop that does neither: a new fabric per
shot and one Generator.random() per measurement.  The two must agree bit
for bit and leave the Generator at the same place.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import runner
from dqft.circuits import fourier_product
from dqft.fabric import Fabric, PartitionPlan, make_partition
from dqft.metrics import classical_fidelity, counts_to_distribution
from oracles import fresh_fabric_shots
from test_properties import node_sizes


@st.composite
def shot_run(draw):
    """An uneven plan of n <= 10 qubits, a dyadic, third or random theta, 1..3000 shots,
    a seed, and a draw block from one double to the default: small blocks split a run."""
    sizes = draw(node_sizes(10))
    n = sum(sizes)
    theta = draw(st.one_of(st.integers(0, (1 << n) - 1).map(lambda j: j / (1 << n)),
                           st.sampled_from([1 / 3, 2 / 3]),
                           st.floats(0.0, 1.0, exclude_max=True)))
    shots = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    block = draw(st.sampled_from([1, n, 3 * n + 1, 1000, runner._DRAW_BLOCK]))
    seed = draw(st.integers(0, 2**32))
    return PartitionPlan(n, len(sizes), tuple(sizes)), theta, shots, seed, block


@settings(deadline=None, max_examples=60)
@given(shot_run())
def test_one_fabric_and_draw_blocks_match_a_fresh_fabric_per_shot(case):
    plan, theta, shots, seed, block = case
    prep = fourier_product(plan.n, theta)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(runner, "_DRAW_BLOCK", block):
        result = runner.run_semiclassical(plan, theta, shots=shots, seed=seed)
        counts, counters = runner._semiclassical_shots(plan, prep, shots, rng)
    ref_counts, ref_counters = fresh_fabric_shots(plan, prep, shots, ref_rng)

    assert list(counts.items()) == list(ref_counts.items()) == list(result.counts.items())
    assert counters == ref_counters
    assert result.metrics.classical_msg_count == ref_counters.classical_messages
    reference = runner._reference(plan.n, theta)
    fidelity = classical_fidelity(counts_to_distribution(ref_counts), reference)
    assert result.metrics.fidelity_sampled.hex() == fidelity.hex()
    assert rng.random() == ref_rng.random()  # the same number of doubles was drawn


def test_every_shot_drains_its_channels_and_counts_one_execution(monkeypatch):
    plan = PartitionPlan(9, 4, (1, 4, 2, 2))
    prep = fourier_product(plan.n, 0.3)
    _, one = fresh_fabric_shots(plan, prep, 1, np.random.default_rng(0))
    once, seen = runner._semiclassical_once, []

    def checked(fabric, rng):
        value = once(fabric, rng)
        seen.append((not any(fabric._channels), dataclasses.replace(fabric.counters)))
        return value

    monkeypatch.setattr(runner, "_semiclassical_once", checked)
    runner.run_semiclassical(plan, 0.3, shots=50, seed=4)
    assert len(seen) == 50
    assert all(drained and counters == one for drained, counters in seen)
    assert one.classical_messages == 1 * 3 + 4 * 2 + 2 * 1 and one.midcircuit_measurements == 9


def test_restart_refuses_an_undelivered_message_and_otherwise_starts_afresh():
    plan = make_partition(4, 2)
    prep = fourier_product(4, 0.3)
    fabric = Fabric(plan, with_comm=False, prep=prep)
    fabric.measure(0, np.random.default_rng(1))
    fabric.send_classical(0, 1, "feedforward", 1)
    state, counters = fabric.state, fabric.counters
    with pytest.raises(RuntimeError, match="undelivered"):
        fabric._restart(prep)
    assert fabric.state is state and fabric.counters is counters  # nothing changed
    assert fabric.receive_all(1) == []  # not yet deliverable: it stays queued
    fabric.advance_clock(1)
    assert [m.payload for m in fabric.receive_all(1)] == [1]

    fabric._restart(prep)
    assert fabric.counters == Fabric(plan, with_comm=False).counters
    assert fabric.state._factors == prep._factors and fabric.state._factors is not prep._factors
    fabric.send_classical(0, 1, "feedforward", 0)  # the channel stays open and works
    fabric.advance_clock(1)
    assert [m.tick for m in fabric.receive_all(1)] == [1]


class CountingGenerator:
    """A Generator whose random calls are recorded by size."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def test_a_run_builds_one_fabric_and_draws_once_per_block(monkeypatch):
    init, inits = Fabric.__init__, []

    def counting(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, "__init__", counting)
    rng = CountingGenerator(3)
    plan = make_partition(4, 2)
    counts, _ = runner._semiclassical_shots(plan, fourier_product(4, 0.123), 40_000, rng)
    assert len(inits) == 1 and sum(counts.values()) == 40_000
    per_block = runner._DRAW_BLOCK // 4
    assert rng.sizes == [per_block * 4, per_block * 4, (40_000 - 2 * per_block) * 4]
    runner.run_semiclassical(plan, 0.123, shots=100)
    assert len(inits) == 2


def _peak_bytes(shots: int) -> int:
    plan = make_partition(4, 2)
    tracemalloc.start()
    try:
        runner.run_semiclassical(plan, 0.123, shots=shots, seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_shots():
    # one array of all 160 000 draws would be 1.25 MiB, and two blocks held at
    # once 1 MiB; a run holds one block of at most 512 KiB at a time
    assert _peak_bytes(40_000) - _peak_bytes(1_000) <= 3 << 18
