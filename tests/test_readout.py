"""A dense run's readout: every draw kept, the exact law, and the checks it still makes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import runner
from dqft.circuits import fourier_product, rev_postprocess
from dqft.fabric import Fabric, PartitionPlan, make_partition
from dqft.metrics import epr_budget
from dqft.runner import _distribution, run_distributed, run_monolithic_reference
from dqft.telegate import apply_remote_controlled, cat_disentangle, cat_entangle


@st.composite
def plans(draw):
    """A plan of n <= 10 qubits over k nodes of any sizes."""
    n = draw(st.integers(1, 10))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    edges = [0, *sorted(cuts), n]
    sizes = tuple(b - a for a, b in zip(edges, edges[1:]))
    return PartitionPlan(n=n, k=len(sizes), sizes=sizes)


@settings(max_examples=60, deadline=None)
@given(plans(), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 300),
       st.sampled_from([0, 1, 7, 2**31 - 1]))
def test_the_readout_keeps_every_draw(plan, theta, shots, seed):
    seen = {}

    def execute(fabric, schedule, rng):
        seen["rng"] = rng
        return real_execute(fabric, schedule, rng)

    def metrics(*args):
        seen["exact"] = args[5]
        return real_metrics(*args)

    real_execute, real_metrics = runner._execute_schedule, runner._metrics
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_execute_schedule", execute)
        mp.setattr(runner, "_metrics", metrics)
        res = run_distributed(plan, theta, shots=shots, seed=seed, return_state=True)

    # the oracle, from public API only: skip the sessions' draws, six per session
    rng = np.random.default_rng(seed)
    rng.random(6 * epr_budget(plan))
    raw = res.state.sample_counts(range(plan.n), shots, rng)
    want = {rev_postprocess(s): c for s, c in raw.items()}
    assert list(res.counts.items()) == list(want.items())
    assert np.array_equal(seen["exact"], _distribution(res.state))
    assert seen["rng"].random() == rng.random()


# -- what the run path no longer calls stays guarded ------------------------------


def test_logical_state_is_a_copy():
    fabric = Fabric(make_partition(2, 2), prep=fourier_product(2, 0.3))
    before, amps = fabric.logical_state(), fabric.state.amps.copy()
    before.amps[:] = 0.0
    assert np.array_equal(fabric.state.amps, amps)

    before = fabric.logical_state()
    rng = np.random.default_rng(2)
    handle = cat_entangle(fabric, 0, 1, rng)
    apply_remote_controlled(fabric, handle, [1], [np.pi / 2])
    cat_disentangle(fabric, handle, rng)
    assert not np.allclose(fabric.logical_state().amps, amps)  # the session changed the state
    assert np.array_equal(before.amps, amps)


def _scale(amps):
    amps *= 1.001


def _nan(amps):
    amps[0] = np.nan


@pytest.mark.parametrize("corrupt", [_scale, _nan], ids=["scaled", "nan"])
@pytest.mark.parametrize("run", ["telegate", "monolithic"])
def test_a_dense_run_with_a_corrupt_final_state_raises(monkeypatch, corrupt, run):
    real_execute, real_state = runner._execute_schedule, runner._monolithic_state

    def execute(fabric, schedule, rng):
        slots = real_execute(fabric, schedule, rng)
        corrupt(fabric.state.amps)
        return slots

    def monolithic_state(n, theta):
        state = real_state(n, theta)
        corrupt(state.amps)
        return state

    monkeypatch.setattr(runner, "_execute_schedule", execute)
    monkeypatch.setattr(runner, "_monolithic_state", monolithic_state)
    with pytest.raises(ValueError):
        if run == "telegate":
            run_distributed(make_partition(5, 2), 0.3, shots=20, seed=1)
        else:
            run_monolithic_reference(5, 0.3, shots=20, seed=1)
