"""A dense run's readout: every draw kept, the exact law, its working set, and its checks."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import runner
from dqft.circuits import fourier_product
from dqft.fabric import Fabric, PartitionPlan, make_partition
from dqft.metrics import epr_budget
from dqft.runner import _distribution, run_distributed, run_monolithic_reference
from dqft.statevector import _sample
from dqft.telegate import apply_remote_controlled, cat_disentangle, cat_entangle
from oracles import rev_postprocess


# -- the sampler is numpy's own Generator.choice ----------------------------------


@st.composite
def laws(draw):
    """An unnormalized law of 2^n <= 2^14 entries: spread, with zeros, or a point mass."""
    n = draw(st.integers(0, 14))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = g.random(1 << n) ** draw(st.integers(1, 12)) * draw(st.sampled_from([1e-300, 1.0, 1e300]))
    p[g.random(p.size) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    if draw(st.booleans()) or not p.any():  # a point mass
        p[:] = 0.0
        p[draw(st.integers(0, p.size - 1))] = 0.25
    return p


@settings(max_examples=150, deadline=None)
@given(laws(), st.integers(1, 500), st.integers(0, 2**128))
def test_the_sampler_is_generator_choice(p, shots, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.unique(oracle.choice(p.size, size=shots, p=p / p.sum()), return_counts=True)
    got = [(int(i), int(c)) for i, c in _sample(p, shots, rng)]
    assert got == [(int(i), int(c)) for i, c in zip(*want)]
    assert rng.random() == oracle.random()


@pytest.mark.parametrize("law", [[0.5, np.nan], [np.inf, 1.0], [0.0, 0.0]],
                         ids=["nan", "inf", "all-zero"])
def test_the_sampler_rejects_what_generator_choice_rejects(law):
    p = np.array(law)
    with pytest.raises(ValueError):
        _sample(p, 10, np.random.default_rng(1))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        np.random.default_rng(1).choice(p.size, size=10, p=p / p.sum())


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
    real_execute = runner._execute_schedule

    def execute(fabric, schedule, rng):
        slots = real_execute(fabric, schedule, rng)
        corrupt(fabric.state.amps)
        return slots

    monkeypatch.setattr(runner, "_execute_schedule", execute)
    with pytest.raises(ValueError):
        if run == "telegate":
            run_distributed(make_partition(5, 2), 0.3, shots=20, seed=1)
        else:
            run_monolithic_reference(5, 0.3, shots=20, seed=1)


# -- the working set: at most 1.5 states, 2 with the state kept --------------------

N = 18
STATE = 16 << N


def _traced_peak(run) -> int:
    """Peak bytes traced while run() runs, above what was held when it started."""
    run()  # warm-up: lazy imports and the fan tables' cache
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("return_state, states", [(False, 1.5), (True, 2.0)])
def test_a_telegate_run_holds_at_most_its_states(k, return_state, states):
    peak = _traced_peak(lambda: run_distributed(make_partition(N, k), 0.123, seed=1,
                                                return_state=return_state))
    assert peak <= states * STATE + (1 << 20)


def test_a_monolithic_run_holds_at_most_two_states():
    assert _traced_peak(lambda: run_monolithic_reference(N, 0.123, seed=1)) <= 2 * STATE + (1 << 20)


@pytest.mark.parametrize("return_state", [False, True])
def test_the_final_state_is_released_before_verification(monkeypatch, return_state):
    final = []

    def execute(fabric, schedule, rng):
        slots = real_execute(fabric, schedule, rng)
        final.append(weakref.ref(fabric.state))
        return slots

    def metrics(*args):
        final.append(final[0]() is None)
        return real_metrics(*args)

    real_execute, real_metrics = runner._execute_schedule, runner._metrics
    monkeypatch.setattr(runner, "_execute_schedule", execute)
    monkeypatch.setattr(runner, "_metrics", metrics)
    res = run_distributed(make_partition(8, 3), 0.3, seed=2, return_state=return_state)
    assert final[1] is not return_state
    assert res.state is final[0]()
