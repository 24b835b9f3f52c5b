"""Dense value-indexed distributions: validation, fidelity and the run path.

The fidelity oracle below is a pure-Python sum over the common values of two
dicts, and dense() builds an array from a dict with a Python loop; neither
shares code with metrics.py.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqft.bench as bench
import dqft.metrics as metrics
import dqft.runner as runner
from dqft.bench import SweepConfig, run_point, sweep
from dqft.fabric import make_partition
from dqft.metrics import classical_fidelity, counts_to_distribution
from dqft.runner import (exact_value_distribution, monolithic_exact_distribution,
                         run_distributed, run_monolithic_reference, run_semiclassical,
                         semiclassical_exact_distribution)
from oracles import oracle_value_distribution


def oracle_fidelity(p: dict, q: dict) -> float:
    return sum(math.sqrt(p[v] * q[v]) for v in p.keys() & q.keys())


def dense(d: dict, size: int) -> np.ndarray:
    out = np.zeros(size)
    for v, x in d.items():
        out[v] = x
    return out


@st.composite
def sparse_distribution(draw, max_value: int = 24):
    """A dict over a random subset of range(max_value); some entries may be 0."""
    values = draw(st.lists(st.integers(0, max_value - 1), min_size=1, max_size=max_value,
                           unique=True))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(values),
                            max_size=len(values)))
    total = sum(weights)
    if total == 0.0:
        weights[0], total = 1.0, 1.0
    return {v: w / total for v, w in zip(values, weights)}


@settings(deadline=None)
@given(sparse_distribution(), sparse_distribution(), st.integers(0, 8), st.integers(0, 8))
def test_fidelity_of_every_form_equals_the_python_sum(p, q, pad_p, pad_q):
    """Disjoint and missing values included; arrays of unequal lengths."""
    want = oracle_fidelity(p, q)
    p_arr = dense(p, max(p) + 1 + pad_p)
    q_arr = dense(q, max(q) + 1 + pad_q)
    for a, b in ((p, q), (p, q_arr), (p_arr, q), (p_arr, q_arr)):
        assert classical_fidelity(a, b) == pytest.approx(want, abs=1e-12)
        assert classical_fidelity(b, a) == pytest.approx(want, abs=1e-12)


def test_fidelity_of_disjoint_forms_is_zero():
    assert classical_fidelity({0: 1.0}, np.array([0.0, 1.0])) == 0.0
    assert classical_fidelity(np.array([1.0]), np.array([0.0, 1.0])) == 0.0
    assert classical_fidelity({5: 1.0}, np.array([0.5, 0.5])) == 0.0


BAD_ENTRIES = [float("nan"), float("inf"), float("-inf"), -0.25]


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("form", ["dict", "array"])
def test_invalid_entries_rejected_in_both_forms(bad, form):
    d = {0: 0.5, 1: bad, 2: 0.5}
    d = d if form == "dict" else dense(d, 3)
    good = {0: 1.0}
    with pytest.raises(ValueError, match=r"p\(1\)"):
        classical_fidelity(d, d)
    with pytest.raises(ValueError):
        classical_fidelity(d, good)
    with pytest.raises(ValueError):
        classical_fidelity(good, d)


@pytest.mark.parametrize("form", ["dict", "array"])
@pytest.mark.parametrize("off", [2e-9, -2e-9])
def test_sum_off_by_2e_9_rejected_in_both_forms(form, off):
    d = {0: 0.25, 1: 0.75 + off}
    d = d if form == "dict" else dense(d, 2)
    with pytest.raises(ValueError, match="sum"):
        classical_fidelity(d, d)
    with pytest.raises(ValueError):
        classical_fidelity(d, np.array([0.5, 0.5]))


def test_negative_value_rejected():
    # a plain a[keys] = values would wrap -1 onto the last entry
    for d in ({-1: 1.0}, {0: 0.5, -1: 0.5}):
        with pytest.raises(ValueError, match=r"p\(-1\)"):
            classical_fidelity(d, d)
        with pytest.raises(ValueError):
            classical_fidelity(d, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            classical_fidelity(np.array([0.5, 0.5]), d)


def test_sparse_dict_does_not_allocate_by_its_largest_value():
    big = 2 ** 40
    assert classical_fidelity({big: 1.0}, {big: 1.0}) == 1.0
    assert classical_fidelity({big: 1.0}, np.array([1.0])) == 0.0
    assert classical_fidelity({0: 0.5, big: 0.5}, np.array([1.0])) == pytest.approx(
        math.sqrt(0.5), abs=1e-15)


def test_a_dict_against_a_dense_law_reads_only_the_dicts_values():
    law = runner._reference(20, 0.123)
    peak = int(np.argmax(law))
    tracemalloc.start()
    try:
        fidelity = classical_fidelity({peak: 1.0}, law)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fidelity == math.sqrt(law[peak])
    assert allocated < law.nbytes / 8, allocated


@pytest.mark.parametrize("chunk", [128, 1000, metrics.OVERLAP_CHUNK])
def test_two_dense_laws_meet_in_chunks_with_numpys_own_sum(monkeypatch, chunk):
    monkeypatch.setattr(metrics, "OVERLAP_CHUNK", chunk)
    g = np.random.default_rng(chunk)
    for size in (1, 9, chunk - 1, chunk, chunk + 1, 3 * chunk + 5, 8 * chunk, 2**17 + 3):
        p, q = g.random(size) ** 4, g.random(size)
        p, q = p / p.sum(), q / q.sum()
        assert classical_fidelity(p, q) == np.sqrt(p * q).sum(), size
    tracemalloc.start()
    try:
        classical_fidelity(p, q)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated <= 8 * chunk + 4096, allocated


def test_the_reference_is_built_in_its_one_array():
    n = 20
    tracemalloc.start()
    try:
        law = runner._reference(n, 0.123)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated <= law.nbytes + 4096, allocated


# -- the public dicts and the dense arrays ---------------------------------------


CASES = [(1, 0.0), (4, 1 / 3), (5, 0.8), (7, 2 / 3), (9, 0.123)]


@pytest.mark.parametrize("n, theta", CASES)
def test_public_dicts_are_the_dense_arrays(n, theta):
    state = run_monolithic_reference(n, theta, shots=1).state
    pairs = [
        (exact_value_distribution(state), runner._distribution(state)),
        (monolithic_exact_distribution(n, theta), runner._reference(n, theta)),
        (semiclassical_exact_distribution(n, theta),
         runner._semiclassical_law(n, theta)),
    ]
    oracle = oracle_value_distribution(n, theta)
    for as_dict, arr in pairs:
        assert list(as_dict) == list(range(1 << n))
        assert arr.dtype == np.float64 and arr.shape == (1 << n,)
        assert np.array_equal(np.fromiter(as_dict.values(), float), arr)
        assert np.allclose(arr, [oracle[v] for v in range(1 << n)], atol=1e-12)


@pytest.mark.parametrize("run", [
    lambda: run_distributed(make_partition(6, 3), 0.123, mode="telegate", shots=40, seed=5),
    lambda: run_semiclassical(make_partition(6, 3), 0.123, shots=40, seed=5),
    lambda: run_monolithic_reference(6, 0.123, shots=40, seed=5),
], ids=["telegate", "semiclassical", "monolithic"])
def test_every_run_reports_its_sampled_fidelity(run):
    res = run()
    want = oracle_fidelity(counts_to_distribution(res.counts), oracle_value_distribution(6, 0.123))
    assert res.metrics.fidelity_sampled == pytest.approx(want, abs=1e-12)
    assert 0.5 < res.metrics.fidelity_sampled < 1.0  # 40 shots of a spread law


# -- the run path builds no per-value dict -------------------------------------


@pytest.fixture
def no_value_dicts(monkeypatch):
    """Make every public builder of a per-value dict raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-value dict was built on the run path")

    for owner, name in ((runner, "exact_value_distribution"),
                        (runner, "monolithic_exact_distribution"),
                        (runner, "semiclassical_exact_distribution"),
                        (bench, "monolithic_exact_distribution")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("mode", ["telegate", "semiclassical"])
def test_run_point_builds_no_value_dict(no_value_dicts, mode):
    row = run_point(6, 2, 1 / 3, mode, shots=30, seed=1)
    assert row.fidelity_exact == pytest.approx(1.0, abs=1e-9)


def test_sweep_builds_no_value_dict(no_value_dicts, tmp_path):
    config = SweepConfig(num_qubits=[5], nodes=[2], theta=[2 / 3], shots=20,
                         modes=["telegate", "semiclassical"], seed=4, repeats=1,
                         output_path=str(tmp_path / "rows.csv"))
    summary = sweep(config, log=lambda msg: None)
    assert summary["written"] == 2 and not summary["failures"]


# -- the clock stops before the dense verification -------------------------------


VERIFY_SLEEP_S = 0.2


@pytest.fixture
def slow_dense_verification(monkeypatch):
    """Make every dense exact distribution a run verifies with sleep first; count the calls."""
    calls = []
    for name in ("_distribution", "_rev", "_reference", "_semiclassical_law"):
        original = getattr(runner, name)

        def slow(*args, _original=original, _name=name):
            calls.append(_name)
            time.sleep(VERIFY_SLEEP_S)
            return _original(*args)

        monkeypatch.setattr(runner, name, slow)
    return calls


@pytest.mark.parametrize("run", [
    lambda: run_distributed(make_partition(4, 2), 1 / 3, mode="telegate", shots=20),
    lambda: run_distributed(make_partition(4, 2), 1 / 3, mode="semiclassical", shots=20),
    lambda: run_monolithic_reference(4, 1 / 3, shots=20),
], ids=["telegate", "semiclassical", "monolithic"])
def test_wall_time_excludes_dense_verification(slow_dense_verification, run):
    res = run()
    assert slow_dense_verification, "the run verified without the dense builders"
    assert res.metrics.fidelity_vs_reference == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < res.metrics.wall_time_seconds < VERIFY_SLEEP_S
