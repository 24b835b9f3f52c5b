"""A dense run starts from node 0's block taken on its own factors, then one outer product.

runner._head_start expands node 0's m0 factors of the Fourier product and
runs its inverse-QFT block on those 2^m0 amplitudes; the fabric multiplies
that head by the other factors' Kronecker product (fabric.HeadStart), and
the schedule skips node 0's block.  Each result here is held against an
in-test rebuild of the pipeline it replaces: the whole product expanded
(ProductState.to_statevector), then every block of the schedule, node 0's
included, on the 2^n state.  On one node the two are the same computation,
so the final state is compared bit for bit; on more nodes the rounding of
node 0's block moves, so the counts, the sampled fidelity and the next draw
are compared (test_envelope.py bounds the amplitudes).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft import runner, verify
from dqft.circuits import build_schedule, fourier_product, inverse_qft_local
from dqft.fabric import Fabric, HeadStart, PartitionPlan, make_partition
from dqft.metrics import classical_fidelity, counts_to_distribution
from dqft.runner import run_distributed, run_monolithic_reference
from dqft.statevector import Gate, StateVector

THETAS = (0.0, 0.123, 1 / 3, 0.71)


def _bits(amps):
    return amps.view(np.int64).copy()


def _with_rng(plan, theta, shots, seed):
    """A run's result and its generator's next draw."""
    seen, real_execute = {}, runner._execute_schedule

    def execute(fabric, schedule, rng):
        seen["rng"] = rng
        return real_execute(fabric, schedule, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_execute_schedule", execute)
        res = run_distributed(plan, theta, shots=shots, seed=seed)
    return res, seen["rng"].random()


def _rebuilt(plan, theta, shots, seed):
    """The pipeline before the head start: the counts, the sampled fidelity and the next draw."""
    rng = np.random.default_rng(seed)
    with np.errstate():
        np.setbufsize(runner.UFUNC_BUFSIZE)
        fabric = Fabric(plan, prep=fourier_product(plan.n, theta))  # the 2^n product itself
        assert not fabric.head_done
        runner._execute_schedule(fabric, build_schedule(plan), rng)
    counts = runner._readout(fabric._settled().probabilities(range(plan.n)), shots, rng)
    sampled = classical_fidelity(counts_to_distribution(counts), runner._reference(plan.n, theta))
    return list(counts.items()), sampled.hex(), rng.random()


@pytest.mark.parametrize("n", range(1, 15))
def test_a_one_node_state_is_the_expanded_product_after_its_block_bit_for_bit(n):
    for theta in THETAS + ((5 << n) // 7 / (1 << n),):
        want = fourier_product(n, theta).to_statevector()
        inverse_qft_local(want, range(n))  # in place: the block starts at qubit 0
        got = run_monolithic_reference(n, theta, shots=3, seed=n).state
        assert np.array_equal(_bits(got.amps), _bits(want.amps)), (n, theta)
        one_node = run_distributed(make_partition(n, 1), theta, shots=3, return_state=True)
        assert np.array_equal(_bits(one_node.state.amps), _bits(want.amps)), (n, theta)


@st.composite
def uneven_plans(draw):
    """k >= 2 nodes on n <= 12 qubits, as make_partition cuts them or reversed."""
    n = draw(st.integers(2, 12))
    sizes = make_partition(n, draw(st.integers(2, n))).sizes
    if draw(st.booleans()):
        sizes = sizes[::-1]
    return PartitionPlan(n=n, k=len(sizes), sizes=sizes)


@settings(max_examples=80, deadline=None)
@given(uneven_plans(), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 400),
       st.integers(0, 2**32 - 1))
def test_a_run_draws_what_the_expanded_pipeline_draws(plan, theta, shots, seed):
    res, draw = _with_rng(plan, theta, shots, seed)
    assert (list(res.counts.items()), res.metrics.fidelity_sampled.hex(), draw) == \
        _rebuilt(plan, theta, shots, seed)


def test_the_prepared_state_is_node_0s_block_on_the_expanded_product():
    for sizes in [(3, 5), (5, 3), (1, 7), (7, 1), (2, 3, 3), (4, 4)]:
        plan = PartitionPlan(n=8, k=len(sizes), sizes=sizes)
        for theta in THETAS:
            want = fourier_product(8, theta).to_statevector()
            inverse_qft_local(want, plan.node_qubits(0))
            got = Fabric(plan, prep=runner._head_start(plan, theta))
            assert got.head_done
            assert np.abs(got.state.amps - want.amps).max() <= 1e-15, (sizes, theta)


def test_a_run_keeps_its_slots_ticks_and_one_fabric(monkeypatch):
    made, real_init = [], Fabric.__init__

    def init(self, *args, **kwargs):
        made.append(kwargs.get("prep"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, "__init__", init)
    for n, k in [(5, 1), (8, 2), (9, 4)]:
        res = run_distributed(make_partition(n, k), 0.3, shots=5, seed=1)
        assert res.metrics.block_slots == 2 * k - 1
        assert isinstance(made.pop(), HeadStart) and not made
    fabric = Fabric(make_partition(8, 2), prep=runner._head_start(make_partition(8, 2), 0.3))
    ticks = fabric.counters.current_tick
    runner._execute_schedule(fabric, build_schedule(fabric.plan), np.random.default_rng(0))
    assert fabric.counters.current_tick - ticks == 3 + 2 * 4  # a tick a slot, two a session


def test_a_head_start_must_fit_node_0():
    plan, other = make_partition(8, 2), make_partition(8, 4)
    start = runner._head_start(plan, 0.3)
    for bad, kwargs in [(other, {}), (make_partition(9, 2), {}), (plan, {"with_comm": False})]:
        with pytest.raises(ValueError, match="HeadStart"):
            Fabric(bad, prep=start, **kwargs)


def test_a_one_node_head_is_the_state_uncopied():
    plan = make_partition(6, 1)
    start = runner._head_start(plan, 0.3)
    assert Fabric(plan, prep=start).state is start.head
    assert isinstance(start.head, StateVector) and not len(start.tail)


def test_the_dense_prep_holds_about_one_state():
    n, state = 18, 16 << 18
    seen, real_execute = {}, runner._execute_schedule

    def execute(fabric, schedule, rng):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return real_execute(fabric, schedule, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_execute_schedule", execute)
        run_distributed(make_partition(n, 2), 0.123, seed=1)  # warm-up: fan tables, imports
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            run_distributed(make_partition(n, 2), 0.123, seed=1)
        finally:
            tracemalloc.stop()
    assert seen["peak"] - held <= 1.1 * state  # the expanded product and its last doubling: 1.5


# -- dqft verify holds the prepared state and the one-node run to independent references --


def _one_node_phase(monkeypatch, all_plans=False):
    """A P(0.1) on qubit 0 after the head's block: on one-node plans, or on every plan."""
    real = runner._head_start

    def head_start(plan, theta):
        start = real(plan, theta)
        if all_plans or plan.k == 1:
            start.head.apply_gate(Gate.p(0.1, 0))
        return start

    monkeypatch.setattr(runner, "_head_start", head_start)
    monkeypatch.setattr(verify, "_head_start", head_start)


def test_the_fused_application_check_sees_a_wrong_prepared_state(monkeypatch):
    _one_node_phase(monkeypatch, all_plans=True)
    name, passed, detail = verify.check_fused_application()
    assert (name, passed) == ("fused-application", False) and "prepared state" in detail


def test_the_equivalence_check_sees_a_wrong_one_node_run(monkeypatch):
    _one_node_phase(monkeypatch)
    name, passed, detail = verify.check_state_equivalence()
    assert (name, passed) == ("distributed-equals-monolithic", False) and "k=1" in detail
