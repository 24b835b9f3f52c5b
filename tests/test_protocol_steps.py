"""One implementation per protocol step: plan-index gradient gates, the cat-session
signal with its fixed one-tick latency, and the running feed-forward phase.

Partitions are enumerated exhaustively (every composition of n into node sizes)
except for full telegate runs, which use make_partition's plans.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqft.circuits import (TWO_PI, GradientBlock, build_schedule, fourier_prep_gates,
                           fourier_product, inv_qft_angle)
from dqft.fabric import Fabric, PartitionPlan, make_partition
from dqft.metrics import epr_budget
from dqft.runner import (_distribution, _execute_schedule, _feedforward,
                         _semiclassical_law, _semiclassical_once)
from dqft.statevector import Gate, StateVector


def _plans(max_n: int):
    """Every partition plan of 1..max_n qubits: one per set of cut points."""
    for n in range(1, max_n + 1):
        for cuts in product((False, True), repeat=n - 1):
            sizes = [1]
            for cut in cuts:
                if cut:
                    sizes.append(1)
                else:
                    sizes[-1] += 1
            yield PartitionPlan(n=n, k=len(sizes), sizes=tuple(sizes))


# -- plan-index gradient gates -------------------------------------------------------


def test_gradient_triples_are_plan_indices_on_their_nodes_in_control_order():
    for plan in _plans(12):
        for block in build_schedule(plan).blocks:
            if not isinstance(block, GradientBlock):
                continue
            controls = [c for c, _, _ in block.gates]
            # _run_gradient_block's groupby opens one session per run of a control
            assert controls == sorted(controls), plan
            for c, t, phi in block.gates:
                assert c in plan.node_qubits(block.control_node), (plan, c)
                assert t in plan.node_qubits(block.target_node), (plan, t)
                assert phi == inv_qft_angle(t - c + 1)


# -- ticks: one per message, one per slot, one per semiclassical qubit -----------------


def test_telegate_run_ends_at_two_ticks_per_epr_plus_one_per_slot():
    rng = np.random.default_rng(3)
    for n in range(1, 11):
        for k in range(1, n + 1):
            plan = make_partition(n, k)
            fabric = Fabric(plan, with_comm=True)
            for g in fourier_prep_gates(range(n), 1 / 3):
                fabric.apply(g.kind, g.qubits, g.phi)
            _execute_schedule(fabric, build_schedule(plan), rng)
            assert fabric.counters.current_tick == 2 * epr_budget(plan) + 2 * k - 1, plan


def test_semiclassical_shot_ends_at_one_tick_per_qubit():
    rng = np.random.default_rng(4)
    for plan in _plans(10):
        fabric = Fabric(plan, with_comm=False, prep=fourier_product(plan.n, 0.8))
        _semiclassical_once(fabric, rng)
        assert fabric.counters.current_tick == plan.n, plan


# -- the feed-forward recurrence is exact -----------------------------------------------


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), max_size=52))
def test_feedforward_fold_is_the_exact_dyadic_sum(bits):
    turns = 0.0
    for j, bit in enumerate(bits, 1):
        turns = _feedforward(turns, bit)
        exact = sum(Fraction(b, 1 << (j - l + 1)) for l, b in enumerate(bits[:j]))
        assert Fraction(turns) == exact


def _per_row_sum_state(n: int, theta: float) -> StateVector:
    """The deferred-measurement state with each row's phase summed over its bits."""
    state = StateVector(n).apply_gates(fourier_prep_gates(range(n), theta))
    for j in range(n):
        rows = np.arange(1 << j)[:, None]
        turns = sum(((rows >> (j - 1 - l)) & 1) / (1 << (j - l + 1)) for l in range(j))
        state.amps.reshape(1 << j, 2, -1)[:, 1, :] *= np.exp(-1j * TWO_PI * turns)
        state.apply_gate(Gate.h(j))
    return state


@pytest.mark.parametrize("theta", [0.0, 1 / 3, 2 / 3, 0.123, 0.8])
def test_semiclassical_state_is_bit_identical_to_the_per_row_sum(theta):
    # the closed-form tree law makes other float ops than the per-row sum, so
    # the two agree to rounding, not bit for bit
    for n in range(1, 13):
        want = _distribution(_per_row_sum_state(n, theta))
        np.testing.assert_allclose(_semiclassical_law(n, theta), want, rtol=0, atol=1e-12,
                                   err_msg=f"n={n}")
