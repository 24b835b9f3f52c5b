"""Circuit builders: Fourier prep, swap-free inverse QFT, schedule, REV."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dqft.circuits import (GradientBlock, LocalInverseQFT, bit_reverse,
                           build_schedule, flatten_schedule, fourier_prep_gates,
                           inverse_qft_gates, inverse_qft_local, phase_turns)
from dqft.fabric import make_partition
from dqft.statevector import StateVector
from oracles import count_layers, dft_matrix, expected_final_state, rev_postprocess

SQ2 = 1 / np.sqrt(2)


# -- Fourier preparation ---------------------------------------------------------


def test_prep_theta_zero_is_all_plus():
    n = 3
    sv = StateVector(n).apply_gates(fourier_prep_gates(range(n), 0.0))
    assert np.allclose(sv.amps, np.full(8, SQ2 ** 3))


def test_prep_theta_half_single_qubit():
    sv = StateVector(1).apply_gates(fourier_prep_gates([0], 0.5))
    assert np.allclose(sv.amps, [SQ2, -SQ2])


def test_prep_equals_dft_column():
    # theta = 5/16 encodes basis state 5 through the transform
    sv = StateVector(4).apply_gates(fourier_prep_gates(range(4), 5 / 16))
    assert np.allclose(sv.amps, dft_matrix(4)[:, 5], atol=1e-12)


def test_prep_equals_dft_column_all_values():
    n = 4
    F = dft_matrix(n)
    for v in range(16):
        sv = StateVector(n).apply_gates(fourier_prep_gates(range(n), v / 16))
        assert np.allclose(sv.amps, F[:, v], atol=1e-12)


def test_phase_turns_exact_reduction():
    assert phase_turns(0.75, 2) == 0.0
    assert phase_turns(5 / 16, 1) == 5 / 8
    assert phase_turns(5 / 16, 3) == 0.5
    # exact rational reduction: no drift at large exponents
    assert phase_turns(1 / 3, 40) == float(Fraction(1 / 3) * 2**40 % 1)


# -- swap-free inverse QFT ----------------------------------------------------------


def test_inverse_qft_single_qubit_is_hadamard():
    gates = inverse_qft_gates([0])
    assert len(gates) == 1 and gates[0].kind == "h"


def test_inverse_qft_on_theta_zero_gives_all_zeros():
    n = 5
    sv = StateVector(n).apply_gates(fourier_prep_gates(range(n), 0.0))
    inverse_qft_local(sv, range(n))
    assert abs(sv.amps[0] - 1.0) < 1e-12


def test_exhaustive_phase_recovery_n4():
    # the Fourier prep of j/16 -> inverse QFT -> REV must yield exactly j
    n = 4
    for j in range(16):
        sv = StateVector(n).apply_gates(fourier_prep_gates(range(n), j / 16))
        inverse_qft_local(sv, range(n))
        idx = int(np.argmax(np.abs(sv.amps)))
        assert abs(abs(sv.amps[idx]) - 1.0) < 1e-12
        assert rev_postprocess(format(idx, f"0{n}b")) == j


def test_final_state_matches_matrix_oracle():
    n = 4
    theta = 1 / 3
    sv = StateVector(n).apply_gates(fourier_prep_gates(range(n), theta))
    inverse_qft_local(sv, range(n))
    assert np.allclose(sv.amps, expected_final_state(n, theta), atol=1e-12)


def test_gate_layers_2m_minus_1():
    for m in range(1, 9):
        assert count_layers(inverse_qft_gates(range(m))) == 2 * m - 1


# -- REV postprocessing ---------------------------------------------------------------


def test_rev_examples():
    assert rev_postprocess("0000") == 0
    assert rev_postprocess("1000") == 1
    assert rev_postprocess("0001") == 8


def test_rev_involution_n4():
    for x in range(16):
        raw = format(x, "04b")
        v = rev_postprocess(raw)
        assert rev_postprocess(format(v, "04b")) == x


def test_rev_empty_raises():
    with pytest.raises(ValueError):
        rev_postprocess("")


def test_bit_reverse_matches_rev():
    for n in (1, 3, 5):
        for i in range(1 << n):
            assert bit_reverse(i, n) == rev_postprocess(format(i, f"0{n}b"))


# -- distributed schedule ----------------------------------------------------------------


def test_schedule_single_node():
    sched = build_schedule(make_partition(4, 1))
    assert sched.num_slots == 1
    assert len(sched.blocks) == 1
    assert isinstance(sched.blocks[0], LocalInverseQFT)


def test_schedule_k4_slots_and_pairs():
    plan = make_partition(8, 4)
    sched = build_schedule(plan)
    assert sched.num_slots == 7  # 2k - 1
    pairs = set()
    for block in sched.blocks:
        if isinstance(block, GradientBlock):
            for c_loc, _, _ in block.gates:
                pairs.add((block.control_node, c_loc, block.target_node))
    assert len(pairs) == 12  # one teleportation per (control qubit, target node)


def test_schedule_every_slot_occupied_and_disjoint():
    for n, k in ((8, 4), (12, 8), (9, 3)):
        sched = build_schedule(make_partition(n, k))
        seen_slots = set()
        for slot, group in sched.blocks_by_slot():
            seen_slots.add(slot)
            nodes = []
            for b in group:
                nodes.extend([b.node] if isinstance(b, LocalInverseQFT)
                             else [b.control_node, b.target_node])
            assert len(nodes) == len(set(nodes))  # parallel blocks touch disjoint nodes
        assert seen_slots == set(range(2 * k - 1))


def test_gradient_angles_are_inverse_qft_gradient():
    sched = build_schedule(make_partition(10, 4))
    for block in sched.blocks:
        if isinstance(block, GradientBlock):
            for _, _, phi in block.gates:
                d = round(np.log2(-2 * np.pi / phi))
                assert d >= 2
                assert phi == -2 * np.pi / (1 << d)


def test_gate_multiset_equivalence():
    # the core structural oracle: flattening the schedule reproduces the
    # monolithic swap-free inverse QFT gate multiset exactly
    for n in range(2, 13):
        for k in range(1, min(n, 8) + 1):
            plan = make_partition(n, k)
            flat = Counter(flatten_schedule(build_schedule(plan)))
            mono = Counter(inverse_qft_gates(range(n)))
            assert flat == mono, f"n={n}, k={k}"


def test_flattened_schedule_executes_to_monolithic_state():
    # slot order is a valid execution order, not just the right multiset
    n, k, theta = 9, 3, 2 / 3
    mono = StateVector(n).apply_gates(fourier_prep_gates(range(n), theta))
    inverse_qft_local(mono, range(n))
    flat = StateVector(n).apply_gates(fourier_prep_gates(range(n), theta))
    flat.apply_gates(flatten_schedule(build_schedule(make_partition(n, k))))
    assert np.max(np.abs(flat.amps - mono.amps)) < 1e-12


def test_gradient_block_gates_commute():
    # gates under one cat session share a control; order cannot matter
    plan = make_partition(6, 2)
    sched = build_schedule(plan)
    block = next(b for b in sched.blocks if isinstance(b, GradientBlock))
    base = StateVector(6).apply_gates(fourier_prep_gates(range(6), 1 / 3))
    fwd = base.copy()
    rev = base.copy()
    from dqft.statevector import Gate
    for c, t, phi in block.gates:
        fwd.apply_gate(Gate.cp(phi, c, t))
    for c, t, phi in reversed(block.gates):
        rev.apply_gate(Gate.cp(phi, c, t))
    assert np.max(np.abs(fwd.amps - rev.amps)) < 1e-12


def test_prep_gates_are_single_qubit_only():
    # every node can prepare its slice locally
    gates = fourier_prep_gates(range(10), 1 / 3)
    assert all(len(g.qubits) == 1 for g in gates)


def test_multiset_oracle_catches_wrong_gradient_angles():
    # mutating the gradient exponent must break the structural oracle
    from dqft.circuits import inv_qft_angle
    from dqft.statevector import Gate
    plan = make_partition(6, 2)
    sched = build_schedule(plan)
    mutated = []
    for block in sched.blocks:
        if isinstance(block, LocalInverseQFT):
            mutated.extend(inverse_qft_gates(plan.node_qubits(block.node)))
        else:
            for c, t, _ in block.gates:  # off by one: missing +1
                mutated.append(Gate.cp(inv_qft_angle(t - c), c, t))
    assert Counter(mutated) != Counter(inverse_qft_gates(range(6)))
