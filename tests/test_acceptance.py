"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 8 (wall-time trend) is soft: it warns instead
of failing, since absolute timings are machine-specific.
"""

import time
import warnings

import numpy as np
import pytest

from dqft.bench import CSV_COLUMNS, parse_config, sweep
from dqft.circuits import build_schedule
from dqft.fabric import make_partition
from dqft.metrics import classical_fidelity, epr_budget, naive_epr_budget
from dqft.runner import (exact_value_distribution, monolithic_exact_distribution,
                         run_distributed, run_semiclassical, semiclassical_exact_distribution)
from dqft.statevector import StateVector, equal_up_to_global_phase
from dqft.verify import telegate_branch_states
from oracles import best_dyadic_approx, fft_final_state, oracle_value_distribution

QUBITS = (4, 6, 8, 10, 12)
NODES = (1, 2, 4, 8)
THETAS = (0.0, 1 / 3, 2 / 3)
SEEDS = (0, 1, 2)

STATE_TOL = 1e-8
DIST_TOL = 1e-10


def _grid():
    for n in QUBITS:
        for k in NODES:
            if k > n:
                continue
            for theta in THETAS:
                yield n, k, theta


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def telegate_runs():
    """Every telegate grid run, shared by criteria 1-3: point -> list of results."""
    runs = {}
    for n, k, theta in _grid():
        plan = make_partition(n, k)
        runs[(n, k, theta)] = [
            run_distributed(plan, theta, shots=1, seed=seed, return_state=True)
            for seed in SEEDS
        ]
    return runs


@pytest.fixture(scope="module")
def references():
    """Per (n, theta), references independent of the run path, so that every k (the
    one-node run, which is the monolithic reference, too) is held against them: the
    final state by numpy's FFT, and the closed-form monolithic law."""
    return {(n, theta): (fft_final_state(n, theta), monolithic_exact_distribution(n, theta))
            for n in QUBITS for theta in THETAS}


def test_criterion_1_noiseless_equivalence(telegate_runs, references):
    start = time.perf_counter()
    state_checks = 0
    min_fidelity = 1.0
    for (n, k, theta), results in telegate_runs.items():
        mono_state, mono_dist = references[(n, theta)]
        for res in results:
            assert equal_up_to_global_phase(res.state, mono_state, STATE_TOL), \
                f"telegate state deviates at n={n}, k={k}, theta={theta}"
            state_checks += 1
            fid = classical_fidelity(exact_value_distribution(res.state), mono_dist)
            min_fidelity = min(min_fidelity, fid)
    semi_points = 0
    for n, k, theta in _grid():
        if k == 1:
            continue
        _, mono_dist = references[(n, theta)]
        fid = classical_fidelity(semiclassical_exact_distribution(n, theta), mono_dist)
        min_fidelity = min(min_fidelity, fid)
        for seed in SEEDS:  # the dynamic path itself must stay on-distribution
            res = run_semiclassical(make_partition(n, k), theta, shots=3, seed=seed)
            assert all(mono_dist.get(v, 0.0) > 0.0 for v in res.counts), \
                f"semiclassical outcome off-support at n={n}, k={k}, theta={theta}"
        semi_points += 1
    elapsed = time.perf_counter() - start
    _report(1, min_fidelity >= 1.0 - DIST_TOL,
            f"{state_checks} telegate states within {STATE_TOL} of the FFT oracle, "
            f"{semi_points} semiclassical points, min exact fidelity deviates "
            f"from 1 by {1 - min_fidelity:.2e} ({elapsed:.1f}s)")


def test_criterion_2_epr_budget(telegate_runs):
    for (n, k, theta), results in telegate_runs.items():
        plan = make_partition(n, k)
        want = epr_budget(plan)
        for res in results:
            assert res.metrics.epr_count == want, \
                f"EPR counter {res.metrics.epr_count} != formula {want} at n={n}, k={k}"
    spotlight = telegate_runs[(8, 4, 1 / 3)][0].metrics.epr_count
    assert spotlight == 12
    assert naive_epr_budget(8) == 28
    _report(2, True,
            f"counter == Σ m_i·(k−1−i) on all {len(telegate_runs)} points; "
            f"n=8,k=4 grouped {spotlight} vs naive {naive_epr_budget(8)}")


def test_criterion_3_block_count(telegate_runs):
    for k in NODES:
        n = max(QUBITS)
        sched = build_schedule(make_partition(n, k))
        assert sched.num_slots == 2 * k - 1
    for (n, k, theta), results in telegate_runs.items():
        for res in results:
            assert res.metrics.block_slots == 2 * k - 1, \
                f"slot counter {res.metrics.block_slots} != {2 * k - 1} at k={k}"
    _report(3, True, "executed slot counter == 2k-1 for k in {1,2,4,8}")


def test_criterion_4_deterministic_phase_recovery():
    checks = 0
    for n, ks, js in (
        (4, (1, 2, 4), range(16)),                      # exhaustive
        (6, (2, 3), (0, 1, 7, 21, 42, 63)),             # sampled
        (8, (4, 8), (0, 3, 85, 128, 170, 255)),         # sampled
    ):
        for k in ks:
            plan = make_partition(n, k)
            for j in js:
                res = run_distributed(plan, j / (1 << n), shots=1, seed=0,
                                      return_state=True)
                dist = exact_value_distribution(res.state)
                assert dist.get(j, 0.0) >= 1.0 - DIST_TOL, \
                    f"p({j}) = {dist.get(j, 0.0)} at n={n}, k={k}"
                checks += 1
    # the measure-early mode recovers the same values deterministically
    for j in (1, 9, 14):
        semi = semiclassical_exact_distribution(4, j / 16)
        assert semi.get(j, 0.0) >= 1.0 - DIST_TOL
        checks += 1
    _report(4, True, f"theta=j/2^n recovered j with probability 1 in {checks} checks")


def test_criterion_5_nonrepresentable_phase_distribution():
    oracle = oracle_value_distribution(4, 1 / 3)
    worst = 0.0
    for k in (2, 4):
        res = run_distributed(make_partition(4, k), 1 / 3, shots=1, seed=0,
                              return_state=True)
        dist = exact_value_distribution(res.state)
        for v in range(16):
            worst = max(worst, abs(dist.get(v, 0.0) - oracle[v]))
        modal = max(dist, key=dist.get)
        # frozen oracle values: best 4-bit approximation of 1/3 is 5,
        # with probability 0.6848953893...
        assert modal == best_dyadic_approx(1 / 3, 4) == 5
        assert abs(dist[modal] - 0.6848953893117378) < DIST_TOL
    _report(5, worst < DIST_TOL,
            f"exact distribution within {worst:.2e} of the dense DFT oracle; "
            f"modal outcome 5 at p=0.685")


def test_criterion_6_telegate_branch_exhaustion():
    from dqft.statevector import Gate
    phis = (np.pi / 4, -np.pi / 3)
    direct = StateVector(3)
    for q in range(3):
        direct.apply_gate(Gate.h(q))
        direct.apply_gate(Gate.p(0.3 + 0.4 * q, q))
    for t_loc, phi in enumerate(phis):
        direct.apply_gate(Gate.cp(phi, 0, 1 + t_loc))
    states = telegate_branch_states(phis)
    assert set(states) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for branch, state in states.items():
        assert equal_up_to_global_phase(state, direct, 1e-10), \
            f"branch {branch} deviates"
    _report(6, True, "all 4 measurement branches equal the direct-gate circuit")


def test_criterion_7_resource_linearity_in_k():
    n = 12
    grouped = {}
    for k in (2, 4):
        plan = make_partition(n, k)
        want = epr_budget(plan)
        assert want == n * (k - 1) // 2  # equal sizes: m*C(k,2) is linear in k
        res = run_distributed(plan, 1 / 3, shots=1, seed=0)
        assert res.metrics.epr_count == want
        grouped[k] = want
    assert grouped == {2: 6, 4: 18}
    naive = naive_epr_budget(n)
    assert naive == 66
    # savings over naive teleportation shrink as nodes multiply: 11x -> 3.67x
    assert naive / grouped[2] > naive / grouped[4]
    _report(7, True,
            f"n=12 grouped EPRs {grouped} vs naive {naive}; "
            f"savings ratio decreases ({naive / grouped[2]:.2f}x -> {naive / grouped[4]:.2f}x)")


def test_criterion_8_exponential_time_trend_soft():
    # sizes where the 2^n term dominates: each step costs about 2.7x or more, where
    # at n = 8..12 a run is mostly fixed cost and a scheduler hiccup reorders two sizes
    sizes = (14, 16, 18, 20)
    fastest = []
    for n in sizes:
        times = []
        for repeat in range(5):
            res = run_distributed(make_partition(n, 2), 1 / 3, shots=1, seed=repeat)
            times.append(res.metrics.wall_time_seconds)
        fastest.append(min(times))  # the least disturbed run: noise only adds time
    increasing = all(b > a for a, b in zip(fastest, fastest[1:]))
    detail = ", ".join(f"n={n}: {t * 1e3:.2f}ms" for n, t in zip(sizes, fastest))
    if not increasing:
        warnings.warn(f"wall-time trend not strictly increasing ({detail}); "
                      "soft criterion, machine-dependent")
    print(f"[acceptance 8] {'PASS' if increasing else 'WARN'}: {detail}")


def test_criterion_9_csv_determinism(tmp_path):
    config_text = """
    num_qubits: [4, 6]
    nodes: [1, 2, 4]
    theta: [0.0, 0.333333, 0.666667]
    shots: 100
    modes: [telegate, semiclassical]
    seed: 11
    repeats: 1
    output_path: {out}
    """
    bodies = []
    for name in ("first.csv", "second.csv"):
        cfg = parse_config(config_text.format(out=tmp_path / name))
        summary = sweep(cfg, log=lambda m: None)
        assert summary["failures"] == []
        with open(summary["output_path"], "rb") as fh:
            bodies.append(fh.read().decode())
    drop = CSV_COLUMNS.index("wall_time_seconds")

    def stable(body):
        return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                         for line in body.splitlines())

    identical = stable(bodies[0]) == stable(bodies[1])
    _report(9, identical,
            "two sweeps with identical config+seed agree byte-for-byte on every "
            "column except the measured wall_time_seconds")
