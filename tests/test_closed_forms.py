"""The closed-form laws a run is verified against: the Fejer-kernel reference and
the measure-early branch tree.

They share no code with the StateVector engine or the shot loop, so a defect in
either shows as a run's fidelity below 1 or as shots that do not fit the law.
"""

import dataclasses
import math

import numpy as np
import pytest

from dqft import verify
from dqft.fabric import make_partition
from dqft.runner import (_reference, _semiclassical_law, run_distributed,
                         run_monolithic_reference, run_semiclassical)
from dqft.statevector import StateVector
from oracles import fft_value_distribution, oracle_value_distribution


@pytest.fixture
def cp_conjugated(monkeypatch):
    """Negate the phase of every CP the engine applies, as a gate or in a fan, and nothing else."""
    original, original_fan = StateVector.apply_gate, StateVector.apply_fan

    def apply_gate(self, gate):
        if gate.kind == "cp":
            gate = dataclasses.replace(gate, phi=-gate.phi)
        return original(self, gate)

    def apply_fan(self, source, targets, phis, on=1):
        return original_fan(self, source, targets, [-phi for phi in phis], on)

    monkeypatch.setattr(StateVector, "apply_gate", apply_gate)
    monkeypatch.setattr(StateVector, "apply_fan", apply_fan)


def test_cp_only_conjugation_fails_the_telegate_run(cp_conjugated):
    # conjugating P and CP together conjugates the whole real-H circuit, which
    # leaves |amps|^2 alone; conjugating CP alone moves the distribution
    res = run_distributed(make_partition(8, 4), 0.123)
    assert res.metrics.fidelity_vs_reference < 1 - 1e-9


def test_cp_only_conjugation_fails_the_monolithic_run(cp_conjugated):
    res = run_monolithic_reference(8, 0.123, shots=10)
    assert res.metrics.fidelity_vs_reference < 1 - 1e-9


def test_closed_forms_run_no_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form called the engine")

    for name in ("__init__", "apply_gate", "measure", "reset"):
        monkeypatch.setattr(StateVector, name, refuse)
    for law in (_reference, _semiclassical_law):
        assert law(10, 0.123).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_fft_oracle_is_the_matrix_oracle(n):
    for theta in (0.0, 1 / 3, 0.123, 0.8):
        matrix = oracle_value_distribution(n, theta)
        want = np.array([matrix[v] for v in range(1 << n)])
        np.testing.assert_allclose(fft_value_distribution(n, theta), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta", [1e-9, 2.0 ** -1074, 1 - 2.0 ** -40, 0.5 + 2.0 ** -30])
def test_closed_forms_near_a_dyadic_phase(theta):
    # 2^n theta lies within a tiny f of an integer here, where a float theta - v/2^n
    # would cancel; theta = 2^-1074 is subnormal
    for n in range(1, 16):
        want = fft_value_distribution(n, theta)
        for law in (_reference, _semiclassical_law):
            np.testing.assert_allclose(law(n, theta), want, rtol=0, atol=1e-12,
                                       err_msg=f"{law.__name__} n={n}")


# -- executed shots fit the exact law ----------------------------------------------


SHOTS = 4000
FIT_POINTS = [(4, 2, 0.123, 11), (5, 3, 1 / 3, 12), (6, 4, 0.8, 13)]


@pytest.mark.parametrize("n, k, theta, seed", FIT_POINTS)
def test_semiclassical_shots_fit_the_exact_law(n, k, theta, seed):
    # E|count_v/N - p_v| <= sqrt(p_v/N), so by Cauchy-Schwarz the expected total
    # variation is at most sqrt(2^n/N)/2 (0.032, 0.045 and 0.063 here); fixed seeds
    # make the check deterministic
    bound = math.sqrt((1 << n) / SHOTS) / 2
    res = run_semiclassical(make_partition(n, k), theta, shots=SHOTS, seed=seed)
    empirical = np.zeros(1 << n)
    for value, count in res.counts.items():
        empirical[value] = count / SHOTS
    tv = np.abs(empirical - _semiclassical_law(n, theta)).sum() / 2
    assert tv <= bound, (tv, bound)


def test_verify_runs_every_check_and_all_pass():
    results = verify.run_all()
    assert "closed-form-reference" in [name for name, _, _ in results]
    failed = [(name, detail) for name, passed, detail in results if not passed]
    assert not failed
