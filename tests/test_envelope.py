"""A telegate run's final amplitudes against their exact values: the float64 error envelope.

oracles.exact_final_state gives every amplitude of the swap-free pipeline at
40 significant digits, from theta's exact rational and the closed geometric
sum, with no engine code.  Every telegate run with n <= 10, each k up to
min(n, 8) and four theta must stay within E(n) = 2 n 2^-52 of it in every
amplitude, with no phase alignment (Higham's forward error analysis gives a
bound of this n u shape for a product of n unitary stages).  Measured: at
most about 0.86 n 2^-52, 2.29e-15 at n=12.  A 1e-12 rad error in one fan
phase lands far outside.

Run as a script, it prints the README's table for n = 2..14:

    PYTHONPATH=src python tests/test_envelope.py
"""

import mpmath
import numpy as np
import pytest

from dqft.fabric import make_partition
from dqft.runner import run_distributed
from oracles import EXACT_DPS, exact_amplitude, exact_final_state, literal_amplitude

ULP = 2.0 ** -52


def envelope(n: int) -> float:
    """E(n): the largest error a run of n qubits may make in any amplitude."""
    return 2 * n * ULP


def thetas(n: int):
    """0.123, the thirds and a dyadic theta j / 2^n, whose law is a point mass."""
    return 0.123, 1 / 3, 2 / 3, ((5 << n) // 7) / (1 << n)


def errors(n: int, k: int, theta: float) -> tuple[float, float]:
    """A run's max |amp - exact| and the total variation of |amp|^2 from |exact|^2."""
    amps = run_distributed(make_partition(n, k), theta, shots=1, return_state=True).state.amps
    hi, lo = exact_final_state(n, theta)
    delta = (amps - hi) - lo
    # |a|^2 - |e|^2 = 2 Re(conj(e) delta) + |delta|^2, with no cancellation
    moved = 2 * (hi.real * delta.real + hi.imag * delta.imag) + (delta * delta.conj()).real
    return float(np.abs(delta).max()), 0.5 * float(np.abs(moved).sum())


def test_the_closed_form_is_the_literal_sum():
    tol = mpmath.mpf(10) ** (5 - EXACT_DPS)
    for n in range(1, 6):
        for theta in (0.0, 0.123, 1 / 3, 2 / 3, 5 / 32, 1 - 2 ** -53):
            for v in range(1 << n):
                assert abs(exact_amplitude(n, theta, v) - literal_amplitude(n, theta, v)) < tol


def test_the_oracle_is_the_dft_image_and_a_point_mass_at_a_dyadic_theta():
    hi, lo = exact_final_state(3, 5 / 8)
    assert hi[0b101] == 1 and not np.delete(hi, 0b101).any() and not lo.any()  # v=5, reversed
    hi, _ = exact_final_state(6, 0.123)
    fourier = np.exp(2j * np.pi * 0.123 * np.arange(64)) / 8
    dft = np.fft.fft(fourier) / 8  # F^dag psi, in value order
    assert np.abs(hi[[int(f"{v:06b}"[::-1], 2) for v in range(64)]] - dft).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_every_amplitude_lies_within_the_envelope(n):
    for theta in thetas(n):
        for k in range(1, min(n, 8) + 1):
            worst, _ = errors(n, k, theta)
            assert worst <= envelope(n), (n, k, theta, worst / (n * ULP))


if __name__ == "__main__":
    print("| n | max abs error | / n 2^-52 | max TV of abs^2 | runs |")
    print("|---|---|---|---|---|")
    for n in range(2, 15):
        found = [errors(n, k, theta) for theta in thetas(n) for k in range(1, min(n, 8) + 1)]
        worst, tv = max(e for e, _ in found), max(t for _, t in found)
        print(f"| {n} | {worst:.3g} | {worst / (n * ULP):.2f} | {tv:.3g} | {len(found)} |")
