"""Independent oracles: dense DFT matrix, Fourier states, output distributions.

Everything here is matrix arithmetic, deliberately sharing no code with the
gate-level engine it checks.
"""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    """N x N quantum Fourier transform matrix, F[k, x] = e^{2 pi i k x / N} / sqrt(N)."""
    N = 1 << n
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)


def fourier_state(n: int, theta: float) -> np.ndarray:
    """Phase-encoded input state: amplitudes e^{2 pi i theta k} / sqrt(N)."""
    N = 1 << n
    return np.exp(2j * np.pi * theta * np.arange(N)) / np.sqrt(N)


def oracle_value_distribution(n: int, theta: float) -> dict[int, float]:
    """Exact outcome distribution of the inverse QFT on the Fourier state."""
    amps = dft_matrix(n).conj().T @ fourier_state(n, theta)
    probs = np.abs(amps) ** 2
    return {v: float(p) for v, p in enumerate(probs)}


def fft_value_distribution(n: int, theta: float) -> np.ndarray:
    """The same law by numpy's FFT, p[v]: F^dag psi is fft(psi)/sqrt(N), with no N x N matrix."""
    return np.abs(np.fft.fft(fourier_state(n, theta)) / np.sqrt(1 << n)) ** 2


def bitrev(i: int, n: int) -> int:
    return int(format(i, f"0{n}b")[::-1], 2)


def expected_final_state(n: int, theta: float) -> np.ndarray:
    """Pre-measurement state of the swap-free pipeline: bit-reversed F^dag psi."""
    amps = dft_matrix(n).conj().T @ fourier_state(n, theta)
    out = np.empty_like(amps)
    for v in range(amps.size):
        out[bitrev(v, n)] = amps[v]
    return out


def best_dyadic_approx(theta: float, n: int) -> int:
    """The v in [0, 2^n) minimizing |theta - v / 2^n| (no wraparound needed here)."""
    N = 1 << n
    return min(range(N), key=lambda v: abs(theta - v / N))


def total_variation(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in keys)
