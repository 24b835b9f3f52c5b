"""Independent oracles: dense DFT matrix, Fourier states, output distributions, REV,
a model of the fabric's classical channels, the per-shot semiclassical loop, and
the final amplitudes at 40 significant digits.

Everything but fresh_fabric_shots is matrix arithmetic, mpmath or plain Python
containers, deliberately sharing no code with the engine it checks.
fresh_fabric_shots runs the engine's own shot on a new fabric per shot,
with one Generator.random() per measurement: the reference that a run's
one fabric and its blocks of draws must match.
"""

import math
from collections import defaultdict, deque
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from dqft.fabric import Fabric
from dqft.runner import _semiclassical_once


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


def fft_final_state(n: int, theta: float) -> np.ndarray:
    """expected_final_state by numpy's FFT: F^dag psi is fft(psi)/sqrt(N), bit-reversed."""
    amps = np.fft.fft(fourier_state(n, theta)) / np.sqrt(1 << n)
    return amps[[bitrev(i, n) for i in range(amps.size)]]


EXACT_DPS = 40  # significant digits of exact_final_state


def _mpf(q: Fraction) -> mpmath.mpf:
    """A rational at the working precision: one rounding, of its quotient."""
    return mpmath.mpf(q.numerator) / q.denominator


def exact_amplitude(n: int, theta: float, v: int) -> mpmath.mpc:
    """(1/N) sum_x e^(2 pi i x (theta - v/N)) at EXACT_DPS digits, theta as its exact rational.

    With phi = theta - v/N reduced exactly into [-1/2, 1/2) (the sum has
    period 1 in phi), the geometric sum is e^(i pi (N-1) phi) sin(pi N phi) /
    (N sin(pi phi)), and 1 at phi = 0.  Each sine and phase takes its exact
    rational argument, so no digits cancel near phi = 0.
    """
    size = 1 << n
    phi = Fraction(theta) - Fraction(v, size)
    phi -= math.floor(phi + Fraction(1, 2))
    if phi == 0:
        return mpmath.mpc(1)
    with mpmath.workdps(EXACT_DPS):
        return (mpmath.expjpi(_mpf((size - 1) * phi)) * mpmath.sinpi(_mpf(size * phi))
                / (size * mpmath.sinpi(_mpf(phi))))


def literal_amplitude(n: int, theta: float, v: int) -> mpmath.mpc:
    """exact_amplitude as the literal sum of its N terms, for small n."""
    size = 1 << n
    turns = Fraction(theta) - Fraction(v, size)
    with mpmath.workdps(EXACT_DPS):
        return mpmath.fsum(mpmath.expjpi(_mpf(2 * x * turns)) for x in range(size)) / size


@lru_cache(maxsize=64)
def exact_final_state(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The swap-free pipeline's final amplitudes, amp[i] at v = bitrev(i, n), as two arrays.

    Each amplitude of exact_amplitude is held as hi + lo: hi its nearest
    complex128, lo the nearest complex128 to the rest, so (a - hi) - lo is an
    engine amplitude a's error to about 1e-32.  Read-only; cached.
    """
    hi = np.empty(1 << n, dtype=np.complex128)
    lo = np.empty_like(hi)
    with mpmath.workdps(EXACT_DPS):
        for i in range(hi.size):
            amp = exact_amplitude(n, theta, bitrev(i, n))
            hi[i] = complex(amp)
            lo[i] = complex(amp - mpmath.mpc(hi[i]))
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def best_dyadic_approx(theta: float, n: int) -> int:
    """The v in [0, 2^n) minimizing |theta - v / 2^n| (no wraparound needed here)."""
    N = 1 << n
    return min(range(N), key=lambda v: abs(theta - v / N))


def total_variation(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in keys)


def rev_postprocess(raw_bits: str) -> int:
    """Value encoded by a measured bitstring: its bits reversed, read as binary."""
    if not raw_bits or raw_bits.strip("01"):  # int() alone would take "0b1", "1_0" or " 01"
        raise ValueError(f"not a nonempty string of 0s and 1s: {raw_bits!r}")
    return int(raw_bits[::-1], 2)


def count_layers(gates) -> int:
    """Greedy (ASAP) layer count of a gate list: gates sharing a qubit serialize."""
    last: dict[int, int] = {}
    depth = 0
    for g in gates:
        layer = 1 + max((last.get(q, -1) for q in g.qubits), default=-1)
        for q in g.qubits:
            last[q] = layer
        depth = max(depth, layer + 1)
    return depth


# -- a cat session on n + 2 dense qubits ------------------------------------------------

_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]])
_Z = np.diag([1, -1])
_CNOT = np.eye(4)[[0, 1, 3, 2]]


def _apply(psi: np.ndarray, matrix, *axes: int) -> np.ndarray:
    """The matrix on the listed qubit axes of psi, a (2,)*Q tensor (first axis most significant)."""
    m = len(axes)
    out = np.tensordot(np.reshape(matrix, (2,) * 2 * m), psi, axes=(range(m, 2 * m), axes))
    return np.moveaxis(out, range(m), axes)


def _measure(psi: np.ndarray, axis: int, draw: float):
    """Outcome 0 iff draw < p0, as the engine draws; returns it and the renormalized state."""
    p0 = float(np.sum(np.abs(np.take(psi, 0, axis=axis)) ** 2))
    bit = 0 if draw < p0 else 1
    keep = np.zeros((2,) + (1,) * (psi.ndim - axis - 1))
    keep[bit] = 1.0
    psi = psi * keep
    return bit, psi / np.linalg.norm(psi)


def dense_cat_session(logical, control: int, targets, phis, draws):
    """Replay one cat session on n + 2 dense qubits: the n logical ones, then comm qubits A, B.

    The gates are the textbook protocol (Eisert et al. 2000): H and CNOT
    make the Bell pair on A, B; CNOT from control into A; measure A, reset
    it, and X on B if it read 1; CP(phis[i]) from B onto each targets[i]; H
    on B, measure it, reset it, and Z on control if it read 1.  draws are
    the session's six draws in the fabric's order (the two EPR resets, A's
    measurement, A's reset, B's measurement, B's reset); only the two
    measurements use theirs.  Returns the two outcomes and the n logical
    amplitudes after the session.
    """
    logical = np.asarray(logical, dtype=np.complex128)
    n = logical.size.bit_length() - 1
    a, b = n, n + 1
    psi = np.kron(logical, [1, 0, 0, 0]).reshape((2,) * (n + 2))
    psi = _apply(_apply(psi, _H, a), _CNOT, a, b)
    psi = _apply(psi, _CNOT, control, a)
    m_a, psi = _measure(psi, a, draws[2])
    if m_a:
        psi = _apply(_apply(psi, _X, a), _X, b)
    for t, phi in zip(targets, phis):
        psi = _apply(psi, np.diag([1, 1, 1, np.exp(1j * phi)]), b, t)
    m_b, psi = _measure(_apply(psi, _H, b), b, draws[4])
    if m_b:
        psi = _apply(_apply(psi, _X, b), _Z, control)
    return (m_a, m_b), psi.reshape(-1)[::4]  # A and B are |00>: every fourth amplitude


# -- classical messaging as one queue per channel ------------------------------------------


class ChannelScan:
    """The fabric's classical messaging on k nodes, kept as a per-channel model.

    One FIFO queue per (src, dst) channel; receive_all scans every source
    0..k-1 in turn.  A message is a plain (src, dst, tag, payload, tick)
    tuple, deliverable one tick after it is sent.  Every call checks
    its nodes before it changes anything.
    """

    def __init__(self, k: int):
        self.k = k
        self.tick = self.sent = 0
        self._queues = defaultdict(deque)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.k:
            raise ValueError(f"node {node} out of range for k={self.k}")

    def send_classical(self, src: int, dst: int, tag: str, payload: int) -> tuple:
        if src == dst:
            raise ValueError("classical message must cross nodes (src == dst)")
        if not (0 <= src < self.k and 0 <= dst < self.k):
            raise ValueError(f"message {src}->{dst}: nodes lie in 0..{self.k - 1}")
        msg = (src, dst, tag, payload, self.tick + 1)
        self._queues[src, dst].append(msg)
        self.sent += 1
        return msg

    def advance_clock(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("clock only advances")
        self.tick += ticks

    def receive(self, src: int, dst: int) -> tuple:
        self._check_node(src)
        self._check_node(dst)
        q = self._queues.get((src, dst))
        if not q or q[0][4] > self.tick:
            raise RuntimeError(f"no deliverable message on channel {src}->{dst}")
        return q.popleft()

    def receive_all(self, dst: int) -> list:
        self._check_node(dst)
        out = []
        for src in range(self.k):
            q = self._queues.get((src, dst))
            while q and q[0][4] <= self.tick:
                out.append(q.popleft())
        return out


# -- the semiclassical shot loop, one fabric and one draw per measurement at a time ---------


def fresh_fabric_shots(plan, prep, shots: int, rng: np.random.Generator):
    """Counts by value, in first-seen order, and the last shot's counters: each shot on a
    new product Fabric built from prep, drawing from rng itself."""
    counts = {}
    for _ in range(shots):
        fabric = Fabric(plan, with_comm=False, prep=prep)
        value = _semiclassical_once(fabric, rng)
        counts[value] = counts.get(value, 0) + 1
    return counts, fabric.counters
