"""Tour of the statevector engine: gates, fans, measurement, sampling.

Convention used everywhere in this package: qubit 0 is the MOST significant
bit of a basis index, so the amplitude array of |10> has its 1 at index 2.

The dense engine applies H, Z, P and CP, and fans (the CPs from one qubit
onto a run of consecutive qubits, in one pass): the gates of an inverse QFT.
"""

import numpy as np

from dqft import Gate, StateVector, equal_up_to_global_phase


def bell_pair() -> StateVector:
    """H on qubit 0, then a CNOT(0, 1) as H(1), a fan 0 -> [1] of phase pi, H(1)."""
    sv = StateVector(2).apply_gate(Gate.h(0)).apply_gate(Gate.h(1))
    sv.apply_fan(0, [1], [np.pi])
    return sv.apply_gate(Gate.h(1))


rng = np.random.default_rng(7)

# A Bell pair from H gates and a fan.
sv = bell_pair()
print("Bell state amplitudes:", np.round(sv.amps, 6) + 0)  # + 0 turns -0 into 0

# Measuring one half collapses the other: outcomes always agree.
pairs = []
for seed in range(8):
    bell = bell_pair()
    r = np.random.default_rng(seed)
    pairs.append((bell.measure(0, r), bell.measure(1, r)))
print("correlated measurement pairs:", pairs)

# Sampling never collapses the state; it draws from the |amplitude|^2 law.
sv = StateVector(3).apply_gate(Gate.h(0)).apply_gate(Gate.h(2))
counts = sv.sample_counts([0, 1, 2], shots=1000, rng=rng)
print("counts over 1000 shots:", dict(sorted(counts.items())))

# Phase gates are invisible to sampling but not to interference.
plus = StateVector(1).apply_gate(Gate.h(0))
rotated = plus.copy().apply_gate(Gate.p(np.pi / 3, 0))
print("same sampling law despite the phase:",
      np.allclose(plus.probabilities([0]), rotated.probabilities([0])))
rotated.apply_gate(Gate.h(0))
print("after interfering, the phase shows up:", np.round(rotated.probabilities([0]), 4))

# Global phase is unobservable; the comparison helper knows that.
shifted = plus.copy()
shifted.amps *= np.exp(1j * 0.9)
print("equal up to global phase:", equal_up_to_global_phase(plus, shifted, 1e-10))
