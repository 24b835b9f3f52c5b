"""Statevector engines with the minimal gate set for a distributed inverse QFT.

StateVector is the dense engine.  ProductState holds unentangled qubits as
one pair of amplitudes each, for runs that apply only one-qubit gates and
measurements (the measure-early semiclassical mode).  Its apply_one holds
the one-qubit factor formulas, unchecked: apply_gate calls it after the
operand check, and a product Fabric after resolving the operand itself.

Each engine applies only the kinds a run or a check makes of it (KINDS):
the dense one H, Z, P and CP, and fans; the product one H and P.  A Gate
of another kind (the protocol's X and CNOT act on comm-qubit frame entries
in the fabric, never on amplitudes) raises ValueError.

StateVector's kernels work in place, with no temporary the size of the
state: H adds and scales the qubit's halves, measure reads the state once
and rescales only the kept half, reset moves a kept 1 half onto the 0 half,
and a fan (the CPs from one qubit onto a run of consecutive qubits) makes
one broadcast multiply per FAN_CHUNK qubits of its run.

Bit-ordering convention, used package-wide: qubit 0 is the MOST significant
bit of a basis-state index.  For a register of Q qubits, basis index i
assigns bit ``(i >> (Q - 1 - q)) & 1`` to qubit q, and the bitstring of
index i read left to right lists qubits 0..Q-1.

Every stochastic operation takes a ``numpy.random.Generator`` explicitly,
so whole runs replay bit-exactly from a seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)

FAN_CHUNK = 10  # run qubits per fan pass: a phase table of at most 2^10 entries (16 KiB)
ONE_QUBIT_KINDS = ("h", "x", "z", "p")  # a Gate's kinds, by operand count
TWO_QUBIT_KINDS = ("cp", "cnot")


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, operand qubits, and phase angle for p/cp.

    Hashable so gate lists can be compared as multisets.
    """

    kind: str
    qubits: tuple[int, ...]
    phi: float = 0.0

    @staticmethod
    def h(q: int) -> "Gate":
        return Gate("h", (q,))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate("x", (q,))

    @staticmethod
    def z(q: int) -> "Gate":
        return Gate("z", (q,))

    @staticmethod
    def p(phi: float, q: int) -> "Gate":
        return Gate("p", (q,), phi)

    @staticmethod
    def cp(phi: float, qa: int, qb: int) -> "Gate":
        return Gate("cp", (qa, qb), phi)

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate("cnot", (control, target))


def _check_operands(gate: Gate, num_qubits: int, kinds) -> None:
    """ValueError unless gate is well formed on num_qubits qubits and of one of kinds."""
    expected = 1 if gate.kind in ONE_QUBIT_KINDS else 2
    if gate.kind not in ONE_QUBIT_KINDS and gate.kind not in TWO_QUBIT_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    if len(gate.qubits) != expected:
        raise ValueError(f"{gate.kind} takes {expected} operand(s), got {gate.qubits}")
    for q in gate.qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")
    if expected == 2 and gate.qubits[0] == gate.qubits[1]:
        raise ValueError(f"duplicate operands on two-qubit gate: {gate.qubits}")
    if gate.kind not in kinds:
        raise ValueError(f"{gate.kind} on {gate.qubits}: this engine applies only {kinds}")


def _check_fan(source: int, targets: list, phis, size: int) -> tuple[int, int]:
    """A fan's first target and width; ValueError unless it is one phase per qubit of a run of
    consecutive qubits of a size-qubit register, with source outside the run."""
    lo, m = (targets[0] if targets else 0), len(targets)
    if (len(phis) != m or not 0 <= lo <= lo + m <= size or lo <= source < lo + m
            or not 0 <= source < size or targets != list(range(lo, lo + m))):
        raise ValueError(f"fan from {source} onto {targets} with {len(phis)} phases: need "
                         f"one phase per qubit of a run of consecutive qubits without {source}")
    return lo, m


def _draw(p0: float, p1: float, qubit: int, rng: np.random.Generator) -> int:
    """The outcome of one rng.random() draw against p0; both probabilities vanishing is an error."""
    if p0 < 1e-12 and p1 < 1e-12:
        raise ValueError(f"corrupt state: both outcome probabilities vanish on qubit {qubit}")
    return 0 if rng.random() < p0 else 1


def _sample(probs: np.ndarray, shots: int, rng: np.random.Generator):
    """Draw shots indices by the law probs / probs.sum(), probs >= 0: (index, count) pairs.

    Generator.choice(probs.size, size=shots, p=probs / probs.sum()), step for
    step (the same indices, the same generator state after), in one array the
    size of the law where choice makes two and a mask: the normalized law
    becomes its own CDF, and one rng.random(shots) is searched in it.  The
    pairs come by increasing index.
    """
    total = probs.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"cannot sample a law that sums to {total}")
    cdf = probs / total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    drawn = cdf.searchsorted(rng.random(shots), side="right")
    return zip(*np.unique(drawn, return_counts=True))


def _runs(*views):
    """The views, and a ufunc order that iterates a last axis of at most 4 elements outermost."""
    if views[0].shape[-1] > 4:
        return (*views, "K")
    return (*(v.transpose(v.ndim - 1, *range(v.ndim - 1)) for v in views), "C")


@lru_cache(maxsize=1024)
def _fan_table(phis: tuple[float, ...]) -> np.ndarray:
    """The read-only phase table of a fan's run, past entry 0 (all run qubits 0, phase 1).

    Entry b - 1 is the product, in run order, of e^(i phis[i]) over the run
    qubits set in b, run qubit 0 most significant.  Runs take inverse-QFT
    angles of consecutive distances, so few tables recur across blocks and runs.
    """
    table = np.ones(1 << len(phis), dtype=np.complex128)
    for i, phi in enumerate(phis):  # run qubit i's 1 half
        table.reshape(1 << i, 2, -1)[:, 1, :] *= np.exp(1j * phi)
    table = table[1:]
    table.flags.writeable = False
    return table


def kron_factors(factors: np.ndarray) -> np.ndarray:
    """The Kronecker product of one-qubit factors, rows of a (Q, 2) array, qubit 0 most significant.

    One doubling per factor, entry (i, b) = acc[i] * factor[b]: the
    products of np.kron, in the same order, without its reshaping.  A
    doubling is one multiply into an (acc.size, 2) array, iterated in C
    order over its transpose: two strided passes over all of acc, where
    an outer product with a 2-entry factor loops two elements at a time.
    One factor is its own product: its row, uncopied.
    """
    acc = factors[0]
    for f in factors[1:]:
        out = np.empty((acc.size, 2), dtype=np.complex128)
        np.multiply(acc, f[:, None], out=out.T, order="C")
        acc = out.reshape(-1)
    return acc


class StateVector:
    """2^Q double-precision complex amplitudes, gates applied in place."""

    KINDS = ("h", "z", "p", "cp")

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        self.amps[0] = 1.0

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        """Wrap a copy of an amplitude array (must be unit-norm, length 2^Q)."""
        arr = np.asarray(amps, dtype=np.complex128)
        n = arr.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"amplitude count must be a power of two >= 2, got {n}")
        arr = arr.copy()
        f = arr.view(np.float64)  # einsum, not a BLAS vdot: one thread, whatever the environment
        if not abs(np.einsum("i,i->", f, f) - 1.0) <= 1e-9:  # NaN-safe
            raise ValueError("amplitudes are not normalized")
        return cls._of(arr)

    @classmethod
    def _of(cls, amps: np.ndarray) -> "StateVector":
        """A state over amps itself, a complex128 array of 2^Q entries: no copy, no check."""
        sv = cls.__new__(cls)
        sv.num_qubits = amps.size.bit_length() - 1
        sv.amps = amps
        return sv

    def copy(self) -> "StateVector":
        return StateVector._of(self.amps.copy())

    # -- views -------------------------------------------------------------

    def _one_axis(self, q: int, dtype=None):
        # axis 0: qubits before q, axis 1: qubit q, axis 2: qubits after q
        # (a float64 view has two words per amplitude on axis 2)
        amps = self.amps if dtype is None else self.amps.view(dtype)
        return amps.reshape(1 << q, 2, -1)

    # -- gates -------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> "StateVector":
        _check_operands(gate, self.num_qubits, self.KINDS)
        kind, qubits = gate.kind, gate.qubits
        if kind == "h":
            v = self._one_axis(qubits[0])
            a, b, order = _runs(v[:, 0, :], v[:, 1, :])
            np.add(a, b, out=a, order=order)
            np.multiply(a, SQRT2_INV, out=a, order=order)  # (a + b)/sqrt2
            np.multiply(b, -2 * SQRT2_INV, out=b, order=order)
            np.add(b, a, out=b, order=order)  # (a + b)/sqrt2 - sqrt2*b = (a - b)/sqrt2
        else:  # z, p, cp: scale the amplitudes whose operand bits are all 1
            if kind == "cp":  # axes 1 and 3: the lower and the higher operand
                a, b = sorted(qubits)
                ones = self.amps.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)[:, 1, :, 1, :]
            else:
                ones = self._one_axis(qubits[0])[:, 1, :]
            ones, order = _runs(ones)
            np.multiply(ones, -1.0 if kind == "z" else np.exp(1j * gate.phi), out=ones, order=order)
        return self

    def apply_gates(self, gates) -> "StateVector":
        for g in gates:
            self.apply_gate(g)
        return self

    def apply_fan(self, source: int, targets, phis, on: int = 1) -> "StateVector":
        """CP(phis[i], source, targets[i]) for every i, in place; targets are consecutive qubits.

        The source = on half (1 for CPs) is multiplied by the Kronecker
        product of [1, e^(i phis[i])] over the run (_fan_table), one chunk of
        at most FAN_CHUNK run qubits at a time.  An empty fan is the identity.
        """
        targets = list(targets)
        lo, m = _check_fan(source, targets, phis, self.num_qubits)
        amps = self.amps
        for c in range(0, m, FAN_CHUNK):
            first, w = lo + c, min(FAN_CHUNK, m - c)
            table = _fan_table(tuple(phis[c:c + FAN_CHUNK]))
            # the source = on half, and [1:] on the run axis: the amplitudes with every
            # run qubit 0 keep phase 1; the table's trailing 1s broadcast over the rest
            if source < first:  # source, the qubits between, the run, the qubits after
                view = amps.reshape(1 << source, 2, 1 << (first - source - 1), 1 << w, -1)
                view, table = view[:, on, :, 1:], table.reshape(-1, 1)
            else:  # the qubits before the run, the run, the qubits between, source, after
                view = amps.reshape(1 << first, 1 << w, 1 << (source - first - w), 2, -1)
                view, table = view[:, 1:, :, on], table.reshape(-1, 1, 1)
            view, table, order = _runs(view, table)
            np.multiply(view, table, out=view, order=order)
        return self

    # -- measurement -------------------------------------------------------

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Projectively measure one qubit; collapses and renormalizes in place.

        One read pass gives p0 and p1; the rejected half is zeroed and only the
        kept half is scaled by 1/sqrt(p).
        """
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        f = self._one_axis(qubit, np.float64)  # sum the longer of axes 0 and 2 first
        p0, p1 = (np.einsum("ijk,ijk->jk", f, f).sum(axis=1) if f.shape[2] < f.shape[0]
                  else np.einsum("ijk,ijk->j", f, f))
        bit = _draw(p0, p1, qubit, rng)
        v = self._one_axis(qubit)
        v[:, 1 - bit, :] = 0.0
        kept, order = _runs(v[:, bit, :])
        np.multiply(kept, 1.0 / math.sqrt((p0, p1)[bit]), out=kept, order=order)
        return bit

    def reset(self, qubit: int, rng: np.random.Generator) -> "StateVector":
        """Measure, and leave the qubit in |0>: after outcome 1 the kept half is copied
        onto the zeroed 0 half, then zeroed, as an X after the measurement would."""
        if self.measure(qubit, rng) == 1:
            v = self._one_axis(qubit)
            zero, one, order = _runs(v[:, 0, :], v[:, 1, :])
            np.positive(one, out=zero, order=order)  # a ufunc copy: no half-state temporary
            v[:, 1, :] = 0.0
        return self

    # -- readout -----------------------------------------------------------

    def probabilities(self, qubits) -> np.ndarray:
        """Marginal |amplitude|^2 distribution over the listed qubits.

        Entry b of the result is the probability of the bitstring whose
        bit at position p is the outcome of qubits[p].  One einsum over the
        qubit axes of |amps|^2 sums out the unlisted qubits and orders the
        rest; the whole register in order is |amps|^2 itself.
        """
        qubits, size = list(qubits), self.num_qubits
        if not qubits:
            raise ValueError("empty qubit list")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in {qubits}")
        for q in qubits:
            if not 0 <= q < size:
                raise ValueError(f"qubit {q} out of range for {size}-qubit state")
        probs = np.abs(self.amps)
        probs *= probs
        return np.einsum(probs.reshape((2,) * size), range(size), qubits).reshape(-1)

    def sample_counts(self, qubits, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Histogram of measured bitstrings over the listed qubits.

        Sampling from the marginal distribution; the state is not collapsed.
        """
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        probs = self.probabilities(qubits)
        width = probs.size.bit_length() - 1
        return {format(int(i), f"0{width}b"): int(c) for i, c in _sample(probs, shots, rng)}


class ProductState:
    """Q unentangled qubits, each held as its own (amp0, amp1) pair.

    A one-qubit gate or a measurement touches one pair, so it costs O(1)
    where the dense engine makes a pass over 2^Q amplitudes.  Gates and
    measure follow StateVector's formulas and draw order.  A two-qubit gate
    would entangle two qubits, so it raises ValueError.
    """

    KINDS = ("h", "p")

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self._factors = [[1 + 0j, 0j] for _ in range(num_qubits)]

    def copy(self) -> "ProductState":
        state = ProductState.__new__(ProductState)
        state.num_qubits, state._factors = self.num_qubits, list(map(list.copy, self._factors))
        return state

    @property
    def amps(self) -> np.ndarray:
        """The 2Q factor amplitudes, qubit by qubit: amp0 and amp1 of qubit 0 first."""
        return np.array(self._factors, dtype=np.complex128).reshape(-1)

    def to_statevector(self) -> StateVector:
        """The dense state: the Kronecker product of the factors (kron_factors)."""
        return StateVector._of(kron_factors(self.amps.reshape(-1, 2)))

    def apply_gate(self, gate: Gate) -> "ProductState":
        _check_operands(gate, self.num_qubits, self.KINDS)
        self.apply_one(gate.kind, gate.qubits[0], gate.phi)
        return self

    def apply_one(self, kind: str, qubit: int, phi: float = 0.0) -> None:
        """h or p(phi) on qubit's factor, unchecked: the caller has resolved a kind
        of KINDS and an index in 0..Q-1 (apply_gate, or a product Fabric)."""
        f = self._factors[qubit]
        a, b = f
        if kind == "h":
            f[0], f[1] = (a + b) * SQRT2_INV, (a - b) * SQRT2_INV
        else:  # cmath.exp equals complex(np.exp(1j * phi)) bit for bit, at a fifth of the cost
            f[1] = b * cmath.exp(1j * phi)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Projectively measure one qubit; collapses and renormalizes its factor.

        _draw inline: the same check, the one rng.random() against p0, the same quotients.
        """
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        f = self._factors[qubit]
        a, b = f
        p0, p1 = abs(a) ** 2, abs(b) ** 2
        if p0 < 1e-12 and p1 < 1e-12:
            raise ValueError(f"corrupt state: both outcome probabilities vanish on qubit {qubit}")
        if rng.random() < p0:
            f[0], f[1] = a / math.sqrt(p0), 0j
            return 0
        f[0], f[1] = 0j, b / math.sqrt(p1)
        return 1

    apply_gates = StateVector.apply_gates


def equal_up_to_global_phase(a, b, tol: float = 1e-10) -> bool:
    """True iff a == c*b element-wise within tol for some unit-modulus c.

    c is fixed from the largest-magnitude amplitude of b, which avoids
    dividing by a near-zero entry.  Teleportation branches randomize the
    global phase, so plain array comparison is too strict.
    """
    va = a.amps if isinstance(a, StateVector) else np.asarray(a, dtype=np.complex128)
    vb = b.amps if isinstance(b, StateVector) else np.asarray(b, dtype=np.complex128)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    i = int(np.argmax(np.abs(vb)))
    c = va[i] / vb[i]
    mag = abs(c)
    c = c / mag if mag > 0 else 1.0
    return bool(np.max(np.abs(va - c * vb)) <= tol)
