"""Fourier-state preparation, swap-free inverse QFT, and the k-node schedule.

The bit-order reversal that normally ends an inverse QFT is pushed into
classical postprocessing of the measured bits (bit_reverse), so every
circuit here is swap-free.  Phase-angle fractions are reduced mod 1 in
exact rational arithmetic before conversion to radians; multiplying a
float theta by a large power of two and reducing in floating point would
otherwise cost ~2^e ulps of phase.  build_schedule is a pure function of
its frozen plan, so it is memoized, and each GradientBlock groups its fans
once.  inverse_qft_local runs a block past qubit 0 of a large state tile by
tile, in a buffer where the block's qubits lead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .fabric import PartitionPlan
from .statevector import Gate, ProductState, StateVector

TWO_PI = 2.0 * math.pi
TILE_AMPS = 1 << 16  # a local block's tile: 2^16 amplitudes, 1 MiB, within a core's L2 cache


def phase_turns(theta: float, exponent: int) -> float:
    """theta * 2^exponent mod 1, computed exactly on the float's rational value.

    The reduction is integer arithmetic on theta = num/den, and the one
    rounding is int / int, correctly rounded like float(Fraction).
    """
    num, den = theta.as_integer_ratio()
    return ((num << exponent) % den) / den


def inv_qft_angle(d: int) -> float:
    """Inverse-QFT gradient angle -2*pi/2^d; shared so gate lists compare exactly."""
    return -TWO_PI / (1 << d)


# -- Fourier state preparation ----------------------------------------------


def fourier_prep_gates(qubits, theta: float) -> list[Gate]:
    """H plus phase gate per listed qubit, encoding phase theta.

    The last listed qubit carries e^{2*pi*i*theta}, the one before it
    theta*2, and so on doubling toward the first.  For theta = v/2^n and
    the full register in global order this is exactly the Fourier
    transform of basis state |v>.  All gates are single-qubit, so each
    node can prepare its own slice locally.
    """
    qubits = list(qubits)
    L = len(qubits)
    gates = []
    for p, q in enumerate(qubits):
        gates.append(Gate.h(q))
        gates.append(Gate.p(TWO_PI * phase_turns(theta, L - 1 - p), q))
    return gates


def fourier_product(n: int, theta: float) -> ProductState:
    """The Fourier state on qubits 0..n-1 as n factors, by the prep gates' own formulas."""
    return ProductState(n).apply_gates(fourier_prep_gates(range(n), theta))


# -- swap-free inverse QFT ----------------------------------------------------


def inverse_qft_gates(qubits) -> list[Gate]:
    """Swap-free inverse QFT over the listed qubits.

    For each qubit j in list order: controlled phases CP(-2*pi/2^(j-l+1))
    against every earlier qubit l, then H on j.  Greedy layering of this
    order runs in 2m-1 layers for m qubits.
    """
    qubits = list(qubits)
    gates = []
    for j in range(len(qubits)):
        for l in range(j):
            gates.append(Gate.cp(inv_qft_angle(j - l + 1), qubits[l], qubits[j]))
        gates.append(Gate.h(qubits[j]))
    return gates


def inverse_qft_fans(qubits):
    """inverse_qft_gates fused: per qubit j, (j, the qubits before j, their CP angles onto j).

    A fan from j onto the qubits before it, then H on j, for each in order,
    is the gate list.
    """
    qubits = list(qubits)
    for j, q in enumerate(qubits):
        yield q, qubits[:j], [inv_qft_angle(j - l + 1) for l in range(j)]


def inverse_qft_local(state: StateVector, qubits) -> StateVector:
    """The swap-free inverse QFT over consecutive qubits: one fan and one H per qubit.

    A block of ascending qubits lo..lo+m-1 with lo > 0, on a state larger
    than TILE_AMPS, runs tile by tile: each tile copies a slab of the state,
    cut along the qubits before and after the block, into one buffer of at
    most TILE_AMPS amplitudes with the block's qubits leading, takes the
    block there and is copied back.  A kernel's cost follows the length of
    its qubit's contiguous runs, not its arithmetic: in place the block's
    last qubit has runs as long as the qubits after the block allow (one
    amplitude for the last node), in the tile every block qubit's runs hold
    at least TILE_AMPS / 2^m.  Every amplitude sees the same products in the
    same order, so the state is the in-place result bit for bit.
    """
    qubits = list(qubits)
    lo, m, size = (qubits[0] if qubits else 0), len(qubits), state.amps.size
    if not (0 < lo and lo + m <= state.num_qubits and 1 << m <= TILE_AMPS < size
            and qubits == list(range(lo, lo + m))):
        _block(state, inverse_qft_fans(qubits))
        return state
    view = state.amps.reshape(1 << lo, 1 << m, -1)  # before the block, the block, after it
    after = view.shape[2]
    width = min(after, TILE_AMPS >> m)  # trailing amplitudes per tile
    rows = TILE_AMPS // ((1 << m) * width)  # leading prefixes per tile
    buffer = np.empty((1 << m, rows, width), dtype=np.complex128)
    tile, steps = StateVector._of(buffer.reshape(-1)), list(inverse_qft_fans(range(m)))
    for a in range(0, 1 << lo, rows):
        for c in range(0, after, width):
            slab = view[a:a + rows, :, c:c + width].transpose(1, 0, 2)
            np.copyto(buffer, slab)
            _block(tile, steps)
            np.copyto(slab, buffer)
    return state


def _block(state: StateVector, steps) -> None:
    """A block's inverse_qft_fans steps in order: the fan onto the earlier qubits, then H."""
    for q, earlier, phis in steps:
        if earlier:
            state.apply_fan(q, earlier, phis)
        state.apply_gate(Gate.h(q))


# -- classical postprocessing --------------------------------------------------


def bit_reverse(i, n: int):
    """Reverse the low n bits of i, an int or an integer numpy array."""
    out = i & 0  # a zero of i's own type
    for b in range(n):
        out = (out << 1) | ((i >> b) & 1)
    return out


# -- distributed schedule -------------------------------------------------------


@dataclass(frozen=True)
class LocalInverseQFT:
    node: int
    slot: int


@dataclass(frozen=True)
class GradientBlock:
    """All controlled-phase gradients from one node's qubits onto one later node.

    gates holds (control, target, phi) triples in plan global indices, by
    increasing control; every control qubit costs one teleportation session
    toward target_node, regardless of how many targets it touches.
    """

    control_node: int
    target_node: int
    slot: int
    gates: tuple[tuple[int, int, float], ...]

    def fans(self) -> tuple[tuple[int, tuple[int, ...], tuple[float, ...]], ...]:
        """(control, targets, phis) per control qubit: its CPs as one fan onto the target node."""
        return self._fans

    @cached_property
    def _fans(self):
        fans = []
        for c, triples in groupby(self.gates, key=lambda g: g[0]):
            _, targets, phis = zip(*triples)
            fans.append((c, targets, phis))
        return tuple(fans)


@dataclass(frozen=True)
class DistributedSchedule:
    plan: PartitionPlan
    blocks: tuple  # in slot order, which blocks_by_slot relies on
    num_slots: int

    def blocks_by_slot(self):
        for s, group in groupby(self.blocks, key=lambda b: b.slot):
            yield s, list(group)


@lru_cache(maxsize=64)
def build_schedule(plan: PartitionPlan) -> DistributedSchedule:
    """Recursive k-node decomposition of the swap-free inverse QFT.

    Local inverse QFT of node i lands in slot 2i; the gradient block from
    node i onto node t in slot i+t.  Within any slot all blocks touch
    disjoint nodes, so the schedule runs in 2k-1 slots, and flattened with
    direct gates it reproduces exactly the monolithic gate multiset.
    Blocks are emitted in slot order: the local block first, then the
    gradient blocks by increasing control node.  Gradient gates name plan
    indices: CP(c, t) has angle -2*pi/2^(t-c+1).  Memoized on the plan
    (equal plans share one schedule), so every caller gets the same
    immutable blocks.
    """
    blocks = []
    num_slots = 2 * plan.k - 1
    for s in range(num_slots):
        if s % 2 == 0:
            blocks.append(LocalInverseQFT(node=s // 2, slot=s))
        for i in range(max(0, s - plan.k + 1), (s + 1) // 2):
            gates = tuple((c, t, inv_qft_angle(t - c + 1))
                          for c in plan.node_qubits(i) for t in plan.node_qubits(s - i))
            blocks.append(GradientBlock(control_node=i, target_node=s - i, slot=s, gates=gates))
    return DistributedSchedule(plan=plan, blocks=tuple(blocks), num_slots=num_slots)


def flatten_schedule(schedule: DistributedSchedule) -> list[Gate]:
    """The schedule as a monolithic gate list, telegates replaced by direct CP."""
    plan = schedule.plan
    gates: list[Gate] = []
    for block in schedule.blocks:
        if isinstance(block, LocalInverseQFT):
            gates.extend(inverse_qft_gates(plan.node_qubits(block.node)))
        else:
            gates.extend(Gate.cp(phi, c, t) for c, t, phi in block.gates)
    return gates
