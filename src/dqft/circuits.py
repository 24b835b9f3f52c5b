"""Fourier-state preparation, swap-free inverse QFT, and the k-node schedule.

The bit-order reversal that normally ends an inverse QFT is pushed into
classical postprocessing of the measured bits (bit_reverse), so every
circuit here is swap-free.  Phase-angle fractions are reduced mod 1 in
exact rational arithmetic before conversion to radians; multiplying a
float theta by a large power of two and reducing in floating point would
otherwise cost ~2^e ulps of phase.  build_schedule is a pure function of
its frozen plan, so it is memoized, and each GradientBlock groups its fans
once.  inverse_qft_local is a node pass: the twiddle that a node's
sessions' fans fold into, then its block, tile by tile on a large state,
as an FFT when the node is wide.
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
FFT_QUBITS = 6  # a block of at least this many qubits runs in its tiles as an FFT


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


def inverse_qft_local(state: StateVector, qubits, fans=()) -> StateVector:
    """A node pass: recorded fans on the block (Fabric._local), then the swap-free inverse
    QFT over consecutive qubits lo..lo+m-1.

    The fans from before the block onto it fold into one twiddle (_fold);
    any other fan is applied first, one pass each.  On a state larger than
    TILE_AMPS, a block with lo > 0 and 2^m <= TILE_AMPS runs in tiles, slabs
    cut along the qubits before and after it, through one buffer of
    TILE_AMPS amplitudes.  A block of m >= FFT_QUBITS qubits takes the
    twiddle (_twiddle), then an FFT along its axis, read back bit-reversed.
    A narrower one is copied into the buffer with its qubits leading, takes
    one pass per qubit for the twiddle, then one fan and one H per qubit: a
    kernel's cost follows the length of its qubit's contiguous runs, and in
    the tile every block qubit's runs hold at least TILE_AMPS / 2^m
    amplitudes.  Any other block runs in place, in those same passes: bit
    for bit the tiles' result (both take the same factors).
    """
    qubits = list(qubits)
    lo, m, size = (qubits[0] if qubits else 0), len(qubits), state.amps.size
    tiled = (0 < lo and lo + m <= state.num_qubits and 1 << m <= TILE_AMPS < size
             and qubits == list(range(lo, lo + m)))
    after = size >> (lo + m) if tiled else 0  # the amplitudes after the block, per block value
    width = min(after, TILE_AMPS >> m)  # trailing amplitudes per tile
    rows = TILE_AMPS // ((1 << m) * width) if tiled else 1 << lo  # leading prefixes per tile
    factors, rest = _fold(tuple(fans), lo, m, rows) if fans else (None, ())
    for source, on, targets, phis in rest:
        state.apply_fan(source, targets, phis, on)
    if not tiled:
        for u, f in enumerate(factors(0) if factors else ()):
            half = state.amps.reshape(1 << lo, 1 << u, 2, -1)[:, :, 1]
            half *= f[:rows, None, None]
        _block(state, inverse_qft_fans(qubits))
        return state
    view = state.amps.reshape(1 << lo, 1 << m, after)  # before the block, the block, after it
    buffer, wide = np.empty(TILE_AMPS, dtype=np.complex128), m >= FFT_QUBITS
    tile = buffer.reshape((rows, 1 << m, width) if wide else (1 << m, rows, width))
    steps = list(inverse_qft_fans(range(m)))
    order = bit_reverse(np.arange(1 << m), m)  # the swap-free block reads the FFT in this order
    for a in range(0, 1 << lo, rows):
        for c in range(0, after, width):
            slab = view[a:a + rows, :, c:c + width]
            if wide:
                if factors:
                    slab *= _twiddle(factors(a)[:, :rows], buffer)[:, :, None]
                np.fft.fft(slab, axis=1, norm="ortho", out=tile)
                if width == after:  # whole rows: the slab is contiguous
                    np.take(tile, order, axis=1, out=slab, mode="clip")
                else:  # one row, its bit axes reversed: runs of width amplitudes
                    bits = (2,) * m
                    np.copyto(slab.reshape(rows, *bits, width), tile.reshape(rows, *bits, width)
                              .transpose(0, *range(m, 0, -1), m + 1))
                continue
            np.copyto(tile, slab.transpose(1, 0, 2))
            for u, f in enumerate(factors(a) if factors else ()):
                half = tile.reshape(1 << u, 2, -1, rows, width)[:, 1]
                half *= f[:rows, None]
            _block(StateVector._of(buffer), steps)
            np.copyto(slab.transpose(1, 0, 2), tile)
    return state


@lru_cache(maxsize=16)
def _fold(fans: tuple, lo: int, m: int, rows: int):
    """What a pass on lo..lo+m-1 makes of fans: (factors, the fans it applies first).

    A fan from s < lo onto the block folds if each of its phases is a whole
    multiple j of 2 pi / 2^bits, bits = lo + m; no phase is rounded.  Block
    qubit u's 1 half under prefix a then turns by K_u(a) / 2^bits, K_u(a) an
    exact integer mod 2^bits: const[u] plus coef[s][u] for each qubit s < lo
    set in a.  A fan adds j to coef[s] on the source's 1 half (on = 1); on
    its 0 half it counts through 1 - bit, j to const and -j to coef[s].
    factors(a), for a a multiple of rows, is the (m, max(rows, 2)) array
    e^(2 pi i K_u(row) / 2^bits) of rows a..a+rows-1, or None if nothing folds:
    e^(2 pi i K / 2^bits) is high[K >> h] * low[K mod 2^h].  A lone row is
    made twice: numpy rounds a complex product in its contiguous loop apart
    from its strided and one-element ones, so every row's products come from
    one loop.  Memoized: a plan's runs record alike.
    """
    bits, rest = lo + m, []
    const, coef = np.zeros(m, dtype=np.int64), np.zeros((lo, m), dtype=np.int64)
    for fan in fans:
        source, on, targets, phis = fan
        turns = np.fmod(np.array(phis) / math.tau * (1 << bits), 1 << bits)  # exact, dyadic
        if source < lo <= targets[0] and targets[-1] < bits and np.all(turns % 1 == 0):
            j = turns.astype(np.int64)
            coef[source, targets[0] - lo:targets[-1] + 1 - lo] += j if on else -j
            const[targets[0] - lo:targets[-1] + 1 - lo] += 0 if on else j
        else:
            rest.append(fan)
    if len(rest) == len(fans):
        return None, fans
    inner = lo - (rows.bit_length() - 1)  # the row qubits before inner are fixed in a tile
    run_bits = (np.arange(max(rows, 2))[:, None] >> np.arange(lo - 1 - inner, -1, -1)) & 1
    below = (run_bits @ coef[inner:]).T
    shifts, h, turn = np.arange(lo - 1, lo - 1 - inner, -1), bits // 2, TWO_PI / (1 << bits)
    high = np.exp(1j * (turn * (1 << h)) * np.arange(1 << (bits - h)))
    low = np.exp(1j * turn * np.arange(1 << h))

    def factors(a: int) -> np.ndarray:
        k = below + (const + ((a >> shifts) & 1) @ coef[:inner] if inner else const)[:, None]
        k &= (1 << bits) - 1
        out = high.take(k >> h)
        out *= low.take(k & ((1 << h) - 1))
        return out

    return factors, tuple(rest)


def _twiddle(factors: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """The (rows, 2^m) twiddle of (m, rows) factors, built at the start of buffer: per row,
    the product of factors[u] over the block qubits u set in b (qubit 0 most significant)."""
    m, rows = factors.shape
    phases = buffer[:rows << m].reshape(rows, 1 << m)
    phases[:, 0] = 1.0
    for u in range(m - 1, -1, -1):  # the last qubit first: each step fills the next run of b
        np.multiply(phases[:, :1 << (m - 1 - u)], factors[u][:, None],
                    out=phases[:, 1 << (m - 1 - u):2 << (m - 1 - u)])
    return phases


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
