"""End-to-end benchmark runs: telegate, semiclassical, and the monolithic reference.

Every run prepares a Fourier state with phase theta once, as
fourier_product's n one-qubit factors, undoes it with the swap-free inverse
QFT, and reads out values through the classical bit reversal.  The one dense
pipeline is the telegate run; the monolithic reference is that run on the
one-node plan, which teleports no gate.  Node 0's local block (slot 0) comes
before any entangling step, so it runs on node 0's m0 factors alone, expanded
to 2^m0 amplitudes, and the fabric starts from that head times the other
factors' Kronecker product, one outer product into the 2^n state
(_head_start, fabric.HeadStart); on the one-node plan the head is the whole
state.  The run then applies controlled phases as fans (one phase pass per
qubit of a later node's block and one per cat session) under a ufunc buffer
of UFUNC_BUFSIZE elements scoped to the run, and executes the circuit once
(teleportation outcomes never change the logical state).  It squares its
final 2^n state once, uncopied, into its law in qubit order: the shots are
drawn from it (_readout, in one more array the size of the law) and the
exact law is read from it.  It then drops its fabric and state unless
return_state is set, as the monolithic run sets it, so sampling and
verification hold float64 laws only.  A run's working set peaks at 1.5
states (16 bytes an amplitude) while the law is squared; its prep holds
about one state (the state, and the head and the tail's product beside it);
a run that keeps its state peaks at 2.  The semiclassical path measures early:
one dynamic circuit per shot, O(n^2) scalar work on the run's one product
fabric (run_semiclassical, _semiclassical_shots).  Resource counters always
cover one circuit execution.  wall_time_seconds times the emulation only
(prep, schedule or shots, and sampling); the check of the run, _metrics,
starts after the clock stops.  It builds the reference (the Fejer kernel)
once and takes two fidelities against it: the run's exact law's and its
counts'.  Inside a run an exact distribution is one float64 array indexed by
value.  The reference and the measure-early law (a branch tree) are closed
forms that share no code with the engine; only a telegate run's own
distribution is read from its state, as |amps|^2 with its qubit axes
reversed (REV).  The public *_exact_distribution helpers return the same
numbers as dicts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .circuits import (TWO_PI, GradientBlock, LocalInverseQFT, bit_reverse, build_schedule,
                       fourier_product, inverse_qft_local, phase_turns)
from .circuits import fourier_prep_gates, inverse_qft_gates  # noqa: F401 (traced by dqftbench)
from .fabric import LATENCY, Fabric, FabricCounters, HeadStart, PartitionPlan, make_partition
from .metrics import RunMetrics, classical_fidelity, counts_to_distribution, state_bytes
from .statevector import ProductState, StateVector, _sample, kron_factors
from .telegate import apply_remote_controlled, cat_disentangle, cat_entangle

MODES = ("telegate", "semiclassical")
# numpy's ufunc buffer size while a dense run emulates.  The buffered iterator
# copies every strided operand whose contiguous runs are shorter than its
# buffer (8192 elements by default) through buffers that size, so an in-place
# kernel on a qubit past the first few pays a copy pass; 256 bounds the copy.
UFUNC_BUFSIZE = 256
# doubles in one block of a semiclassical run's draws (512 KiB): a run holds one
# block at a time, whatever its shot count
_DRAW_BLOCK = 1 << 16


@dataclass
class RunResult:
    counts: dict[int, int]
    metrics: RunMetrics
    state: StateVector | None = None


def _validate(theta: float, shots: int) -> None:
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


# -- exact output distributions ------------------------------------------------


def _rev(p: np.ndarray) -> np.ndarray:
    """REV of a law in qubit order, |amps|^2: its 2 x ... x 2 axes reversed, p[value]."""
    return p.reshape((2,) * (p.size.bit_length() - 1)).transpose().reshape(-1)


def _distribution(state: StateVector) -> np.ndarray:
    """Exact post-REV value distribution of a pre-measurement logical state: p[value]."""
    return _rev(state.probabilities(range(state.num_qubits)))


def _readout(p: np.ndarray, shots: int, rng: np.random.Generator) -> dict[int, int]:
    """Counts by value drawn from a dense run's law in qubit order, |amps|^2 of its final state."""
    n = p.size.bit_length() - 1
    return {bit_reverse(int(i), n): int(c) for i, c in _sample(p, shots, rng)}


def exact_value_distribution(state: StateVector) -> dict[int, float]:
    """The exact value distribution of state as a dict over every value in range(2^n)."""
    return dict(enumerate(_distribution(state).tolist()))


def _reference(n: int, theta: float) -> np.ndarray:
    """The monolithic value distribution of (n, theta) in closed form: the Fejer kernel.

    With 2^n*theta = I + f, I the nearest integer, the inverse QFT of the
    Fourier state reads v with p(v) = sin^2(pi f) / (4^n sin^2(pi (w_v + f) / 2^n)),
    where w_v is the integer I - v wrapped into [-2^(n-1), 2^(n-1)) (Cleve,
    Ekert, Macchiavello & Mosca 1998).  I and f come exactly from the float's
    rational value, as in phase_turns, and no float theta - v/2^n is formed.
    At the peak v = I mod 2^n the kernel equals the product of
    cos^2(pi f / 2^j), j = 1..n, which is used there because it stays exact
    as f -> 0; f = 0 gives the point mass.  Computed in place on one float64
    array; shares no code with the engine.
    """
    size = 1 << n
    scaled = Fraction(theta) * size
    near = round(scaled)
    f = float(scaled - near)
    peak = near % size
    # w_v descends by 1 as v grows and is 0 at the peak; the values v < wrap
    # have passed 2^(n-1) - 1 and wrap down by 2^n
    wrap = (peak + 1 - size // 2) % size
    p = np.arange(size // 2 - 1 + wrap, wrap - size // 2 - 1, -1, dtype=np.float64)
    p[:wrap] -= size
    p += f
    p *= math.pi / size
    np.sin(p, out=p)
    p[peak] = 1.0  # any non-zero divisor; the peak is set below
    np.divide(math.sin(math.pi * f) / size, p, out=p)
    p *= p
    p[peak] = math.prod(math.cos(math.pi * f / (2 << j)) for j in range(n)) ** 2
    return p


def monolithic_exact_distribution(n: int, theta: float) -> dict[int, float]:
    """The closed-form monolithic value distribution (_reference) as a dict."""
    return dict(enumerate(_reference(n, theta).tolist()))


def _feedforward(turns, bit):
    """Griffiths-Niu phase of qubit j+1 in turns from qubit j's phase and bit.

    From t(0) = 0 this folds to the sum of b(l)/2^(j-l+1) over l < j, exactly
    in float64 for up to 52 qubits.
    """
    return turns / 2 + bit / 4


def _semiclassical_law(n: int, theta: float) -> np.ndarray:
    """The measure-early mode's value distribution, as a branch tree with one qubit per level.

    Row r of level j holds the bits of qubits 0..j-1, qubit l at bit l (the
    value so far).  The feed-forward has folded them to t_j(r) = r / 2^(j+1)
    turns (the _feedforward recurrence from t = 0), so qubit j, prepared with
    phi_j = phase_turns(theta, n-1-j), reads 1 with probability
    p1(r) = sin^2(pi (phi_j - t_j(r))) (Griffiths & Niu 1996).  Level j makes
    prob[r + 2^j] = prob[r] * p1(r) and prob[r] *= p0(r), in place.  Shares no
    code with the engine or the shot loop.
    """
    prob = np.empty(1 << n)
    prob[0] = 1.0
    for j in range(n):
        rows = 1 << j
        low, high = prob[:rows], prob[rows:2 * rows]
        np.multiply(np.arange(rows, dtype=np.float64), -0.5 / rows, out=high)  # -t_j(r)
        high += phase_turns(theta, n - 1 - j)
        high *= math.pi
        np.sin(high, out=high)
        high *= high
        high *= low
        low -= high
    return prob


def semiclassical_exact_distribution(n: int, theta: float) -> dict[int, float]:
    """The closed-form measure-early value distribution (_semiclassical_law) as a dict."""
    return dict(enumerate(_semiclassical_law(n, theta).tolist()))


# -- telegate execution ----------------------------------------------------------


def _run_gradient_block(fabric: Fabric, block: GradientBlock,
                        rng: np.random.Generator) -> None:
    # one cat session per control qubit covers all its targets on this node
    for c, targets, phis in block.fans():
        handle = cat_entangle(fabric, c, block.target_node, rng)
        apply_remote_controlled(fabric, handle, targets, phis)
        cat_disentangle(fabric, handle, rng)


def _head_start(plan: PartitionPlan, theta: float) -> HeadStart:
    """A dense run's prep: node 0's block on its factors of fourier_product, and the rest.

    Node 0's m0 factors are expanded (kron_factors) and take its inverse-QFT
    block, 2 m0 passes over 2^m0 amplitudes; the other factors stay as they
    are, for the fabric's one outer product.  On a one-node plan the head is
    the whole register, expanded and transformed as the state itself.
    """
    factors, m = fourier_product(plan.n, theta).amps.reshape(-1, 2), plan.sizes[0]
    head = inverse_qft_local(StateVector._of(kron_factors(factors[:m])), range(m))
    return HeadStart(head, factors[m:])


def _execute_schedule(fabric: Fabric, schedule, rng: np.random.Generator) -> int:
    """Run all blocks slot by slot; returns the number of slots executed.

    Node 0's block (slot 0) is skipped on a fabric whose prep already holds
    it (Fabric.head_done); its slot still takes its clock tick.
    """
    slots = 0
    for _, group in schedule.blocks_by_slot():
        for block in group:
            if isinstance(block, LocalInverseQFT):
                if block.node == 0 and fabric.head_done:
                    continue
                qubits = fabric.plan.node_qubits(block.node)
                inverse_qft_local(fabric._local(qubits), qubits)
            else:
                _run_gradient_block(fabric, block, rng)
        fabric.advance_clock(1)
        slots += 1
    return slots


def _metrics(wall: float, counters: FabricCounters, num_qubits: int, slots: int,
             counts: dict[int, int], exact: np.ndarray, n: int, theta: float) -> RunMetrics:
    """Check a finished run against the monolithic reference of (n, theta); build its metrics.

    The one reference meets the run's dense exact distribution and its
    sampled counts.  Draws no random numbers, so verification never changes
    what a seed replays.
    """
    reference = _reference(n, theta)
    sampled = counts_to_distribution(counts)
    return RunMetrics(wall_time_seconds=wall,
                      peak_state_bytes=state_bytes(num_qubits),
                      epr_count=counters.epr_created,
                      classical_msg_count=counters.classical_messages,
                      midcircuit_measurements=counters.midcircuit_measurements,
                      block_slots=slots,
                      shots=sum(counts.values()),
                      fidelity_vs_reference=classical_fidelity(exact, reference),
                      fidelity_sampled=classical_fidelity(sampled, reference))


def run_distributed(plan: PartitionPlan, theta: float, mode: str = "telegate",
                    shots: int = 100, seed: int = 0, return_state: bool = False) -> RunResult:
    """Distributed inverse-QFT run over the plan's k nodes; return_state keeps a telegate state."""
    if mode == "semiclassical":
        if return_state:
            raise ValueError("a semiclassical run measures early: it has no final state")
        return run_semiclassical(plan, theta, shots=shots, seed=seed)
    if mode != "telegate":
        raise ValueError(f"unknown mode {mode!r}")
    _validate(theta, shots)
    rng = np.random.default_rng(seed)
    schedule = build_schedule(plan)
    start = time.perf_counter()
    with np.errstate():  # restores the caller's ufunc buffer size on exit (UFUNC_BUFSIZE)
        np.setbufsize(UFUNC_BUFSIZE)
        fabric = Fabric(plan, prep=_head_start(plan, theta))
        slots = _execute_schedule(fabric, schedule, rng)
    state = fabric._settled()  # every comm qubit is reset: the law is the 2^n amplitudes'
    p, counters = state.probabilities(range(plan.n)), fabric.counters
    if not return_state:
        state = fabric = None  # from here on a run reads laws only: free the 2^n amplitudes
    counts = _readout(p, shots, rng)
    wall = time.perf_counter() - start
    p = _rev(p)  # rebound, so the qubit-order law is freed before verification
    metrics = _metrics(wall, counters, plan.n + plan.k, slots, counts, p, plan.n, theta)
    return RunResult(counts, metrics, state)


def run_monolithic_reference(n: int, theta: float, shots: int = 100,
                             seed: int = 0) -> RunResult:
    """Single-register run: the one-node telegate run (no gate teleported), its state kept."""
    res = run_distributed(make_partition(n, 1), theta, shots=shots, seed=seed, return_state=True)
    res.metrics.peak_state_bytes = state_bytes(n)  # one register: no one-node comm slot
    return res


# -- semiclassical (teleportation-free) mode ---------------------------------------


def _semiclassical_once(fabric: Fabric, rng: np.random.Generator) -> int:
    """One dynamic-circuit execution on a fabric holding the Fourier state; returns the value.

    The value holds qubit j's bit at bit j: the raw outcome bit-reversed.  At
    a node's start every earlier bit is deliverable, and receive_all returns
    them by source node, FIFO per channel, so folding them in that order
    through _feedforward gives the running phase of the node's first qubit.
    Each node's qubits and later nodes come from the plan's cached table
    (PartitionPlan._feedforward_runs); the fabric's methods are bound once
    per shot, so a method patched on the class is the one each call makes.
    """
    apply, measure, advance_clock = fabric.apply, fabric.measure, fabric.advance_clock
    send, receive_all = fabric.send_classical, fabric.receive_all
    value = 0
    for node, qubits, later in fabric.plan._feedforward_runs:
        turns = 0.0
        for msg in receive_all(node):
            turns = turns / 2 + msg.payload / 4  # _feedforward, inline
        for j, operand in qubits:
            if turns:
                apply("p", operand, -TWO_PI * turns)
            apply("h", operand)
            bit = measure(j, rng)
            turns = turns / 2 + bit / 4
            value |= bit << j
            for dst in later:
                send(node, dst, "feedforward", bit)
            advance_clock(LATENCY)
    return value


def _semiclassical_shots(plan: PartitionPlan, prep: ProductState, shots: int,
                         rng: np.random.Generator) -> tuple[dict[int, int], FabricCounters]:
    """Run shots executions on one product fabric; returns the counts and one shot's counters.

    Each shot makes one draw per qubit, in order, so shot s takes draws
    s*n .. s*n + n - 1 of the run: the draws are made a block of whole shots
    at a time (at most _DRAW_BLOCK doubles, one rng.random call), and a shot
    reads them through an object whose random is the block's C-level
    iterator, so it sees the doubles that one rng.random() per measurement
    would give, and leaves rng where those calls would.  Before each shot
    the fabric restarts from a copy of prep (Fabric._restart); a shot drains
    every channel it fills, so no message crosses into the next.
    """
    n = plan.n
    per_block = max(1, _DRAW_BLOCK // n)
    fabric = Fabric(plan, with_comm=False, prep=prep)
    restart, counts = fabric._restart, {}
    for first in range(0, shots, per_block):
        size = min(per_block, shots - first)
        draws = SimpleNamespace(random=iter(memoryview(rng.random(size * n))).__next__)
        for _ in range(size):
            restart(prep)
            value = _semiclassical_once(fabric, draws)
            counts[value] = counts.get(value, 0) + 1
        del draws  # released before the next block is drawn: one block at a time
    return counts, fabric.counters


def run_semiclassical(plan: PartitionPlan, theta: float, shots: int = 100,
                      seed: int = 0) -> RunResult:
    """Teleportation-free run: early measurement plus classical feed-forward.

    Each shot is a genuine dynamic-circuit execution; no EPR pairs and no
    communication qubits are used, so the state holds only n qubits, each
    as its own factor of a ProductState.  All shots run on one fabric, and
    every shot's fabric starts from a copy of the run's one fourier_product
    (_semiclassical_shots).  Reported counters cover one execution (they
    are identical across shots).
    """
    _validate(theta, shots)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    counts, counters = _semiclassical_shots(plan, fourier_product(plan.n, theta), shots, rng)
    wall = time.perf_counter() - start
    metrics = _metrics(wall, counters, plan.n, 0, counts,
                       _semiclassical_law(plan.n, theta), plan.n, theta)
    return RunResult(counts, metrics)
