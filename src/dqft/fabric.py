"""Simulated multi-node fabric: partitioned qubits, EPR source, classical channels.

All k nodes share one global state, but every gate must pass a locality
check: its operands live on one node.  Cross-node effects happen only
through EPR pairs (prepared by the fabric) and classical messages (delivered
on a discrete tick clock).  The fabric owns all resource counters for a run.

Layout (PartitionPlan): a qubit is named by its plan index.  The n logical
qubits come first, contiguous per node in node order, and node b's
communication slot is n + b; plan.node_of names the node of an index.  One
resolver turns a plan index into a state index.  The state's most significant
end holds a pool of communication qubits, pool qubit s at state index s,
and logical qubit q follows at q + pool, so a cat session's kernels on a
pool qubit run over long contiguous halves.  allocate_epr binds a slot to
the lowest free pool qubit, release_comm unbinds it, and the pool grows by
one |0> qubit (at index pool) only when all are bound, so a telegate run
holds n + 2 qubits, not n + k.  The fabric knows a qubit's basis bit after
growth or reset (0) or measurement (the outcome) until a gate touches it;
resetting it then takes one draw and no probability pass, and the Bell
pair is written directly.  Gates, measurements and resets run on the live
window: the prefix of the state past the leading pool qubits known |0>.
apply_fan applies the CPs from one qubit onto a run of consecutive qubits as
one phase pass (a fan), with the same checks as apply.  The logical qubits
start in a ProductState, expanded with one Kronecker product.

A fabric without communication qubits (the teleportation-free mode) holds a
ProductState: n one-qubit factors instead of 2^n amplitudes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .statevector import SQRT2_INV, Gate, ProductState, StateVector

LATENCY = 1  # ticks from sending a classical message to its delivery


class CrossNodeGateError(Exception):
    """A gate tried to span two nodes without teleportation."""


class CommSlotBusyError(Exception):
    """A node's communication qubit is still reserved by a live cat session."""


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of n logical qubits to k nodes, plus comm-qubit slots."""

    n: int
    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = self.sizes
        if self.k < 1 or len(sizes) != self.k or min(sizes) < 1 or sum(sizes) != self.n:
            raise ValueError(f"sizes {sizes}: need k={self.k} >= 1 nonempty nodes summing to n={self.n}")

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes[:-1], initial=0))

    @cached_property
    def _nodes(self) -> tuple[int, ...]:
        # plan index -> node: logical qubits node by node, then one comm slot per node
        return (tuple(node for node, m in enumerate(self.sizes) for _ in range(m))
                + tuple(range(self.k)))

    @property
    def comm_slots(self) -> tuple[int, ...]:
        return tuple(self.n + b for b in range(self.k))

    def node_qubits(self, node: int) -> range:
        off = self.offsets[node]
        return range(off, off + self.sizes[node])

    def node_of(self, index: int) -> int:
        """The node holding plan index index: a logical qubit or a comm slot."""
        if not 0 <= index < self.n + self.k:
            raise ValueError(f"plan index {index} out of range 0..{self.n + self.k - 1}")
        return self._nodes[index]


def make_partition(n: int, k: int) -> PartitionPlan:
    """Evenly partitioned, remainder appended to the last node."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"k exceeds n: cannot place {k} nodes on {n} qubits")
    m = n // k
    sizes = [m] * k
    sizes[-1] += n - m * k
    return PartitionPlan(n=n, k=k, sizes=tuple(sizes))


def check_locality(plan: PartitionPlan, qubits) -> None:
    """Raise CrossNodeGateError unless all plan-index operands share a node."""
    nodes = {plan.node_of(q) for q in qubits}
    if len(nodes) > 1:
        raise CrossNodeGateError(f"gate spans nodes {sorted(nodes)}: operands {list(qubits)}")


@dataclass(frozen=True)
class ClassicalMessage:
    src: int
    dst: int
    tag: str
    payload: int
    tick: int  # earliest tick at which the message is deliverable


@dataclass
class FabricCounters:
    epr_created: int = 0
    classical_messages: int = 0
    midcircuit_measurements: int = 0
    current_tick: int = 0


class Fabric:
    """k nodes over one shared state, with counters and a tick clock.

    The n logical qubits start in prep, a ProductState the fabric takes
    over (|0...0> by default).  ``state.num_qubits`` is n plus the pool, the
    peak number of comm slots bound at once; gates run on its live window
    (see the module docstring).  with_comm=False forbids comm slots
    (teleportation-free modes): then allocate_epr is unavailable and the
    state is the ProductState, which rejects two-qubit gates.  A message is
    deliverable LATENCY = 1 tick later.
    """

    def __init__(self, plan: PartitionPlan, with_comm: bool = True,
                 prep: ProductState | None = None):
        self.plan = plan
        self.with_comm = with_comm
        prep = ProductState(plan.n) if prep is None else prep
        self.state = prep.to_statevector() if with_comm else prep
        self.counters = FabricCounters()
        self._comm_busy = [False] * plan.k
        self._bound: dict[int, int] = {}  # node -> state index of its pool qubit
        self._known: list[int | None] = [None] * plan.n  # qubit -> basis bit; None after a gate
        self._queues: dict[tuple[int, int], deque[ClassicalMessage]] = {}

    # -- gates and measurements --------------------------------------------

    def apply(self, kind: str, qubits, phi: float = 0.0) -> None:
        """Apply a gate to plan-index operands on one node; else CrossNodeGateError."""
        qubits = tuple(qubits)
        if len(qubits) > 1:  # one operand is always local
            check_locality(self.plan, qubits)
            for q in qubits:  # bind all first: growing the pool shifts the logical indices
                self._index(q, bind=True)
        qubits = tuple([self._index(q, bind=True) for q in qubits])
        for q in qubits:
            self._known[q] = None
        state = self.state
        if self.with_comm:  # a product state has no pool, and its gates pay for no window
            state, lead = self._live(min(qubits))
            qubits = tuple([q - lead for q in qubits])
        state.apply_gate(Gate(kind, qubits, phi))

    def apply_fan(self, source: int, targets, phis) -> None:
        """CP(phis[i]) from source onto consecutive targets[i], all on one node, as one fan.

        Checked, bound and resolved as apply does, and run on the live window.
        """
        qubits = (source, *targets)
        check_locality(self.plan, qubits)
        for q in qubits:
            self._index(q, bind=True)
        qubits = [self._index(q) for q in qubits]
        for q in qubits:
            self._known[q] = None
        state, lead = self._live(min(qubits))
        state.apply_fan(qubits[0] - lead, [q - lead for q in qubits[1:]], phis)

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure a plan index (one draw); the fabric then knows its basis bit."""
        self.counters.midcircuit_measurements += 1
        q = self._index(qubit)
        if q is None:
            rng.random()  # an unbound slot is |0>: the same single draw, outcome 0
            return 0
        state, lead = self._live(q) if self.with_comm else (self.state, 0)
        bit = self._known[q] = state.measure(q - lead, rng)
        return bit

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset a plan index to |0> (one draw); not a protocol measurement."""
        self._reset(self._index(qubit), rng)

    def _reset(self, q: int | None, rng: np.random.Generator) -> None:
        bit = 0 if q is None else self._known[q]
        if bit is not None:
            rng.random()  # an unbound slot is |0>, a known bit needs no pass: the one draw
        if bit == 0:
            return
        state, lead = self._live(q) if self.with_comm else (self.state, 0)
        if bit is None:
            state.reset(q - lead, rng)
        elif self.with_comm:  # the |0> half is empty: move the |1> half into it
            v = state._one_axis(q - lead)
            v[:, 0, :], v[:, 1, :] = v[:, 1, :], 0.0
        else:  # a product factor (0, b): X makes it (b, 0)
            state.apply_gate(Gate.x(q))
        self._known[q] = 0

    def _live(self, first: int) -> tuple[StateVector, int]:
        """The live window amps[:2^(Q - lead)], where state index q is q - lead, and lead:
        the count of leading pool qubits below first known |0>, so amplitudes past it are zero."""
        lead, top = 0, min(first, self.state.num_qubits - self.plan.n)
        while lead < top and self._known[lead] == 0:
            lead += 1
        if not lead:
            return self.state, 0
        return StateVector._of(self.state.amps[:1 << (self.state.num_qubits - lead)]), lead

    def _index(self, qubit: int, bind: bool = False) -> int | None:
        """State index of a plan index; None for an unbound comm slot.

        Logical qubit q sits at q + pool.  bind=True binds an unbound slot
        to the lowest free pool qubit, or to a new |0> qubit inserted at
        index pool ([:, 0, :] of (2^pool, 2, 2^n) keeps the old state).
        """
        plan = self.plan
        if not 0 <= qubit < plan.n + plan.k:
            raise ValueError(f"plan index {qubit} out of range 0..{plan.n + plan.k - 1}")
        pool = self.state.num_qubits - plan.n
        if qubit < plan.n:
            return qubit + pool
        if not self.with_comm:
            raise CommSlotBusyError("fabric built without communication qubits")
        node = qubit - plan.n
        q = self._bound.get(node)
        if q is None and bind:
            q = next((q for q in range(pool) if q not in self._bound.values()), pool)
            if q == pool:
                old = self.state.amps
                self.state.amps = np.zeros(2 * old.size, dtype=np.complex128)
                self.state.amps.reshape(1 << pool, 2, -1)[:, 0, :] = old.reshape(1 << pool, -1)
                self.state.num_qubits += 1
                self._known.insert(pool, 0)
            self._bound[node] = q
        return q

    # -- EPR source ----------------------------------------------------------

    def allocate_epr(self, node_a: int, node_b: int, rng: np.random.Generator):
        """Prepare (|00>+|11>)/sqrt(2) on the two nodes' comm qubits; returns
        their plan indices n + node_a and n + node_b and the pair's serial.

        Entanglement distribution is the fabric's own privilege: it is the
        only place a two-node operation touches the state directly.
        """
        if not self.with_comm:
            raise CommSlotBusyError("fabric built without communication qubits")
        if node_a == node_b:
            raise ValueError("EPR endpoints must be distinct nodes")
        for node in (node_a, node_b):
            if self._comm_busy[self._node(node)]:
                raise CommSlotBusyError(f"comm slot of node {node} is busy")
        n = self.plan.n
        ga, gb = (self._index(n + node, bind=True) for node in (node_a, node_b))
        self._reset(ga, rng)
        self._reset(gb, rng)
        self._known[ga] = self._known[gb] = None
        # both are |0> now: H then CNOT would scale the |00> block by 1/sqrt2
        # and copy it to |11>, and this writes the same bits directly
        v = self.state._two_axes(ga, gb)
        v[:, 0, :, 0, :] *= SQRT2_INV
        np.positive(v[:, 0, :, 0, :], out=v[:, 1, :, 1, :])  # a ufunc; assigning would copy the block first
        self._comm_busy[node_a] = self._comm_busy[node_b] = True
        self.counters.epr_created += 1
        return n + node_a, n + node_b, self.counters.epr_created

    def release_comm(self, node: int) -> None:
        """Free node's slot and unbind its pool qubit for the next allocation."""
        self._comm_busy[self._node(node)] = False
        self._bound.pop(node, None)

    def comm_busy(self, node: int) -> bool:
        return self._comm_busy[self._node(node)]

    def _node(self, node: int) -> int:
        """node itself; ValueError outside 0..k-1, where a list index would wrap."""
        if not 0 <= node < self.plan.k:
            raise ValueError(f"node {node} out of range for k={self.plan.k}")
        return node

    # -- classical messaging and clock ---------------------------------------

    def send_classical(self, src: int, dst: int, tag: str, payload: int) -> ClassicalMessage:
        if src == dst:
            raise ValueError("classical message must cross nodes (src == dst)")
        msg = ClassicalMessage(src, dst, tag, payload, self.counters.current_tick + LATENCY)
        self._queues.setdefault((src, dst), deque()).append(msg)
        self.counters.classical_messages += 1
        return msg

    def advance_clock(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("clock only advances")
        self.counters.current_tick += ticks

    def receive(self, src: int, dst: int) -> ClassicalMessage:
        """Pop the oldest deliverable message on the (src, dst) channel."""
        q = self._queues.get((src, dst))
        if not q or q[0].tick > self.counters.current_tick:
            raise RuntimeError(f"no deliverable message on channel {src}->{dst}")
        return q.popleft()

    def receive_all(self, dst: int) -> list[ClassicalMessage]:
        """Pop every message deliverable to dst: by increasing source node, FIFO per channel."""
        out = []
        for (src, d), q in sorted(self._queues.items()):
            if d != dst:
                continue
            while q and q[0].tick <= self.counters.current_tick:
                out.append(q.popleft())
        return out

    # -- readout ---------------------------------------------------------------

    def logical_state(self) -> StateVector:
        """The n logical qubits as a standalone dense state; pool qubits must be |0>.

        Pool qubits sit at the most significant index bits, so with all of
        them in |0> the logical amplitudes are the first 2^n, and the rest
        must carry no weight.  A fabric without communication qubits returns
        the Kronecker product of its ProductState's factors.
        """
        if not self.with_comm:
            return self.state.to_statevector()
        logical, rest = np.split(self.state.amps, [1 << self.plan.n])
        weight = np.vdot(rest, rest).real
        if weight > 1e-9:
            raise RuntimeError(f"comm qubits not disentangled: residual weight {weight:.3e}")
        return StateVector.from_amplitudes(logical)
