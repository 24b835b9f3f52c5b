"""Simulated multi-node fabric: partitioned qubits, EPR source, classical channels.

All k nodes share one global state, but every gate must pass a locality
check: its operands live on one node.  Cross-node effects happen only
through EPR pairs (prepared by the fabric) and classical messages (delivered
on a discrete tick clock).  The fabric owns all resource counters for a run.

A qubit is named by its plan index (PartitionPlan): the n logical qubits,
contiguous per node in node order, then node b's comm slot n + b.  The state
holds the logical qubits only, qubit q at index q, from a ProductState
expanded by one Kronecker product, or from a HeadStart: node 0's qubits with
their local block already taken, times the other qubits' factors, expanded
by one outer product.  apply_fan makes the CPs from one qubit onto a run of
consecutive qubits one phase pass (a fan).

A comm qubit has no amplitudes: in a cat session it only holds a GF(2)
relation to the logical state, a FrameEntry in the manner of a Pauli frame.
An EPR half holds a hidden bit r, r xor x_c after the CNOT from control c;
measuring it is a fair coin m, one draw against exactly 1/2, which leaves
the other half the copy x_c xor m, whose X flips m.  A fan from the copy is
the fan from c on its x_c xor m = 1 half.  H turns the copy into an X-basis
copy, whose measurement is again a fair coin; outcome 1 kicks a Z onto c,
pending until the Z correction cancels it or anything else touches c.  A
comm qubit is |0> until used and after a reset, and holds its outcome after
a measurement.  Its slot is busy exactly while it holds an EPR half or a
copy: allocate_epr refuses it until a measurement or a reset frees it.  Any
other step on a comm qubit, or one that would change a copied c, raises
ValueError.

A classical message waits in its destination's inbox, one FIFO channel per
source that has sent there, the sources in increasing order: receive pops
from one channel, receive_all walks only the channels into its node.  Every
call checks its nodes against the plan (ValueError) before a queue changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .statevector import Gate, ProductState, StateVector, _check_operands, kron_factors

LATENCY = 1  # ticks from sending a classical message to its delivery


class CrossNodeGateError(Exception):
    """A gate tried to span two nodes without teleportation."""


class CommSlotBusyError(Exception):
    """A node's communication qubit still holds an EPR half or a copy, or the fabric
    was built without communication qubits."""


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of n logical qubits to k nodes, plus comm-qubit slots."""

    n: int
    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        object.__setattr__(self, "sizes", sizes)  # hashable: build_schedule is memoized on the plan
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

    @cached_property
    def _feedforward_runs(self) -> tuple:
        # per node, for a semiclassical shot: the node, (j, (j,)) for each of its
        # logical qubits j, and the later nodes its bits go to
        return tuple((node, tuple((j, (j,)) for j in self.node_qubits(node)),
                      tuple(range(node + 1, self.k))) for node in range(self.k))

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
    qubits, table, first = tuple(qubits), plan._nodes, None
    for q in qubits:
        node = table[q] if 0 <= q < len(table) else plan.node_of(q)  # a ValueError out of range
        if first is None:
            first = node
        elif node != first:
            nodes = sorted({plan.node_of(q) for q in qubits})
            raise CrossNodeGateError(f"gate spans nodes {nodes}: operands {list(qubits)}")


class ClassicalMessage(NamedTuple):
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


class FrameEntry(NamedTuple):
    """A comm qubit: "bit" (basis bit flip), "pair" (EPR half r, or r xor x_control, sharing
    r with node partner's half), "copy" (x_control xor flip) or "xcopy" (H on a copy)."""

    kind: str
    flip: int = 0
    control: int | None = None
    partner: int | None = None


ZERO = FrameEntry("bit")  # a comm qubit in |0>, until used and after a reset
BITS = (ZERO, FrameEntry("bit", 1))  # a comm qubit holding a measured outcome, by outcome


class HeadStart(NamedTuple):
    """A dense start that already holds node 0's local block (a dense run's prep).

    head is node 0's m0 qubits after their inverse-QFT block; tail holds the
    other n - m0 qubits' one-qubit factors, one row of two amplitudes each.
    The state is head (x) tail: the tail expanded (kron_factors), then one
    outer product.  A one-node plan has no tail, and its head is the state.
    """

    head: StateVector
    tail: np.ndarray

    def to_statevector(self) -> StateVector:
        if not len(self.tail):
            return self.head  # uncopied: the fabric takes the head over
        tail = kron_factors(self.tail)
        out = np.empty((self.head.amps.size, tail.size), dtype=np.complex128)
        np.multiply(self.head.amps[:, None], tail, out=out)
        return StateVector._of(out.reshape(-1))


class Fabric:
    """k nodes over one shared state, with counters and a tick clock.

    The n logical qubits start in a copy of prep (|0...0> by default), so
    the fabric never changes the factors it was given.  A HeadStart prep,
    whose head is node 0's qubits with their local block taken, is expanded
    into a new state, or taken over when there is no tail; head_done then
    tells the schedule that node 0's block has run.  with_comm=False
    forbids comm slots (teleportation-free modes): the state is then a
    ProductState, n one-qubit factors, which applies H and P only.  Such a
    product fabric never holds a frame entry or a pending Z, so an H or a P
    on a logical qubit is resolved once, in apply, and goes straight to its
    factor (ProductState.apply_one) with no Gate, and a measurement of a
    logical qubit goes straight to ProductState.measure.
    A message is deliverable LATENCY = 1 tick later.  _restart starts a new
    execution on the same fabric, so a semiclassical run builds one: every
    shot's fabric starts from a copy of the prep, with zeroed counters and
    the channels its earlier shots opened, all drained.
    """

    def __init__(self, plan: PartitionPlan, with_comm: bool = True,
                 prep: ProductState | HeadStart | None = None):
        self.plan = plan
        self.with_comm = with_comm
        self.head_done = isinstance(prep, HeadStart)
        if self.head_done and (not with_comm or prep.head.num_qubits != plan.sizes[0]
                               or prep.head.num_qubits + len(prep.tail) != plan.n):
            raise ValueError(f"a HeadStart of {prep.head.num_qubits} + {len(prep.tail)} qubits "
                             f"does not start a dense fabric on node sizes {plan.sizes}")
        self._product_n = 0 if with_comm else plan.n  # qubits of the resolved product path
        # dst -> its inbox, src -> the channel's messages, FIFO; sources in increasing order
        self._inbox: dict[int, dict[int, deque[ClassicalMessage]]] = {}
        self._channels: list[deque[ClassicalMessage]] = []  # every channel, as opened
        self._restart(ProductState(plan.n) if prep is None else prep)

    def _restart(self, prep: ProductState | HeadStart) -> None:
        """Start a new execution from a copy of prep, with zeroed counters and clock.

        The plan, the mode and the opened channels stay, so an execution that
        drains every channel it fills (a semiclassical shot) can be run again
        on the same fabric.  A message still queued would cross into the next
        execution: RuntimeError, before anything changes.
        """
        if any(self._channels):
            queued = [msg for channel in self._channels for msg in channel]
            raise RuntimeError(f"restart with undelivered messages: {queued}")
        self.state = prep.to_statevector() if self.with_comm else prep.copy()
        self.counters = FabricCounters()
        self._frame: dict[int, FrameEntry] = {}  # node -> its comm qubit; ZERO when absent
        self._pending_z: set[int] = set()  # logical qubits owed a Z by a cat session

    # -- gates and measurements --------------------------------------------

    def apply(self, kind: str, qubits, phi: float = 0.0) -> None:
        """Apply a gate to plan-index operands on one node; else CrossNodeGateError.

        On a product fabric an h or p on a logical qubit is resolved here
        and goes straight to its factor (ProductState.apply_one); any other
        call takes the checked path and raises as a Gate would, before any
        bookkeeping changes: a kind the state does not apply spends no
        pending Z.
        """
        qubits = tuple(qubits)
        if len(qubits) == 1:  # one operand is always local
            q = qubits[0]
            if 0 <= q < self._product_n and kind in ProductState.KINDS:
                self.state.apply_one(kind, q, phi)  # no frame, no pending Z: nothing to touch
                return
            if kind == "z" and q in self._pending_z:  # the correction meets its kick
                self._pending_z.remove(q)
                return
            logical = 0 <= q < self.plan.n
        else:  # two operands, or none: logical here, so the gate check rejects it
            check_locality(self.plan, qubits)
            logical = min(qubits, default=0) >= 0 and max(qubits, default=0) < self.plan.n
        if not logical:
            self._comm_step(kind, qubits)
            return
        gate = Gate(kind, qubits, phi)
        if self._frame or self._pending_z:
            _check_operands(gate, self.plan.n, StateVector.KINDS)  # first: nothing changes
            self._touch(qubits, kind == "h")
        self.state.apply_gate(gate)

    def _comm_step(self, kind: str, qubits) -> None:
        """A cat-session step onto a comm qubit, the last operand: bookkeeping only."""
        last = qubits[-1]
        node, entry = (None, ZERO) if 0 <= last < self.plan.n else self._comm(last)
        if (kind == "cnot" and entry.kind == "pair" and qubits[0] < self.plan.n
                and entry.control is None and self._frame[entry.partner].control is None):
            self._frame[node] = FrameEntry("pair", 0, qubits[0], entry.partner)
        elif kind in ("x", "h") and len(qubits) == 1 and entry.kind == "copy":
            self._frame[node] = (FrameEntry("copy", entry.flip ^ 1, entry.control) if kind == "x"
                                 else FrameEntry("xcopy", entry.flip, entry.control))
        else:
            raise ValueError(f"{kind} on {qubits}: a comm qubit holding {entry} takes no such step")

    def apply_fan(self, source: int, targets, phis) -> None:
        """CP(phis[i]) from source onto consecutive targets[i], all on one node, as one fan;
        a comm-qubit source must hold a copy of some c, and the fan runs from c."""
        targets = list(targets)
        check_locality(self.plan, (source, *targets))
        on = 1
        if source >= self.plan.n:
            entry = self._comm(source)[1]
            if entry.kind != "copy":
                raise ValueError(f"fan from {source}: a comm qubit holding {entry} is no copy")
            source, on = entry.control, 1 ^ entry.flip
        self.state.apply_fan(source, targets, phis, on)  # a ValueError for comm targets
        if self._pending_z:
            self._touch((source, *targets))  # a pending Z commutes with the fan

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure a plan index (one draw); only a measurement made is counted.

        On a product fabric a logical qubit is resolved first, as in apply:
        no frame or pending Z can touch it, so its factor is measured at once.
        """
        if 0 <= qubit < self._product_n:
            bit = self.state.measure(qubit, rng)
        elif 0 <= qubit < self.plan.n:
            if self._pending_z:
                self._touch((qubit,))
            bit = self.state.measure(qubit, rng)
        else:
            bit = self._collapse(*self._comm(qubit), rng)
        self.counters.midcircuit_measurements += 1
        return bit

    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset a comm slot to |0> (one draw); not a protocol measurement.
        A logical qubit takes no reset: a ValueError before any draw."""
        if 0 <= qubit < self.plan.n:
            raise ValueError(f"reset of logical qubit {qubit}: only a comm slot resets")
        node, entry = self._comm(qubit)
        self._collapse(node, entry, rng)
        self._frame.pop(node, None)

    def _collapse(self, node: int, entry: FrameEntry, rng: np.random.Generator) -> int:
        """Measure node's comm qubit, holding entry, with one draw; it then holds the outcome."""
        if entry.kind == "bit":
            rng.random()  # a known bit: the same single draw, and no pass
            return entry.flip
        if entry.kind == "copy":
            raise ValueError(f"measuring node {node}'s copy would collapse qubit {entry.control}")
        bit = 0 if rng.random() < 0.5 else 1  # a fair coin, whatever the logical state
        frame = self._frame
        if entry.kind == "pair":  # r = bit xor [x_c]: the partner's r xor [x_c'] is a bit or a copy
            c = frame[entry.partner].control
            c = entry.control if c is None else c
            frame[entry.partner] = BITS[bit] if c is None else FrameEntry("copy", bit, c)
        elif bit:  # the kept branch carries (-1)^(x_c xor flip): Z on c, up to a global phase
            self._pending_z ^= {entry.control}
        frame[node] = BITS[bit]
        return bit

    def _comm(self, qubit: int) -> tuple[int, FrameEntry]:
        """The node and frame entry of a plan index past the logical qubits: a comm slot.

        A ValueError out of range; a CommSlotBusyError on a fabric without comm qubits.
        """
        node = qubit - self.plan.n
        if not (0 <= node < self.plan.k and self.with_comm):
            self.plan.node_of(qubit)  # a ValueError out of range
            raise CommSlotBusyError("fabric built without communication qubits")
        return node, self._frame.get(node, ZERO)

    def _local(self, qubits) -> StateVector:
        """The fabric's own state, for a local block on logical qubits of one node: no copy.

        Makes once the checks each gate of the block would, before anything
        changes: the qubits share a node (CrossNodeGateError) and are logical,
        and no comm qubit relates to one (ValueError).  Their pending Zs are
        then applied: the block runs on the state alone, with no fabric step
        between its gates (inverse_qft_local, tile by tile).
        """
        qubits = tuple(qubits)
        check_locality(self.plan, qubits)
        if max(qubits, default=0) >= self.plan.n:
            raise ValueError(f"block on {list(qubits)}: a comm qubit takes no local block")
        watched = {e.control for e in self._frame.values()}.intersection(qubits)
        if watched:
            raise ValueError(f"block on {list(qubits)}: qubits {sorted(watched)} would change "
                             "under a comm qubit that copies them")
        self._touch(qubits)
        return self.state

    def _touch(self, qubits, flips: bool = False) -> None:
        """Apply the qubits' pending Zs; flips: the step (an H) may flip the last."""
        if flips and self._frame and any(e.control == qubits[-1] for e in self._frame.values()):
            raise ValueError(f"qubit {qubits[-1]} changes under a comm qubit that copies it")
        for q in qubits:
            if q in self._pending_z:
                self._pending_z.remove(q)
                self.state.apply_gate(Gate.z(q))

    # -- EPR source ----------------------------------------------------------

    def allocate_epr(self, node_a: int, node_b: int, rng: np.random.Generator):
        """Reset the two nodes' comm qubits (one draw each) and make them an EPR pair;
        returns their plan indices n + node_a and n + node_b and the pair's serial."""
        if node_a == node_b:
            raise ValueError("EPR endpoints must be distinct nodes")
        for node in (node_a, node_b):
            if self.comm_busy(node):
                raise CommSlotBusyError(f"comm slot of node {node} is busy")
        if not self.with_comm:
            raise CommSlotBusyError("fabric built without communication qubits")
        rng.random()  # each free slot holds a known bit: its reset is one draw and no pass
        rng.random()
        n = self.plan.n
        self._frame[node_a] = FrameEntry("pair", 0, None, node_b)
        self._frame[node_b] = FrameEntry("pair", 0, None, node_a)
        self.counters.epr_created += 1
        return n + node_a, n + node_b, self.counters.epr_created

    def comm_busy(self, node: int) -> bool:
        """Whether node's comm qubit holds an EPR half or a copy; ValueError outside 0..k-1."""
        self._check_node(node)
        return self._frame.get(node, ZERO).kind != "bit"

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.plan.k:
            raise ValueError(f"node {node} out of range for k={self.plan.k}")

    # -- classical messaging and clock ---------------------------------------

    def send_classical(self, src: int, dst: int, tag: str, payload: int) -> ClassicalMessage:
        """Queue a message on the (src, dst) channel, deliverable LATENCY ticks from now.

        ValueError unless src and dst are two distinct nodes of the plan; an
        existing channel has passed that check, so only its first message makes it.
        """
        inbox = self._inbox.get(dst)
        channel = None if inbox is None else inbox.get(src)
        if channel is None:
            channel = self._open(src, dst)
        counters = self.counters
        # the tuple the NamedTuple's generated __new__ makes, without its argument parsing
        tick = counters.current_tick + LATENCY
        msg = tuple.__new__(ClassicalMessage, (src, dst, tag, payload, tick))
        channel.append(msg)
        counters.classical_messages += 1
        return msg

    def _open(self, src: int, dst: int) -> deque[ClassicalMessage]:
        """The new, empty (src, dst) channel, in dst's inbox by increasing source; checked first."""
        k = self.plan.k
        if src == dst:
            raise ValueError("classical message must cross nodes (src == dst)")
        if not (0 <= src < k and 0 <= dst < k):
            raise ValueError(f"message {src}->{dst}: nodes lie in 0..{k - 1}")
        channel, inbox = deque(), self._inbox.get(dst)
        self._channels.append(channel)
        if inbox is None:
            self._inbox[dst] = {src: channel}
        else:
            later = next(reversed(inbox)) > src  # the last source is the greatest
            inbox[src] = channel
            if later:
                self._inbox[dst] = dict(sorted(inbox.items()))
        return channel

    def advance_clock(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("clock only advances")
        self.counters.current_tick += ticks

    def receive(self, src: int, dst: int) -> ClassicalMessage:
        """Pop the oldest deliverable message on the (src, dst) channel.

        ValueError for a node outside 0..k-1, RuntimeError if the channel holds
        no deliverable message; either way before any queue changes.
        """
        inbox = self._inbox.get(dst)
        channel = None if inbox is None else inbox.get(src)
        if not channel or channel[0][4] > self.counters.current_tick:  # [4]: its tick
            self._check_node(src)
            self._check_node(dst)
            raise RuntimeError(f"no deliverable message on channel {src}->{dst}")
        return channel.popleft()

    def receive_all(self, dst: int) -> list[ClassicalMessage]:
        """Pop every message deliverable to dst: by increasing source node, FIFO per channel.

        Walks only the channels into dst; ValueError for a dst outside 0..k-1.
        """
        inbox = self._inbox.get(dst)
        if inbox is None:  # no message was ever sent to dst
            self._check_node(dst)
            return []
        out, now = [], self.counters.current_tick
        for channel in inbox.values():
            while channel and channel[0][4] <= now:  # [4]: its tick
                out.append(channel.popleft())
        return out

    # -- readout ---------------------------------------------------------------

    def logical_state(self) -> StateVector:
        """A checked copy of the n logical qubits, pending Zs applied, as a dense state.

        Every comm slot must be free (_settled); a product fabric expands its factors."""
        if not self.with_comm:
            return self.state.to_statevector()
        return StateVector.from_amplitudes(self._settled().amps)

    def _settled(self) -> StateVector:
        """The fabric's own state, pending Zs applied: no copy; RuntimeError while a slot is busy."""
        if any(map(self.comm_busy, range(self.plan.k))):
            raise RuntimeError(f"comm qubits not disentangled: {self._frame}")
        self._touch(sorted(self._pending_z))
        return self.state
