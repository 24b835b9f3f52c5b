"""Cat-entangler / cat-disentangler gate teleportation.

A control qubit on node A is extended onto node B's communication qubit
through one EPR pair.  Controlled-phase gates onto any run of B's qubits can
then run locally against that "cat" copy, as one fan, and a
final disentangler returns the control to exactly the state it would have
after direct gate application.  Cost per session: 1 EPR pair, 2 classical
messages, 2 mid-circuit measurements, however many gates ran under it.  Each
half ends in _signal (measure and reset a comm qubit, which frees its slot,
and send the bit) and an X or Z.  Qubits are plan indices: logical qubit q is
q, node b's comm qubit n + b.  The fabric keeps comm qubits as a copy frame
and records the fan, which B's node pass folds into its twiddle: a session
makes no pass over the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fabric import LATENCY, Fabric


class ProtocolError(Exception):
    """Telegate session used out of order (double disentangle, wrong node, ...)."""


@dataclass
class CatHandle:
    """A live teleported-control session."""

    control: int
    remote_cat: int
    entangled: bool = True


def _signal(fabric: Fabric, comm: int, dst: int, tag: str,
            rng: np.random.Generator) -> int:
    """Measure comm (freeing its slot), reset it, and return the bit dst gets LATENCY later."""
    src = fabric.plan._nodes[comm]  # comm is a slot the session's fabric gave or checked
    bit = fabric.measure(comm, rng)
    fabric.reset(comm, rng)
    fabric.send_classical(src, dst, tag, bit)
    fabric.advance_clock(LATENCY)
    return fabric.receive(src, dst).payload


def cat_entangle(fabric: Fabric, control: int, target_node: int,
                 rng: np.random.Generator) -> CatHandle:
    """Extend `control` onto target_node's comm qubit via one EPR pair.

    Protocol: share an EPR, CNOT the control into the local half, measure
    it, send the outcome, and apply a conditional X on the remote half.
    Afterward the remote cat qubit is perfectly correlated with the control.
    """
    plan = fabric.plan
    node = plan.node_of(control)
    if control >= plan.n:
        raise ProtocolError("control must be a logical qubit")
    if node == target_node:
        raise ProtocolError(f"control already lives on node {target_node}")
    epr_a, epr_b, _ = fabric.allocate_epr(node, target_node, rng)
    fabric.apply("cnot", (control, epr_a))
    if _signal(fabric, epr_a, target_node, "cat_entangle", rng):
        fabric.apply("x", (epr_b,))
    return CatHandle(control=control, remote_cat=epr_b)


def apply_remote_controlled(fabric: Fabric, handle: CatHandle, targets, phis) -> None:
    """CP(phis[i]) between the session's cat qubit and each targets[i], as one fan.

    The targets are consecutive logical qubits on node B (Fabric.apply_fan).
    """
    if not handle.entangled:
        raise ProtocolError("session already disentangled")
    plan = fabric.plan
    nodes, node = plan._nodes, plan.node_of(handle.remote_cat)
    for target in targets:
        if not (0 <= target < plan.n and nodes[target] == node):
            plan.node_of(target)  # a ValueError out of range
            raise ProtocolError(f"target {target} is not a logical qubit on node {node}")
    fabric.apply_fan(handle.remote_cat, targets, phis)


def cat_disentangle(fabric: Fabric, handle: CatHandle, rng: np.random.Generator) -> None:
    """Close the session, restoring coherence on the control qubit.

    Protocol: H and measure the cat qubit, send the outcome back, and apply
    a conditional Z on the control.  The comm qubit's measurement frees its
    slot, and it is reset to |0>.
    """
    if not handle.entangled:
        raise ProtocolError("session already disentangled")
    fabric.apply("h", (handle.remote_cat,))
    if _signal(fabric, handle.remote_cat, fabric.plan.node_of(handle.control),
               "cat_disentangle", rng):
        fabric.apply("z", (handle.control,))
    handle.entangled = False
