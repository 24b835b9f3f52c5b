"""The telegate protocol, step by step.

A control qubit on node 0 drives controlled-phase gates on node 1 without
ever moving: one EPR pair extends it onto node 1's communication qubit
(cat-entangler), any number of local CP gates run against that copy, and a
closing measurement plus a conditional Z hands coherence back
(cat-disentangler).  Cost: 1 EPR, 2 classical bits, 2 measurements --
however many gates ran in between.
"""

import numpy as np

from dqft import (Fabric, Gate, QubitAddr, StateVector, apply_remote_controlled,
                  cat_disentangle, cat_entangle, equal_up_to_global_phase,
                  make_partition)

rng = np.random.default_rng(3)

# Node 0 owns qubit 0, node 1 owns qubits 1 and 2; one comm slot per node.
# The fabric starts with the 3 logical qubits and binds each slot to a
# pooled comm qubit only while an EPR pair lives on it.
plan = make_partition(3, 2)
fabric = Fabric(plan)
print("plan sizes:", plan.sizes, "| logical comm slots", plan.comm_slots,
      "| qubits held before any EPR:", fabric.state.num_qubits)

# Some generic product state so every protocol branch is populated.
for q in range(3):
    fabric.state.apply_gate(Gate.h(q))
    fabric.state.apply_gate(Gate.p(0.5 * (q + 1), q))

# Cross-node gates are forbidden -- that is the whole point of the fabric.
try:
    fabric.apply("cp", (QubitAddr(0, 0), QubitAddr(1, 0)), np.pi / 4)
except Exception as err:
    print("direct cross-node gate rejected:", err)

# One session, two remote gates.
handle = cat_entangle(fabric, control=QubitAddr(0, 0), target_node=1, rng=rng)
print("after entangle: EPRs =", fabric.counters.epr_created,
      "| messages =", fabric.counters.classical_messages)
apply_remote_controlled(fabric, handle, np.pi / 4, QubitAddr(1, 0))
apply_remote_controlled(fabric, handle, np.pi / 8, QubitAddr(1, 1))
cat_disentangle(fabric, handle, rng)
print("after disentangle: EPRs =", fabric.counters.epr_created,
      "| messages =", fabric.counters.classical_messages,
      "| mid-circuit measurements =", fabric.counters.midcircuit_measurements,
      "| qubits held =", fabric.state.num_qubits)

# The same circuit with direct gates, for comparison.
direct = StateVector(3)
for q in range(3):
    direct.apply_gate(Gate.h(q))
    direct.apply_gate(Gate.p(0.5 * (q + 1), q))
direct.apply_gate(Gate.cp(np.pi / 4, 0, 1))
direct.apply_gate(Gate.cp(np.pi / 8, 0, 2))

print("teleported == direct (up to global phase):",
      equal_up_to_global_phase(fabric.logical_state(), direct, 1e-10))
