"""The telegate protocol, step by step.

A control qubit on node 0 drives controlled-phase gates on node 1 without
ever moving: one EPR pair extends it onto node 1's communication qubit
(cat-entangler), any number of local CP gates run against that copy, and a
closing measurement plus a conditional Z hands coherence back
(cat-disentangler).  Cost: 1 EPR, 2 classical bits, 2 measurements --
however many gates ran in between.
"""

import numpy as np

from dqft import (Fabric, Gate, StateVector, apply_remote_controlled,
                  cat_disentangle, cat_entangle, equal_up_to_global_phase,
                  make_partition)

rng = np.random.default_rng(3)

# Every qubit is named by its plan index.  Node 0 owns qubit 0, node 1 owns
# qubits 1 and 2, and node b's comm slot is 3 + b.  The fabric's state holds
# the 3 logical qubits only: a comm qubit is a frame entry that records how
# it copies the control, so the session's remote gates run as one phase pass
# from the control itself.
plan = make_partition(3, 2)
fabric = Fabric(plan)
control, (target_a, target_b) = plan.node_qubits(0)[0], plan.node_qubits(1)
print("plan sizes:", plan.sizes, "| node 1's qubits", list(plan.node_qubits(1)),
      "| comm slots", plan.comm_slots, "| qubits held:",
      fabric.state.num_qubits)

# Some generic product state so every protocol branch is populated.
for q in range(3):
    fabric.state.apply_gate(Gate.h(q))
    fabric.state.apply_gate(Gate.p(0.5 * (q + 1), q))

# Cross-node gates are forbidden -- that is the whole point of the fabric.
try:
    fabric.apply("cp", (control, target_a), np.pi / 4)
except Exception as err:
    print("direct cross-node gate rejected:", err)

# One session, two remote gates: one fan from the cat qubit onto node 1's run.
handle = cat_entangle(fabric, control=control, target_node=1, rng=rng)
print("after entangle: EPRs =", fabric.counters.epr_created,
      "| messages =", fabric.counters.classical_messages)
print("cat copy of qubit", handle.control, "on node 1's comm slot", handle.remote_cat)
apply_remote_controlled(fabric, handle, [target_a, target_b], [np.pi / 4, np.pi / 8])
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
