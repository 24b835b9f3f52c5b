"""EPR budgets: grouped teleportation vs one EPR per cross-node gate.

Grouping all controlled phases that share a control qubit into one cat
session needs sum_{i=0}^{k-1} m_i * (k-1-i) EPR pairs, nodes counted from 0
-- m * C(k, 2) for equal node sizes -- instead of C(n, 2) for gate-by-gate
teleportation.  The runtime
counters reproduce the closed forms exactly; a small sweep writes the
numbers to CSV.
"""

import os
import tempfile

from dqft import epr_budget, make_partition, naive_epr_budget, run_distributed
from dqft.bench import parse_config, summarize, sweep

n = 12
print(f"{'k':>3} {'grouped':>8} {'naive':>6} {'savings':>8}   counter check")
for k in (1, 2, 3, 4, 6, 8):
    plan = make_partition(n, k)
    grouped = epr_budget(plan)
    naive = naive_epr_budget(n)
    res = run_distributed(plan, 1 / 3, shots=1, seed=0)
    ok = "ok" if res.metrics.epr_count == grouped else "MISMATCH"
    savings = f"{naive / grouped:.1f}x" if grouped else "-"
    print(f"{k:>3} {grouped:>8} {naive:>6} {savings:>8}   {ok}")

# Unequal partitions follow the same formula with per-node sizes.
plan = make_partition(10, 4)
print(f"\nn=10, k=4 partitions as {plan.sizes}: grouped budget {epr_budget(plan)}")

# A small sweep; every row carries the counters plus both fidelities.
config = """
num_qubits: [4, 6, 8]
nodes: [1, 2, 4]
theta: [0.0, 0.333333]
shots: 100
modes: [telegate, semiclassical]
seed: 7
repeats: 1
output_path: {out}
"""
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "rows.csv")
    summary = sweep(parse_config(config.format(out=out)), log=lambda m: None)
    print(f"\nsweep wrote {summary['written']} rows; per-(n, k) summary:")
    for line in summarize(summary["rows"]):
        print(" ", line)
    with open(out) as fh:
        print("\nfirst CSV lines:")
        for line in fh.read().splitlines()[:4]:
            print(" ", line)
