"""Classical fidelity, resource budgets, and the run metrics record.

Peak memory is reported from the allocation model (16 bytes per complex
amplitude) rather than an OS probe, so the metric is deterministic and
portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fabric import PartitionPlan

BYTES_PER_AMPLITUDE = 16  # one double-precision complex number

Distribution = dict[int, float]


@dataclass
class RunMetrics:
    """Quantitative surface of one benchmark run (one circuit execution)."""

    wall_time_seconds: float
    peak_state_bytes: int
    epr_count: int
    classical_msg_count: int
    midcircuit_measurements: int
    block_slots: int
    shots: int
    fidelity_vs_reference: float


def state_bytes(num_qubits: int) -> int:
    return BYTES_PER_AMPLITUDE * (1 << num_qubits)


def validate_distribution(d: Distribution) -> None:
    total = 0.0
    for outcome, prob in d.items():
        if prob < 0.0 or not math.isfinite(prob):
            raise ValueError(f"invalid distribution: p({outcome}) = {prob}")
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"invalid distribution: probabilities sum to {total}")


def classical_fidelity(p: Distribution, q: Distribution) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i * q_i); missing keys count as 0."""
    validate_distribution(p)
    validate_distribution(q)
    keys = p.keys() & q.keys()
    return float(sum(math.sqrt(p[v] * q[v]) for v in keys))


def epr_budget(plan: PartitionPlan) -> int:
    """EPR pairs of a grouped-teleportation run: one per (control qubit, later node)."""
    k = plan.k
    return sum(plan.sizes[i] * (k - 1 - i) for i in range(k - 1))


def naive_epr_budget(n: int) -> int:
    """EPR pairs if every cross-node CP were teleported individually: C(n, 2)."""
    return n * (n - 1) // 2


def counts_to_distribution(counts: dict[int, int]) -> Distribution:
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty counts histogram")
    return {v: c / total for v, c in counts.items()}
