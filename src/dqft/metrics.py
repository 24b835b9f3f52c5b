"""Classical fidelity, resource budgets, and the run metrics record.

Validation and fidelity take a dict or a dense array (Distribution) and
make numpy passes, no Python loop over values.  Peak memory is reported from
the allocation model (16 bytes per complex amplitude) rather than an OS
probe, so the metric is deterministic and portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fabric import PartitionPlan

BYTES_PER_AMPLITUDE = 16  # one double-precision complex number
# products per pass of a dense fidelity: a 512 KiB buffer; at least numpy's
# 128-element pairwise block, below which its sum does not split as _overlap does
OVERLAP_CHUNK = 1 << 16

Distribution = dict[int, float] | np.ndarray
"""Probabilities of values: a dict, where a missing value has probability 0, or
a dense float64 array p with p[v] the probability of value v."""


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
    fidelity_vs_reference: float  # the exact law's, against the monolithic reference
    fidelity_sampled: float  # the counts', against the same reference


def state_bytes(num_qubits: int) -> int:
    return BYTES_PER_AMPLITUDE * (1 << num_qubits)


def _checked(d: Distribution) -> tuple[np.ndarray | None, np.ndarray]:
    """d as (values, probabilities), values None when d is dense; ValueError for a negative
    value, a negative or non-finite probability, or a sum off 1 by more than 1e-9."""
    if isinstance(d, dict):
        values = np.fromiter(d, np.int64, len(d))
        probs = np.fromiter(d.values(), np.float64, len(d))
    else:
        values, probs = None, np.asarray(d, np.float64)
    total = probs.sum()
    # min, not a comparison: a reduction makes no temporary the size of a dense law
    if not (math.isfinite(total) and probs.min(initial=0.0) >= 0.0
            and (values is None or values.min(initial=0) >= 0)):
        bad = ~(probs >= 0.0) | ~np.isfinite(probs) | (False if values is None else values < 0)
        if bad.any():
            i = int(np.argmax(bad))
            v = i if values is None else values[i]
            raise ValueError(f"invalid distribution: p({v}) = {probs[i]}")
    if abs(total - 1.0) > 1e-9:  # also a sum of finite probabilities that overflowed
        raise ValueError(f"invalid distribution: probabilities sum to {total}")
    return values, probs


def classical_fidelity(p: Distribution, q: Distribution) -> float:
    """Bhattacharyya overlap sum_v sqrt(p_v * q_v); missing values count as 0."""
    (pv, pp), (qv, qp) = _checked(p), _checked(q)
    if pv is not None and qv is not None:  # two dicts: their common values
        _, i, j = np.intersect1d(pv, qv, assume_unique=True, return_indices=True)
        return float(np.sqrt(pp[i] * qp[j]).sum())
    if qv is not None:  # put the dict first
        (pv, pp), qp = (qv, qp), pp
    if pv is not None:  # read the dense one at the dict's values; the rest meet only 0s
        inside = pv < qp.size
        pp, qp = pp[inside], qp[pv[inside]]
    size = min(pp.size, qp.size)
    return _overlap(pp[:size], qp[:size], np.empty(min(size, OVERLAP_CHUNK)))


def _overlap(p: np.ndarray, q: np.ndarray, buf: np.ndarray) -> float:
    """sum(sqrt(p * q)) for equal sizes, a chunk of at most buf.size products at a time.

    Splits as numpy's pairwise sum splits a reduction longer than a chunk
    (halves, the first rounded down to a multiple of 8), so the result is
    np.sqrt(p * q).sum() bit for bit with no temporary the size of the laws.
    """
    if p.size <= buf.size:
        prod = np.multiply(p, q, out=buf[:p.size])
        return float(np.sqrt(prod, out=prod).sum())
    half = p.size // 2 - p.size // 2 % 8
    return _overlap(p[:half], q[:half], buf) + _overlap(p[half:], q[half:], buf)


def epr_budget(plan: PartitionPlan) -> int:
    """EPR pairs of a grouped-teleportation run: one per (control qubit, later node)."""
    k = plan.k
    return sum(plan.sizes[i] * (k - 1 - i) for i in range(k - 1))


def naive_epr_budget(n: int) -> int:
    """EPR pairs if every cross-node CP were teleported individually: C(n, 2)."""
    return n * (n - 1) // 2


def counts_to_distribution(counts: dict[int, int]) -> dict[int, float]:
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty counts histogram")
    return {v: c / total for v, c in counts.items()}
