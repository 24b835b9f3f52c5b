"""Desk-scale emulator of a gate-teleported distributed inverse QFT.

The package splits an n-qubit inverse quantum Fourier transform across k
simulated nodes, executes the cross-node phase gradients through
cat-entangler/disentangler gate teleportation (or through measure-early
classical feed-forward), verifies equivalence against a monolithic
reference, and accounts for EPR pairs, classical messages, time, and
memory along the way.
"""

from .circuits import (DistributedSchedule, GradientBlock, LocalInverseQFT,
                       bit_reverse, build_schedule, flatten_schedule,
                       fourier_prep_gates, inverse_qft_gates, inverse_qft_local)
from .fabric import (ClassicalMessage, CommSlotBusyError, CrossNodeGateError,
                     Fabric, FabricCounters, PartitionPlan, check_locality,
                     make_partition)
from .metrics import (RunMetrics, classical_fidelity, counts_to_distribution,
                      epr_budget, naive_epr_budget, state_bytes)
from .runner import (RunResult, exact_value_distribution,
                     monolithic_exact_distribution, run_distributed,
                     run_monolithic_reference, run_semiclassical,
                     semiclassical_exact_distribution)
from .statevector import Gate, StateVector, equal_up_to_global_phase
from .telegate import (CatHandle, ProtocolError, apply_remote_controlled,
                       cat_disentangle, cat_entangle)

__all__ = [
    "CatHandle", "ClassicalMessage", "CommSlotBusyError", "CrossNodeGateError",
    "DistributedSchedule", "Fabric", "FabricCounters", "Gate", "GradientBlock",
    "LocalInverseQFT", "PartitionPlan", "ProtocolError", "RunMetrics", "RunResult", "StateVector",
    "apply_remote_controlled", "bit_reverse", "build_schedule",
    "cat_disentangle", "cat_entangle", "check_locality", "classical_fidelity",
    "counts_to_distribution", "epr_budget",
    "equal_up_to_global_phase", "exact_value_distribution", "flatten_schedule",
    "fourier_prep_gates", "inverse_qft_gates",
    "inverse_qft_local", "make_partition",
    "monolithic_exact_distribution", "naive_epr_budget",
    "run_distributed", "run_monolithic_reference", "run_semiclassical",
    "semiclassical_exact_distribution", "state_bytes",
]

__version__ = "0.1.0"
