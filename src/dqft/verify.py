"""Self-verification checks: structural oracle, branch exhaustion, equivalence,
and the closed-form laws against the engine.

Each check returns (name, passed, detail) so the CLI can print a pass/fail
table and the test suite can assert on the same code paths.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .circuits import (LocalInverseQFT, build_schedule, flatten_schedule, fourier_prep_gates,
                       fourier_product, inverse_qft_gates, inverse_qft_local)
from .fabric import Fabric, make_partition
from .metrics import epr_budget
from .runner import (_distribution, _reference, _semiclassical_law, run_distributed,
                     run_monolithic_reference)
from .statevector import Gate, StateVector, equal_up_to_global_phase
from .telegate import apply_remote_controlled, cat_disentangle, cat_entangle

EQUIV_QUBITS = (4, 6, 8, 10, 12)
EQUIV_NODES = (1, 2, 4, 8)
EQUIV_THETAS = (0.0, 1 / 3, 2 / 3)


class ScriptedRng:
    """Stand-in generator whose random() pops scripted values, then yields 0.0.

    Lets a test force each measurement branch of the telegate protocol:
    0.0 forces outcome 0, a value near 1 forces outcome 1.
    """

    def __init__(self, values):
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0) if self._values else 0.0


def check_gate_multiset():
    """Flattened schedule must equal the monolithic swap-free inverse QFT, n <= 12, k <= 8."""
    tried = 0
    for n in range(2, 13):
        for k in range(1, min(n, 8) + 1):
            plan = make_partition(n, k)
            flat = Counter(flatten_schedule(build_schedule(plan)))
            mono = Counter(inverse_qft_gates(range(n)))
            if flat != mono:
                return ("gate-multiset", False, f"mismatch at n={n}, k={k}")
            tried += 1
    return ("gate-multiset", True, f"{tried} plans, flattened == monolithic")


def telegate_branch_states(phis):
    """Run the 3-qubit telegate once per forced branch pair; returns the states.

    Qubit layout: node 0 holds the control, node 1 holds two targets.
    The scripted draw order is: 2 comm resets, the entangle measurement,
    1 comm reset, the disentangle measurement, 1 comm reset.
    """
    plan = make_partition(3, 2)  # sizes (1, 2): control on node 0
    states = {}
    for b_ent in (0, 1):
        for b_dis in (0, 1):
            force = [0.0, 0.0, 0.999999999 if b_ent else 0.0,
                     0.0, 0.999999999 if b_dis else 0.0, 0.0]
            rng = ScriptedRng(force)
            fabric = Fabric(plan, with_comm=True)
            _prepare_generic(fabric.state, plan)
            handle = cat_entangle(fabric, 0, 1, rng)
            apply_remote_controlled(fabric, handle, plan.node_qubits(1)[:len(phis)], phis)
            cat_disentangle(fabric, handle, rng)
            states[(b_ent, b_dis)] = fabric.logical_state()
    return states


def _prepare_generic(state: StateVector, plan) -> None:
    # a product state with both protocol measurement branches populated
    for q in range(plan.n):
        state.apply_gate(Gate.h(q))
        state.apply_gate(Gate.p(0.3 + 0.4 * q, q))


def check_telegate_branches():
    """All 4 forced measurement branches must match the direct-gate circuit."""
    phis = (np.pi / 4, -np.pi / 3)
    plan = make_partition(3, 2)
    direct = StateVector(3)
    _prepare_generic(direct, plan)
    for t_loc, phi in enumerate(phis):
        direct.apply_gate(Gate.cp(phi, 0, 1 + t_loc))
    for branch, state in telegate_branch_states(phis).items():
        if not equal_up_to_global_phase(state, direct, 1e-10):
            return ("telegate-branches", False, f"branch {branch} deviates from direct gates")
    return ("telegate-branches", True, "4 measurement branches match direct CP circuit")


def equivalence_grid(thetas=EQUIV_THETAS):
    for n in EQUIV_QUBITS:
        for k in EQUIV_NODES:
            if k > n:
                continue
            for theta in thetas:
                yield n, k, theta


def check_state_equivalence():
    """Distributed telegate state == monolithic reference, up to global phase (seed 0)."""
    checked, tol = 0, 1e-8
    for n, k, theta in equivalence_grid():
        mono = run_monolithic_reference(n, theta, shots=1, seed=0).state
        res = run_distributed(make_partition(n, k), theta, shots=1, seed=0, return_state=True)
        if not equal_up_to_global_phase(res.state, mono, tol):
            return ("distributed-equals-monolithic", False,
                    f"state mismatch at n={n}, k={k}, theta={theta}, seed=0")
        checked += 1
    return ("distributed-equals-monolithic", True, f"{checked} runs within {tol}")


def check_closed_form_reference():
    """The Fejer-kernel reference == the engine pipeline, and the measure-early tree law == it."""
    tol = 1e-12
    pairs = sorted({(n, theta) for n, _, theta in equivalence_grid()})
    for n, theta in pairs:
        reference = _reference(n, theta)
        engine = _distribution(run_monolithic_reference(n, theta, shots=1).state)
        for name, law in (("engine pipeline", engine),
                          ("semiclassical law", _semiclassical_law(n, theta))):
            gap = float(np.abs(reference - law).max())
            if not gap <= tol:
                return ("closed-form-reference", False,
                        f"n={n}, theta={theta}: reference and {name} differ by {gap:.3g}")
    return ("closed-form-reference", True,
            f"{len(pairs)} (n, theta) pairs: reference == engine == semiclassical law within {tol}")


def check_fused_application():
    """The fused run path == the unfused gate lists, on random unit states.

    For every plan: each node's inverse_qft_local (a fan and an H per
    qubit) == its inverse_qft_gates applied gate by gate, each session's
    fan == the block's Gate.cp list for its control, and the Kronecker prep
    == fourier_prep_gates applied to |0...0>.
    """
    rng, tol = np.random.default_rng(0), 1e-12
    plans = [make_partition(n, k) for n in range(1, 11) for k in EQUIV_NODES if k <= n]
    for plan in plans:
        n, theta = plan.n, float(rng.random())
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        cases = [(fourier_product(n, theta).to_statevector(), StateVector(n),
                  fourier_prep_gates(range(n), theta), "the Kronecker prep")]
        for block in build_schedule(plan).blocks:
            if isinstance(block, LocalInverseQFT):
                qubits = plan.node_qubits(block.node)
                cases.append((inverse_qft_local(state.copy(), qubits), state,
                              inverse_qft_gates(qubits), f"node {block.node}'s block"))
            else:
                cases += [(state.copy().apply_fan(c, targets, phis), state,
                           [Gate.cp(phi, d, t) for d, t, phi in block.gates if d == c],
                           f"the fan from qubit {c}") for c, targets, phis in block.fans()]
        for fused, start, gates, what in cases:
            gap = float(np.abs(fused.amps - start.copy().apply_gates(gates).amps).max())
            if not gap <= tol:
                return ("fused-application", False,
                        f"n={n}, k={plan.k}: {what} differs from its gates by {gap:.3g}")
    return ("fused-application", True, f"{len(plans)} plans: blocks, session fans and the "
            f"Kronecker prep == their gates within {tol}")


def check_epr_formula():
    """Runtime EPR counter must equal the grouped budget on every plan."""
    for n, k, theta in equivalence_grid(thetas=(1 / 3,)):
        plan = make_partition(n, k)
        res = run_distributed(plan, theta, shots=1, seed=0)
        want = epr_budget(plan)
        if res.metrics.epr_count != want:
            return ("epr-formula", False,
                    f"n={n}, k={k}: counted {res.metrics.epr_count}, formula {want}")
        if res.metrics.classical_msg_count != 2 * want:
            return ("epr-formula", False,
                    f"n={n}, k={k}: messages {res.metrics.classical_msg_count} != 2*EPR")
    return ("epr-formula", True, "counter == sum_{i>=0} m_i * (k-1-i) and messages == 2*EPR")


def run_all():
    return [
        check_gate_multiset(),
        check_telegate_branches(),
        check_state_equivalence(),
        check_closed_form_reference(),
        check_fused_application(),
        check_epr_formula(),
    ]
