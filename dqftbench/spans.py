"""Span recorder for the traced benchmark run.

Wrappers are installed on the public functions of each dqft module (layer)
for the traced phase only and removed after it.  Each name is patched where
its caller looks it up: runner calls ``dqft.runner.cat_entangle``, bench
calls ``dqft.bench.run_point``, and so on; ``StateVector`` and ``Fabric``
methods are patched on the class.

Spans are kept in memory in flat arrays (name, start, end, parent span,
op id, work) and written out as JSON lines at the end.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

import numpy as np

GATE_KINDS = ("h", "x", "z", "p", "cp", "cnot")
KERNELS = GATE_KINDS + ("measure", "reset")
# Spans whose time is verification, not emulation.
VERIFY_SPANS = ("runner.exact_value_distribution",
                "runner.semiclassical_exact_distribution",
                "runner.monolithic_exact_distribution",
                "metrics.classical_fidelity")


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name_of, work_of=None):
        """A wrapper of fn that records one span per call.

        name_of(args) gives the span's name id; work_of(args, result), when
        given, the span's work count (amplitudes, gates emitted).
        """
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, works, stack = self.start, self.end, self.work, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if work_of is not None:
                works[idx] = work_of(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, work_of=None) -> None:
        fixed = self.name_id(name)
        self.replace(owner, attr,
                     self.wrap(getattr(owner, attr), lambda args: fixed, work_of))

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self, dqft) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        sv = dqft.statevector.StateVector
        kind_ids = {kind: self.name_id(f"statevector.{kind}") for kind in GATE_KINDS}
        state_amps = lambda args, result: args[0].amps.size  # noqa: E731
        self.replace(sv, "apply_gate", self.wrap(
            sv.apply_gate, lambda args: kind_ids[args[1].kind], state_amps))
        for method in ("measure", "reset", "sample_counts"):
            self.patch(sv, method, f"statevector.{method}", state_amps)

        fab = dqft.fabric.Fabric
        self.patch(fab, "__init__", "fabric.init",
                   lambda args, result: args[0].state.amps.size)
        for method in ("apply", "measure", "allocate_epr", "send_classical"):
            self.patch(fab, method, f"fabric.{method}")

        runner, bench, circuits = dqft.runner, dqft.bench, dqft.circuits
        self.patch(runner, "cat_entangle", "telegate.cat_entangle")
        self.patch(runner, "cat_disentangle", "telegate.cat_disentangle")
        self.patch(runner, "apply_remote_controlled", "telegate.remote_cp")
        self.patch(runner, "build_schedule", "circuits.build_schedule")
        emitted = lambda args, result: len(result)  # noqa: E731
        for module in (runner, circuits):
            for fn in ("fourier_prep_gates", "inverse_qft_gates"):
                self.patch(module, fn, f"circuits.{fn}", emitted)
        for fn in ("exact_value_distribution", "semiclassical_exact_distribution",
                   "monolithic_exact_distribution", "classical_fidelity"):
            self.patch(runner, fn, _verify_name(fn))
        for fn in ("monolithic_exact_distribution", "classical_fidelity"):
            self.patch(bench, fn, _verify_name(fn))
        self.patch(bench, "run_distributed", "runner.run")
        self.patch(bench, "run_point", "bench.run_point")
        self.patch(bench, "sweep", "bench.sweep")

    def write_jsonl(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(f'{{"id": {i}, "name": "{self.names[self.name[i]]}", '
                         f'"start": {self.start[i]!r}, "end": {self.end[i]!r}, '
                         f'"parent": {self.parent[i]}, "op": {self.op[i]}, '
                         f'"work": {self.work[i]}}}\n')


def _verify_name(fn: str) -> str:
    return f"metrics.{fn}" if fn == "classical_fidelity" else f"runner.{fn}"


class SpanTable:
    """Durations, self times and per-name sums of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.start = np.frombuffer(tracer.start)
        self.end = np.frombuffer(tracer.end)
        self.work = np.frombuffer(tracer.work, dtype=np.int64)
        self.dur = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.dur[nested],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered

    def ids(self, *names: str) -> np.ndarray:
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, wanted)

    def calls(self, *names: str) -> int:
        return int(np.count_nonzero(self.ids(*names)))

    def total(self, *names: str) -> float:
        return float(self.dur[self.ids(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.ids(*names)].sum())

    def work_total(self, *names: str) -> int:
        return int(self.work[self.ids(*names)].sum())

    def outermost(self, names) -> np.ndarray:
        """Mask of spans in names whose parent is not also in names."""
        mask = self.ids(*names)
        parent_in = np.zeros_like(mask)
        nested = self.parent >= 0
        parent_in[nested] = mask[self.parent[nested]]
        return mask & ~parent_in

    def under(self, mask: np.ndarray, ancestor: str) -> np.ndarray:
        """Subset of mask whose span has an ancestor named ancestor."""
        if ancestor not in self.names:
            return np.zeros_like(mask)
        target = self.names.index(ancestor)
        out = np.zeros_like(mask)
        for i in np.flatnonzero(mask):
            p = self.parent[i]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            out[i] = p >= 0
        return out

    def sessions(self) -> tuple[int, float]:
        """Telegate sessions and their inclusive time, entangle start to disentangle end."""
        ent = self.start[self.ids("telegate.cat_entangle")]
        dis = self.end[self.ids("telegate.cat_disentangle")]
        if ent.size != dis.size:
            raise RuntimeError(f"{ent.size} cat_entangle spans but {dis.size} cat_disentangle")
        return int(ent.size), float(np.sum(np.sort(dis) - np.sort(ent)))


def layer_metrics(table: SpanTable, ops: int, op_seconds: float, shots: int,
                  sweep_rows: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of a traced phase, per op unless a ratio or a maximum.

    ops and op_seconds are the traced ops and their outside-timed seconds;
    shots are the shots the traced points ran; sweep_rows the rows written
    and skipped by bench.sweep.
    """
    per_op = 1.0 / ops
    out: dict[str, float] = {}
    for kind in KERNELS:
        name = f"statevector.{kind}"
        amps = table.work_total(name)
        self_s = table.self_total(name)
        out[f"{name}.calls"] = table.calls(name) * per_op
        out[f"{name}.self_s"] = self_s * per_op
        out[f"{name}.ns_per_amp"] = 1e9 * self_s / amps if amps else 0.0
    out["statevector.sample_counts.self_s"] = table.self_total("statevector.sample_counts") * per_op
    # reset's own span is excluded: its passes are its nested measure and X
    passes = [f"statevector.{k}" for k in GATE_KINDS + ("measure", "sample_counts")]
    amps_touched = table.work_total(*passes) * per_op
    out["statevector.amps_touched"] = amps_touched
    out["statevector.bytes_computed"] = 16.0 * amps_touched

    out["fabric.apply.calls"] = table.calls("fabric.apply") * per_op
    out["fabric.apply.self_s"] = table.self_total("fabric.apply") * per_op
    out["fabric.init.calls"] = table.calls("fabric.init") * per_op
    out["fabric.init.self_s"] = table.self_total("fabric.init") * per_op
    inits = table.ids("fabric.init")
    out["fabric.state_amps.max"] = float(table.work[inits].max()) if inits.any() else 0.0
    out["fabric.epr_pairs"] = table.calls("fabric.allocate_epr") * per_op
    out["fabric.messages"] = table.calls("fabric.send_classical") * per_op
    out["fabric.measurements"] = table.calls("fabric.measure") * per_op

    sessions, session_s = table.sessions()
    remote_cp = table.calls("telegate.remote_cp")
    out["telegate.sessions"] = sessions * per_op
    out["telegate.session_s"] = session_s * per_op
    out["telegate.cat_entangle.self_s"] = table.self_total("telegate.cat_entangle") * per_op
    out["telegate.cat_disentangle.self_s"] = table.self_total("telegate.cat_disentangle") * per_op
    out["telegate.remote_cp.calls"] = remote_cp * per_op
    out["telegate.cp_per_session"] = remote_cp / sessions if sessions else 0.0

    gate_lists = ("circuits.fourier_prep_gates", "circuits.inverse_qft_gates")
    out["circuits.build_schedule.s"] = table.total("circuits.build_schedule") * per_op
    out["circuits.gate_lists.s"] = table.total(*gate_lists) * per_op
    out["circuits.gates_emitted"] = table.work_total(*gate_lists) * per_op

    verify = table.outermost(VERIFY_SPANS)
    verify_s = float(table.dur[verify].sum())
    run_s = table.total("runner.run")
    emulate_s = run_s - float(table.dur[table.under(verify, "runner.run")].sum())
    out["runner.run.s"] = run_s * per_op
    out["runner.emulate_s"] = emulate_s * per_op
    out["runner.verify_s"] = verify_s * per_op
    out["runner.verify_frac"] = verify_s / op_seconds
    out["runner.shots_per_s"] = shots / emulate_s if emulate_s > 0 else 0.0

    out["metrics.classical_fidelity.calls"] = table.calls("metrics.classical_fidelity") * per_op
    out["metrics.classical_fidelity.s"] = table.total("metrics.classical_fidelity") * per_op

    refs = table.ids("runner.monolithic_exact_distribution")
    refs &= table.under(refs, "bench.sweep") & table.outermost(VERIFY_SPANS)
    out["bench.run_point.calls"] = table.calls("bench.run_point") * per_op
    out["bench.sweep.self_s"] = table.self_total("bench.sweep") * per_op
    out["bench.references.s"] = float(table.dur[refs].sum()) * per_op
    out["bench.rows_written"] = sweep_rows[0] * per_op
    out["bench.rows_skipped"] = sweep_rows[1] * per_op

    top = table.parent < 0
    out["trace.coverage"] = float(table.dur[top].sum()) / op_seconds
    return out
