"""One dqft benchmark workload, run in its own fresh single-threaded process.

run.py starts this file once per set-up sample and once for the measured
run.  The process imports dqft from the checkout's ``src``, generates its
inputs from the workload seed, and reports its set-up time against the
start time its parent passes in.  The measured run then works as a closed
loop with one client: each op starts only after the previous one ended.
Every op is timed from outside with ``time.perf_counter()`` around the
public call, ``bench.run_point`` for a single-point workload and
``bench.sweep`` for ``sweep-small``, and every point it produces is checked.
The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SHOTS = 100
OP_TIMEOUT_S = 60.0
WARMUP_OPS = 1
INPUTS = 1000  # more points or sweep seeds than any run can use
DIGEST_POINTS = 3  # single-point workloads digest the rows of points 0..2
# Single-point workloads: (n, k, mode).  Both telegate ones hold 2^19 amplitudes.
POINT_WORKLOADS = {
    "telegate-k8": (11, 8, "telegate"),
    "telegate-k2": (17, 2, "telegate"),
    "semiclassical-k4": (15, 4, "semiclassical"),
}
SWEEP_GRID = dict(num_qubits=[4, 5, 6, 7, 8], nodes=[1, 2, 4, 8],
                  theta=[0.0, 1 / 3, 2 / 3], modes=["telegate", "semiclassical"])
WORKLOADS = tuple(POINT_WORKLOADS) + ("sweep-small",)
REF_QUBITS = 19  # the reference loop's state: 2^19 amplitudes, as the telegate workloads
REF_PASSES = 4
REF_CALLS = 120_000


def monotonic() -> float:
    """CLOCK_MONOTONIC is system-wide, so parent and child stamps compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class OpTimeout(Exception):
    pass


def with_timeout(fn, seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    """One op: its outside-timed seconds and what its points showed."""

    seconds: float
    attempted: int
    passed: int
    rows: list = field(default_factory=list)
    results: list = field(default_factory=list)  # (n, k, theta, mode), RunResult
    errors: list = field(default_factory=list)
    rows_written: int = 0
    rows_skipped: int = 0
    reference_s: tuple = (0.0, 0.0)  # the reference loop's two halves around this op


class ReferenceLoop:
    """A fixed load, independent of dqft, timed just before and after every op.

    The machine the benchmark was defined on is a shared virtual machine
    whose speed drifts by up to 2x over tens of seconds to minutes, so the
    medians of two 20 s runs can differ by a third.  Op seconds divided by
    this loop's mean seconds over the run cancel much of that drift.  One
    part of the loop is passes over an 8 MiB state, like the kernels make;
    the other is small Python calls, like the per-gate overhead.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.state = np.full(1 << REF_QUBITS, 2.0 ** (-REF_QUBITS / 2), dtype=np.complex128)

    def seconds(self) -> tuple[float, float]:
        """Seconds of the array half and of the Python-call half."""
        t0 = perf_counter()
        v = self.state.reshape(2, -1)
        for _ in range(REF_PASSES):  # a Hadamard on the first qubit, then its norm
            top = v[0].copy()
            v[0] += v[1]
            v[1] -= top
            v[1] *= -1.0
            self.state *= 0.5 ** 0.5
            self.np.vdot(self.state, self.state)
        t1 = perf_counter()
        counts: dict = {}
        for i in range(REF_CALLS):
            _bump(counts, (i & 63, i & 7))
        return t1 - t0, perf_counter() - t1


def _bump(counts: dict, key: tuple) -> None:
    counts[key] = counts.get(key, 0) + 1


class Workload:
    """Inputs of one workload and the op that runs them."""

    def __init__(self, name: str, seed: int, dqft, workdir: Path):
        import numpy as np

        self.name = name
        self.dqft = dqft
        self.workdir = workdir
        self.captured: list = []
        rng = np.random.default_rng(seed)
        if name == "sweep-small":
            grid = [(n, k) for n in SWEEP_GRID["num_qubits"]
                    for k in SWEEP_GRID["nodes"] if k <= n]
            self.sweep_seeds = [int(s) for s in rng.integers(0, 2**31, size=INPUTS)]
            config = self.sweep_config(0)
            self.points_per_op = len(dqft.bench.expand_points(config))
        else:
            self.n, self.k, self.mode = POINT_WORKLOADS[name]
            grid = [(self.n, self.k)]
            self.points = [point_input(rng, self.n, i) for i in range(INPUTS)]
            self.points_per_op = 1
        self.budget = {}
        for n, k in grid:
            plan = dqft.make_partition(n, k)
            dqft.build_schedule(plan)
            self.budget[(n, k)] = dqft.epr_budget(plan)
        self._capture_run_results()

    def _capture_run_results(self) -> None:
        # run_point keeps the counts to itself; keep each RunResult it gets.
        bench, captured = self.dqft.bench, self.captured
        run_distributed = bench.run_distributed

        def capturing(plan, theta, mode="telegate", **kwargs):
            result = run_distributed(plan, theta, mode=mode, **kwargs)
            captured.append(((plan.n, plan.k, theta, mode), result))
            return result

        bench.run_distributed = capturing

    def sweep_config(self, i: int):
        return self.dqft.bench.SweepConfig(
            shots=SHOTS, seed=self.sweep_seeds[i], repeats=1,
            output_path=str(self.workdir / f"sweep-{i}.csv"), **SWEEP_GRID)

    def op(self, i: int) -> OpRecord:
        self.captured.clear()
        if self.name == "sweep-small":
            return self._sweep_op(i)
        return self._point_op(i)

    def _point_op(self, i: int) -> OpRecord:
        bench = self.dqft.bench
        theta, seed, value = self.points[i]
        t0 = perf_counter()
        try:
            row = with_timeout(lambda: bench.run_point(self.n, self.k, theta, self.mode,
                                                       SHOTS, seed), OP_TIMEOUT_S)
        except Exception:  # a failed op is a failed point, not a failed benchmark
            return OpRecord(perf_counter() - t0, 1, 0, errors=[failure(i)])
        rec = OpRecord(perf_counter() - t0, 1, 0, rows=[row], results=list(self.captured))
        errors = self.check_row(row, rec.results, value)
        rec.passed = 0 if errors else 1
        rec.errors = [f"op {i}: {e}" for e in errors]
        return rec

    def _sweep_op(self, i: int) -> OpRecord:
        bench = self.dqft.bench
        config = self.sweep_config(i)
        path = Path(config.output_path)
        notices: list[str] = []
        t0 = perf_counter()
        try:
            summary = bench.sweep(config, timeout=OP_TIMEOUT_S, log=notices.append)
        except Exception:
            return OpRecord(perf_counter() - t0, self.points_per_op, 0, errors=[failure(i)])
        rec = OpRecord(perf_counter() - t0, self.points_per_op, 0, rows=summary["rows"],
                       rows_written=summary["written"], rows_skipped=summary["skipped"])
        by_key = dict(self.captured)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        path.unlink()
        for row in rec.rows:
            key = (row.n, row.k, row.theta, row.mode)
            results = [(key, by_key[key])] if key in by_key else []
            errors = self.check_row(row, results, 0 if row.theta == 0 else None)
            rec.passed += 0 if errors else 1
            rec.errors += [f"op {i} n={row.n} k={row.k} {row.mode}: {e}" for e in errors]
            rec.results += results
        # a short sweep or a wrong CSV fails every point of the op
        if summary["skipped"] or summary["written"] != self.points_per_op:
            rec.passed = 0
            rec.errors.append(f"op {i}: wrote {summary['written']} rows, "
                              f"skipped {summary['skipped']}, want {self.points_per_op} and 0")
        if lines != [",".join(bench.CSV_COLUMNS)] + [bench.format_row(r) for r in rec.rows]:
            rec.passed = 0
            rec.errors.append(f"op {i}: CSV file does not hold the rows returned")
        return rec

    def check_row(self, row, results, value) -> list[str]:
        """Every check a point must pass; returns the ones it failed."""
        bench = self.dqft.bench
        n, k = row.n, row.k
        budget = self.budget[(n, k)]
        errors = []
        if not row.fidelity_exact >= 1.0 - bench.FIDELITY_TOLERANCE:
            errors.append(f"fidelity_exact {row.fidelity_exact!r}")
        if row.mode == "telegate":
            want = (budget, 2 * budget, 2 * k - 1, 16 * 2 ** (n + k))
        else:
            want = (0, budget, 0, 16 * 2 ** n)
        got = (row.epr_count, row.classical_msg_count, row.block_slots, row.peak_state_bytes)
        for name, g, w in zip(("epr", "messages", "slots", "peak_state_bytes"), got, want):
            if g != w:
                errors.append(f"{name} {g}, want {w}")
        if len(results) != 1:
            errors.append(f"{len(results)} run results for one row")
            return errors
        counts = results[0][1].counts
        if sum(counts.values()) != SHOTS:
            errors.append(f"counts sum to {sum(counts.values())}, want {SHOTS}")
        if value is not None and counts != {value: SHOTS}:
            errors.append(f"dyadic theta gave {counts}, want {value} on every shot")
        return errors


def point_input(rng, n: int, i: int) -> tuple[float, int, int | None]:
    """(theta, run seed, exact value or None) of single point i.

    One point in three takes a dyadic theta = j/2^n, which must return j on
    every shot and prunes the semiclassical branch tree; the rest take a
    non-dyadic theta.  A fixed pattern, not a coin, so the op-time median
    stays inside the non-dyadic mode.  Thetas within 1e-5 of 1/3 or 2/3
    are drawn again, because the program snaps those to exact thirds.
    """
    while True:
        if i % 3 == 2:
            value = int(rng.integers(0, 1 << n))
            theta = value / (1 << n)
        else:
            value, theta = None, float(rng.random())
        if min(abs(theta - 1 / 3), abs(theta - 2 / 3)) > 1e-5:
            return theta, int(rng.integers(0, 2**31)), value


def failure(i: int) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"op {i}: {sys.exc_info()[1]!r}"


def run_phase(workload: Workload, first: int, seconds: float, records: list,
              reference: ReferenceLoop, tracer=None) -> list[OpRecord]:
    """Ops one after another until seconds have passed; at least one op."""
    phase = []
    before = reference.seconds()
    start = perf_counter()
    i = first
    while not phase or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.current_op = i
        rec = workload.op(i)
        after = reference.seconds()
        rec.reference_s = tuple((b + a) / 2 for b, a in zip(before, after))
        before = after
        phase.append(rec)
        records.append(rec)
        i += 1
    return phase


def mean_reference(reference_seconds) -> float:
    """Mean seconds of the whole reference loop over a phase."""
    return statistics.mean(sum(halves) for halves in reference_seconds)


def op_ref_p50(op_seconds, reference_seconds) -> float:
    """Median op seconds in units of the phase's mean reference-loop seconds."""
    return statistics.median(op_seconds) / mean_reference(reference_seconds)


def counted_vs_simulated(table, phase: list[OpRecord]) -> list[str]:
    """Fabric calls counted by the trace must equal the simulated counts."""
    want = {"fabric.allocate_epr": 0, "fabric.send_classical": 0, "fabric.measure": 0}
    for rec in phase:
        for (_, _, _, mode), result in rec.results:
            m = result.metrics
            executions = m.shots if mode == "semiclassical" else 1
            want["fabric.allocate_epr"] += m.epr_count * executions
            want["fabric.send_classical"] += m.classical_msg_count * executions
            want["fabric.measure"] += m.midcircuit_measurements * executions
    return [f"trace counted {table.calls(name)} {name} calls, simulated {w}"
            for name, w in want.items() if table.calls(name) != w]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC seconds just before this process was started")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file", type=Path,
                        help="trace the second half of the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import dqft
    import dqft.bench
    if not Path(dqft.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported dqft from {dqft.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed, dqft, args.workdir)
    setup_s = monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # warm-up ops settle the allocator and caches; they are checked, not timed
    records = [workload.op(i) for i in range(WARMUP_OPS)]
    # Peak RSS creeps up by about 1 MiB an op, so it is read after a fixed
    # number of ops, not after as many as the run's seconds allowed.
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = ReferenceLoop()
    out = {"setup_s": setup_s, "numpy": numpy.__version__,
           "python": sys.version.split()[0]}
    if args.trace_file is None:
        timed = run_phase(workload, len(records), args.seconds, records, reference)
    else:
        from spans import SpanTable, Tracer, layer_metrics

        timed = run_phase(workload, len(records), args.seconds / 2, records, reference)
        tracer = Tracer()
        tracer.install(dqft)
        try:
            traced = run_phase(workload, len(records), args.seconds / 2, records,
                               reference, tracer)
        finally:
            tracer.unpatch_all()
        tracer.write_jsonl(args.trace_file)
        table = SpanTable(tracer)
        traced_s = [r.seconds for r in traced]
        layers = layer_metrics(
            table, len(traced), sum(traced_s),
            shots=SHOTS * sum(len(r.rows) for r in traced),
            sweep_rows=(sum(r.rows_written for r in traced),
                        sum(r.rows_skipped for r in traced)))
        layers["trace.overhead"] = (
            op_ref_p50([r.seconds for r in traced], [r.reference_s for r in traced])
            / op_ref_p50([r.seconds for r in timed], [r.reference_s for r in timed]))
        out["per_layer"] = layers
        out["traced_ops"] = len(traced)
        mismatch = counted_vs_simulated(table, traced)
        if mismatch:
            traced[0].errors += mismatch
            for rec in traced:
                rec.passed = 0

    rows = [row for rec in records for row in rec.rows]
    digest_rows = records[0].rows if args.workload == "sweep-small" else rows[:DIGEST_POINTS]
    # the CSV text of each row with wall_time_seconds left out
    fmt = dqft.bench.format_value
    columns = [c for c in dqft.bench.CSV_COLUMNS if c != "wall_time_seconds"]
    digest_text = "\n".join(",".join(fmt(getattr(r, c)) for c in columns) for r in digest_rows)
    errors = [e for rec in records for e in rec.errors]
    out.update(
        op_seconds=[r.seconds for r in timed],
        reference_seconds=[r.reference_s for r in timed],
        timed_points_passed=sum(r.passed for r in timed),
        attempted=sum(r.attempted for r in records),
        failed=sum(r.attempted - r.passed for r in records),
        errors=errors[:20],
        error_count=len(errors),
        rows=len(rows),
        epr=sum(r.epr_count for r in rows),
        msgs=sum(r.classical_msg_count for r in rows),
        peak_rss_kib=peak_rss_kib,
        digest=hashlib.sha256(digest_text.encode()).hexdigest()[:16],
        digest_rows=len(digest_rows),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
