"""Sweep harness: config parsing, single runs, resumable CSV output.

Config files are flat key/value text, one ``key: value`` or
``key: [v1, v2, ...]`` per line, ``#`` starts a comment.  Keys are exactly
the SweepConfig fields.  Theta values written as the decimals 0.333333 or
0.666667 are normalized to the exact rationals 1/3 and 2/3 so that the
verification oracles see the same phase the circuits encode.

CSV rows are appended and flushed one run at a time, so an interrupted
sweep resumes by skipping the (n, k, theta, mode, seed, repeat) keys of the
complete rows on disk, after cutting off a torn last row; the shots count
is kept in a <csv>.shots sidecar and must match on resume.  With a fixed
config and seed every column is reproduced byte for byte except
wall_time_seconds, which times the emulation only.
"""

from __future__ import annotations

import math
import os
import signal
import sys
from dataclasses import dataclass, fields

from .fabric import make_partition
# classical_fidelity and monolithic_exact_distribution are unused here; they stay
# in this namespace because dqftbench/spans.py wraps bench.<name> for both
from .metrics import classical_fidelity, state_bytes  # noqa: F401
from .runner import MODES, monolithic_exact_distribution, run_distributed  # noqa: F401

FIDELITY_TOLERANCE = 1e-9
DEFAULT_TIMEOUT_SECONDS = 600.0


@dataclass
class SweepConfig:
    num_qubits: list[int]
    nodes: list[int]
    theta: list[float]
    shots: int
    modes: list[str]
    seed: int
    repeats: int
    output_path: str


CONFIG_KEYS = tuple(f.name for f in fields(SweepConfig))


@dataclass
class ResultRow:
    n: int
    k: int
    theta: float
    mode: str
    seed: int
    repeat: int
    wall_time_seconds: float
    peak_state_bytes: int
    epr_count: int
    classical_msg_count: int
    block_slots: int
    fidelity_exact: float
    fidelity_sampled: float
    modal_outcome: int


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))
_CELL_TYPES = tuple({"int": int, "float": float, "str": str}[f.type] for f in fields(ResultRow))


def normalize_theta(theta: float) -> float:
    """Snap the decimal spellings of 1/3 and 2/3 to the exact rationals, and -0.0 to 0.0."""
    if abs(theta - 1 / 3) < 1e-5:
        return 1 / 3
    if abs(theta - 2 / 3) < 1e-5:
        return 2 / 3
    return 0.0 if theta == 0 else theta  # -0.0 too: one CSV cell and resume key for zero


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def format_row(row: ResultRow) -> str:
    return ",".join(format_value(getattr(row, c)) for c in CSV_COLUMNS)


def parse_config(text: str) -> SweepConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"config line {lineno}: expected 'key: value', got {line!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [k for k in CONFIG_KEYS if k not in raw]
    if missing:
        raise ValueError(f"config missing keys: {missing}")

    def items(value: str) -> list[str]:
        if not (value.startswith("[") and value.endswith("]")):
            raise ValueError(f"expected a [list], got {value!r}")
        inner = value[1:-1].strip()
        return [v.strip() for v in inner.split(",")] if inner else []

    cfg = SweepConfig(
        num_qubits=[int(v) for v in items(raw["num_qubits"])],
        nodes=[int(v) for v in items(raw["nodes"])],
        theta=[normalize_theta(float(v)) for v in items(raw["theta"])],
        shots=int(raw["shots"]),
        modes=[v for v in items(raw["modes"])],
        seed=int(raw["seed"]),
        repeats=int(raw["repeats"]),
        output_path=raw["output_path"],
    )
    if not cfg.num_qubits or not cfg.nodes or not cfg.theta or not cfg.modes:
        raise ValueError("num_qubits, nodes, theta, and modes must be nonempty lists")
    for key, value, low in (("num_qubits", min(cfg.num_qubits), 1), ("nodes", min(cfg.nodes), 1),
                            ("shots", cfg.shots, 1), ("repeats", cfg.repeats, 1),
                            ("seed", cfg.seed, 0)):
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
    for mode in cfg.modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    for theta in cfg.theta:
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must lie in [0, 1), got {theta}")
    for key in ("num_qubits", "nodes", "theta", "modes"):  # as the resume key spells them
        cells = [format_value(v) for v in getattr(cfg, key)]
        if len(set(cells)) != len(cells):
            raise ValueError(f"{key} repeats a value: [{', '.join(cells)}]")
    return cfg


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def expand_points(config: SweepConfig, log=None):
    """All (n, k, theta, mode, repeat) tuples; k > n pairs are skipped with a notice."""
    points = []
    for n in config.num_qubits:
        for k in config.nodes:
            if k > n:
                if log is not None:
                    log(f"notice: skipping n={n}, k={k} (k exceeds n)")
                continue
            for theta in config.theta:
                for mode in config.modes:
                    for repeat in range(config.repeats):
                        points.append((n, k, theta, mode, repeat))
    return points


def run_point(n: int, k: int, theta: float, mode: str, shots: int, seed: int,
              repeat: int = 0) -> ResultRow:
    """Execute one benchmark point and fold its metrics and modal outcome into a row.

    The modal outcome is the most frequent value, the smallest one among ties.
    """
    theta = normalize_theta(theta)
    res = run_distributed(make_partition(n, k), theta, mode=mode, shots=shots, seed=seed)
    top = max(res.counts.values())
    modal = min(v for v, c in res.counts.items() if c == top)
    m = res.metrics
    return ResultRow(
        n=n, k=k, theta=theta, mode=mode, seed=seed, repeat=repeat,
        wall_time_seconds=m.wall_time_seconds,
        peak_state_bytes=m.peak_state_bytes,
        epr_count=m.epr_count,
        classical_msg_count=m.classical_msg_count,
        block_slots=m.block_slots,
        fidelity_exact=m.fidelity_vs_reference,
        fidelity_sampled=m.fidelity_sampled,
        modal_outcome=modal,
    )


def physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where sysconf does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def run_in_memory(n: int, k: int, theta: float, mode: str, shots: int, seed: int,
                  repeat: int = 0, memory: int | None = None) -> tuple:
    """(run_point's row, None), or (None, why) for a state over memory bytes or a MemoryError."""
    need = state_bytes(n)
    if memory is not None and need > memory:
        return None, (f"n={n} needs {need} bytes for its state, more than "
                      f"this machine's {memory} bytes of memory")
    try:
        return run_point(n, k, theta, mode, shots, seed, repeat), None
    except MemoryError:
        return None, f"n={n} needs {need} bytes for its state: out of memory"


class ResumeError(ValueError):
    """An existing CSV that this sweep cannot resume; neither file is touched."""


def _prepare_resume(path: str, shots: int) -> set[tuple]:
    """Ready the CSV for appending; return the point keys of its complete rows.

    A torn last line is cut off, and a new or empty file gets the header.
    shots is not a CSV column, so it lives in the sidecar <path>.shots,
    written with the header; resuming with another shots count raises
    ResumeError, as do a foreign header and a sidecar that holds no count.
    """
    header = ",".join(CSV_COLUMNS)
    sidecar = path + ".shots"
    with open(path, "a+b") as fh:
        fh.seek(0)
        *lines, tail = fh.read().decode("utf-8").split("\n")
        if (lines or [tail])[0] not in ("", header):
            raise ResumeError(f"existing CSV {path} has an unexpected header")
        if lines and os.path.exists(sidecar):
            with open(sidecar, "r", encoding="utf-8") as side:
                text = side.read()
            try:
                recorded = int(text)
            except ValueError:
                raise ResumeError(f"shots sidecar {sidecar} holds {text!r}, "
                                  "not a shots count") from None
            if recorded != shots:
                raise ResumeError(f"existing CSV {path} was written with shots={recorded}, "
                                  f"not {shots}")
        else:  # a new CSV, or one written before the sidecar existed
            with open(sidecar, "w", encoding="utf-8") as side:
                side.write(f"{shots}\n")
        fh.truncate(fh.tell() - len(tail.encode("utf-8")))
        if not lines:
            fh.write(f"{header}\n".encode("utf-8"))
    keys = set()
    for line in lines[1:]:
        try:
            row = ResultRow(*(parse(c) for parse, c in
                              zip(_CELL_TYPES, line.split(","), strict=True)))
        except ValueError:
            continue  # incomplete: a cell is missing, extra or does not parse
        keys.add(_point_key(row.n, row.k, row.theta, row.mode, row.seed, row.repeat))
    return keys


def _point_key(n: int, k: int, theta: float, mode: str, seed: int, repeat: int) -> tuple:
    return (n, k, format_value(theta), mode, seed, repeat)


class _RunTimeout(Exception):
    pass


def _with_timeout(fn, seconds: float):
    """Run fn() under a SIGALRM deadline (POSIX only; no-op where unavailable)."""
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        return fn()

    def handler(signum, frame):
        raise _RunTimeout()

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def resolve_output_path(path: str) -> str:
    """Apply the DQFT_OUTPUT_DIR override to relative output paths."""
    base = os.environ.get("DQFT_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def sweep(config: SweepConfig, timeout: float = DEFAULT_TIMEOUT_SECONDS,
          log=None) -> dict:
    """Run every sweep point, appending rows to the config's CSV.

    Returns a summary dict with written/skipped/timed-out/refused counts, the
    rows written, and the list of fidelity failures.  Points already present in
    the CSV are skipped, so partial sweeps resume for free, retrying a point that
    timed out or that run_in_memory refused against the memory read at the start.
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    out_path = resolve_output_path(config.output_path)
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    existing = _prepare_resume(out_path, config.shots)
    points = expand_points(config, log=log)
    memory = physical_memory()

    rows: list[ResultRow] = []
    failures: list[tuple] = []
    timed_out: list[tuple] = []
    refused: list[tuple] = []
    skipped = 0
    with open(out_path, "a", encoding="utf-8", newline="") as fh:
        for point in points:
            n, k, theta, mode, repeat = point
            seed = config.seed + repeat
            if _point_key(n, k, theta, mode, seed, repeat) in existing:
                skipped += 1
                continue
            label = f"run n={n} k={k} theta={format_value(theta)} mode={mode} repeat={repeat}"
            try:
                row, refusal = _with_timeout(
                    lambda: run_in_memory(n, k, theta, mode, config.shots, seed, repeat, memory),
                    timeout)
            except _RunTimeout:
                log(f"notice: {label} exceeded {timeout:.0f}s; skipped")
                timed_out.append(point)
                continue
            if refusal is not None:
                log(f"notice: {label} refused: {refusal}")
                refused.append(point)
                continue
            fh.write(format_row(row) + "\n")
            fh.flush()
            rows.append(row)
            if row.fidelity_exact < 1.0 - FIDELITY_TOLERANCE:
                failures.append((n, k, theta, mode, repeat, row.fidelity_exact))
                log(f"FAILURE: fidelity_exact={row.fidelity_exact!r} at "
                    f"n={n} k={k} theta={format_value(theta)} mode={mode}")
    return {
        "output_path": out_path,
        "rows": rows,
        "written": len(rows),
        "skipped": skipped,
        "timed_out": timed_out,
        "refused": refused,
        "failures": failures,
    }


def summarize(rows) -> list[str]:
    """Per-(n, k) geometric-mean wall time and minimum exact fidelity."""
    groups: dict[tuple[int, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.n, row.k), []).append(row)
    lines = [f"{'n':>4} {'k':>4} {'runs':>5} {'geomean_s':>12} {'min_fidelity':>13}"]
    for (n, k), group in sorted(groups.items()):
        logs = sum(math.log(max(r.wall_time_seconds, 1e-12)) for r in group)
        geomean = math.exp(logs / len(group))
        min_fid = min(r.fidelity_exact for r in group)
        lines.append(f"{n:>4} {k:>4} {len(group):>5} {geomean:>12.6f} {min_fid:>13.10f}")
    return lines
