"""The dqft benchmark: one workload per call, one JSON result as the last line.

    python3 dqftbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dqft checkout.  Each workload runs in its own fresh
single-threaded process (worker.py), so peak RSS and set-up time belong to
that workload alone.  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json; set-up time is the median over several fresh
processes.  With ``--trace 1`` the run's second half is traced and the
result holds the per-layer metrics.  Records, with the machine they were
measured on, go to ``.dqftbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from worker import WORKLOADS, mean_reference, op_ref_p50  # noqa: E402

SETUP_PROBES = 6  # processes that only set up; with the run's own, 7 samples
DEADLINE_S = 170.0  # a call must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_worker(argv: list[str], deadline: float) -> dict:
    """Start worker.py in a fresh process and return its JSON line."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DQFT_OUTPUT_DIR")}
    env.update(SINGLE_THREAD)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process ran past the deadline and was killed") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(res: dict) -> dict:
    """What the numbers were measured on."""
    return {
        "revision": git_revision(),
        "src_sha256": src_digest(),
        "cores": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "llc": last_level_cache(),
        "arch": platform.machine(),
        "python": res["python"],
        "numpy": res["numpy"],
    }


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """The checkout need not be a git repository: hash the program instead."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqft").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


HOST_UNITS = {"op_s.p50": "s", "points_per_s": "1/s", "reference_s.mean": "s"}


def host_times(res: dict) -> dict[str, tuple[float, int]]:
    """Op time and throughput in host seconds, printed beside the metrics (HOST_UNITS)."""
    ops, refs = res["op_seconds"], res["reference_seconds"]
    passed = res["timed_points_passed"]
    return {"op_s.p50": (statistics.median(ops), len(ops)),
            "points_per_s": (passed / sum(ops), passed),
            "reference_s.mean": (mean_reference(refs), len(refs))}


def end_to_end(res: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count).

    Op times are in units of the run's mean reference-loop time, which
    cancels most of the drift in the shared machine's speed between runs.
    """
    ops, refs = res["op_seconds"], res["reference_seconds"]
    rows = max(res["rows"], 1)
    passed = res["timed_points_passed"]
    return {
        "op_ref.p50": (op_ref_p50(ops, refs), len(ops)),
        "points_per_ref": (passed * mean_reference(refs) / sum(ops), passed),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024, 1),
        "ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], res["attempted"]),
        "epr_plus_msgs_per_point": ((res["epr"] + res["msgs"]) / rows, res["rows"]),
        "msgs_per_point": (res["msgs"] / rows, res["rows"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dqft" / "__init__.py").is_file():
        print(f"error: no dqft sources under {ROOT / 'src'}; run from a dqft checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    out_dir = ROOT / ".dqftbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run_args = base + ["--seconds", str(args.seconds)]
        if args.trace:
            (out_dir / "traces").mkdir(exist_ok=True)
            # one trace file per workload, overwritten, to bound the disk it takes
            run_args += ["--trace-file", str(out_dir / "traces" / f"{args.workload}.jsonl.gz")]
        res = run_worker(run_args, deadline)
        setup = [res["setup_s"]]
        if not args.trace:
            setup += [run_worker(base + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured = {name: (value, res["traced_ops"]) for name, value in res["per_layer"].items()}
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        measured = end_to_end(res, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(measured) != sorted(wanted):
        print(f"error: measured {sorted(set(measured) ^ set(wanted))} out of step with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(res),
              "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                          for name, (v, n) in measured.items()},
              "digest": res["digest"], "digest_rows": res["digest_rows"],
              "host_times": {name: {"value": v, "samples": n}
                             for name, (v, n) in host_times(res).items()},
              "op_seconds": res["op_seconds"], "reference_seconds": res["reference_seconds"],
              "setup_samples": setup,
              "errors": res["errors"]}
    (out_dir / "results").mkdir(exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"dqft benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}  closed loop, 1 client, 1 thread")
    print(f"machine  revision={m['revision']} src={m['src_sha256']} cores={m['cores']} "
          f"ram={m['ram_gib']}GiB llc={m['llc']} python={m['python']} numpy={m['numpy']}")
    print("note  states here are at most 2^19 amplitudes (8 MiB) and fit in the "
          f"{m['llc']} last-level cache: ns_per_amp measures cache-resident kernels, "
          "and bytes_computed is computed from array sizes, not a measured DRAM bandwidth")
    for name, (value, n) in measured.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]:<10} n={n}")
    for name, (value, n) in host_times(res).items():
        print(f"  {name:<36} {value:>14.6g} {HOST_UNITS[name]:<10} n={n}  host time, not gated")
    print(f"simulated EPR pairs per point {res['epr'] / max(res['rows'], 1):g} "
          f"over {res['rows']} points")
    print(f"digest {res['digest']}  sha256 of {res['digest_rows']} CSV rows from the first "
          "points, wall_time_seconds left out")
    for line in res["errors"]:
        print(f"FAILED {line}")
    correct = res["failed"] == 0 and res["error_count"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
