"""Command-line entry point: single runs, config-driven sweeps, verification."""

from __future__ import annotations

import argparse
import os
import sys

from . import bench, verify
from .bench import (CSV_COLUMNS, DEFAULT_TIMEOUT_SECONDS, FIDELITY_TOLERANCE,
                    format_row, load_config, normalize_theta)
from .runner import MODES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqft",
        description="Distributed inverse-QFT emulator benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a single benchmark point")
    run.add_argument("--n", type=int, required=True, help="total logical qubits")
    run.add_argument("--k", type=int, required=True, help="node count")
    run.add_argument("--theta", type=float, default=0.0,
                     help="Fourier phase in [0, 1); 0.333333 and 0.666667 snap to exact thirds")
    run.add_argument("--mode", choices=MODES, default="telegate")
    run.add_argument("--shots", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)

    swp = sub.add_parser("sweep", help="run every point of a sweep config")
    swp.add_argument("config", help="path to a key:value sweep config file")
    swp.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_SECONDS,
                     help="per-run wall-clock limit in seconds (0 disables)")

    sub.add_parser("verify", help="run the built-in verification checks")
    return parser


def _cmd_run(args) -> int:
    theta = normalize_theta(args.theta)
    if not 0.0 <= theta < 1.0:
        print(f"error: theta must lie in [0, 1), got {args.theta}", file=sys.stderr)
        return 2
    if args.n < 1 or args.k < 1 or args.shots < 1 or args.seed < 0:
        print("error: n, k, and shots must be positive and seed non-negative", file=sys.stderr)
        return 2
    if args.k > args.n:
        print(f"error: k exceeds n ({args.k} > {args.n})", file=sys.stderr)
        return 2
    row, refusal = bench.run_in_memory(args.n, args.k, theta, args.mode, args.shots, args.seed,
                                       memory=bench.physical_memory())
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    width = max(len(c) for c in CSV_COLUMNS)
    for column in CSV_COLUMNS:
        print(f"{column:<{width}}  {bench.format_value(getattr(row, column))}")
    print()
    print(",".join(CSV_COLUMNS))
    print(format_row(row))
    return 0 if row.fidelity_exact >= 1.0 - FIDELITY_TOLERANCE else 1


def _cmd_sweep(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = bench.sweep(config, timeout=args.timeout)
    except bench.ResumeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {summary['written']} rows to {summary['output_path']} "
          f"({summary['skipped']} already present, {len(summary['timed_out'])} timed out, "
          f"{len(summary['refused'])} refused)")
    for line in bench.summarize(summary["rows"]):
        print(line)
    if summary["failures"]:
        print(f"{len(summary['failures'])} run(s) failed the fidelity gate", file=sys.stderr)
        return 1
    return 0


def _cmd_verify() -> int:
    results = verify.run_all()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failed += 0 if passed else 1
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            status = _cmd_run(args)
        elif args.command == "sweep":
            status = _cmd_sweep(args)
        else:
            status = _cmd_verify()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`dqft sweep ... | head`): point
        # stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
