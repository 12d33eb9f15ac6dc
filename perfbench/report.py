#!/usr/bin/env python3
"""Side-by-side report: untraced end-to-end metrics next to traced
per-layer metrics, for each workload, on one seed.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

Runs perfbench/run.py twice per workload (--trace 0, then --trace 1),
one process at a time, and prints a Markdown table per workload. Ratios
are printed with their bases, as run.py reports them.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    print(f"machine: {platform.machine()}, {platform.processor() or 'unknown cpu'}; "
          f"python {platform.python_version()}; seed {args.seed}; {args.seconds} s per run\n")
    for workload in args.workload or list(WORKLOADS):
        plain_lines, plain = run(workload, args.seed, args.seconds, 0)
        traced_lines, traced = run(workload, args.seed, args.seconds, 1)
        print(f"## {workload}\n")
        for line in plain_lines[:1] + traced_lines[:1]:
            print(f"    {line}")
        print(f"    untraced: correct={plain['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        print(f"    traced:   correct={traced['correct']} attempted={traced['attempted']} failed={traced['failed']}")
        for line in plain_lines + traced_lines:
            if line.startswith(("output_digest", "  failed:", "  wrong:", "base ")):
                print(f"    {line}")
        print("\n| end-to-end (untraced) | value | unit |\n|---|---|---|")
        for name, m in plain["metrics"].items():
            print(f"| {name} | {m['value']:.6g} | {m['unit']} |")
        print("\n| per-layer (traced) | value | unit |\n|---|---|---|")
        for name, m in sorted(traced["metrics"].items()):
            if m["value"]:
                print(f"| {name} | {m['value']:.6g} | {m['unit']} |")
        zero = sorted(name for name, m in traced["metrics"].items() if not m["value"])
        print(f"\nzero on this workload: {', '.join(zero)}\n")


if __name__ == "__main__":
    main()
