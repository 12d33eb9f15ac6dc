#!/usr/bin/env python3
"""emx benchmark: one workload per process, one caller, no threads.

    python3 perfbench/run.py --workload {tank-mc,proxy-chain,cli-audit} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the library is imported from
src/emx next to this directory, and scratch files go to .bench_out/.

A run is a closed loop with one caller: whole rounds of ops (see
workloads.py) run until at least --seconds have passed and at least
MIN_OPS ops were timed. Set-up (import of emx plus generating round 0's
inputs from the seed) is timed SETUP_REPEATS times over the run and its
median reported. Every op is checked by an oracle; the digest of round
0's outputs is printed so runs and commits can be compared on a seed.

--trace 0 reports the end-to-end metrics:
  setup_s      median set-up time
  ops_per_s    median over rounds of ops / op time
  op_p50_ms    median op latency over all ops of the run
  op_p90_ms    90th percentile op latency (every run has >= 100 ops)
  peak_rss_mb  peak resident set size of the process
--trace 1 runs round 0 untraced, then traces rounds from outside the
library (see tracer.py) and reports the per-layer metrics, per op,
together with trace_overhead_ratio and failed_ratio. Spans go to
.bench_out/spans-<workload>.jsonl.gz.

Exit status 0 with the last line of stdout one JSON object:
{"correct", "attempted", "failed", "metrics"}. "failed" counts ops that
raised, exited 2 or 3, or failed their check; "correct" is false only
when an output contradicted its oracle. Exit status 2, with no result,
when the checkout holds no src/emx.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 25
MIN_OPS = 100


def import_library():
    """Import emx from src/emx and check where it came from."""
    import emx
    import emx.cli  # noqa: F401  (the CLI entry point the ops call)

    if Path(emx.__file__).resolve().parent != SRC / "emx":
        raise ImportError(f"emx imported from {emx.__file__}, not from {SRC}")
    return emx


def set_up(make_round, seed: int, scratch: str):
    """Import emx and generate round 0's inputs; return the time taken,
    the library and round 0.

    Any loaded copy of emx is dropped and collected first, untimed, so
    each set-up pays the import again and old copies do not pile up in
    peak_rss_mb."""
    for name in [n for n in sys.modules if n == "emx" or n.startswith("emx.")]:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    lib = import_library()
    first = make_round(lib, seed, 0, scratch)
    return perf_counter() - start, lib, first


class Results:
    """Per-op timings, statuses and the round-0 output digest."""

    def __init__(self):
        self.times: list[float] = []
        self.round_rates: list[float] = []  # ops per second of op time, per round
        self.setup_times: list[float] = []
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.digest = hashlib.sha256()

    def record(self, op, elapsed: float, status: str, output: bytes, digest: bool):
        self.times.append(elapsed)
        if status == "failed":
            self.failed.append(op.label)
        elif status == "wrong":
            self.wrong.append(op.label)
        if digest:
            self.digest.update(op.label.encode() + b"\n" + output + b"\n")

    @property
    def n_failed(self) -> int:
        return len(self.failed) + len(self.wrong)


def run_round(ops, results: Results, digest: bool, trace: tracer.Tracer | None = None) -> float:
    """Run one round; return the sum of its op times."""
    total = 0.0
    for op in ops:
        args = op.prepare()
        start = perf_counter()
        try:
            if trace is None:
                result = op.run(*args)
            else:
                result = trace.run_op(len(results.times), op.label, op.run, *args)
        except Exception as err:  # an op that raises is a failed op, not a crash
            elapsed = perf_counter() - start
            status, output = "failed", f"raised {type(err).__name__}: {err}".encode()
        else:
            elapsed = perf_counter() - start
            status, output = op.check(result)
        results.record(op, elapsed, status, output, digest)
        total += elapsed
    results.round_rates.append(len(ops) / total)
    return total


def measure(make_round, lib, seed: int, seconds: float, scratch: str, results: Results,
            ops, trace: tracer.Tracer | None = None) -> int:
    """Whole rounds, starting with `ops` as round 0, until `seconds` have
    passed and MIN_OPS ops ran. Returns the number of rounds.

    Untraced, set-up is repeated between rounds until SETUP_REPEATS
    samples are spread evenly over the run: a shared machine's speed can
    drift over seconds, and the median set-up time should see the same
    drift as the ops."""
    start = perf_counter()
    index = 0
    while True:
        run_round(ops, results, digest=index == 0, trace=trace)
        index += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(results.times) >= MIN_OPS:
            return index
        while trace is None and (
            len(results.setup_times) < min(SETUP_REPEATS, elapsed * SETUP_REPEATS / seconds)
        ):
            setup_s, lib, _ = set_up(make_round, seed, scratch)
            results.setup_times.append(setup_s)
        ops = make_round(lib, seed, index, scratch)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: Results) -> dict:
    return {
        "setup_s": (statistics.median(results.setup_times), "s"),
        "ops_per_s": (statistics.median(results.round_rates), "1/s"),
        "op_p50_ms": (statistics.median(results.times) * 1e3, "ms"),
        "op_p90_ms": (percentile(results.times, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(totals: dict, ops: int, overhead: tuple[float, float], results: Results) -> dict:
    layers, extra = totals["layers"], totals["extra"]
    metrics = {}
    for name, (calls, self_s) in layers.items():
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    metrics["chains.decompress_chain.eta_calls"] = (extra["eta_calls"] / ops, "calls/op")
    metrics["chains.decompress_chain.novel_eta_ratio"] = (
        _ratio(extra["novel"], extra["eta_calls"]), "ratio")
    metrics["chains.decompress_chain.out_size_max"] = (extra["out_size_max"], "points")
    metrics["evaluation.kernel_repeat_ratio"] = (
        _ratio(extra["repeats"], extra["evaluate_decompress"]), "ratio")
    metrics["analysis.search_schemes.nodes"] = (extra["nodes"] / ops, "nodes/op")
    metrics["analysis.search_schemes.undecided"] = (extra["undecided"] / ops, "calls/op")
    metrics["trace_overhead_ratio"] = (overhead[0] / overhead[1], "ratio")
    metrics["failed_ratio"] = (results.n_failed / len(results.times), "ratio")
    return metrics


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def report_lines(args, rounds: int, results: Results, metrics: dict, bases: list[str]) -> list[str]:
    lines = [
        f"# emx benchmark workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={rounds} ops={len(results.times)}",
        f"# machine={platform.machine()} cpus={os.cpu_count()} python={platform.python_version()}",
        f"output_digest {results.digest.hexdigest()}  (round 0)",
        f"base failed_ratio = {results.n_failed}/{len(results.times)} (failed / attempted ops)",
    ]
    for label in sorted(set(results.failed)):
        lines.append(f"  failed: {label} x{results.failed.count(label)}")
    for label in sorted(set(results.wrong)):
        lines.append(f"  wrong: {label} x{results.wrong.count(label)}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    return lines + bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "emx" / "__init__.py").is_file():
        print(f"error: no emx package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    make_round = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = os.path.relpath(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        setup_s, lib, first = set_up(make_round, args.seed, scratch)
        results = Results()
        results.setup_times.append(setup_s)
        if not args.trace:
            rounds = measure(make_round, lib, args.seed, args.seconds, scratch, results, first)
            metrics = end_to_end(results)
            bases = []
        else:
            untraced = Results()
            plain_s = run_round(first, untraced, digest=True)
            with tracer.Tracer() as trace:
                rounds = measure(make_round, lib, args.seed, args.seconds, scratch, results,
                                 make_round(lib, args.seed, 0, scratch), trace)
            traced_s = sum(results.times[: len(first)])
            spans_path = out_root / f"spans-{args.workload}.jsonl.gz"
            trace.write(str(spans_path))
            totals = tracer.layer_totals(trace.spans)
            metrics = per_layer(totals, len(results.times), (traced_s, plain_s), results)
            extra = totals["extra"]
            bases = [
                f"base novel_eta_ratio = {extra['novel']}/{extra['eta_calls']} (novel eta outputs / eta calls in decompress_chain)",
                f"base kernel_repeat_ratio = {extra['repeats']}/{extra['evaluate_decompress']} (repeated (kernel, rounds) / decompress_chain calls within evaluate)",
                f"base trace_overhead_ratio = {traced_s:.6f}s/{plain_s:.6f}s (round 0 traced / untraced op time)",
                f"base per-op metrics: divided by {len(results.times)} traced ops",
                f"spans written to {os.path.relpath(spans_path)} ({len(trace.spans)} spans)",
            ]
            if untraced.digest.hexdigest() != results.digest.hexdigest():
                results.wrong.append("round 0 traced output differs from untraced")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in report_lines(args, rounds, results, metrics, bases):
        print(line)
    print(json.dumps({
        "correct": not results.wrong,
        "attempted": len(results.times),
        "failed": results.n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
