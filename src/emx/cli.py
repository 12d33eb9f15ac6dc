"""Batch harness.

Subcommands: verify, evaluate, search, descend, compress. Exit codes:
0 success, 1 property violation or failure verdict, 2 usage or config
error, 3 resource limit. Outputs are plain CSV/text with fixed names in
the output directory; identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from itertools import combinations
from math import comb

from .analysis import (
    DescentError,
    DeskScaleError,
    SearchProblem,
    counting_refutes,
    descend,
    search_schemes,
    witness_to_text,
)
from .chains import ResourceLimitError, compress_chain, trace_to_text
from .config import ConfigError, ExperimentConfig, format_rational, load_config
from .evaluation import evaluate
from .schemes import SchemeError, seeded_subsets, verify_soundness

EXHAUSTIVE_SUBSET_LIMIT = 200_000
# Random verify on a countable domain reconstructs prefixes 0..max of the
# pool, and the scheme caches up to 1 024 of them: at this pool and the
# largest sample count `emx verify` peaks at about 96 MB RSS (Python 3.11).
COUNTABLE_POOL_LIMIT = 1_000
DESCEND_SUBSET_LIMIT = 20_000
SEARCH_SUBSET_LIMIT = 2_000


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _csv_writer(handle):
    return csv.writer(handle, lineterminator="\n")


def _verify_subsets(cfg: ExperimentConfig, size: int | None, arity: int) -> list[frozenset[int]]:
    mode = cfg.field("verify", "mode", "exhaustive")
    if mode not in ("exhaustive", "random"):
        raise ConfigError(f"{cfg.path}: unknown verify mode {mode!r}")
    name = "count" if mode == "exhaustive" else "pool"
    points = cfg.field("verify", name, size)
    if points is None:
        raise ConfigError(f"{cfg.path}: verify.{name} is required for countable domains")
    if points < arity + 1:  # fewer points than one subset: nothing would be checked
        raise ConfigError(f"{cfg.path}: verify.{name} must be >= {arity + 1}, got {points}")
    if mode == "random":
        samples, seed = cfg.field("verify", "samples", 100), cfg.field("verify", "seed", 0)
        if samples > EXHAUSTIVE_SUBSET_LIMIT:
            raise ConfigError(
                f"{cfg.path}: random verify of {samples} samples is above the "
                f"{EXHAUSTIVE_SUBSET_LIMIT} guard"
            )
        if size is None and points > COUNTABLE_POOL_LIMIT:
            raise ConfigError(
                f"{cfg.path}: random verify over a pool of {points} points of a countable "
                f"domain is above the {COUNTABLE_POOL_LIMIT} guard"
            )
        return seeded_subsets(range(points), arity + 1, samples, seed)
    if comb(points, arity + 1) > EXHAUSTIVE_SUBSET_LIMIT:
        raise ConfigError(
            f"{cfg.path}: exhaustive verify over {points} points needs "
            f"{comb(points, arity + 1)} subsets, above the {EXHAUSTIVE_SUBSET_LIMIT} guard"
        )
    return [frozenset(c) for c in combinations(range(points), arity + 1)]


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.build_scheme()
    subsets = _verify_subsets(cfg, cfg.build_domain().size, scheme.m)
    report = verify_soundness(scheme, subsets)

    os.makedirs(args.out, exist_ok=True)
    violations = set(report.violations)
    with open(os.path.join(args.out, "soundness.csv"), "w", encoding="utf-8", newline="") as handle:
        writer = _csv_writer(handle)
        writer.writerow(["subset", "status"])
        for subset in subsets:
            status = "violation" if subset in violations else "ok"
            writer.writerow([" ".join(map(str, sorted(subset))), status])
    print(f"checked {report.checked} subsets, {len(report.violations)} violations")
    return 0 if not report.violations else 1


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    learner = cfg.build_learner(cfg.build_scheme())
    dist = cfg.build_distribution()

    m_values = sorted(cfg.field("evaluate", "m", []))
    epsilons = sorted(cfg.field("evaluate", "epsilon", []))
    for name, values in (("m", m_values), ("epsilon", epsilons)):
        if not values:
            raise ConfigError(f"{cfg.path}: evaluate.{name} is required")
        repeated = [a for a, b in zip(values, values[1:]) if a == b]
        if repeated:  # the same cell would run twice
            raise ConfigError(
                f"{cfg.path}: evaluate.{name} must hold distinct values, got {repeated[0]} twice"
            )
    bad = [format_rational(eps) for eps in epsilons if not 0 < eps <= 1]
    if bad:
        raise ConfigError(f"{cfg.path}: evaluate.epsilon must be in (0, 1], got {bad[0]}")
    trials = cfg.field("evaluate", "trials", 1000)
    seed = cfg.field("evaluate", "seed", 0)
    confidence = cfg.field("evaluate", "confidence", 0.99)
    per_trial = cfg.field("evaluate", "per_trial", False)

    reports = [
        evaluate(learner, dist, m, eps, trials, seed, confidence=confidence, keep_records=per_trial)
        for m in m_values
        for eps in epsilons
    ]

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "evaluation.csv"), "w", encoding="utf-8", newline="") as handle:
        writer = _csv_writer(handle)
        writer.writerow(
            ["m", "epsilon", "trials", "completed", "failures", "errors",
             "failure_rate", "ci_halfwidth", "confidence"]
        )
        for rep in reports:
            writer.writerow(
                [rep.m, format_rational(rep.epsilon), rep.trials, rep.completed,
                 rep.failures, rep.errors, format_rational(rep.failure_rate),
                 repr(rep.ci_halfwidth), rep.confidence]
            )

    lines = [
        "# emx evaluation summary",
        "# failure rule: captured mass <= 1 - epsilon, exact rational comparison;",
        "# best capturable mass = 1 (finite support). Half-width is a binomial",
        "# normal approximation at the stated confidence.",
        f"master_seed: {seed}",
        f"trials_per_cell: {trials}",
    ]
    for rep in reports:
        lines.append(
            f"m={rep.m} epsilon={format_rational(rep.epsilon)}: "
            f"failure_rate={format_rational(rep.failure_rate)} "
            f"(~{float(rep.failure_rate):.6f}) +/- {rep.ci_halfwidth:.6f} "
            f"[{rep.confidence:.0%}], errors={rep.errors}"
        )
    _write_text(os.path.join(args.out, "summary.txt"), "\n".join(lines) + "\n")

    if per_trial:
        with open(os.path.join(args.out, "trials.csv"), "w", encoding="utf-8", newline="") as handle:
            writer = _csv_writer(handle)
            writer.writerow(["m", "epsilon", "trial", "seed", "captured", "failed", "error"])
            for rep in reports:
                for rec in rep.records or ():
                    writer.writerow(
                        [rep.m, format_rational(rep.epsilon), rec.index, rec.seed,
                         format_rational(rec.captured) if rec.captured is not None else "",
                         int(rec.failed), rec.error or ""]
                    )

    total_errors = sum(rep.errors for rep in reports)
    if total_errors:
        print(f"warning: {total_errors} trials hit the reconstruction cap", file=sys.stderr)
    print(f"evaluated {len(reports)} cells x {trials} trials")
    return 0


def cmd_search(args) -> int:
    problem = SearchProblem(args.n, args.m, args.budget)
    witness_size = comb(args.n, args.m + 1)
    if witness_size > SEARCH_SUBSET_LIMIT and not counting_refutes(problem):
        raise ValueError(
            f"a witness would tabulate {witness_size} subsets, above the "
            f"{SEARCH_SUBSET_LIMIT} guard"
        )
    result = search_schemes(problem)
    print(f"{result.verdict} ({result.reason}; {result.nodes} nodes)")
    if result.verdict == "UNSAT":
        return 1
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "witness.txt"), witness_to_text(result))
    return 0


def cmd_descend(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.build_scheme()
    size = cfg.build_domain().size
    x_size = cfg.field("descend", "x_size", size)
    if x_size is None:
        raise ConfigError(f"{cfg.path}: descend.x_size is required for countable domains")
    domain_size = x_size if size is None else min(x_size, size)
    sub = cfg.field("descend", "y", None)
    if sub is None:
        y_size = cfg.field("descend", "y_size", None)
        if y_size is None:
            raise ConfigError(f"{cfg.path}: descend needs y or y_size")
        sub = list(range(y_size))
    elif len(set(sub)) < len(sub):
        raise ConfigError(f"{cfg.path}: descend.y must hold distinct ids, got {sub}")

    work = comb(len(sub), scheme.m) + comb(len(sub), scheme.m + 1)
    if work > DESCEND_SUBSET_LIMIT:
        raise ValueError(
            f"descending over {len(sub)} points needs {work} subset "
            f"evaluations, above the {DESCEND_SUBSET_LIMIT} guard"
        )

    witness = descend(scheme, domain_size, sub)
    reduced = witness.reduced
    lines = [
        "# emx-descent-witness 1",
        f"x: {witness.x}",
        f"z_size: {witness.z_size}",
        "y: " + " ".join(map(str, sorted(sub))),
        f"reduced_m: {reduced.m}",
    ]
    for s in combinations(sorted(sub), scheme.m):
        kept = reduced.sigma(s)
        lines.append("sigma: " + " ".join(map(str, s)) + " | " + " ".join(map(str, sorted(kept))))
    for t in combinations(sorted(sub), scheme.m - 1):
        out = reduced.eta(t)
        lines.append("eta: " + " ".join(map(str, t)) + " | " + " ".join(map(str, sorted(out))))
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "descent.txt"), "\n".join(lines) + "\n")
    print(f"anchor x={witness.x}, |Z|={witness.z_size}, reduced scheme verified")
    return 0


def cmd_compress(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.build_scheme()
    points = cfg.field("compress", "points", [])
    if not points:
        raise ConfigError(f"{cfg.path}: compress.points is required")
    if len(set(points)) < len(points):
        raise ConfigError(f"{cfg.path}: compress.points must hold distinct ids, got {points}")
    trace = compress_chain(points, scheme)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "trace.txt"), trace_to_text(trace))
    print(f"compressed {len(trace.original)} points to kernel {sorted(trace.kernel)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emx",
        description="Compression-scheme experiments: verify, evaluate, search, descend, compress.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p_verify = sub.add_parser("verify", help="check scheme soundness over subsets")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("evaluate", help="Monte Carlo failure-rate measurement")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_search = sub.add_parser("search", help="existence search for bounded schemes")
    p_search.add_argument("n", type=int, help="domain size")
    p_search.add_argument("m", type=int, help="scheme arity (searches (m+1)-to-m)")
    p_search.add_argument("budget", type=int, help="max reconstruction size")
    p_search.add_argument("--out", default=None, help="directory for the witness dump")
    p_search.set_defaults(func=cmd_search)

    p_descend = sub.add_parser("descend", help="reduce scheme arity on a sub-domain")
    add_common(p_descend)
    p_descend.set_defaults(func=cmd_descend)

    p_compress = sub.add_parser("compress", help="one-shot chain compression with trace dump")
    add_common(p_compress)
    p_compress.set_defaults(func=cmd_compress)

    return parser


# How a run that raises ends: exception type, exit code, stderr label. The
# first match wins, so ConfigError and SchemeError precede ValueError, their
# base. Anything else (AssertionError, TypeError, KeyError, ...) is a bug and
# propagates.
EXIT_CODES: tuple[tuple[type[Exception], int, str], ...] = (
    (ConfigError, 2, "config error"),
    (SchemeError, 1, "property violation"),
    (DeskScaleError, 1, "desk-scale failure"),
    (DescentError, 1, "descent verification failure"),
    (ResourceLimitError, 3, "resource limit"),
    (ValueError, 2, "error"),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in EXIT_CODES) as err:
        code, label = next((c, name) for kind, c, name in EXIT_CODES if isinstance(err, kind))
        print(f"{label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
