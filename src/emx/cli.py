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
from .config import ConfigError, ExperimentConfig, format_rational, load_config, parse_rational
from .core import EnumeratedDomain
from .evaluation import evaluate
from .schemes import SchemeError, seeded_subsets, verify_soundness

EXHAUSTIVE_SUBSET_LIMIT = 200_000
DESCEND_SUBSET_LIMIT = 20_000
SEARCH_SUBSET_LIMIT = 2_000


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _csv_writer(handle):
    return csv.writer(handle, lineterminator="\n")


def _verify_subsets(cfg: ExperimentConfig, domain, arity: int) -> list[frozenset[int]]:
    spec = cfg.section("verify")
    mode = spec.get("mode", "exhaustive")
    finite_size = getattr(domain, "size", None)
    if mode == "exhaustive":
        count = spec.get("count", finite_size)
        if count is None:
            raise ConfigError(f"{cfg.path}: verify.count is required for countable domains")
        count = int(count)
        if comb(count, arity + 1) > EXHAUSTIVE_SUBSET_LIMIT:
            raise ConfigError(
                f"{cfg.path}: exhaustive verify over {count} points needs "
                f"{comb(count, arity + 1)} subsets, above the {EXHAUSTIVE_SUBSET_LIMIT} guard"
            )
        return [frozenset(c) for c in combinations(range(count), arity + 1)]
    if mode == "random":
        pool = spec.get("pool", finite_size)
        if pool is None:
            raise ConfigError(f"{cfg.path}: verify.pool is required for countable domains")
        samples = int(spec.get("samples", 100))
        seed = int(spec.get("seed", 0))
        return seeded_subsets(range(int(pool)), arity + 1, samples, seed)
    raise ConfigError(f"{cfg.path}: unknown verify mode {mode!r}")


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    domain = cfg.build_domain()
    tower = cfg.build_tower(domain)
    scheme = cfg.build_scheme(tower)
    subsets = _verify_subsets(cfg, domain, scheme.m)
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


def _as_list(raw) -> list:
    return list(raw) if isinstance(raw, list) else [raw]


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    domain = cfg.build_domain()
    tower = cfg.build_tower(domain)
    scheme = cfg.build_scheme(tower)
    learner = cfg.build_learner(scheme, cap_override=args.cap)
    dist = cfg.build_distribution()

    spec = cfg.section("evaluate")
    try:
        m_values = sorted(int(m) for m in _as_list(spec.get("m", [])))
        trials = int(spec.get("trials", 1000))
        seed = args.seed if args.seed is not None else int(spec.get("seed", 0))
        confidence = float(spec.get("confidence", 0.99))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{cfg.path}: evaluate: {err}") from None
    if not m_values:
        raise ConfigError(f"{cfg.path}: evaluate.m is required")
    if m_values[0] < 0:
        raise ConfigError(f"{cfg.path}: evaluate.m must be >= 0, got {m_values[0]}")
    if trials < 1:
        raise ConfigError(f"{cfg.path}: evaluate.trials must be >= 1, got {trials}")
    if not 0 < confidence < 1:
        raise ConfigError(f"{cfg.path}: evaluate.confidence must be in (0, 1), got {confidence}")
    epsilons = sorted(
        parse_rational(e, "evaluate.epsilon") for e in _as_list(spec.get("epsilon", []))
    )
    if not epsilons:
        raise ConfigError(f"{cfg.path}: evaluate.epsilon is required")
    per_trial = bool(spec.get("per_trial", False))
    delta = spec.get("delta")
    delta = parse_rational(delta, "evaluate.delta") if delta is not None else None

    reports = [
        evaluate(
            learner,
            dist,
            m,
            eps,
            trials,
            seed,
            confidence=confidence,
            delta=delta,
            keep_records=per_trial,
        )
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
    try:
        problem = SearchProblem(args.n, args.m, args.budget)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    witness_size = comb(args.n, args.m + 1)
    if witness_size > SEARCH_SUBSET_LIMIT and not counting_refutes(problem):
        print(
            f"error: a witness would tabulate {witness_size} subsets, above the "
            f"{SEARCH_SUBSET_LIMIT} guard",
            file=sys.stderr,
        )
        return 2
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
    domain = cfg.build_domain()
    tower = cfg.build_tower(domain)
    scheme = cfg.build_scheme(tower)

    spec = cfg.section("descend")
    if isinstance(domain, EnumeratedDomain):
        x_size = spec.get("x_size")
        if x_size is None:
            raise ConfigError(f"{cfg.path}: descend.x_size is required for countable domains")
        universe = range(int(x_size))
    else:
        x_size = int(spec.get("x_size", domain.size))
        universe = range(min(x_size, domain.size))
    if "y" in spec:
        sub = [int(v) for v in spec["y"]]
    elif "y_size" in spec:
        sub = list(range(int(spec["y_size"])))
    else:
        raise ConfigError(f"{cfg.path}: descend needs y or y_size")
    z_mode = spec.get("z_mode", "superset")

    work = comb(len(sub), scheme.m) + comb(len(sub), scheme.m + 1)
    if work > DESCEND_SUBSET_LIMIT:
        print(
            f"error: descending over {len(sub)} points needs {work} subset "
            f"evaluations, above the {DESCEND_SUBSET_LIMIT} guard",
            file=sys.stderr,
        )
        return 2

    try:
        witness = descend(scheme, universe, sub, z_mode)
    except DeskScaleError as err:
        print(f"desk-scale failure: {err}", file=sys.stderr)
        return 1
    except DescentError as err:
        print(f"descent verification failure: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

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
    domain = cfg.build_domain()
    tower = cfg.build_tower(domain)
    scheme = cfg.build_scheme(tower)
    spec = cfg.section("compress")
    points = spec.get("points")
    if not points:
        raise ConfigError(f"{cfg.path}: compress.points is required")
    try:
        trace = compress_chain([int(p) for p in points], scheme)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
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
    p_eval.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_eval.add_argument("--cap", type=int, default=None, help="override the reconstruction cap")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SchemeError as err:
        print(f"property violation: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
