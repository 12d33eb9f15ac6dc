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
from functools import lru_cache
from math import comb

from .analysis import (
    DescentError,
    DeskScaleError,
    SearchProblem,
    counting_refutes,
    descend,
    descent_to_text,
    search_schemes,
    witness_to_text,
)
from .chains import ResourceLimitError, compress_chain, trace_to_text
from .config import ConfigError, format_rational, load_config
from .evaluation import evaluate  # noqa: F401  perfbench/tracer.py wraps it under this name
from .evaluation import evaluate_grid
from .schemes import SchemeError, verify_soundness

SEARCH_SUBSET_LIMIT = 2_000


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.build_scheme()
    subsets = cfg.verify_subsets(scheme.m)
    report = verify_soundness(scheme, subsets)

    os.makedirs(args.out, exist_ok=True)
    violations = set(report.violations)
    _write_csv(
        os.path.join(args.out, "soundness.csv"), ["subset", "status"],
        ([" ".join(map(str, sorted(subset))), "violation" if subset in violations else "ok"]
         for subset in subsets),
    )
    print(f"checked {report.checked} subsets, {len(report.violations)} violations")
    return 0 if not report.violations else 1


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    learner = cfg.build_learner(cfg.build_scheme())
    dist = cfg.build_distribution()
    m_values, epsilons, trials, seed, confidence, per_trial = (
        cfg.field("evaluate", name)
        for name in ("m", "epsilon", "trials", "seed", "confidence", "per_trial")
    )
    reports = evaluate_grid(learner, dist, m_values, epsilons, trials, seed,
                            confidence=confidence, keep_records=per_trial)

    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "evaluation.csv"),
        ["m", "epsilon", "trials", "completed", "failures", "errors",
         "failure_rate", "ci_halfwidth", "confidence"],
        ([rep.m, format_rational(rep.epsilon), rep.trials, rep.completed,
          rep.failures, rep.errors, format_rational(rep.failure_rate),
          repr(rep.ci_halfwidth), rep.confidence] for rep in reports),
    )

    lines = [
        "# emx evaluation summary",
        "# failure rule: captured mass <= 1 - epsilon, exact rational comparison;",
        "# best capturable mass = 1 (finite support). Half-width is a binomial",
        "# normal approximation at the stated confidence.",
        f"master_seed: {seed}",
        f"trials_per_cell: {trials}",
    ]
    lines += [
        f"m={rep.m} epsilon={format_rational(rep.epsilon)}: "
        f"failure_rate={format_rational(rep.failure_rate)} "
        f"(~{float(rep.failure_rate):.6f}) +/- {rep.ci_halfwidth:.6f} "
        f"[{rep.confidence:.0%}], errors={rep.errors}"
        for rep in reports
    ]
    _write_text(os.path.join(args.out, "summary.txt"), "\n".join(lines) + "\n")

    if per_trial:
        _write_csv(
            os.path.join(args.out, "trials.csv"),
            ["m", "epsilon", "trial", "seed", "captured", "failed", "error"],
            ([rep.m, format_rational(rep.epsilon), rec.index, rec.seed,
              format_rational(rec.captured) if rec.captured is not None else "",
              int(rec.failed), rec.error or ""] for rep in reports for rec in rep.records or ()),
        )

    total_errors = sum(rep.errors for rep in reports)
    if total_errors:
        print(f"warning: {total_errors} trials hit the reconstruction cap", file=sys.stderr)
    print(f"evaluated {len(reports)} cells x {trials} trials")
    return 0


def cmd_search(args) -> int:
    problem = SearchProblem(args.n, args.m, args.budget)
    if not counting_refutes(problem):
        witness_size = comb(args.n, args.m + 1)
        if witness_size > SEARCH_SUBSET_LIMIT:
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
    witness = descend(scheme, *cfg.descend_inputs(scheme.m))
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "descent.txt"), descent_to_text(witness))
    print(f"anchor x={witness.x}, |Z|={witness.z_size}, reduced scheme verified")
    return 0


def cmd_compress(args) -> int:
    cfg = load_config(args.config)
    scheme = cfg.build_scheme()
    trace = compress_chain(cfg.compress_points(), scheme)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "trace.txt"), trace_to_text(trace))
    print(f"compressed {len(trace.original)} points to kernel {sorted(trace.kernel)}")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and reused.

    Building it costs about 1 ms, more than most commands' work, while
    parse_args leaves it unchanged, so repeated `main` calls share it. It
    is not built at import, so importing emx.cli stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="emx",
        description="Compression-scheme experiments: verify, evaluate, search, descend, compress.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.set_defaults(func=func)

    add_config_command("verify", "check scheme soundness over subsets", cmd_verify)
    add_config_command("evaluate", "Monte Carlo failure-rate measurement", cmd_evaluate)
    p_search = sub.add_parser("search", help="existence search for bounded schemes")
    p_search.add_argument("n", type=int, help="domain size")
    p_search.add_argument("m", type=int, help="scheme arity (searches (m+1)-to-m)")
    p_search.add_argument("budget", type=int, help="max reconstruction size")
    p_search.add_argument("--out", default=None, help="directory for the witness dump")
    p_search.set_defaults(func=cmd_search)
    add_config_command("descend", "reduce scheme arity on a sub-domain", cmd_descend)
    add_config_command("compress", "one-shot chain compression with trace dump", cmd_compress)
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
    (OSError, 2, "error"),
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
