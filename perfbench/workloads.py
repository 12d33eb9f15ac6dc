"""The three benchmark workloads.

Each workload turns (seed, round index) into a round: a fixed-shape list
of ops whose inputs are drawn from that seed and round. An op has three
parts: `prepare` (untimed, makes scratch directories), `run` (the timed
call into the library's public entry points) and `check` (untimed, an
oracle that does not share the path it checks). `check` returns the op
status and the bytes that go into the output digest.

Statuses: "ok"; "failed" when the op raised or a CLI run exited 2 or 3
(usage error or resource limit, e.g. an UNDECIDED search); "wrong" when
an output contradicts its oracle.

No op passes `workers=`, `--workers`, `node_limit=` or `--node-limit`.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable


@dataclass
class Op:
    label: str
    run: Callable[..., Any]
    check: Callable[..., tuple[str, bytes]]
    prepare: Callable[[], tuple] = tuple


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"emx-bench/{workload}/{seed}/{index}")


# ---------------------------------------------------------------- tank-mc

TANK_M = (2, 4, 8, 16, 32)
TANK_TRIALS = 300
TANK_EPSILON = Fraction(1, 4)
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# one-sided normal tail beyond 5 sigma
TAIL_5_SIGMA = 2.866515718791939e-07


def explicit_masses(rng: random.Random) -> dict[int, Fraction]:
    """Six support points on 0..63: five masses 1/p for distinct primes p,
    the sixth takes the rest, so the denominators are pairwise coprime
    and their least common multiple is large."""
    ids = rng.sample(range(64), 6)
    masses = {pid: Fraction(1, p) for pid, p in zip(ids, rng.sample(PRIMES, 5))}
    masses[ids[5]] = 1 - sum(masses.values())
    return masses


def closed_form_failure(masses: dict[int, Fraction], m: int, eps: Fraction) -> Fraction:
    """The enumeration learner outputs {0..max draw}, so it fails exactly
    when every draw is at most k*, the largest support id whose CDF stays
    within 1 - eps: probability F(k*)^m."""
    cdf = Fraction(0)
    best = Fraction(0)
    for pid in sorted(masses):
        cdf += masses[pid]
        if cdf <= 1 - eps:
            best = cdf
    return best**m


def binomial_tails(n: int, p: float, k: int) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    return sum(pmf[: k + 1]), sum(pmf[k:])


def tank_op(lib, label: str, masses: dict[int, Fraction], m: int, trials: int, seed: int) -> Op:
    def run():
        learner = lib.EmxLearner(
            lib.enumeration_scheme(lib.enumerated_tower(lib.naturals_domain())), d=1
        )
        return lib.evaluate(learner, lib.FiniteSupportDistribution(masses), m, TANK_EPSILON, trials, seed)

    def check(report):
        text = (
            f"{label} m={m} trials={trials} seed={seed} completed={report.completed} "
            f"failures={report.failures} errors={report.errors} rate={report.failure_rate}"
        )
        p = float(closed_form_failure(masses, m, TANK_EPSILON))
        low, high = binomial_tails(trials, p, report.failures)
        good = (
            report.completed == trials
            and report.errors == 0
            and min(low, high) > TAIL_5_SIGMA
        )
        return ("ok" if good else "wrong"), text.encode()

    return Op(f"{label} m={m}", run, check)


def tank_round(lib, seed: int, index: int, scratch: str) -> list[Op]:
    rng = round_rng("tank-mc", seed, index)
    uniform = {pid: Fraction(1, 20) for pid in range(1, 21)}
    ops = [tank_op(lib, "tank-1..20", uniform, m, TANK_TRIALS, rng.getrandbits(63)) for m in TANK_M]
    for m in TANK_M:
        ops.append(tank_op(lib, "explicit", explicit_masses(rng), m, TANK_TRIALS, rng.getrandbits(63)))
    return ops


# ------------------------------------------------------------ proxy-chain

# (tower depth, domain size, sample sizes): one fresh tower per group, so
# the first op of a group pays the ordering-cache fill as a CLI run does.
# As many cheap depth-1 ops as ops slower than a warm depth-2 n=30 op put
# the median inside the warm n=30 ops and p90 inside the warm n=60 ops,
# not on a boundary between two op classes.
PROXY_GROUPS = (
    (1, 60, (8, 10, 12, 12)),
    (1, 40, (8, 10, 12)),
    (2, 30, (6, 8, 10, 12)),
    (2, 45, (6, 9, 12)),
    (2, 60, (8, 10, 12)),
)


class ProxyGroup:
    def __init__(self, depth: int, n: int, seed: int):
        self.depth, self.n, self.seed = depth, n, seed
        self.scheme = None


def proxy_op(lib, group: ProxyGroup, points: list[int]) -> Op:
    def run():
        if group.scheme is None:
            tower = lib.finite_proxy_tower(lib.FiniteDomain(size=group.n), group.depth, group.seed)
            group.scheme = lib.tower_scheme(tower)
        scheme = group.scheme
        trace = lib.compress_chain(points, scheme)
        return trace, lib.decompress_chain(trace.kernel, scheme, len(points) - scheme.m)

    def check(result):
        trace, out = result
        sample = frozenset(points)
        good = (
            trace.original == sample
            and len(trace.kernel) == group.depth + 1
            and trace.kernel <= sample
            and sample <= out
            and all(0 <= pid < group.n for pid in out)
        )
        text = (
            f"depth={group.depth} n={group.n} tower_seed={group.seed} "
            f"sample={sorted(sample)} steps={[(sorted(s), e) for s, e in trace.steps]} "
            f"kernel={sorted(trace.kernel)} out={sorted(out)}"
        )
        return ("ok" if good else "wrong"), text.encode()

    return Op(f"chain depth={group.depth} n={group.n} M={len(points)}", run, check)


def proxy_round(lib, seed: int, index: int, scratch: str) -> list[Op]:
    rng = round_rng("proxy-chain", seed, index)
    ops = []
    for depth, n, sizes in PROXY_GROUPS:
        group = ProxyGroup(depth, n, rng.getrandbits(32))
        ops.extend(proxy_op(lib, group, rng.sample(range(n), size)) for size in sizes)
    return ops


# -------------------------------------------------------------- cli-audit

SHIPPED = (
    ("verify", "configs/verify_calkin_wilf.json"),
    ("verify", "configs/verify_tower.json"),
    ("descend", "configs/descend_enumeration.json"),
    ("descend", "configs/descend_tower.json"),
    ("compress", "configs/compress_demo.json"),
)
SCAN_MAX_N, SCAN_MAX_M = 7, 2
RANDOM_VERIFY_OPS = 14
RANDOM_VERIFY_SAMPLES = 150
CW_VERIFY_OPS = 4
COMPRESS_OPS = 4
DESCEND_OPS = 4


def counting_bound_refutes(n: int, m: int, budget: int) -> bool:
    """The covering bound, restated here so the check does not run the
    library code it checks: C(n, m+1) (m+1)-sets each need a slot among
    C(n, m) m-sets holding budget - m dropped partners apiece."""
    return math.comb(n, m + 1) > math.comb(n, m) * max(0, budget - m)


def scan_problems() -> list[tuple[int, int, int]]:
    """The budget scan of scripts/search_thresholds.py: for each (n, m),
    budgets from m + 1 up to the first one the counting bound allows."""
    problems = []
    for n in range(2, SCAN_MAX_N + 1):
        for m in range(0, SCAN_MAX_M + 1):
            if n < m + 2:
                continue
            for budget in range(m + 1, n + 1):
                problems.append((n, m, budget))
                if not counting_bound_refutes(n, m, budget):
                    break
    return problems


def _ids(text: str) -> frozenset[int]:
    return frozenset(int(v) for v in text.split())


def _tagged(text: str, tag: str) -> list[tuple[frozenset[int], frozenset[int]]]:
    rows = []
    for line in text.splitlines():
        if line.startswith(tag + ":"):
            left, _, right = line[len(tag) + 1:].partition("|")
            rows.append((_ids(left), _ids(right)))
    return rows


def _header(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    raise ValueError(f"missing {key!r} line")


def witness_ok(text: str, n: int, m: int, budget: int) -> bool:
    """Re-check a search witness.txt from its text alone: every
    (m+1)-subset drops one of its points, every m-subset reconstructs
    itself within the budget, and every (m+1)-set is contained in the
    reconstruction of what it was compressed to."""
    lines = text.splitlines()
    if not lines or lines[0] != "# emx-scheme-witness 1":
        return False
    if (_header(text, "n"), _header(text, "m"), _header(text, "budget")) != (str(n), str(m), str(budget)):
        return False
    sigma = _tagged(text, "sigma")
    eta = dict(_tagged(text, "eta"))
    betas = [frozenset(c) for c in combinations(range(n), m + 1)]
    if sorted(map(sorted, (b for b, _ in sigma))) != sorted(map(sorted, betas)):
        return False
    if sorted(map(sorted, eta)) != sorted(map(sorted, map(frozenset, combinations(range(n), m)))):
        return False
    if any(not t <= out or len(out) > budget for t, out in eta.items()):
        return False
    for beta, dropped in sigma:
        if len(dropped) != 1 or not dropped <= beta or not beta <= eta[beta - dropped]:
            return False
    return True


def descent_ok(text: str) -> bool:
    """Re-check a descent.txt: the anchor lies outside the sub-domain and
    the tabulated reduced scheme is sound on every listed subset."""
    lines = text.splitlines()
    if not lines or lines[0] != "# emx-descent-witness 1":
        return False
    x = int(_header(text, "x"))
    y = _ids(_header(text, "y"))
    arity = int(_header(text, "reduced_m"))
    sigma = _tagged(text, "sigma")
    eta = dict(_tagged(text, "eta"))
    if x in y or len(sigma) != math.comb(len(y), arity + 1):
        return False
    for s, kept in sigma:
        if not s <= y or len(s) != arity + 1 or not kept < s or len(kept) != arity:
            return False
        if kept not in eta or not s <= eta[kept]:
            return False
    return True


def trace_ok(text: str, points: list[int]) -> bool:
    """Re-check a trace.txt of the enumeration scheme on the naturals,
    which keeps the later point: the kernel is the sample maximum and
    every step ejects a live point."""
    live = set(points)
    if _ids(_header(text, "original")) != live:
        return False
    steps = _tagged(text, "step")
    for subset, ejected in steps:
        if len(ejected) != 1 or not ejected <= subset or not subset <= live:
            return False
        live -= ejected
    return len(steps) == len(points) - 1 and live == {max(points)} and _ids(_header(text, "kernel")) == live


def soundness_ok(text: str, expected_rows: int) -> bool:
    rows = text.splitlines()
    return (
        bool(rows)
        and rows[0] == "subset,status"
        and len(rows) - 1 == expected_rows
        and all(row.endswith(",ok") for row in rows[1:])
    )


class CliOp:
    """One in-process `emx.cli.main` run with --out in a fresh directory."""

    def __init__(self, lib, scratch: str, out_name: str, argv: list[str], verdict):
        self.lib, self.scratch = lib, scratch
        self.out = os.path.join(scratch, "out", out_name)
        self.argv = argv + ["--out", self.out]
        self.verdict = verdict  # (exit code, files) -> "ok" | "wrong"

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        return ()

    def run(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = self.lib.cli.main(self.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, result):
        code, stdout, stderr = result
        files = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), encoding="utf-8") as handle:
                files[name] = handle.read()
        shutil.rmtree(self.out, ignore_errors=True)
        blob = json.dumps([self.argv[:-2], code, stdout, stderr, files])
        if code in (2, 3):
            status = "failed"
        else:
            try:
                status = self.verdict(code, files)
            except (KeyError, ValueError):
                status = "wrong"
        return status, blob.replace(self.scratch, "<scratch>").encode()

    def as_op(self) -> Op:
        label = " ".join(self.argv[:-2]).replace(self.scratch, "<scratch>")
        return Op(label, self.run, self.check, self.prepare)


def _config_verdict(command: str, cfg: dict):
    """Oracle for a verify, descend or compress run of the given config.
    Exhaustive verify configs here use the 2-to-1 enumeration scheme, so
    they check C(count, 2) subsets."""
    if command == "verify":
        spec = cfg["verify"]
        rows = math.comb(spec["count"], 2) if spec["mode"] == "exhaustive" else spec["samples"]
        return lambda code, files: _ok(code == 0 and soundness_ok(files["soundness.csv"], rows))
    if command == "descend":
        return lambda code, files: _ok(code == 0 and descent_ok(files["descent.txt"]))
    points = cfg["compress"]["points"]
    return lambda code, files: _ok(code == 0 and trace_ok(files["trace.txt"], points))


def _search_verdict(n: int, m: int, budget: int):
    def verdict(code, files):
        if counting_bound_refutes(n, m, budget):
            return _ok(code == 1 and not files)
        return _ok(code == 0 and witness_ok(files["witness.txt"], n, m, budget))
    return verdict


def _ok(good: bool) -> str:
    return "ok" if good else "wrong"


def cli_round(lib, seed: int, index: int, scratch: str) -> list[Op]:
    rng = round_rng("cli-audit", seed, index)
    cfg_dir = os.path.join(scratch, f"configs-{index}")
    os.makedirs(cfg_dir, exist_ok=True)
    ops: list[CliOp] = []

    def add(argv, verdict):
        ops.append(CliOp(lib, scratch, str(len(ops)), argv, verdict))

    def generated(command: str, name: str, body: dict):
        cfg = {"schema": "emx-experiment/1", **body}
        path = os.path.join(cfg_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle, indent=1)
        add([command, path], _config_verdict(command, cfg))

    for command, path in SHIPPED:
        with open(path, encoding="utf-8") as handle:
            add([command, path], _config_verdict(command, json.load(handle)))
    for i in range(RANDOM_VERIFY_OPS):
        generated("verify", f"verify-tower-{i}", {
            "domain": {"kind": "finite", "size": 60},
            "tower": {"depth": 2, "seed": rng.getrandbits(32)},
            "scheme": {"kind": "tower"},
            "verify": {"mode": "random", "samples": RANDOM_VERIFY_SAMPLES, "seed": rng.getrandbits(32)},
        })
    for i in range(CW_VERIFY_OPS):
        generated("verify", f"verify-cw-{i}", {
            "domain": {"kind": "calkin-wilf"},
            "scheme": {"kind": "enumeration"},
            "verify": {"mode": "exhaustive", "count": rng.randint(20, 40)},
        })
    for i in range(COMPRESS_OPS):
        generated("compress", f"compress-{i}", {
            "domain": {"kind": "naturals"},
            "scheme": {"kind": "enumeration"},
            "compress": {"points": rng.sample(range(200), rng.randint(3, 12))},
        })
    for i in range(DESCEND_OPS):
        y_size = rng.randint(4, 12)
        generated("descend", f"descend-{i}", {
            "domain": {"kind": "naturals"},
            "scheme": {"kind": "enumeration"},
            "descend": {"x_size": rng.randint(y_size + 20, 200), "y_size": y_size},
        })
    for n, m, budget in scan_problems():
        add(["search", str(n), str(m), str(budget)], _search_verdict(n, m, budget))
    return [op.as_op() for op in ops]


WORKLOADS = {
    "tank-mc": tank_round,
    "proxy-chain": proxy_round,
    "cli-audit": cli_round,
}
