"""End-to-end acceptance runs, one test per criterion, each printing a
pass/fail line with its measured numbers. Run with -s to see the lines:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from emx.analysis import SearchProblem, descend, search_schemes
from emx.chains import compress_chain, decompress_chain
from emx.cli import main
from emx.core import FiniteDomain, FiniteSupportDistribution, naturals_domain
from emx.evaluation import EmxLearner, evaluate
from emx.schemes import enumeration_scheme, seeded_subsets, tower_scheme, verify_soundness
from emx.towers import enumerated_tower, finite_proxy_tower
from oracles import scheme_exists_brute_force

# depth-1 proxy instance whose reconstruction image leaves an anchor point
# free; most seeds at this size cover the whole domain
DESCENT_PROXY_SIZE = 60
DESCENT_PROXY_SEED = 2510


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


def tank_learner() -> EmxLearner:
    return EmxLearner(enumeration_scheme(enumerated_tower(naturals_domain())), d=1)


def test_criterion_1_enumeration_soundness():
    started = time.perf_counter()
    scheme = enumeration_scheme(enumerated_tower(naturals_domain()))
    result = verify_soundness(scheme, combinations(range(30), 2))
    elapsed = time.perf_counter() - started
    ok = result.checked == 435 and result.violations == () and elapsed < 1.0
    report(1, "enumeration scheme soundness", ok,
           f"checked={result.checked} violations={len(result.violations)} elapsed={elapsed:.3f}s")


def test_criterion_2_tower_soundness():
    started = time.perf_counter()
    scheme = tower_scheme(finite_proxy_tower(FiniteDomain(size=60), 2, 7))
    subsets = seeded_subsets(range(60), 4, 500, seed=77)
    result = verify_soundness(scheme, subsets)
    elapsed = time.perf_counter() - started
    ok = result.checked == 500 and result.violations == () and elapsed < 10.0
    report(2, "tower scheme soundness", ok,
           f"checked={result.checked} violations={len(result.violations)} elapsed={elapsed:.3f}s")


def test_criterion_3_chain_round_trip():
    started = time.perf_counter()
    rng = random.Random(31)
    cases = []
    enum_scheme = enumeration_scheme(enumerated_tower(naturals_domain()))
    for _ in range(80):
        m = rng.randint(1, 12)
        cases.append((enum_scheme, frozenset(rng.sample(range(150), m)), 1))
    depth1 = tower_scheme(finite_proxy_tower(FiniteDomain(size=40), 1, 19))
    for _ in range(60):
        m = rng.randint(2, 12)
        cases.append((depth1, frozenset(rng.sample(range(40), m)), 2))
    depth2 = tower_scheme(finite_proxy_tower(FiniteDomain(size=24), 2, 23))
    for _ in range(60):
        m = rng.randint(3, 12)
        cases.append((depth2, frozenset(rng.sample(range(24), m)), 3))

    contained = 0
    for scheme, points, d in cases:
        trace = compress_chain(points, scheme)
        out = decompress_chain(trace.kernel, scheme, len(points) - d)
        if points <= out:
            contained += 1
    elapsed = time.perf_counter() - started
    ok = contained == len(cases) == 200 and elapsed < 60.0
    report(3, "chain round-trip containment", ok,
           f"contained={contained}/{len(cases)} elapsed={elapsed:.2f}s")


def test_criterion_4_descent_reductions():
    enum_scheme = enumeration_scheme(enumerated_tower(naturals_domain()))
    w1 = descend(enum_scheme, 101, range(6))
    r1 = verify_soundness(w1.reduced, [{y} for y in range(6)])

    proxy = tower_scheme(
        finite_proxy_tower(FiniteDomain(size=DESCENT_PROXY_SIZE), 1, DESCENT_PROXY_SEED)
    )
    w2 = descend(proxy, DESCENT_PROXY_SIZE, range(8))
    r2 = verify_soundness(w2.reduced, combinations(range(8), 2))

    ok = (
        r1.ok and r1.checked == 6
        and r2.ok and r2.checked == 28
        and w1.reduced.m == 0 and w2.reduced.m == 1
    )
    report(4, "descent reductions", ok,
           f"enumeration: x={w1.x} checked={r1.checked}; "
           f"tower: x={w2.x} |Z|={w2.z_size} checked={r2.checked}")


def test_criterion_5_finite_impossibility():
    started = time.perf_counter()
    expected = {(3, 0, 2): "UNSAT", (3, 0, 3): "SAT", (5, 1, 2): "UNSAT", (5, 1, 3): "SAT"}
    lines = []
    ok = True
    for (n, m, budget), verdict in expected.items():
        oracle = "SAT" if scheme_exists_brute_force(n, m, budget) else "UNSAT"
        searched = search_schemes(SearchProblem(n, m, budget)).verdict
        lines.append(f"({n},{m},{budget})={searched}")
        ok = ok and oracle == verdict == searched
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(5, "finite existence thresholds", ok,
           " ".join(lines) + f" oracle-confirmed elapsed={elapsed:.2f}s")


def test_criterion_6_learning_guarantee_closed_form():
    started = time.perf_counter()
    trials = 100_000
    dist = FiniteSupportDistribution.uniform(range(1, 21))
    rep = evaluate(tank_learner(), dist, 10, Fraction(1, 4), trials, seed=2027)
    elapsed = time.perf_counter() - started
    exact = float(Fraction(3, 4) ** 10)
    tolerance = 3 * math.sqrt(exact * (1 - exact) / trials)
    deviation = abs(float(rep.failure_rate) - exact)
    ok = deviation <= tolerance and rep.errors == 0 and elapsed < 30.0
    report(6, "closed-form failure probability", ok,
           f"rate={float(rep.failure_rate):.6f} exact={exact:.6f} "
           f"dev={deviation:.6f} tol={tolerance:.6f} elapsed={elapsed:.1f}s")


def test_criterion_7_monotone_in_sample_size():
    trials = 10_000
    dist = FiniteSupportDistribution.uniform(range(1, 21))
    rates = []
    for m in (2, 4, 8, 16, 32):
        rep = evaluate(tank_learner(), dist, m, Fraction(1, 4), trials, seed=2028)
        rates.append(float(rep.failure_rate))
    ok = True
    for first, second in zip(rates, rates[1:]):
        slack = 3 * math.sqrt(
            first * (1 - first) / trials + second * (1 - second) / trials
        )
        ok = ok and second <= first + slack
    report(7, "failure rate monotone in m", ok,
           "rates=" + " ".join(f"{r:.4f}" for r in rates))


def test_criterion_8_cli_determinism(tmp_path):
    def write(payload, name):
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=1))
        return str(path)

    verify_cfg = write(
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "calkin-wilf"},
            "scheme": {"kind": "enumeration"},
            "verify": {"mode": "exhaustive", "count": 30},
        },
        "verify.json",
    )
    eval_cfg = write(
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "naturals"},
            "scheme": {"kind": "enumeration"},
            "distribution": {"kind": "uniform-range", "lo": 1, "hi": 20},
            "evaluate": {"m": [4, 10], "epsilon": ["1/4"], "trials": 500,
                         "seed": 42, "per_trial": True},
        },
        "evaluate.json",
    )
    descend_cfg = write(
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "finite", "size": DESCENT_PROXY_SIZE},
            "tower": {"depth": 1, "seed": DESCENT_PROXY_SEED},
            "scheme": {"kind": "tower"},
            "descend": {"y_size": 8},
        },
        "descend.json",
    )
    compress_cfg = write(
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "finite", "size": 40},
            "tower": {"depth": 2, "seed": 9},
            "scheme": {"kind": "tower"},
            "compress": {"points": [0, 3, 7, 12, 21, 33]},
        },
        "compress.json",
    )

    jobs = {
        "verify": ["verify", verify_cfg],
        "evaluate": ["evaluate", eval_cfg],
        "search": ["search", "5", "1", "3"],
        "descend": ["descend", descend_cfg],
        "compress": ["compress", compress_cfg],
    }
    identical = []
    ok = True
    for tag, argv in jobs.items():
        first = tmp_path / f"{tag}-1"
        second = tmp_path / f"{tag}-2"
        code1 = main(argv + ["--out", str(first)])
        code2 = main(argv + ["--out", str(second)])
        bytes1 = {p.name: p.read_bytes() for p in sorted(Path(first).iterdir())}
        bytes2 = {p.name: p.read_bytes() for p in sorted(Path(second).iterdir())}
        same = code1 == code2 == 0 and bytes1 == bytes2 and bytes1
        identical.append(f"{tag}={'ok' if same else 'DIFF'}")
        ok = ok and same
    report(8, "byte-identical CLI reruns", ok, " ".join(identical))
