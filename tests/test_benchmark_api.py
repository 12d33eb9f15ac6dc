"""The benchmark in `perfbench/` reaches into emx by name: its tracer
wraps module attributes and its workloads call `lib.<name>` on the
imported package. Renaming or deleting one of those names breaks the
benchmark, not the library's own tests, so these checks pin them."""

import ast
import hashlib
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import emx
import emx.cli  # noqa: F401  (the workloads call lib.cli.main)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_site():
    """Every (module, class, attribute) in SPAN_SITES and POINT_SITES
    resolves in emx, so a rename fails here with the missing name, and
    the tracer wraps each one and puts the original back."""
    tracer = load_perfbench("tracer")
    sites = [(module, None, attr) for module, attr, _ in tracer.SPAN_SITES]
    sites += [(module, cls, attr) for module, cls, attr, _ in tracer.POINT_SITES]

    def owner(module, cls):
        found = importlib.import_module(module)
        return getattr(found, cls) if cls is not None else found

    originals = [getattr(owner(module, cls), attr) for module, cls, attr in sites]
    with tracer.Tracer():
        wrapped = [getattr(owner(module, cls), attr) for module, cls, attr in sites]
    restored = [getattr(owner(module, cls), attr) for module, cls, attr in sites]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert restored == originals


def test_workloads_use_only_names_emx_exports():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "lib")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "lib")
        )
    }
    assert {"FiniteDomain", "naturals_domain", "enumerated_tower", "cli"} <= used
    assert sorted(name for name in used if not hasattr(emx, name)) == []


def test_workload_ops_pass_their_own_checks():
    """One tank-mc op and one proxy-chain op, run and checked as the
    benchmark does: this pins the call shapes the name check cannot see,
    such as `evaluate`'s positional arguments, `EmxLearner(..., d=1)` and
    the `steps` of `compress_chain`'s trace."""
    workloads = load_perfbench("workloads")
    uniform = {pid: Fraction(1, 20) for pid in range(1, 21)}
    tank = workloads.tank_op(emx, "tank-1..20", uniform, 8, 60, 2019)
    proxy = workloads.proxy_op(emx, workloads.ProxyGroup(2, 30, 5), [0, 3, 7, 11, 19, 25])
    for op in (tank, proxy):
        status, _ = op.check(op.run(*op.prepare()))
        assert status == "ok", op.label


def test_repeated_cli_ops_match(tmp_path, monkeypatch):
    """The shipped-config ops and some search ops of one cli-audit round,
    run twice in one process: the first pass builds the CLI parser and the
    second reuses it, and both give the same statuses and check blobs, so
    no state leaks from one `main` call into the next."""
    workloads = load_perfbench("workloads")
    monkeypatch.chdir(ROOT)  # the round names the shipped configs by relative path
    ops = workloads.cli_round(emx, 1, 0, str(tmp_path))
    searches = [op for op in ops if op.label.startswith("search ")]
    picked = ops[: len(workloads.SHIPPED)] + searches[::4]
    emx.cli.build_parser.cache_clear()
    runs = [[op.check(op.run(*op.prepare())) for op in picked] for _ in range(2)]
    assert runs[0] == runs[1]
    assert [status for status, _ in runs[0]] == ["ok"] * len(picked)


# Round 0 of each workload on seed 1, as `perfbench/run.py` prints it on
# its `output_digest` line. A change that keeps every output byte-identical
# keeps these.
ROUND0_DIGESTS = {
    "tank-mc": "556fb58f52f288791e6e3f016717831fc979241901c4f56a96b5cc974463a2dc",
    "proxy-chain": "6af814d483922f40f72d2d112cc079b2137e719384aea0f7b13076577b41c321",
    "cli-audit": "69716251527f5e0b5bf055ace56931e3eac31e2e50e1e19e2b4600805790e9c6",
}


@pytest.mark.parametrize("workload", sorted(ROUND0_DIGESTS))
def test_round0_output_digest(workload, tmp_path, monkeypatch):
    """Every op of round 0 passes its check, and the round's outputs hash
    as run.py hashes them: each op's label, a newline, its check output
    and a newline, in op order."""
    workloads = load_perfbench("workloads")
    monkeypatch.chdir(ROOT)  # cli-audit names the shipped configs by relative path
    digest = hashlib.sha256()
    for op in workloads.WORKLOADS[workload](emx, 1, 0, str(tmp_path)):
        status, output = op.check(op.run(*op.prepare()))
        assert status == "ok", op.label
        digest.update(op.label.encode() + b"\n" + output + b"\n")
    assert digest.hexdigest() == ROUND0_DIGESTS[workload]
