"""The benchmark in `perfbench/` reaches into emx by name: its tracer
wraps module attributes and its workloads call `lib.<name>` on the
imported package. Renaming or deleting one of those names breaks the
benchmark, not the library's own tests, so these checks pin them."""

import ast
import importlib
import importlib.util
from pathlib import Path

import emx
import emx.cli  # noqa: F401  (the workloads call lib.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_site():
    tracer = load_tracer()
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
