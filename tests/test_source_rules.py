"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import emx

ROOT = Path(emx.__file__).resolve().parent


def package_trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements():
    """Invariants are explicit checks, because `python -O` strips every
    assert statement."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of a module that use `functools.cache`, or `lru_cache` without
    a maxsize that is a positive integer literal, a module-level name
    bound to one, or a `max` of such sizes and their floor quotients
    (`max(1, SIZE // n)`) with at least one size among its arguments."""
    sizes = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def finite(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "max":
            # at least one size, and no argument above the largest size
            return any(map(finite, expr.args)) and all(
                finite(arg) or quotient(arg) for arg in expr.args
            )
        if isinstance(expr, ast.Name):
            value = sizes.get(expr.id)
        else:
            value = expr.value if isinstance(expr, ast.Constant) else None
        return type(value) is int and value > 0

    def quotient(expr: ast.expr) -> bool:
        return isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.FloorDiv) \
            and finite(expr.left)

    # the functools name behind each imported name, and the names functools
    # itself is imported under
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for maxsize in ([k.value for k in node.keywords if k.arg == "maxsize"] + node.args)[:1]
        if finite(maxsize)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = imported.get(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            name = node.attr
        else:
            continue
        if name == "cache" or (name == "lru_cache" and id(node) not in bounded):
            found.append(node.lineno)
    return sorted(found)


def test_every_cache_has_a_bound():
    """Caches have bounds: no `functools.cache`, and every `lru_cache`
    states a finite maxsize."""
    found = [
        f"{name}:{line}" for name, tree in package_trees() for line in unbounded_caches(tree)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from functools import lru_cache\nSIZE = 8\n@lru_cache(maxsize=SIZE)\ndef f(x): ...", []),
        ("import functools\n@functools.lru_cache(16)\ndef f(x): ...", []),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): ...", [2]),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): ...", [2]),
        ("from functools import lru_cache\n@lru_cache(typed=True)\ndef f(x): ...", [2]),
        ("from functools import lru_cache\nSIZE = None\n@lru_cache(SIZE)\ndef f(x): ...", [3]),
        ("from functools import cache\n@cache\ndef f(x): ...", [2]),
        ("import functools as ft\n@ft.cache\ndef f(x): ...", [2]),
        ("from functools import lru_cache as memo\n@memo(maxsize=0)\ndef f(x): ...", [2]),
        ("cache = {}\ncache[1] = 2", []),
        ("from functools import lru_cache\nN = 8\n@lru_cache(max(1, N // n))\ndef f(x): ...", []),
        ("from functools import lru_cache\nN = 8\n@lru_cache(N // n)\ndef f(x): ...", [3]),
        ("from functools import lru_cache\n@lru_cache(max(1, n))\ndef f(x): ...", [2]),
        ("from functools import lru_cache\n@lru_cache(max(1, n // 2))\ndef f(x): ...", [2]),
        ("from functools import lru_cache\nN = 8\n@lru_cache(max(N // n))\ndef f(x): ...", [3]),
    ],
)
def test_unbounded_cache_rule(source, lines):
    assert unbounded_caches(ast.parse(source)) == lines


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never reads, leaving
    out `from __future__` imports, names listed in `__all__` and imports on
    a line marked `noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for item in getattr(node.value, "elts", [])
        if isinstance(item, ast.Constant)
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                found.append((node.lineno, name))
    return sorted(found)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("import os\n", [(1, "os")]),
        ("import os\nos.getcwd()", []),
        ("from __future__ import annotations\n", []),
        ("from .core import A, B\nA()", [(1, "B")]),
        ("from .core import (\n    A,\n    B,\n)\nB()", [(1, "A")]),
        ("from x import y  # noqa: F401  re-exported\n", []),
        ("from x import y\n__all__ = ['y']", []),
        ("import a.b\na.b.c()", []),
        ("from x import y as z\ny()", [(1, "z")]),
        ("from x import y\ny = 1", [(1, "y")]),
        ("import typing\ndef f() -> typing.Any: ...", []),
        ("def f():\n    import json\n    return 1", [(2, "json")]),
    ],
)
def test_unused_import_rule(source, found):
    assert unused_imports(source) == found


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Exported for readers of the library rather than for its own code:
# `apply_learner` defines the learner's hypothesis, which the tests check
# `evaluate_grid` against.
EXPORT_KEEP = {"apply_learner"}


def referenced_names(tree: ast.Module, strings: bool = False) -> set[str]:
    """Names a module reads, as a name or an attribute, outside the def or
    class that binds them; with strings, also the string constants, as the
    tracer names the functions it wraps."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_is_used():
    """Each name in `emx.__all__` is used by the package's own code or by
    the benchmark; a name only the tests read is not exported."""
    used = set(EXPORT_KEEP)
    for _, tree in package_trees():
        used |= referenced_names(tree)
    for name in ("workloads.py", "tracer.py"):
        source = (PERFBENCH / name).read_text(encoding="utf-8")
        used |= referenced_names(ast.parse(source), strings=True)
    assert sorted(set(emx.__all__) - used) == []


@pytest.mark.parametrize(
    "source, strings, found",
    [
        ("def f(n):\n    return f(n - 1)", False, {"n"}),
        ("def f(): ...\ng = f", False, {"f"}),
        ("class A:\n    def b(self) -> 'A': return A()\nlib.c", False, {"lib", "c"}),
        ("SITES = [('emx.cli', 'main')]", True, {"emx.cli", "main"}),
        ("SITES = [('emx.cli', 'main')]", False, set()),
    ],
)
def test_referenced_names_rule(source, strings, found):
    assert referenced_names(ast.parse(source), strings) == found


def config_checks(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of what a module does that is emx.config's to decide:
    each `ConfigError(...)` it constructs, each `*_LIMIT` name it imports or
    reads from another module, and each `comb` or `combinations` it reads
    outside `cmd_search`, whose guard reads argv rather than a config."""
    found = []

    def name_of(node: ast.AST) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def visit(node: ast.AST, in_search: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            in_search = in_search or node.name == "cmd_search"
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, a.name) for a in node.names if a.name.endswith("_LIMIT"))
        name = name_of(node)
        if isinstance(node, ast.Attribute) and name.endswith("_LIMIT") or (
            name in ("comb", "combinations") and not in_search
        ):
            found.append((node.lineno, name))
        if isinstance(node, ast.Call) and name_of(node.func) == "ConfigError":
            found.append((node.lineno, "ConfigError"))
        for child in ast.iter_child_nodes(node):
            visit(child, in_search)

    visit(tree, False)
    return sorted(found)


def test_cli_checks_no_config():
    """Every rule about what a config may ask for lives in emx.config:
    emx.cli loads, builds, runs, writes and maps errors to exit codes."""
    assert config_checks(ast.parse((ROOT / "cli.py").read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("raise ConfigError('x')", [(1, "ConfigError")]),
        ("raise config.ConfigError('x')", [(1, "ConfigError")]),
        ("EXIT = ((ConfigError, 2),)\nisinstance(err, ConfigError)", []),
        ("from .config import COUNTABLE_POOL_LIMIT, load_config", [(1, "COUNTABLE_POOL_LIMIT")]),
        ("import emx.config\nemx.config.DOMAIN_SIZE_LIMIT", [(2, "DOMAIN_SIZE_LIMIT")]),
        ("SEARCH_SUBSET_LIMIT = 2_000\nn > SEARCH_SUBSET_LIMIT", []),
        ("from math import comb\ndef cmd_search(args):\n    return comb(5, 2)", []),
        ("def cmd_descend(args):\n    return comb(5, 2)", [(2, "comb")]),
        ("def f():\n    return list(itertools.combinations(x, 2))", [(2, "combinations")]),
    ],
)
def test_config_check_rule(source, found):
    assert config_checks(ast.parse(source)) == found


LEARNER_CALLS = ("compress_kernel", "decompress_chain", "captured_weight")


def learner_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each call to compress_kernel, decompress_chain or
    captured_weight outside `apply_learner` and `learned_weights`, the two
    places that map a sample to its hypothesis or its captured weight."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            inside = inside or node.name in ("apply_learner", "learned_weights")
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in LEARNER_CALLS:
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return sorted(found)


def test_one_learned_weight_function():
    """emx.evaluation learns a sample and measures its hypothesis only in
    `learned_weights`, besides the unmemoized `apply_learner`."""
    source = (ROOT / "evaluation.py").read_text(encoding="utf-8")
    assert learner_calls(ast.parse(source)) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def learned_weights(l, d):\n    return d.captured_weight(s)", []),
        ("def apply_learner(l, s):\n    return compress_kernel(s, l.scheme, {})", []),
        ("def learned_weights(l, d):\n    def weight(s):\n        decompress_chain(k)", []),
        ("def evaluate_grid():\n    w = dist.captured_weight(s)", [(2, "captured_weight")]),
        ("def f():\n    return compress_kernel(s, scheme, memo)", [(2, "compress_kernel")]),
        ("x = chains.decompress_chain(k, scheme, 1)", [(1, "decompress_chain")]),
        ("from .chains import decompress_chain\ng = decompress_chain", []),
    ],
)
def test_learner_call_rule(source, found):
    assert learner_calls(ast.parse(source)) == found


RANDOM_MODULES = ("random", "_random", "bisect")
DRAW_NAMES = ("Random", "getrandbits", "randrange", "bisect_right", "_bounds", "_sampler")


def sampler_access(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each import of random, _random or bisect, and each
    read of a generator, its draw methods, a CDF search, or the
    distribution's CDF and sampler table: what a second sampler would
    need."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names if a.name in RANDOM_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in RANDOM_MODULES:
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Name) and node.id in DRAW_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in DRAW_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_one_sampler():
    """emx.evaluation draws only through draw_sample, and only emx.core
    imports the C generator, whose stream equals random.Random's for int
    seeds alone."""
    trees = dict(package_trees())
    assert sampler_access(trees[Path("evaluation.py")]) == []
    importers = {
        str(name) for name, tree in trees.items() if any(
            found == "_random" for _, found in sampler_access(tree))
    }
    assert importers == {"core.py"}


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .core import draw_sample\ndraws = draw_sample(dist, m, seed)", []),
        ("import random\nrng = random.Random(seed)", [(1, "random"), (2, "Random")]),
        ("from _random import Random", [(1, "_random")]),
        ("import _random as fast", [(1, "_random")]),
        ("from random import getrandbits", [(1, "random")]),
        ("r = rng.getrandbits(k)", [(1, "getrandbits")]),
        ("i = bisect_right(dist._bounds, r)", [(1, "_bounds"), (1, "bisect_right")]),
        ("support, bounds, guide, *_ = dist._sampler", [(1, "_sampler")]),
        ("import bisect, json", [(1, "bisect")]),
        ("from .seeds import split_seed\nsplit_seed(seed, index)", []),
    ],
)
def test_sampler_access_rule(source, found):
    assert sampler_access(ast.parse(source)) == found
