"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import emx


def test_no_assert_statements():
    """Invariants are explicit checks, because `python -O` strips every
    assert statement."""
    root = Path(emx.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
