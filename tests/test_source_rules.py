"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import treedensity


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rely on one
    root = Path(treedensity.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
