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


# Self-calling functions the package keeps, each with what bounds its depth.
BOUNDED_RECURSION = {
    "frontier._partitions_into_parts.rec": "one level per part, at most d",
    "simplex.exponent_compositions.rec": "one level per coordinate, at most d",
    "counting._distinct_sequences.rec": "one level per root branch of the pattern",
    "search._tree_level": "sizes whose tree count is under max_trees",
}


def _self_calls(body, prefix: str, in_class: bool):
    """Qualified names of the functions in ``body`` that call themselves,
    by bare name or, for a method, through ``self``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _self_calls(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name and not in_class) or (
                    isinstance(f, ast.Attribute) and f.attr == node.name and in_class
                    and isinstance(f.value, ast.Name) and f.value.id == "self"
                ):
                    yield f"{prefix}{node.name}"
                    break
            yield from _self_calls(node.body, f"{prefix}{node.name}.", False)


def test_no_recursion_over_input_size_in_the_package():
    # a tree as deep as the interpreter's recursion limit must not crash a
    # count, so only recursions with a small bound on their depth remain
    root = Path(treedensity.__file__).parent
    found = {
        call
        for path in sorted(root.rglob("*.py"))
        for call in _self_calls(
            ast.parse(path.read_text(encoding="utf-8"), str(path)).body, f"{path.stem}.", False
        )
    }
    assert found == set(BOUNDED_RECURSION)


def test_cli_only_wires_arguments():
    # every report is built by a library function, so the command line
    # neither constructs one nor needs the modules that do report arithmetic
    path = Path(treedensity.__file__).parent / "cli.py"
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    builds = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Call)
        and "SearchReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    assert builds == []
    assert imported & {"fractions", "math", "random", "time"} == set()
