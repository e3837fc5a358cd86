"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import treedensity
from treedensity import (
    brute_copy_profile,
    caterpillar_counts,
    count_copies,
    count_copies_brute,
    count_trees,
    enumerate_trees,
    make_caterpillar,
    make_complete,
    parse_tree,
    search_min_report,
)


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


# Self-calling functions the package keeps, each with what bounds its depth:
# none, so no input can exhaust the interpreter's stack.
BOUNDED_RECURSION: dict[str, str] = {}


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
    # a tree as deep or as wide as the interpreter's recursion limit must
    # not crash a count, so no function calls itself
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


def test_only_the_tree_module_constructs_trees():
    # Tree() stores the children and code it is given unchecked, so only the
    # builders in trees.py, which sort the children first, may call it
    root = Path(treedensity.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "trees.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and "Tree" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def _module_state():
    """Size of every module-level dict, list and set in the package."""
    modules = [treedensity] + [
        importlib.import_module(f"treedensity.{info.name}")
        for info in pkgutil.iter_modules(treedensity.__path__)
    ]
    return {
        f"{module.__name__}.{name}": len(value)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_library_calls_leave_no_module_state():
    # every memo belongs to a call or to an object its caller holds; the
    # arguments (d = 7) are ones no other test uses, so no memo is warm yet
    before = _module_state()
    assert count_trees(16, 7) > 0
    assert len(list(enumerate_trees(9, 7))) == count_trees(9, 7)
    search_min_report(7, 4, 4, 9, method="exhaustive")
    search_min_report(7, 4, 4, 14, method="pareto")
    host = make_complete(7, 2)
    assert count_copies(make_caterpillar(7, 13), host) > 0
    assert caterpillar_counts(host, 3)[3] > 0
    # the parser's intern dict and the oracle's range table belong to a call
    small = parse_tree("((*******)(*(**)(**))(****(***)))")
    assert small.leaf_count == 19
    star = make_caterpillar(7, 7)
    assert count_copies_brute(star, small) == count_copies(star, small) == 1
    assert sum(brute_copy_profile(small, 4).values()) == 3876
    assert _module_state() == before
