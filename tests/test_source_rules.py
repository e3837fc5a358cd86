"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import treedensity
from treedensity import errors
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
    # neither constructs one nor needs the modules that do report arithmetic;
    # and the library decides what it refuses, so the command line raises
    # none of the package's errors (argparse reports a malformed argument)
    path = Path(treedensity.__file__).parent / "cli.py"
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    builds = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Call)
        and "SearchReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    raises = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Raise)
        and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
        & set(errors.__all__)
    ]
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    assert builds == []
    assert raises == []
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


def test_only_the_real_mode_module_imports_mpmath():
    # the exact commands start without mpmath, which takes about 30 ms to
    # import, so every real-valued computation lives behind _realmode.py
    root = Path(treedensity.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.add(path.name)
    assert found == {"_realmode.py"}


def _imported_modules(node) -> list[str]:
    """The dotted names an import statement loads, relative ones with their
    leading dots; ``from . import x`` loads ``.x``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] if node.module else [base + a.name for a in node.names]
    return []


def test_the_real_mode_module_is_a_leaf_that_only_minimize_F_loads():
    # every simplex input is read exactly, so mpmath serves the minimizer
    # alone: _realmode.py imports nothing from the package, and only
    # simplex.minimize_F imports it
    root = Path(treedensity.__file__).parent
    leaf = ast.parse((root / "_realmode.py").read_text(encoding="utf-8"))
    from_package = [
        name for node in ast.walk(leaf) for name in _imported_modules(node)
        if name.startswith(".") or name.split(".")[0] == "treedensity"
    ]
    assert from_package == []
    loaders = {
        getattr(top, "name", "<module>")
        for top in ast.parse((root / "simplex.py").read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if any(name.split(".")[-1] == "_realmode" for name in _imported_modules(node))
    }
    assert loaders == {"minimize_F"}


def _package_modules():
    return [treedensity] + [
        importlib.import_module(f"treedensity.{info.name}")
        for info in pkgutil.iter_modules(treedensity.__path__)
    ]


def test_every_exported_name_resolves():
    # a deletion that leaves a stale export fails here, not only at import *
    stale = [
        f"{module.__name__}.{name}"
        for module in _package_modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def _referenced(node) -> set[str]:
    """Every bare name and attribute name that ``node`` mentions."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_top_level_definition_is_reached():
    # code that only tests call is dead weight: from the exported names, the
    # module-level statements (tables such as cli._COMMANDS), cli.main and the
    # module-level __getattr__ hook that the interpreter calls (PEP 562),
    # follow the names each reached definition mentions; every top-level def
    # and class must be met. Names are matched across modules, so a shared
    # name can only hide an unreached definition, never flag a reached one.
    root = Path(treedensity.__file__).parent
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    todo = ["main", "__getattr__"] + [
        n for m in _package_modules() for n in getattr(m, "__all__", ())
    ]
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
            else:
                todo.extend(_referenced(node))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                todo.extend(_referenced(node))
    unreached = [q for name, found in defs.items() if name not in reached for q, _ in found]
    assert sorted(unreached) == []


# The package's public names. A name joins or leaves this list only on purpose.
PUBLIC_NAMES = [
    "BudgetError", "ConsistencyError", "CopyEngine", "MinimizeResult",
    "ParetoDP", "ParseError", "PreconditionError", "SearchReport", "Tree", "TreeDensityError",
    "__version__", "bk_coefficient", "bk_lower_bound", "bound_certificate",
    "brute_copy_profile",
    "caterpillar_copies_complete", "caterpillar_counts",
    "combine_caterpillar_counts", "count_copies", "count_copies_brute", "count_report",
    "count_trees", "density", "enumerate_report", "enumerate_trees", "eval_F",
    "induced_subtree", "is_d_ary", "is_strictly_d_ary", "leaf", "liminf_density",
    "limit_density_complete", "limits_report", "majorization_pair", "make_caterpillar",
    "make_complete", "make_even_binary", "minimize_F", "muirhead_check", "node",
    "parse_tree", "read_tree", "render_report", "search_min_report",
    "simplex_bound_sample_report", "simplex_certify_report", "simplex_min_report",
    "simplex_muirhead_report",
    "simplex_point", "simplex_sup_report",
    "star_copies", "sup_boundary_scan", "uniform_min_value", "verify_even_conjecture",
    "verify_monotone_min",
]


def test_the_public_names_are_pinned():
    assert sorted(treedensity.__all__) == PUBLIC_NAMES


# Every defaulted parameter of a public callable (functions, and each class's
# __init__ and public methods), with its default. An option joins or leaves
# this list only on purpose.
PUBLIC_OPTIONS = [
    "ParetoDP.__init__(d=2)",
    "SearchReport.__init__(all_ok=None)",
    "count_report(mode='count', brute=False)",
    "count_trees(strict=False)",
    "enumerate_report(strict=False, max_trees=1000000)",
    "enumerate_trees(strict=False, max_trees=1000000)",
    "limits_report(r=2)",
    "minimize_F(starts=8, budget=100000, seed=0)",
    "search_min_report(method='auto', strict=False, max_trees=1000000)",
    "simplex_bound_sample_report(samples=1000, seed=0)",
    "simplex_muirhead_report(samples=1000, seed=0)",
    "simplex_sup_report(eps_steps=20)",
    "verify_monotone_min(method='auto', max_trees=1000000)",
]


def _public_callables():
    for name in treedensity.__all__:
        obj = getattr(treedensity, name)
        if inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", fn
        elif callable(obj):
            yield name, obj


def test_the_options_are_pinned():
    found = []
    for name, fn in _public_callables():
        options = [
            f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty
        ]
        if options:
            found.append(f"{name}({', '.join(options)})")
    assert sorted(found) == PUBLIC_OPTIONS


def test_each_public_name_is_listed_once():
    # the package exports exactly its modules' __all__ lists, in order: its
    # own table of where each name lives must list them name for name
    modules = [m for m in _package_modules()[1:] if hasattr(m, "__all__")]
    listed = [name for module in modules for name in module.__all__]
    assert treedensity.__all__ == listed + ["__version__"]
    assert len(set(listed)) == len(listed)


def test_every_cap_has_a_row_in_the_readme_budgets_table():
    # a merged or deleted cap must not leave stale docs: the module-level
    # *_CAP names of the package are exactly the rows of README's table
    root = Path(treedensity.__file__).parent
    caps = [
        f"{path.stem}.{target.id}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \|", table, re.MULTILINE)
    assert sorted(rows) == sorted(caps)


def _module_state():
    """Size of every module-level dict, list and set in the package."""
    return {
        f"{module.__name__}.{name}": len(value)
        for module in _package_modules()
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
    assert caterpillar_counts(host, 3)[-1] > 0
    # the parser's intern dict and the oracle's range table belong to a call
    small = parse_tree("((*******)(*(**)(**))(****(***)))")
    assert small.leaf_count == 19
    star = make_caterpillar(7, 7)
    assert count_copies_brute(star, small) == count_copies(star, small) == 1
    assert sum(brute_copy_profile(small, 4).values()) == 3876
    assert _module_state() == before
