"""Command-line interface.

One executable, ``treedensity``, with a subcommand per task:

* ``count`` / ``density``: copies of a pattern inside a host tree.
* ``enumerate``: all d-ary trees with a given leaf count.
* ``limits``: closed-form limiting densities.
* ``search-min``: minimum caterpillar count/density per leaf count.
* ``conjecture``: even-split binary tree vs the exact minimum.
* ``monotone``: minimum density nondecreasing and below its limit.
* ``simplex``: bounds, minimization and majorization checks for the
  simplex functional.
* ``cache``: inspect or clear persisted frontier files.

This module only wires arguments: it builds the trees named by the tree
flags, resolves the cache directory, and passes both to the library function
that builds the subcommand's report (``count_report``, ``limits_report``,
``search_min_report`` and so on). It then renders the report and maps the
outcome to an exit code.

Exit codes: 0 success, 1 a verification found a counterexample or an
internal consistency check failed, 2 invalid input (parse or precondition
failures), 3 refused resource budget, 4 I/O failure. Reports are rendered
deterministically, so rerunning a command with the same arguments produces
byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .counting import count_report
from .errors import (
    BudgetError,
    CacheError,
    ConsistencyError,
    ParseError,
    PreconditionError,
    SingularityError,
    TreeDensityError,
)
from .formulas import limits_report
from .frontier import cache_report
from .reporting import FORMATS, render_report
from .search import (
    DEFAULT_TREE_CAP,
    enumerate_report,
    search_min_report,
    verify_even_conjecture,
    verify_monotone_min,
)
from .simplex import (
    simplex_bound_sample_report,
    simplex_min_report,
    simplex_muirhead_report,
    simplex_sup_report,
)
from .trees import Tree, make_caterpillar, make_complete, make_even_binary, parse_tree

ENV_CACHE_DIR = "TREEDENSITY_CACHE_DIR"


def _int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise PreconditionError(f"{what} expects two comma-separated integers, got {text!r}")


def _add_tree_args(parser: argparse.ArgumentParser, role: str) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{role}", metavar="CODE", help=f"{role} as bracket code")
    group.add_argument(
        f"--{role}-complete", metavar="D,H", help=f"complete d-ary tree as {role}"
    )
    group.add_argument(
        f"--{role}-caterpillar", metavar="R,K", help=f"r-ary caterpillar as {role}"
    )
    group.add_argument(
        f"--{role}-even", metavar="N", type=int, help=f"even-split binary tree as {role}"
    )


def _build_tree(args, role: str) -> Tree:
    key = role.replace("-", "_")
    code = getattr(args, key)
    if code is not None:
        return parse_tree(code)
    spec = getattr(args, f"{key}_complete")
    if spec is not None:
        d, h = _int_pair(spec, f"--{role}-complete")
        return make_complete(d, h)
    spec = getattr(args, f"{key}_caterpillar")
    if spec is not None:
        r, k = _int_pair(spec, f"--{role}-caterpillar")
        return make_caterpillar(r, k)
    n = getattr(args, f"{key}_even")
    if n is None:
        raise PreconditionError(f"no {role} tree given")
    return make_even_binary(n)


def _resolve_cache_dir(args, *, default_to_cwd: bool = False):
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    if default_to_cwd:
        return Path(".treedensity-cache")
    return None


def _emit(report, args) -> None:
    text = render_report(report, args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- argument wiring -------------------------------------------------------


def _count(a):
    pattern, tree = _build_tree(a, "pattern"), _build_tree(a, "tree")
    return count_report(pattern, tree, mode=a.command, brute=a.brute, force=a.force)


def _search_min(a):
    if a.n is not None:
        n_min = n_max = a.n
    elif a.n_max is None:
        raise PreconditionError("provide --n or --n-max")
    else:
        n_min = a.n_min if a.n_min is not None else a.k
        n_max = a.n_max
    return search_min_report(
        a.d, a.k, n_min, n_max, method=a.method, strict=a.strict, max_trees=a.max_trees,
        cache_dir=_resolve_cache_dir(a),
    )


_SIMPLEX_MODES = {
    "min": lambda a: simplex_min_report(a.d, a.k, starts=a.starts, budget=a.budget, seed=a.seed),
    "sup": lambda a: simplex_sup_report(a.d, a.k, a.eps_steps),
    "bound-sample": lambda a: simplex_bound_sample_report(a.d, a.k, samples=a.samples, seed=a.seed),
    "muirhead": lambda a: simplex_muirhead_report(a.d, a.k, samples=a.samples, seed=a.seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedensity",
        description="Exact counting and extremal search for leaf-induced subtree densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *required: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    def finish(p: argparse.ArgumentParser, build) -> None:
        p.add_argument("--output", metavar="PATH", help="write the report to a file")
        p.add_argument("--format", choices=FORMATS, default="pretty")
        p.set_defaults(build=build)

    for name in ("count", "density"):
        p = command(name, f"{name} of a pattern inside a host tree")
        _add_tree_args(p, "pattern")
        _add_tree_args(p, "tree")
        p.add_argument("--brute", action="store_true", help="use the subset-enumeration oracle")
        p.add_argument("--force", action="store_true", help="override the brute-force budget")
        finish(p, _count)

    p = command("enumerate", "all d-ary trees with n leaves", "n", "d")
    p.add_argument("--strict", action="store_true", help="only outdegree exactly d")
    p.add_argument("--max-trees", type=int, default=DEFAULT_TREE_CAP)
    finish(p, lambda a: enumerate_report(a.n, a.d, a.strict, max_trees=a.max_trees))

    p = command("limits", "closed-form limiting caterpillar densities", "d", "k")
    p.add_argument("--r", type=int, default=2, help="caterpillar arity (default binary)")
    finish(p, lambda a: limits_report(a.d, a.k, a.r))

    p = command("search-min", "minimum caterpillar count per leaf count", "d", "k")
    p.add_argument("--n", type=int, help="single leaf count")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--method", choices=("auto", "exhaustive", "pareto"), default="auto")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-trees", type=int, default=DEFAULT_TREE_CAP)
    p.add_argument("--cache-dir")
    p.add_argument(
        "--general-d", action="store_true", help="accepted and ignored: pareto runs for every d"
    )
    finish(p, _search_min)

    p = command("conjecture", "even-split tree vs exact minimum count", "k", "n-max")
    p.add_argument("--cache-dir")
    finish(p, lambda a: verify_even_conjecture(a.k, a.n_max, cache_dir=_resolve_cache_dir(a)))

    p = command("monotone", "minimum density nondecreasing and bounded", "d", "k", "n-max")
    p.add_argument("--method", choices=("auto", "exhaustive", "pareto"), default="auto")
    p.add_argument("--max-trees", type=int, default=DEFAULT_TREE_CAP)
    p.add_argument("--cache-dir")
    finish(p, lambda a: verify_monotone_min(
        a.d, a.k, a.n_max, method=a.method, max_trees=a.max_trees, cache_dir=_resolve_cache_dir(a)
    ))

    p = command("simplex", "simplex functional: bounds, minimum, majorization", "d", "k")
    p.add_argument("--mode", choices=tuple(_SIMPLEX_MODES), default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--eps-steps", type=int, default=20)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--budget", type=int, default=100_000)
    finish(p, lambda a: _SIMPLEX_MODES[a.mode](a))

    p = command("cache", "inspect or clear persisted frontier files")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--clear", action="store_true")
    finish(p, lambda a: cache_report(_resolve_cache_dir(a, default_to_cwd=True), clear=a.clear))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.build(args)
        _emit(report, args)
        return 1 if report.all_ok is False else 0
    except (ParseError, PreconditionError, SingularityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 3
    except ConsistencyError as err:
        print(f"error: consistency check failed: {err}", file=sys.stderr)
        return 1
    except (OSError, CacheError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except TreeDensityError as err:  # safety net for future subclasses
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
