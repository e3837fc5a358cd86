"""Command-line interface.

One executable, ``treedensity``, with a subcommand per task:

* ``count`` / ``density``: copies of a pattern inside a host tree.
* ``enumerate``: all d-ary trees with a given leaf count.
* ``limits``: closed-form limiting densities.
* ``search-min``: minimum caterpillar count/density per leaf count.
* ``conjecture``: even-split binary tree vs the exact minimum.
* ``monotone``: minimum density nondecreasing and below its limit.
* ``simplex``: bounds, the exact minimum, its certificate and
  majorization checks for the simplex functional.

This module only wires arguments: it builds the trees named by the tree
flags and passes them and the other arguments to the library function that
builds the subcommand's report (``count_report``, ``limits_report``,
``search_min_report`` and so on). It then renders the report and maps the
outcome to an exit code.

``main`` builds the parser on its first call, and every later call in the
process reuses it. No flag is read by a prefix of its name.

Importing this module loads only ``treedensity.errors`` from the package: a
library module loads when one of its names is first used, so the parser loads
``reporting`` and each command, when it runs, the modules its report needs.

Exit codes: 0 success, 1 a verification found a counterexample or an
internal consistency check failed (ConsistencyError), 2 invalid input
(an argparse usage error, such as a malformed D,H or R,K spec, or
PreconditionError, ParseError among them), 3 refused resource budget
(BudgetError; no flag switches one off), 4 I/O failure (an unreadable tree
file or unwritable output).
Reports are rendered deterministically, so rerunning a command with the same
arguments produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import _load
from .errors import BudgetError, ConsistencyError, PreconditionError


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects two comma-separated integers, got {text!r}")


# The forms of a tree flag: (suffix, metavar, help, argparse type, builder).
# A builder takes the trees module and the parsed value (a simplex mode takes
# the simplex module): modules load when a command runs, so it loads only
# those it needs, and a replaced module attribute is the one called.
_TREE_FLAGS = (
    ("", "CODE", "{} as bracket code", str, lambda t, code: t.parse_tree(code)),
    ("-complete", "D,H", "complete d-ary tree as {}", _int_pair,
     lambda t, dh: t.make_complete(*dh)),
    ("-caterpillar", "R,K", "r-ary caterpillar as {}", _int_pair,
     lambda t, rk: t.make_caterpillar(*rk)),
    ("-even", "N", "even-split binary tree as {}", int, lambda t, n: t.make_even_binary(n)),
    ("-file", "PATH", "{} as bracket code in a file (- for stdin)", str,
     lambda t, path: t.read_tree(path)),
)


def _add_tree_args(parser: argparse.ArgumentParser, role: str) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for suffix, metavar, text, kind, _build in _TREE_FLAGS:
        group.add_argument(f"--{role}{suffix}", metavar=metavar, type=kind, help=text.format(role))


def _build_tree(args, role: str):
    # the group is required, so argparse has set exactly one of the flags
    for suffix, _metavar, _text, _kind, build in _TREE_FLAGS:
        value = getattr(args, f"{role}{suffix}".replace("-", "_"))
        if value is not None:
            return build(_load("trees"), value)


def _emit(report, args) -> None:
    text = _load("reporting").render_report(report, args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- argument wiring -------------------------------------------------------


def _count(a):
    pattern, tree = _build_tree(a, "pattern"), _build_tree(a, "tree")
    return _load("counting").count_report(pattern, tree, mode=a.command, brute=a.brute)


_SIMPLEX_MODES = {
    "min": lambda s, a: s.simplex_min_report(a.d, a.k),
    "sup": lambda s, a: s.simplex_sup_report(a.d, a.k, a.eps_steps),
    "bound-sample": lambda s, a: s.simplex_bound_sample_report(a.d, a.k, samples=a.samples,
                                                               seed=a.seed),
    "muirhead": lambda s, a: s.simplex_muirhead_report(a.d, a.k, samples=a.samples, seed=a.seed),
    "certify": lambda s, a: s.simplex_certify_report(a.d, a.k),
}

_METHODS = ("auto", "exhaustive", "pareto")


def _cap(a) -> dict:
    # --max-trees passes through only when given, so the library's own
    # default applies otherwise and no parser needs the search module
    return {} if a.max_trees is None else {"max_trees": a.max_trees}


def _count_args(p):
    _add_tree_args(p, "pattern")
    _add_tree_args(p, "tree")
    p.add_argument("--brute", action="store_true", help="use the subset-enumeration oracle")


def _enumerate_args(p):
    p.add_argument("--strict", action="store_true", help="only outdegree exactly d")
    p.add_argument("--max-trees", type=int)


def _search_min_args(p):
    p.add_argument("--n-min", type=int, help="smallest leaf count (default k)")
    p.add_argument("--method", choices=_METHODS, default="auto")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-trees", type=int)
    p.add_argument(
        "--general-d", action="store_true", help="accepted and ignored: pareto runs for every d"
    )


def _monotone_args(p):
    p.add_argument("--method", choices=_METHODS, default="auto")
    p.add_argument("--max-trees", type=int)


def _simplex_args(p):
    p.add_argument("--mode", choices=tuple(_SIMPLEX_MODES), default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--eps-steps", type=int, default=20)
    p.add_argument("--starts", type=int, help="accepted and ignored: min is exact")
    p.add_argument("--budget", type=int, help="accepted and ignored: min is exact")


# name -> (help line, required integer flags, other arguments, report builder),
# in the order the top-level help lists them
_COMMANDS = {
    "count": ("count of a pattern inside a host tree", (), _count_args, _count),
    "density": ("density of a pattern inside a host tree", (), _count_args, _count),
    "enumerate": (
        "all d-ary trees with n leaves", ("n", "d"), _enumerate_args,
        lambda a: _load("search").enumerate_report(a.n, a.d, a.strict, **_cap(a)),
    ),
    "limits": (
        "closed-form limiting caterpillar densities", ("d", "k"),
        lambda p: p.add_argument(
            "--r", type=int, default=2, help="caterpillar arity (default binary)"
        ),
        lambda a: _load("formulas").limits_report(a.d, a.k, a.r),
    ),
    "search-min": (
        "minimum caterpillar count per leaf count", ("d", "k", "n-max"), _search_min_args,
        lambda a: _load("search").search_min_report(
            a.d, a.k, a.k if a.n_min is None else a.n_min, a.n_max,
            method=a.method, strict=a.strict, **_cap(a),
        ),
    ),
    "conjecture": (
        "even-split tree vs exact minimum count", ("k", "n-max"),
        lambda p: None,
        lambda a: _load("search").verify_even_conjecture(a.k, a.n_max),
    ),
    "monotone": (
        "minimum density nondecreasing and bounded", ("d", "k", "n-max"), _monotone_args,
        lambda a: _load("search").verify_monotone_min(
            a.d, a.k, a.n_max, method=a.method, **_cap(a)
        ),
    ),
    "simplex": (
        "simplex functional: bounds, minimum, majorization", ("d", "k"), _simplex_args,
        lambda a: _SIMPLEX_MODES[a.mode](_load("simplex"), a),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``treedensity`` parser, with every subcommand, built on first use."""
    parser = argparse.ArgumentParser(
        prog="treedensity",
        description="Exact counting and extremal search for leaf-induced subtree densities.",
        allow_abbrev=False,
    )
    formats = _load("reporting").FORMATS
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, required, add_args, build) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        add_args(p)
        p.add_argument("--output", metavar="PATH", help="write the report to a file")
        p.add_argument("--format", choices=formats, default="pretty")
        p.set_defaults(build=build)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.build(args)
        _emit(report, args)
        return 1 if report.all_ok is False else 0
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 3
    except ConsistencyError as err:
        print(f"error: consistency check failed: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
