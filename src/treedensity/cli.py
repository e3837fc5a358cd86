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

Exit codes: 0 success, 1 a verification found a counterexample or an
internal consistency check failed, 2 invalid input (parse or precondition
failures), 3 refused resource budget, 4 I/O failure. Reports are rendered
deterministically, so rerunning a command with the same arguments produces
byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from . import search as search_mod
from . import simplex as simplex_mod
from .counting import count_copies, count_copies_brute
from .errors import (
    BudgetError,
    CacheError,
    ConsistencyError,
    ParseError,
    PreconditionError,
    SingularityError,
    TreeDensityError,
)
from .formulas import liminf_density, limit_density_complete
from .reporting import FORMATS, SearchReport, decimal_str, render_report
from .trees import (
    Tree,
    make_caterpillar,
    make_complete,
    make_even_binary,
    parse_tree,
)

ENV_CACHE_DIR = "TREEDENSITY_CACHE_DIR"
_TREE_KINDS = ("", "complete", "caterpillar", "even")


def _int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise PreconditionError(f"{what} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise PreconditionError(
            f"{what} expects two comma-separated integers, got {text!r}"
        ) from None


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


def _emit(report: SearchReport, args) -> None:
    text = render_report(report, args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- subcommand implementations ------------------------------------------------


def _cmd_count(args) -> int:
    pattern = _build_tree(args, "pattern")
    tree = _build_tree(args, "tree")
    start = time.perf_counter()
    if args.brute:
        c = count_copies_brute(pattern, tree, force=args.force)
    else:
        c = count_copies(pattern, tree)
    k, n = pattern.leaf_count, tree.leaf_count
    if args.command == "density" and n < k:
        raise PreconditionError(f"density needs a host with at least {k} leaves, got {n}")
    if n >= k:
        dens = Fraction(c, comb(n, k))
        num, den, dec = dens.numerator, dens.denominator, decimal_str(dens)
    else:
        num, den, dec = "", "", ""
    report = SearchReport(
        mode=args.command,
        params={
            "pattern": pattern.code,
            "tree_leaves": n,
            "method": "brute" if args.brute else "recursion",
        },
        columns=(
            "pattern_code",
            "tree_code",
            "pattern_leaves",
            "tree_leaves",
            "count",
            "density_num",
            "density_den",
            "density_decimal",
        ),
        rows=[(pattern.code, tree.code, k, n, c, num, den, dec)],
        wall_time=time.perf_counter() - start,
    )
    _emit(report, args)
    return 0


def _cmd_enumerate(args) -> int:
    start = time.perf_counter()
    rows = [
        (i, t.code)
        for i, t in enumerate(
            search_mod.enumerate_trees(args.n, args.d, args.strict, max_trees=args.max_trees)
        )
    ]
    report = SearchReport(
        mode="enumerate",
        params={"n": args.n, "d": args.d, "strict": args.strict},
        columns=("index", "code"),
        rows=rows,
        wall_time=time.perf_counter() - start,
    )
    _emit(report, args)
    return 0


def _cmd_limits(args) -> int:
    start = time.perf_counter()
    r = args.r
    value = limit_density_complete(r, args.k, args.d)
    if r == 2:
        liminf = liminf_density(args.d, args.k)
        if value != liminf:
            raise ConsistencyError(
                f"limit density for d={args.d}, k={args.k}: complete-tree limit {value}, "
                f"liminf formula {liminf}"
            )
    report = SearchReport(
        mode="limits",
        params={"d": args.d, "k": args.k, "r": r},
        columns=("d", "k", "r", "exact", "decimal"),
        rows=[(args.d, args.k, r, value, decimal_str(value))],
        wall_time=time.perf_counter() - start,
    )
    _emit(report, args)
    return 0


def _cmd_search_min(args) -> int:
    if args.n is not None:
        n_min = n_max = args.n
    else:
        if args.n_max is None:
            raise PreconditionError("provide --n or --n-max")
        n_min = args.n_min if args.n_min is not None else args.k
        n_max = args.n_max
    report = search_mod.search_min_report(
        args.d,
        args.k,
        n_min,
        n_max,
        method=args.method,
        strict=args.strict,
        max_trees=args.max_trees,
        cache_dir=_resolve_cache_dir(args),
        allow_general_d=args.general_d,
    )
    _emit(report, args)
    return 0


def _cmd_conjecture(args) -> int:
    report = search_mod.verify_even_conjecture(
        args.k, args.n_max, cache_dir=_resolve_cache_dir(args)
    )
    _emit(report, args)
    return 0 if report.all_ok else 1


def _cmd_monotone(args) -> int:
    report = search_mod.verify_monotone_min(
        args.d,
        args.k,
        args.n_max,
        method=args.method,
        max_trees=args.max_trees,
        cache_dir=_resolve_cache_dir(args),
    )
    _emit(report, args)
    return 0 if report.all_ok else 1


def _random_majorization_pair(rng: random.Random, d: int, k: int):
    while True:
        cuts = sorted(rng.randint(0, k) for _ in range(d - 1))
        parts = []
        prev = 0
        for c in cuts + [k]:
            parts.append(c - prev)
            prev = c
        b = tuple(sorted(parts, reverse=True))
        if b[0] < k:
            break
    a = list(b)
    for _ in range(rng.randint(0, 3)):
        donors = [i for i in range(d) if a[i] >= 1 and any(a[j] >= a[i] for j in range(i))]
        if not donors:
            break
        j = rng.choice(donors)
        receivers = [i for i in range(j) if a[i] >= a[j]]
        i = rng.choice(receivers)
        a[i] += 1
        a[j] -= 1
        a.sort(reverse=True)
    return simplex_mod.majorization_pair(a, b)


def _require_positive(value: int, flag: str) -> None:
    # a verdict over zero checks would pass vacuously
    if value < 1:
        raise PreconditionError(f"{flag} must be >= 1, got {value}")


def _cmd_simplex(args) -> int:
    start = time.perf_counter()
    d, k = args.d, args.k
    if args.mode in ("sup", "bound-sample") and k < 3:
        # F is identically 1 at k = 2, so the 1/k bounds do not apply
        raise PreconditionError(f"--mode {args.mode} needs k >= 3, got k={k}")
    if args.mode == "sup":
        _require_positive(args.eps_steps, "--eps-steps")
    elif args.mode in ("bound-sample", "muirhead"):
        _require_positive(args.samples, "--samples")
    if args.mode == "min":
        result = simplex_mod.minimize_F(
            d, k, starts=args.starts, budget=args.budget, seed=args.seed
        )
        point = ";".join(decimal_str(float(c)) for c in result.point.coords)
        report = SearchReport(
            mode="simplex-min",
            params={"d": d, "k": k, "seed": args.seed, "starts": args.starts},
            columns=("d", "k", "point", "value", "stationarity", "converged"),
            rows=[
                (
                    d,
                    k,
                    point,
                    decimal_str(float(result.value)),
                    f"{float(result.stationarity):.3e}",
                    result.converged,
                )
            ],
            all_ok=result.converged,
            wall_time=time.perf_counter() - start,
        )
    elif args.mode == "sup":
        schedule = [Fraction(1, 2**t) for t in range(1, args.eps_steps + 1)]
        values = simplex_mod.sup_boundary_scan(d, k, schedule)
        bound = Fraction(1, k)
        rows = [
            (str(eps), v, decimal_str(v), decimal_str(bound - v))
            for eps, v in zip(schedule, values)
        ]
        if k == 3:
            # F is 1/3 on every edge point (0, ..., 0, eps, 1 - eps)
            ok = all(v == bound for v in values)
        else:
            ok = all(v < bound for v in values) and all(
                values[i] < values[i + 1] for i in range(len(values) - 1)
            )
        report = SearchReport(
            mode="simplex-sup",
            params={"d": d, "k": k, "bound": str(bound)},
            columns=("eps", "value", "value_decimal", "gap_to_bound"),
            rows=rows,
            all_ok=ok,
            wall_time=time.perf_counter() - start,
        )
    elif args.mode == "bound-sample":
        rng = random.Random(args.seed)
        lower = simplex_mod.uniform_min_value(d, k)
        upper = Fraction(1, k)
        rows = []
        ok = True
        for i in range(args.samples):
            pt = simplex_mod.random_interior_point(d, rng)
            v = simplex_mod.eval_F(d, k, pt)
            good = lower <= v <= upper
            ok = ok and good
            rows.append((i, ";".join(str(c) for c in pt.coords), v, good))
        report = SearchReport(
            mode="simplex-bound-sample",
            params={
                "d": d,
                "k": k,
                "seed": args.seed,
                "samples": args.samples,
                "lower": str(lower),
                "upper": str(upper),
            },
            columns=("index", "point", "value", "within_bounds"),
            rows=rows,
            all_ok=ok,
            wall_time=time.perf_counter() - start,
        )
    else:  # muirhead
        rng = random.Random(args.seed)
        rows = []
        ok = True
        for i in range(args.samples):
            pair = _random_majorization_pair(rng, d, k)
            values = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(d)]
            holds = simplex_mod.muirhead_check(pair, values)
            ok = ok and holds
            rows.append(
                (
                    i,
                    ";".join(map(str, pair.a)),
                    ";".join(map(str, pair.b)),
                    ";".join(map(str, values)),
                    holds,
                )
            )
        report = SearchReport(
            mode="simplex-muirhead",
            params={"d": d, "k": k, "seed": args.seed, "samples": args.samples},
            columns=("index", "majorant", "majorized", "values", "holds"),
            rows=rows,
            all_ok=ok,
            wall_time=time.perf_counter() - start,
        )
    _emit(report, args)
    return 0 if report.all_ok in (True, None) else 1


def _cmd_cache(args) -> int:
    cache_dir = _resolve_cache_dir(args, default_to_cwd=True)
    files = sorted(cache_dir.glob("frontier_*.jsonl")) if cache_dir.is_dir() else []
    if args.clear:
        for f in files:
            f.unlink()
        files = []
    total = sum(f.stat().st_size for f in files)
    report = SearchReport(
        mode="cache",
        params={"cleared": args.clear},
        columns=("path", "files", "bytes"),
        rows=[(str(cache_dir), len(files), total)],
    )
    _emit(report, args)
    return 0


# -- parser wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedensity",
        description="Exact counting and extremal search for leaf-induced subtree densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", metavar="PATH", help="write the report to a file")
        p.add_argument("--format", choices=FORMATS, default="pretty")

    for name in ("count", "density"):
        p = sub.add_parser(name, help=f"{name} of a pattern inside a host tree")
        _add_tree_args(p, "pattern")
        _add_tree_args(p, "tree")
        p.add_argument("--brute", action="store_true", help="use the subset-enumeration oracle")
        p.add_argument("--force", action="store_true", help="override the brute-force budget")
        common(p)
        p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="all d-ary trees with n leaves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--strict", action="store_true", help="only outdegree exactly d")
    p.add_argument("--max-trees", type=int, default=search_mod.DEFAULT_TREE_CAP)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("limits", help="closed-form limiting caterpillar densities")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="caterpillar arity (default binary)")
    common(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("search-min", help="minimum caterpillar count per leaf count")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, help="single leaf count")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--method", choices=("auto", "exhaustive", "pareto"), default="auto")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-trees", type=int, default=search_mod.DEFAULT_TREE_CAP)
    p.add_argument("--cache-dir")
    p.add_argument(
        "--general-d",
        action="store_true",
        help="allow the pareto method on hosts with d > 2",
    )
    common(p)
    p.set_defaults(func=_cmd_search_min)

    p = sub.add_parser("conjecture", help="even-split tree vs exact minimum count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cache-dir")
    common(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("monotone", help="minimum density nondecreasing and bounded")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=("auto", "exhaustive", "pareto"), default="auto")
    p.add_argument("--max-trees", type=int, default=search_mod.DEFAULT_TREE_CAP)
    p.add_argument("--cache-dir")
    common(p)
    p.set_defaults(func=_cmd_monotone)

    p = sub.add_parser("simplex", help="simplex functional: bounds, minimum, majorization")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("min", "sup", "bound-sample", "muirhead"), default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--eps-steps", type=int, default=20)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--budget", type=int, default=100_000)
    common(p)
    p.set_defaults(func=_cmd_simplex)

    p = sub.add_parser("cache", help="inspect or clear persisted frontier files")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--clear", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
