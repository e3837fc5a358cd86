"""Enumeration of d-ary trees and extremal searches over them.

``enumerate_trees`` returns every isomorphism type of d-ary tree with a given
leaf count exactly once, as an iterator over the level it built in full. It
and the exhaustive branch of ``search_min_report`` share one path: count the
sizes, refuse the first one over the tree cap, then build every level up to
the largest, bottom-up, and keep nothing after the call. ``count_trees`` runs
the same count without building anything, and the count cross-checks every
level built.

The two verification sweeps wrap the searches into reports:

* ``verify_even_conjecture`` compares the exact minimum caterpillar count per
  leaf count (from the minimum-count DP, ``frontier.ParetoDP``) against the
  recursively even-split binary tree.
* ``verify_monotone_min`` checks that the minimum caterpillar density is
  nondecreasing in the leaf count and never exceeds its closed-form limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations_with_replacement, count, groupby, islice, product
from math import comb
from operator import itemgetter
from typing import Iterator

from . import frontier as frontier_mod
from .counting import caterpillar_counts, check_witness, combine_caterpillar_counts
from .errors import BudgetError, ConsistencyError, PreconditionError, require_int
from .formulas import liminf_density
from .reporting import SearchReport, fraction_str, int_str
from .trees import Tree, _in_order, leaf

__all__ = [
    "count_trees",
    "enumerate_trees",
    "enumerate_report",
    "search_min_report",
    "verify_even_conjecture",
    "verify_monotone_min",
]

# the most trees a search keeps; ``max_trees`` can lower it, not raise it
DEFAULT_TREE_CAP = 10**6
_CODE = itemgetter(1)
_TREE = itemgetter(2)

SEARCH_COLUMNS = ("n", "min_count", "min_density_num", "min_density_den", "argmin_code")


def _root_splits(size: int, d: int, strict: bool):
    """The branch sizes of a root with ``size`` leaves: every partition of
    size into 2..d parts (exactly d if ``strict``), in partition order, as
    (part, multiplicity) runs."""
    arities = (d,) if strict else range(2, min(d, size) + 1)
    for m in arities:
        for parts in frontier_mod._partitions_into_parts(size, m):
            yield [(part, len(list(same))) for part, same in groupby(parts)]


def _count_sequence(d: int, strict: bool) -> Iterator[int]:
    """The number of d-ary trees with s leaves for s = 1, 2, ... in turn.
    A root's branches form a multiset, so each run of c branches of size s
    contributes the multiset coefficient C(counts[s] + c - 1, c)."""
    counts = [0, 1]
    yield 1
    for size in count(2):
        total = 0
        for runs in _root_splits(size, d, strict):
            ways = 1
            for part, cnt in runs:
                ways *= comb(counts[part] + cnt - 1, cnt)
            total += ways
        counts.append(total)
        yield total


def count_trees(n: int, d: int, strict: bool = False) -> int:
    """Number of isomorphism types of d-ary trees with n leaves.

    ``strict`` restricts every internal outdegree to exactly d. The counts of
    sizes 1..n are filled in order without materializing any tree, so this
    matches the length of :func:`enumerate_trees` and n has no depth limit.
    """
    require_int(n, 1, "leaf count")
    require_int(d, 2, "arity bound")
    return next(islice(_count_sequence(d, strict), n - 1, None))


def _tree_levels(
    sizes: range, d: int, strict: bool, max_trees: int
) -> list[list[tuple[int, str, Tree]]]:
    """``levels[s]`` for s = 0..max(sizes): the (code length, code, tree) of
    every d-ary tree with s leaves, sorted, each level built from the ones
    below it and checked against :func:`_count_sequence`. The caller owns the
    levels. A vertex joins its children's codes in sorted order, so no tree
    is compared or written.

    The sizes are counted first, and every level kept counts against
    ``max_trees`` or :data:`DEFAULT_TREE_CAP`, whichever is smaller: the
    first size at which levels 1..size hold more trees refuses every size of
    ``sizes`` from there on, and counting stops. BudgetError names the first
    refused size n of ``sizes`` and, when the counted size differs from n,
    that size and the count up to it."""
    cap = min(max_trees, DEFAULT_TREE_CAP)
    top = sizes[-1] if sizes else 0
    kind = f"{'strictly ' if strict else ''}{d}-ary"
    counts = [0]
    kept = 0
    for size, c in zip(range(1, top + 1), _count_sequence(d, strict)):
        kept += c
        if kept > cap:
            n = next(m for m in sizes if m >= size)
            if n == size:
                raise BudgetError(f"enumerating {kind} trees with {n} leaves keeps {kept} trees "
                                  f"of 1..{n} leaves, above the cap of {cap}")
            raise BudgetError(f"enumerating {kind} trees with {n} leaves keeps more than the cap "
                              f"of {cap}: there are already {kept} of 1..{size} leaves")
        counts.append(c)
    levels: list[list[tuple[int, str, Tree]]] = [[], [(1, "*", leaf())]]
    for size in range(2, top + 1):
        level = []
        for runs in _root_splits(size, d, strict):
            pools = [combinations_with_replacement(levels[part], cnt) for part, cnt in runs]
            for pick in product(*pools):
                kids = sorted(chain.from_iterable(pick))
                code = "(" + "".join(map(_CODE, kids)) + ")"
                level.append((len(code), code, _in_order(tuple(map(_TREE, kids)))))
        if len(level) != counts[size]:
            raise ConsistencyError(
                f"{'strictly ' if strict else ''}{d}-ary trees with {size} leaves: "
                f"enumerated {len(level)}, counted {counts[size]}"
            )
        level.sort()
        levels.append(level)
    return levels


def _level(n: int, d: int, strict: bool, max_trees: int) -> list[tuple[int, str, Tree]]:
    """Level n of :func:`_tree_levels`, after checking the arguments that
    :func:`enumerate_trees` and :func:`enumerate_report` share."""
    require_int(n, 1, "leaf count")
    require_int(d, 2, "arity bound")
    require_int(max_trees, 1, "max_trees")
    if strict and (n - 1) % (d - 1) != 0:
        raise PreconditionError(
            f"no strictly {d}-ary tree has {n} leaves (need n = 1 mod {d - 1})"
        )
    return _tree_levels(range(n, n + 1), d, strict, max_trees)[n]


def enumerate_trees(
    n: int, d: int, strict: bool = False, *, max_trees: int = DEFAULT_TREE_CAP
) -> Iterator[Tree]:
    """Every d-ary tree with n leaves, one representative per isomorphism
    type, in a fixed (code-sorted) order.

    Refuses with BudgetError when levels 1..n hold more than ``max_trees``
    trees, or more than :data:`DEFAULT_TREE_CAP`, which ``max_trees`` can
    only lower. Otherwise every level 1..n is built afresh, smallest first,
    from the levels below it. Strictly d-ary trees exist only for n = 1 mod
    (d - 1); asking for other sizes in strict mode is an error.
    """
    return iter(list(map(_TREE, _level(n, d, strict, max_trees))))


def enumerate_report(
    n: int, d: int, strict: bool = False, *, max_trees: int = DEFAULT_TREE_CAP
) -> SearchReport:
    """The codes of :func:`enumerate_trees`, one indexed row per tree, taken
    from the level that built them, so no code is written again."""
    rows = list(enumerate(map(_CODE, _level(n, d, strict, max_trees))))
    return SearchReport(
        mode="enumerate",
        params={"n": n, "d": d, "strict": strict},
        columns=("index", "code"),
        rows=rows,
    )


def _min_record(
    level: list[tuple[int, str, Tree]], n: int, d: int, k: int, memo: dict
) -> tuple[int, str]:
    """The minimum k-caterpillar count over one nonempty level of
    :func:`_tree_levels`, and the code of the first tree in enumeration order
    that attains it. ``memo`` is :func:`caterpillar_counts`'s, shared by the
    levels of one report."""
    best: int | None = None
    tied: list[str] = []
    for _, code, t in level:
        c = caterpillar_counts(t, k, memo)[-1]
        if best is None or c < best:
            best, tied = c, [code]
        elif c == best and len(tied) < 4:
            tied.append(code)
    # Witness sanity: re-counting the first tied codes must reproduce the
    # count, from their own characters and a memo of their own.
    recount_memo: dict = {}
    for code in tied:
        check_witness(code, n, d, k, best, recount_memo)
    return best, tied[0]


def search_min_report(
    d: int,
    k: int,
    n_min: int,
    n_max: int,
    *,
    method: str = "auto",
    strict: bool = False,
    max_trees: int = DEFAULT_TREE_CAP,
) -> SearchReport:
    """Minimum count/density per leaf count over n_min..n_max.

    ``method`` is "exhaustive", "pareto", or "auto": pareto wherever it
    applies (k >= 3, and not the strictly d-ary family with d > 2),
    exhaustive otherwise. The pareto route runs ``frontier.ParetoDP`` for
    any d; it scales to large n but covers the non-strict family only.
    """
    require_int(k, 2, "caterpillar size")
    require_int(n_max, 1, "leaf count")
    require_int(d, 2, "arity bound")
    require_int(n_min, k, "n_min")
    require_int(max_trees, 1, "max_trees")
    if n_min > n_max:
        raise PreconditionError(f"need n_min <= n_max, got {n_min} > {n_max}")
    if method == "auto":
        method = "pareto" if k >= 3 and not (strict and d > 2) else "exhaustive"
    if method not in ("pareto", "exhaustive"):
        raise PreconditionError(f"unknown search method {method!r}")
    minima: list[tuple[int, int, str]] = []  # (n, minimum count, witness)
    if method == "pareto":
        if strict and d > 2:
            raise PreconditionError(
                "the pareto method covers the non-strict family; use exhaustive "
                "for strictly d-ary hosts with d > 2"
            )
        dp = frontier_mod.ParetoDP(k, d).run(n_max)
        memo: dict = {}  # rows share the recounts of identical subtree codes
        for n in range(n_min, n_max + 1):
            minimum, code = dp.min_count(n), dp.witness(n)
            check_witness(code, n, d, k, minimum, memo)
            minima.append((n, minimum, code))
    else:
        # Sizes with no strictly d-ary tree (n != 1 mod d - 1) are skipped.
        # The levels are built once, up to the largest size, and shared by
        # every row.
        step = d - 1 if strict else 1
        sizes = range(n_min + (1 - n_min) % step, n_max + 1, step)
        levels = _tree_levels(sizes, d, strict, max_trees)
        level_memo: dict = {}  # smaller levels' trees are subtrees of larger ones
        for n in sizes:
            minima.append((n, *_min_record(levels[n], n, d, k, level_memo)))
    rows = []
    for n, c, code in minima:
        q = Fraction(c, comb(n, k))
        rows.append((n, c, q.numerator, q.denominator, code))
    return SearchReport(
        mode="search-min-strict" if strict else "search-min",
        params={"d": d, "k": k, "n_min": n_min, "n_max": n_max, "method": method},
        columns=SEARCH_COLUMNS,
        rows=rows,
    )


def _even_split_counts(k: int, n_max: int) -> list[tuple[int, ...]]:
    """(c_2, ..., c_k) of the even-split binary tree (``make_even_binary``)
    for every n = 1..n_max, at index n, by its leaf-count recurrence
    E(n) = combine(E(ceil(n/2)), E(floor(n/2)))."""
    even = [(), (0,) * (k - 1)]
    for n in range(2, n_max + 1):
        a, b = (n + 1) // 2, n // 2
        even.append(combine_caterpillar_counts([(a, even[a]), (b, even[b])], k))
    return even


def verify_even_conjecture(k: int, n_max: int) -> SearchReport:
    """Check, for every n up to n_max, that the even-split binary tree attains
    the exact minimum k-caterpillar count among binary trees with n leaves.

    The minimum comes from the minimum-count DP; the even tree's count is
    computed independently by :func:`_even_split_counts`. The report's
    verdict is true only if they agree at every n.
    """
    require_int(k, 3, "caterpillar size")
    require_int(n_max, k, "n_max")
    dp = frontier_mod.ParetoDP(k, 2).run(n_max)
    even = _even_split_counts(k, n_max)
    rows = []
    all_ok = True
    for n in range(k, n_max + 1):
        dp_min = dp.min_count(n)
        even_count = even[n][-1]
        ok = dp_min == even_count
        all_ok = all_ok and ok
        rows.append((n, dp_min, even_count, ok))
    return SearchReport(
        mode="conjecture",
        params={"d": 2, "k": k, "n_min": k, "n_max": n_max},
        columns=("n", "min_count", "even_count", "verdict"),
        rows=rows,
        all_ok=all_ok,
    )


def verify_monotone_min(
    d: int,
    k: int,
    n_max: int,
    *,
    method: str = "auto",
    max_trees: int = DEFAULT_TREE_CAP,
) -> SearchReport:
    """Check that the minimum k-caterpillar density over d-ary trees is
    nondecreasing in n and stays at or below its closed-form limit."""
    require_int(k, 3, "caterpillar size")
    require_int(n_max, k, "n_max")
    base = search_min_report(d, k, k, n_max, method=method, max_trees=max_trees)
    limit = liminf_density(d, k)
    rows = []
    all_ok = True
    prev: Fraction | None = None
    for n, min_count, num, den, _code in base.rows:
        dens = Fraction(num, den)
        nondecreasing = prev is None or dens >= prev
        bounded = dens <= limit
        all_ok = all_ok and nondecreasing and bounded
        rows.append((n, min_count, num, den, nondecreasing, bounded))
        prev = dens
    # str(limit)'s form, at any size
    limit_text = int_str(limit.numerator) if limit.denominator == 1 else fraction_str(limit)
    return SearchReport(
        mode="monotone",
        params={"d": d, "k": k, "n_min": k, "n_max": n_max, "limit": limit_text},
        columns=("n", "min_count", "min_density_num", "min_density_den", "nondecreasing", "le_liminf"),
        rows=rows,
        all_ok=all_ok,
    )
