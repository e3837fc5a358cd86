"""Enumeration of d-ary trees and extremal searches over them.

``enumerate_trees`` returns every isomorphism type of d-ary tree with a given
leaf count exactly once, as an iterator over the level it built in full. It
and the exhaustive branch of ``search_min_report`` share one path: count the
sizes, refuse the first one over the tree cap, then build every level up to
the largest, bottom-up, and keep nothing after the call. ``count_trees`` runs
the same count without building anything, and the count cross-checks every
level built. ``search_min_report`` recounts either method's witnesses from
their text in one call of ``counting.check_witnesses``.

The two verification sweeps wrap the searches into reports:

* ``verify_even_conjecture`` compares the exact minimum caterpillar count per
  leaf count (from the minimum-count DP, ``frontier.ParetoDP``) against the
  recursively even-split binary tree.
* ``verify_monotone_min`` checks that the minimum caterpillar density is
  nondecreasing in the leaf count and never exceeds its closed-form limit.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, combinations_with_replacement, count, groupby, islice, product
from math import comb
from operator import itemgetter
from typing import Iterator

from . import frontier as frontier_mod
from ._partitions import partitions_into_parts
from .counting import caterpillar_counts, check_witnesses, combine_caterpillar_counts
from .errors import BudgetError, ConsistencyError, PreconditionError, int_str, require_int
from .formulas import liminf_density
from .reporting import SearchReport, fraction_str
from .trees import LEAF_CAP, Tree, _Shapes

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
_SIZE = itemgetter(0)
_CODE = itemgetter(1)
_ID = itemgetter(2)

SEARCH_COLUMNS = ("n", "min_count", "min_density_num", "min_density_den", "argmin_code")


def _root_splits(size: int, d: int, strict: bool):
    """The branch sizes of a root with ``size`` leaves: every partition of
    size into 2..d parts, in ``partitions_into_parts`` order, as (part,
    multiplicity) runs. If ``strict``, only the partitions into d parts
    that strictly d-ary branches can fill, whose parts are 1 + (d - 1)q
    leaves for q >= 0: a run of d - m leaves, then the partitions of the
    q's sum, ``units``, into m parts, in order, for m = 0 (only when units
    is 0) up to min(d, units), so the work depends on units, not on d."""
    if not strict:
        for m in range(2, min(d, size) + 1):
            for parts in partitions_into_parts(size, m):
                yield [(part, len(list(same))) for part, same in groupby(parts)]
        return
    units, off = divmod(size - d, d - 1)
    for m in range(units > 0, min(d, units) + 1) if not off else ():
        for parts in partitions_into_parts(units, m) if m else [()]:
            yield [(1, d - m)] * (m < d) + [
                (1 + (d - 1) * q, len(list(same))) for q, same in groupby(parts)
            ]


def _count_sequence(d: int, strict: bool) -> Iterator[int]:
    """The number of d-ary trees with s leaves for s = 1, 2, ... in turn; if
    ``strict``, only for the sizes s = 1, d, 2d - 1, ... that strictly d-ary
    trees have. A root's branches form a multiset, so each run of c branches
    of size s contributes the multiset coefficient C(counts[s] + c - 1, c)."""
    counts = {1: 1}
    yield 1
    step = d - 1 if strict else 1
    for size in count(1 + step, step):
        total = 0
        for runs in _root_splits(size, d, strict):
            ways = 1
            for part, cnt in runs:
                ways *= comb(counts[part] + cnt - 1, cnt)
            total += ways
        counts[size] = total
        yield total


def count_trees(n: int, d: int, strict: bool = False) -> int:
    """Number of isomorphism types of d-ary trees with n leaves.

    ``strict`` restricts every internal outdegree to exactly d. The counts of
    sizes 1..n are filled in order without materializing any tree, so this
    matches the length of :func:`enumerate_trees` and n has no depth limit.
    A size that no strictly d-ary tree has counts 0 at once.
    """
    require_int(n, 1, "leaf count")
    require_int(d, 2, "arity bound")
    if strict and (n - 1) % (d - 1):
        return 0
    return next(islice(_count_sequence(d, strict), (n - 1) // (d - 1 if strict else 1), None))


def _tree_levels(
    sizes: range, d: int, strict: bool, max_trees: int
) -> tuple[_Shapes, dict[int, list[tuple[int, str, int]]]]:
    """A table of every d-ary tree with up to max(sizes) leaves and
    ``levels[s]`` for each size s up to max(sizes) that :func:`_count_sequence`
    counts: the (code length, code, id) of every such tree with s leaves,
    sorted, each level built from the ones below it and checked against its
    count. The caller owns both. A vertex joins its children's codes in
    sorted order, and its children's ids come in that order, so no tree is
    compared or written.

    The sizes are counted first, and every level kept counts against
    ``max_trees`` or :data:`DEFAULT_TREE_CAP`, whichever is smaller: the
    first size at which levels 1..size hold more trees refuses every size of
    ``sizes`` from there on, and counting stops. BudgetError names the first
    refused size n of ``sizes`` and, when the counted size differs from n,
    that size and the count up to it. A size above :data:`trees.LEAF_CAP`,
    the cap on the star it holds, is refused the same way before it is
    counted."""
    cap = min(max_trees, DEFAULT_TREE_CAP)
    top = sizes[-1] if sizes else 0
    kind = f"{'strictly ' if strict else ''}{d}-ary"
    step = d - 1 if strict else 1  # the sizes _count_sequence counts
    counts = {}
    kept = 0
    sequence = _count_sequence(d, strict)
    for size in range(1, top + 1, step):
        n = sizes[bisect_left(sizes, size)]  # the first size asked for from here on
        if size > LEAF_CAP:
            raise BudgetError(f"enumerating {kind} trees with {n} leaves needs trees of "
                              f"{size} leaves, above the cap of {LEAF_CAP}")
        counts[size] = c = next(sequence)
        kept += c
        if kept > cap:
            if n == size:
                raise BudgetError(f"enumerating {kind} trees with {n} leaves keeps {kept} trees "
                                  f"of 1..{n} leaves, above the cap of {cap}")
            raise BudgetError(f"enumerating {kind} trees with {n} leaves keeps more than the cap "
                              f"of {cap}: there are already {kept} of 1..{size} leaves")
    table = _Shapes()
    levels = {1: [(1, "*", 0)]}
    for size in range(1 + step, top + 1, step):
        level = []
        for runs in _root_splits(size, d, strict):
            pools = [combinations_with_replacement(levels[part], cnt) for part, cnt in runs]
            for pick in product(*pools):
                kids = sorted(chain.from_iterable(pick))
                code = "(" + "".join(map(_CODE, kids)) + ")"
                level.append((len(code), code, table.add(tuple(map(_ID, kids)))))
        if len(level) != counts[size]:
            raise ConsistencyError(
                f"{'strictly ' if strict else ''}{d}-ary trees with {size} leaves: "
                f"enumerated {len(level)}, counted {counts[size]}"
            )
        level.sort()
        levels[size] = level
    return table, levels


def _level(n: int, d: int, strict: bool, max_trees: int) -> tuple[_Shapes, list]:
    """The table and level n of :func:`_tree_levels`, after checking the
    arguments that :func:`enumerate_trees` and :func:`enumerate_report`
    share."""
    require_int(n, 1, "leaf count")
    require_int(d, 2, "arity bound")
    require_int(max_trees, 1, "max_trees")
    if strict and (n - 1) % (d - 1) != 0:
        raise PreconditionError(
            f"no strictly {d}-ary tree has {n} leaves (need n = 1 mod {d - 1})"
        )
    table, levels = _tree_levels(range(n, n + 1), d, strict, max_trees)
    return table, levels[n]


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

    The trees share the one table of shapes that every level was built in,
    so a tree kept from the result keeps that table alive, levels 1..n and
    all: one kept binary tree of 16 leaves holds about 2.6 MiB. Handing each
    tree its own table would cost a copy of its shapes per tree, and the
    shared one lets :func:`~treedensity.counting.caterpillar_counts` and
    every :class:`~treedensity.counting.CopyEngine` reuse each subtree's
    vectors and rows across the trees.
    """
    table, level = _level(n, d, strict, max_trees)
    return iter(list(map(table.tree, map(_ID, level))))


def enumerate_report(
    n: int, d: int, strict: bool = False, *, max_trees: int = DEFAULT_TREE_CAP
) -> SearchReport:
    """The codes of :func:`enumerate_trees`, one indexed row per tree, taken
    from the level that built them, so no code is written again."""
    rows = list(enumerate(map(_CODE, _level(n, d, strict, max_trees)[1])))
    return SearchReport(
        mode="enumerate",
        params={"n": n, "d": d, "strict": strict},
        columns=("index", "code"),
        rows=rows,
    )


def _min_record(
    table: _Shapes, level: list[tuple[int, str, int]], k: int
) -> tuple[int, list[str]]:
    """The minimum k-caterpillar count over one nonempty level of
    :func:`_tree_levels`, and the codes of the first four or fewer trees that
    attain it, in enumeration order. The table keeps
    :func:`caterpillar_counts`'s vectors, so the levels of one report share them."""
    best: int | None = None
    tied: list[str] = []
    for _, code, i in level:
        c = caterpillar_counts(table.tree(i), k)[-1]
        if best is None or c < best:
            best, tied = c, [code]
        elif c == best and len(tied) < 4:
            tied.append(code)
    return best, tied


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
    if method == "pareto":
        if strict and d > 2:
            raise PreconditionError(
                "the pareto method covers the non-strict family; use exhaustive "
                "for strictly d-ary hosts with d > 2"
            )
        dp = frontier_mod.ParetoDP(k, d).run(n_max)
        witnesses = [(n, dp.min_count(n), dp.witness(n)) for n in range(n_min, n_max + 1)]
    else:
        # Sizes with no strictly d-ary tree (n != 1 mod d - 1) are skipped.
        # The levels are built once, up to the largest size, and shared by
        # every row.
        step = d - 1 if strict else 1
        sizes = range(n_min + (1 - n_min) % step, n_max + 1, step)
        table, levels = _tree_levels(sizes, d, strict, max_trees)
        records = [(n, *_min_record(table, levels[n], k)) for n in sizes]
        witnesses = [(n, minimum, code) for n, minimum, tied in records for code in tied]
    # Witness sanity: recounting each witness from its own characters, apart
    # from the DP and the levels, must reproduce its size's minimum
    check_witnesses(witnesses, d, k)
    rows = []
    for n, group in groupby(witnesses, _SIZE):
        _, c, code = next(group)
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
    for n in range(k, n_max + 1):
        dp_min, even_count = dp.min_count(n), even[n][-1]
        rows.append((n, dp_min, even_count, dp_min == even_count))
    return SearchReport(
        mode="conjecture",
        params={"d": 2, "k": k, "n_min": k, "n_max": n_max},
        columns=("n", "min_count", "even_count", "verdict"),
        rows=rows,
        all_ok=all(row[-1] for row in rows),
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
    prev: Fraction | None = None
    for n, min_count, num, den, _code in base.rows:
        dens = Fraction(num, den)
        nondecreasing = prev is None or dens >= prev
        bounded = dens <= limit
        rows.append((n, min_count, num, den, nondecreasing, bounded))
        prev = dens
    # str(limit)'s form, at any size
    limit_text = int_str(limit.numerator) if limit.denominator == 1 else fraction_str(limit)
    return SearchReport(
        mode="monotone",
        params={"d": d, "k": k, "n_min": k, "n_max": n_max, "limit": limit_text},
        columns=("n", "min_count", "min_density_num", "min_density_den", "nondecreasing", "le_liminf"),
        rows=rows,
        all_ok=all(row[4] and row[5] for row in rows),
    )
