"""Enumeration of d-ary trees and extremal searches over them.

``enumerate_trees`` streams every isomorphism type of d-ary tree with a given
leaf count exactly once. Each call builds the smaller levels bottom-up and
keeps nothing afterwards. The exhaustive branch of ``search_min_report``
builds the levels once per report, up to its largest leaf count, and scans
each level it reports on. ``count_trees`` evaluates the same recurrence
without building anything and is used both for budget refusals and as a
cross-check on the enumerator.

The two verification sweeps wrap the searches into reports:

* ``verify_even_conjecture`` compares the exact minimum caterpillar count per
  leaf count (from the Pareto frontier DP) against the recursively even-split
  binary tree.
* ``verify_monotone_min`` checks that the minimum caterpillar density is
  nondecreasing in the leaf count and never exceeds its closed-form limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, count, islice, product
from math import comb
from typing import Iterator

from . import frontier as frontier_mod
from .counting import caterpillar_counts, caterpillar_counts_of_code, combine_caterpillar_counts
from .errors import BudgetError, ConsistencyError, ParseError, PreconditionError
from .formulas import liminf_density
from .reporting import SearchReport
from .trees import Tree, leaf, node

__all__ = [
    "count_trees",
    "enumerate_trees",
    "enumerate_report",
    "search_min_report",
    "verify_even_conjecture",
    "verify_monotone_min",
    "DEFAULT_TREE_CAP",
]

DEFAULT_TREE_CAP = 10**6

SEARCH_COLUMNS = ("n", "min_count", "min_density_num", "min_density_den", "argmin_code")


def _check_n_d(n: int, d: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"leaf count must be an integer >= 1, got {n!r}")
    if not isinstance(d, int) or d < 2:
        raise PreconditionError(f"arity bound must be an integer >= 2, got {d!r}")


def _root_splits(size: int, d: int, strict: bool):
    """The branch sizes of a root with ``size`` leaves: every partition of
    size into 2..d parts (exactly d if ``strict``), in partition order, as
    [part, multiplicity] runs."""
    arities = (d,) if strict else range(2, min(d, size) + 1)
    for m in arities:
        for parts in frontier_mod._partitions_into_parts(size, m):
            runs: list[list[int]] = []
            for part in parts:
                if runs and runs[-1][0] == part:
                    runs[-1][1] += 1
                else:
                    runs.append([part, 1])
            yield runs


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


def _tree_counts(n: int, d: int, strict: bool) -> list[int]:
    """``counts[s]`` for s = 0..n: the number of d-ary trees with s leaves."""
    return [0, *islice(_count_sequence(d, strict), n)]


def count_trees(n: int, d: int, strict: bool = False) -> int:
    """Number of isomorphism types of d-ary trees with n leaves.

    ``strict`` restricts every internal outdegree to exactly d. The counts of
    sizes 1..n are filled in order without materializing any tree, so this
    matches the length of :func:`enumerate_trees` and n has no depth limit.
    """
    _check_n_d(n, d)
    return _tree_counts(n, d, strict)[n]


def _refuse_over_cap(counts: list[int], n: int, d: int, strict: bool, max_trees: int) -> None:
    if counts[n] > max_trees:
        raise BudgetError(
            f"enumerating {counts[n]} {'strictly ' if strict else ''}{d}-ary trees "
            f"with {n} leaves exceeds the cap of {max_trees}"
        )


def _tree_levels(n: int, d: int, strict: bool, counts: list[int]) -> list[list[Tree]]:
    """``levels[s]`` for s = 0..n: every d-ary tree with s leaves, sorted by
    code, each level built from the ones below it and checked against
    ``counts`` (from :func:`_tree_counts`). The caller owns the levels."""
    levels: list[list[Tree]] = [[], [leaf()]]
    for size in range(2, n + 1):
        level = []
        for runs in _root_splits(size, d, strict):
            pools = [combinations_with_replacement(levels[part], cnt) for part, cnt in runs]
            for pick in product(*pools):
                level.append(node([t for chunk in pick for t in chunk]))
        if len(level) != counts[size]:
            raise ConsistencyError(
                f"{'strictly ' if strict else ''}{d}-ary trees with {size} leaves: "
                f"enumerated {len(level)}, counted {counts[size]}"
            )
        items = [(len(t.code), t.code, t) for t in level]
        items.sort()
        levels.append([t for _, _, t in items])
    return levels


def enumerate_trees(
    n: int, d: int, strict: bool = False, *, max_trees: int = DEFAULT_TREE_CAP
) -> Iterator[Tree]:
    """Every d-ary tree with n leaves, one representative per isomorphism
    type, in a fixed (code-sorted) order.

    Refuses with BudgetError, naming the count, when more than ``max_trees``
    trees have n leaves; no smaller size has more. Otherwise every level
    1..n is built afresh, smallest first, from the levels below it. Strictly
    d-ary trees exist only for n = 1 mod (d - 1); asking for other sizes in
    strict mode is an error.
    """
    _check_n_d(n, d)
    if strict and (n - 1) % (d - 1) != 0:
        raise PreconditionError(
            f"no strictly {d}-ary tree has {n} leaves (need n = 1 mod {d - 1})"
        )
    counts = _tree_counts(n, d, strict)
    _refuse_over_cap(counts, n, d, strict, max_trees)
    return iter(_tree_levels(n, d, strict, counts)[n])


def enumerate_report(
    n: int, d: int, strict: bool = False, *, max_trees: int = DEFAULT_TREE_CAP
) -> SearchReport:
    """The codes of :func:`enumerate_trees`, one indexed row per tree."""
    start = time.perf_counter()
    trees = enumerate_trees(n, d, strict, max_trees=max_trees)
    rows = [(i, t.code) for i, t in enumerate(trees)]
    return SearchReport(
        mode="enumerate",
        params={"n": n, "d": d, "strict": strict},
        columns=("index", "code"),
        rows=rows,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class MinRecord:
    """Minimum k-caterpillar count among the n-leaf trees searched, and the
    first tree in enumeration order that attains it."""

    min_count: int
    witness: str


def _check_witness(code: str, n: int, d: int, k: int, expected: int, memo: dict) -> None:
    """Recount a reported witness from its own characters: it must have n
    leaves, no outdegree above d, and ``expected`` k-caterpillar copies.
    ``memo`` is passed to :func:`caterpillar_counts_of_code`."""
    what = f"{k}-caterpillar count of witness {code}"
    try:
        leaves, outdegree, counts = caterpillar_counts_of_code(code, k, memo)
    except ParseError as err:
        raise ConsistencyError(f"{what}: malformed code, {err}") from None
    if leaves != n:
        raise ConsistencyError(f"{what}: the witness has {leaves} leaves, not {n}")
    if outdegree > d:
        raise ConsistencyError(f"{what}: the witness has outdegree {outdegree} > d = {d}")
    if counts[-1] != expected:
        raise ConsistencyError(f"{what}: reported {expected}, recounted {counts[-1]}")


def _min_record(
    level: list[Tree], n: int, d: int, k: int, strict: bool, memo: dict
) -> MinRecord:
    """The minimum over one level; ``memo`` is :func:`caterpillar_counts`'s,
    shared by the levels of one report."""
    best: int | None = None
    codes: list[str] = []
    for t in level:
        c = caterpillar_counts(t, k, memo)[k]
        if best is None or c < best:
            best, codes = c, [t.code]
        elif c == best and len(codes) < 4:
            codes.append(t.code)
    if best is None:
        raise PreconditionError(
            f"no {'strictly ' if strict else ''}{d}-ary tree with {n} leaves exists"
        )
    # Witness sanity: re-counting the first tied codes must reproduce the
    # count, from their own characters and a memo of their own.
    recount_memo: dict = {}
    for code in codes:
        _check_witness(code, n, d, k, best, recount_memo)
    return MinRecord(best, codes[0])


def search_min_report(
    d: int,
    k: int,
    n_min: int,
    n_max: int,
    *,
    method: str = "auto",
    strict: bool = False,
    max_trees: int = DEFAULT_TREE_CAP,
    cache_dir=None,
    allow_general_d: bool = False,
) -> SearchReport:
    """Minimum count/density per leaf count over n_min..n_max.

    ``method`` is "exhaustive", "pareto", or "auto" (pareto for binary hosts,
    exhaustive otherwise). The pareto route scales to large n but covers the
    non-strict family only.
    """
    if not isinstance(k, int) or k < 2:
        raise PreconditionError(f"caterpillar size must be an integer >= 2, got {k!r}")
    _check_n_d(n_max, d)
    if n_min < k:
        raise PreconditionError(f"need n_min >= k, got {n_min} < {k}")
    if n_min > n_max:
        raise PreconditionError(f"need n_min <= n_max, got {n_min} > {n_max}")
    if method == "auto":
        method = "pareto" if d == 2 and k >= 3 else "exhaustive"
    if method not in ("pareto", "exhaustive"):
        raise PreconditionError(f"unknown search method {method!r}")
    start = time.perf_counter()
    minima: list[tuple[int, int, str]] = []  # (n, minimum count, witness)
    if method == "pareto":
        if strict and d > 2:
            raise PreconditionError(
                "the pareto method covers the non-strict family; use exhaustive "
                "for strictly d-ary hosts with d > 2"
            )
        fronts = frontier_mod.pareto_min_counts(
            n_max, k, d, allow_general_d=allow_general_d, cache_dir=cache_dir
        )
        memo: dict = {}  # rows share the recounts of identical subtree codes
        for n in range(n_min, n_max + 1):
            entry = fronts.argmin_entry(n)
            _check_witness(entry.witness, n, d, k, entry.vector[-1], memo)
            minima.append((n, entry.vector[-1], entry.witness))
    else:
        # Sizes with no strictly d-ary tree (n != 1 mod d - 1) are skipped.
        # Counting stops at the first size over the cap; else the levels are
        # built once, up to the largest size, and shared by every row.
        step = d - 1 if strict else 1
        sizes = range(n_min + (1 - n_min) % step, n_max + 1, step)
        top = sizes[-1] if sizes else 0
        counts = [0]
        for n, c in zip(range(1, top + 1), _count_sequence(d, strict)):
            counts.append(c)
            if n in sizes:
                _refuse_over_cap(counts, n, d, strict, max_trees)
        levels = _tree_levels(top, d, strict, counts)
        level_memo: dict = {}  # smaller levels' trees are subtrees of larger ones
        for n in sizes:
            rec = _min_record(levels[n], n, d, k, strict, level_memo)
            minima.append((n, rec.min_count, rec.witness))
    rows = []
    for n, c, code in minima:
        q = Fraction(c, comb(n, k))
        rows.append((n, c, q.numerator, q.denominator, code))
    return SearchReport(
        mode="search-min-strict" if strict else "search-min",
        params={"d": d, "k": k, "n_min": n_min, "n_max": n_max, "method": method},
        columns=SEARCH_COLUMNS,
        rows=rows,
        wall_time=time.perf_counter() - start,
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


def verify_even_conjecture(
    k: int, n_max: int, *, cache_dir=None
) -> SearchReport:
    """Check, for every n up to n_max, that the even-split binary tree attains
    the exact minimum k-caterpillar count among binary trees with n leaves.

    The minimum comes from the Pareto frontier DP; the even tree's count is
    computed independently by :func:`_even_split_counts`. The report's
    verdict is true only if they agree at every n.
    """
    if not isinstance(k, int) or k < 3:
        raise PreconditionError(f"caterpillar size must be an integer >= 3, got {k!r}")
    if not isinstance(n_max, int) or n_max < k:
        raise PreconditionError(f"need n_max >= k, got {n_max!r}")
    start = time.perf_counter()
    fronts = frontier_mod.pareto_min_counts(n_max, k, 2, cache_dir=cache_dir)
    even = _even_split_counts(k, n_max)
    rows = []
    all_ok = True
    for n in range(k, n_max + 1):
        dp_min = fronts.min_count(n)
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
        wall_time=time.perf_counter() - start,
    )


def verify_monotone_min(
    d: int,
    k: int,
    n_max: int,
    *,
    method: str = "auto",
    max_trees: int = DEFAULT_TREE_CAP,
    cache_dir=None,
) -> SearchReport:
    """Check that the minimum k-caterpillar density over d-ary trees is
    nondecreasing in n and stays at or below its closed-form limit."""
    if not isinstance(k, int) or k < 3:
        raise PreconditionError(f"caterpillar size must be an integer >= 3, got {k!r}")
    if not isinstance(n_max, int) or n_max < k:
        raise PreconditionError(f"need n_max >= k, got {n_max!r}")
    base = search_min_report(
        d,
        k,
        k,
        n_max,
        method=method,
        max_trees=max_trees,
        cache_dir=cache_dir,
        allow_general_d=True,
    )
    start = time.perf_counter()
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
    return SearchReport(
        mode="monotone",
        params={"d": d, "k": k, "n_min": k, "n_max": n_max, "limit": str(limit)},
        columns=("n", "min_count", "min_density_num", "min_density_den", "nondecreasing", "le_liminf"),
        rows=rows,
        all_ok=all_ok,
        wall_time=base.wall_time + time.perf_counter() - start,
    )
