"""Single-vector dynamic program for minimum caterpillar counts.

The combiner in :func:`treedensity.counting.combine_caterpillar_counts` is
monotone: raising any branch count c_j(T_i) can only raise the counts of the
combined tree.

Suppose every leaf count s < n has a count vector (c_3, ..., c_k) that is
componentwise minimal over the d-ary trees with s leaves. An n-leaf tree
whose root has branch sizes s_1..s_m is then, in every coordinate, at least
the candidate combined from those sizes' minimal vectors, and each candidate
is a real tree. So each coordinate's minimum over all n-leaf trees is its
minimum over the candidates, one per multiset of 2..d sizes summing to n. If
one candidate attains every coordinate minimum at once, its vector is
componentwise minimal for n and the induction goes on. The DP checks exactly
that at each level and raises ``ConsistencyError`` when it fails, so keeping
one vector and one root split per level is exact, not a heuristic: the Pareto
frontier over all d-ary trees holds one vector at every level built. The
candidates are evaluated a column (one c_j) at a time, and the DP keeps the
first, in generation order, that attains every column minimum.

A candidate's c_j is the sum over its branches of their shares
f_n(s) = c_j(s) + (n - s) c_{j-1}(s). Since f_{n+1}(s) = f_n(s) + c_{j-1}(s),
the DP carries each share list up a level with one addition per entry.
Every level keeps its full (c_2, ..., c_k), but only the columns the family
does not fix are scanned and carry shares: c_2 is C(n, 2) for every n-leaf
tree, and at d = 2 so is c_3 = C(n, 3), since every three leaves of a binary
tree induce the 3-leaf caterpillar. Every candidate attains a constant
column's minimum, so it cannot change the chosen split; the level's vector
takes those binomials, and the recount of its split checks the whole vector.
At d = 2 with k = 3 the c_3 column is scanned, so that every level has a
column to scan.

Every level is computed: a stored level could be checked for being attained
by its witness, but proving it minimal takes the very recomputation that
storing it would save.
"""

from __future__ import annotations

from itertools import chain, groupby
from math import comb
from operator import add
from typing import Sequence

from ._partitions import partition_counts, partitions_into_parts
from .counting import combine_caterpillar_counts
from .errors import BudgetError, ConsistencyError, int_str, require_int
from .trees import join_codes

__all__ = [
    "ParetoDP",
]

# the most column additions one run may make: k - 2 columns for each
# candidate vector of every level it builds, a candidate of m parts weighing
# m - 1, the additions it costs a column, so a binary one weighs 1. At d = 2
# (k > 3) only k - 3 columns are scanned, so the count is one column high
# there: conservative. A run that builds level 1 is also held to it by the
# entries of its column and share lists, priced as 2 (k - 2) lists, which a
# run of few levels and a huge k would otherwise allocate unpriced
CANDIDATE_CAP = 2 * 10**7


def pareto_minimal(vectors: Sequence[tuple[int, ...]]) -> list[int]:
    """Indices of the weakly-Pareto-minimal vectors, in lexicographic order.

    Exact duplicates keep their first occurrence (the sort is stable), so the
    result is deterministic for a deterministic candidate order. A vector is
    dropped exactly when some kept vector is <= it in every coordinate.
    """
    order = sorted(range(len(vectors)), key=vectors.__getitem__)
    kept: list[tuple[int, ...]] = []
    kept_idx: list[int] = []
    for i in order:
        v = vectors[i]
        if any(all(u[t] <= v[t] for t in range(len(v))) for u in kept):
            continue
        kept.append(v)
        kept_idx.append(i)
    return kept_idx


def _candidates(d: int, hi: int, limit: int) -> int:
    """Candidate vectors of the levels 2..hi, one for each split of a level
    n into m parts, 2 <= m <= d, weighted by m - 1 and counted until they
    exceed ``limit``.

    The binary splits are in closed form, since the sum of n // 2 over
    n <= hi is hi^2 // 4, and settle d = 2. Otherwise
    :func:`partition_counts` counts the partitions of each level into at
    most m parts for m = 1, 2, ... in turn, so each step adds the m-part
    splits, and the weighted count only grows as m does.
    """
    binary = hi * hi // 4
    if d < 3 or binary > limit:
        return binary
    total = fewer = 0  # fewer: the splits into under m parts
    for m, ways in zip(range(1, min(d, hi) + 1), partition_counts(hi)):
        upto = sum(ways[2:])
        total += (m - 1) * (upto - fewer)
        if total > limit:
            break
        fewer = upto
    return total


class ParetoDP:
    """Minimal caterpillar-count vectors over d-ary trees, level by level.

    ``run(n_max)`` builds levels 1..n_max afresh and returns the DP itself;
    ``min_count``, ``vector`` and ``witness`` then read any level built.

    Levels are stored column-wise by leaf count s (index 0 unused):
    ``_cols[j - 2][s]`` is c_j, j = 2..k, and ``_split[s]`` the root branch
    sizes of the witness (None at s = 1, whose code is known). Only the
    columns the family does not fix, j >= lo (4 at d = 2 with k > 3, else
    3), are scanned and carry shares: ``_shares[j - lo]`` holds f_n(s) for
    s < n, n being the next level to build.
    """

    def __init__(self, k: int, d: int = 2):
        require_int(k, 3, "caterpillar size")
        require_int(d, 2, "arity bound")
        self.k = k
        self.d = d
        self._lo = 4 if d == 2 and k > 3 else 3
        self._split: list[tuple[int, ...] | None] = [None]  # no level until a run

    # -- levels --------------------------------------------------------------

    def _append(self, vector, split=None) -> None:
        """Store level n's (c_2, ..., c_k) and carry each share list up from
        f_n to f_{n+1}: f_{n+1}(s) = f_n(s) + c_{j-1}(s) for s < n, and
        f_{n+1}(n) = c_j(n) + c_{j-1}(n)."""
        n = len(self._split)
        cols = self._cols
        for col, c in zip(cols, vector):
            col.append(c)
        self._split.append(split)
        lo = self._lo
        self._shares = [
            [*map(add, f, below), col[n] + below[n]]
            for f, below, col in zip(self._shares, cols[lo - 3 :], cols[lo - 2 :])
        ]

    def _counts(self, n: int) -> tuple[int, ...]:
        """(c_2, c_3, ..., c_k) of level n."""
        if not 1 <= n <= self.max_n():
            raise KeyError(n)
        return tuple([col[n] for col in self._cols])

    def max_n(self) -> int:
        """The largest leaf count built so far."""
        return len(self._split) - 1

    def frontier_size(self, n: int) -> int:
        """Vectors kept at level n: always 1, since the DP raises
        ConsistencyError at any level whose frontier would hold more. Its only
        reader is the benchmark's tracer, ``perfbench/spans.py``."""
        return 1

    def min_count(self, n: int) -> int:
        """Exact minimum of c_k over d-ary trees with n leaves."""
        return self._counts(n)[-1]

    def vector(self, n: int) -> tuple[int, ...]:
        """(c_3, ..., c_k) of level n, each the minimum over its trees."""
        return self._counts(n)[1:]

    def witness(self, n: int) -> str:
        """Code of a d-ary tree with n leaves whose counts are ``vector(n)``,
        built from the root splits and memoized per level."""
        if not 1 <= n <= self.max_n():
            raise KeyError(n)
        memo = self._witnesses
        todo: set[int] = set()
        stack = [n]
        while stack:
            s = stack.pop()
            if s not in memo and s not in todo:
                todo.add(s)
                stack.extend(self._split[s])
        # every branch of a split is smaller than the level it splits
        for s in sorted(todo):
            memo[s] = join_codes([memo[p] for p in self._split[s]])
        return memo[n]

    # No-ops that nothing in the package calls: the benchmark's tracer,
    # ``perfbench/spans.py``, wraps them by name.
    def _load_level(self, n: int, memo: dict) -> None:
        pass

    def _store_level(self, n: int) -> None:
        pass

    # -- the DP proper ------------------------------------------------------

    def _columns(self, n: int):
        """Candidate columns of level n, and its splits into 3..d parts.

        Each scanned column holds its c_j of every candidate in generation
        order: the binary splits (a, n - a), a = 1..n//2, then the m-part
        partitions of n, m = 3..d, in ``partitions_into_parts`` order. A
        candidate's c_j is the sum of its branches' shares f_n(s).
        """
        h = n // 2
        parts = (partitions_into_parts(n, m) for m in range(3, min(self.d, n) + 1))
        multi = list(chain.from_iterable(parts))
        shares = self._shares
        columns = [list(map(add, f[1 : h + 1], reversed(f[n - h :]))) for f in shares]
        for _, group in groupby(multi, len):
            picks = list(zip(*group))  # picks[i][p]: size of branch i in partition p
            for column, f in zip(columns, shares):
                acc = map(f.__getitem__, picks[0])
                for sizes in picks[1:]:
                    acc = map(add, acc, map(f.__getitem__, sizes))
                column.extend(acc)
        return columns, multi

    def _select(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Level n's minimal (c_2, ..., c_k) and its first candidate's root split."""
        columns, multi = self._columns(n)
        fixed = tuple(comb(n, j) for j in range(2, self._lo))
        mins = tuple(map(min, columns))
        i = -1
        while True:
            try:
                i = columns[-1].index(mins[-1], i + 1)
            except ValueError:
                vectors = list(zip(*columns))
                a, b = pareto_minimal(vectors)[:2]
                raise ConsistencyError(
                    f"no candidate at d={self.d}, k={self.k}, n={n} attains every "
                    f"coordinate minimum; {fixed[1:] + vectors[a]} and "
                    f"{fixed[1:] + vectors[b]} are incomparable"
                ) from None
            if all(col[i] == m for col, m in zip(columns, mins)):
                break
        h = n // 2
        split = (i + 1, n - i - 1) if i < h else multi[i - h]
        vector = fixed + mins
        parts = [(s, self._counts(s)) for s in split]
        recount = combine_caterpillar_counts(parts, self.k)
        if recount != vector:
            raise ConsistencyError(
                f"counts of split {split} at d={self.d}, k={self.k}, n={n}: "
                f"columns give {vector[1:]}, recombined {recount[1:]}"
            )
        return vector, split

    def run(self, n_max: int) -> ParetoDP:
        """Build levels 1..n_max afresh, on every call, and return the DP.
        Each level keeps its (c_2, ..., c_k); only the columns the family
        does not fix are scanned and carry shares. The run is refused with
        BudgetError, keeping the levels built before it, when its levels'
        candidate vectors, each weighted by its parts less one, times the
        k - 2 columns of each exceed :data:`CANDIDATE_CAP`, and when its
        lists, priced as 2 (k - 2) of n_max + 1 entries each, do."""
        require_int(n_max, 1, "n_max")
        cols = self.k - 2
        found = _candidates(self.d, n_max, CANDIDATE_CAP // cols)  # level 1 has none
        if found * cols > CANDIDATE_CAP:
            raise BudgetError(
                f"levels 2..{n_max} at d={self.d}, k={self.k} need at least "
                f"{int_str(found * cols)} column additions "
                f"(k - 2 per candidate of m parts, times m - 1), "
                f"above the cap of {CANDIDATE_CAP}"
            )
        # a run with few levels and a huge k passes the check above
        entries = 2 * cols * (n_max + 1)
        if entries > CANDIDATE_CAP:
            raise BudgetError(
                f"levels 1..{n_max} at d={self.d}, k={self.k} store up to "
                f"{int_str(entries)} entries (2 (k - 2) lists of n_max + 1), "
                f"above the cap of {CANDIDATE_CAP}"
            )
        self._split, self._witnesses = [None], {1: "*"}
        self._cols = [[0] for _ in range(cols + 1)]  # c_2..c_k
        self._shares = [[0] for _ in range(self._lo, self.k + 1)]  # f_1
        self._append((0,) * (cols + 1))
        for n in range(2, n_max + 1):
            self._append(*self._select(n))
        return self
