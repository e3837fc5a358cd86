"""Single-vector dynamic program for minimum caterpillar counts.

The combiner in :func:`treedensity.counting.combine_caterpillar_counts` is
monotone: raising any branch count c_j(T_i) can only raise the counts of the
combined tree. (c_2 is C(n, 2) for every n-leaf tree, so it is not stored.)

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

Levels can be persisted as JSON lines, one file per (d, k, n) holding the
vector and one witness tree, which makes long sweeps resumable and their
outputs byte-reproducible. A loaded level is trusted only after its witness
is recounted from its characters and matches the stored vector.
``cache_report`` lists or clears those files.
"""

from __future__ import annotations

import json
import os
from itertools import chain, groupby, islice
from math import comb
from operator import add, mul
from pathlib import Path
from typing import Sequence

from .counting import caterpillar_counts_of_code, combine_caterpillar_counts
from .errors import BudgetError, CacheError, ConsistencyError, ParseError, PreconditionError
from .reporting import SearchReport

__all__ = [
    "ParetoDP",
    "pareto_minimal",
    "cache_report",
    "DEFAULT_CANDIDATE_CAP",
]

DEFAULT_CANDIDATE_CAP = 5 * 10**6
_CACHE_GLOB = "frontier_*.jsonl"  # every name ParetoDP._cache_file makes


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


def _partitions_into_parts(n: int, m: int):
    """Nondecreasing positive integer m-tuples summing to n, in lexicographic
    order. For each head (the first m - 2 parts) the last two parts run
    through every split of what remains; then the rightmost head part that
    can still grow does, and the head parts after it take its new value."""
    if n < m:
        return
    if m == 1:
        yield (n,)
        return
    head = [1] * (m - 2)
    while True:
        rest = n - sum(head)
        low = head[-1] if head else 1
        top = rest // 2
        pairs = zip(range(low, top + 1), range(rest - low, rest - top - 1, -1))
        yield from map(tuple(head).__add__, pairs)
        before = sum(head)  # sum(head[:i]) as i moves left
        for i in range(m - 3, -1, -1):
            before -= head[i]
            v = head[i] + 1
            if v * (m - i) <= n - before:  # room for the two last parts too
                head[i:] = [v] * (m - 2 - i)
                break
        else:
            return


class ParetoDP:
    """Minimal caterpillar-count vectors over d-ary trees, level by level.

    ``run(n_max)`` fills levels 1..n_max, may be called repeatedly with
    growing bounds (existing levels are reused) and returns the DP itself;
    ``min_count``, ``vector`` and ``witness`` then read any level built. With
    a ``cache_dir`` the levels are read from and written to JSON-lines files
    keyed by (d, k, n), so an interrupted sweep resumes where it stopped.

    Levels are stored column-wise by leaf count s (index 0 unused): ``_c2[s]``
    is C(s, 2), ``_cols[j - 3][s]`` is c_j, and ``_split[s]`` the root branch
    sizes of the witness (None where the code is known: s = 1 or cached).
    """

    def __init__(
        self,
        k: int,
        d: int = 2,
        *,
        candidate_cap: int = DEFAULT_CANDIDATE_CAP,
        cache_dir: str | os.PathLike | None = None,
    ):
        if not isinstance(k, int) or k < 3:
            raise PreconditionError(f"caterpillar size must be an integer >= 3, got {k!r}")
        if not isinstance(d, int) or d < 2:
            raise PreconditionError(f"arity bound must be an integer >= 2, got {d!r}")
        self.k = k
        self.d = d
        self.candidate_cap = candidate_cap
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._c2 = [0]
        self._cols: list[list[int]] = [[0] for _ in range(k - 2)]
        self._split: list[tuple[int, ...] | None] = [None]
        self._witnesses: dict[int, str] = {}

    # -- levels --------------------------------------------------------------

    def _append(self, vector, split=None, witness=None) -> None:
        n = len(self._c2)
        self._c2.append(comb(n, 2))
        for col, c in zip(self._cols, vector):
            col.append(c)
        self._split.append(split)
        if witness is not None:
            self._witnesses[n] = witness

    def _counts(self, n: int) -> tuple[int, ...]:
        """(c_2, c_3, ..., c_k) of level n."""
        if not 1 <= n <= self.max_n():
            raise KeyError(n)
        return (self._c2[n], *(col[n] for col in self._cols))

    def max_n(self) -> int:
        """The largest leaf count built so far."""
        return len(self._c2) - 1

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
            parts = sorted((memo[p] for p in self._split[s]), key=lambda c: (len(c), c))
            memo[s] = "(" + "".join(parts) + ")"
        return memo[n]

    # -- cache helpers -----------------------------------------------------

    def _cache_file(self, n: int) -> Path:
        if self.cache_dir is None:
            raise PreconditionError("this DP has no cache directory")
        return self.cache_dir / f"frontier_d{self.d}_k{self.k}_n{n}.jsonl"

    def _load_level(self, n: int, memo: dict) -> tuple[tuple[int, ...], str] | None:
        """Level n from its cache file, or None if there is none.

        The witness is recounted with :func:`caterpillar_counts_of_code`
        (sharing ``memo``), and any disagreement with n, d or the stored
        vector raises CacheError naming the file.
        """
        if self.cache_dir is None:
            return None
        path = self._cache_file(n)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                objs = [json.loads(line) for line in fh if line.strip()]
            if len(objs) != 1:
                raise CacheError(f"frontier cache file {path} holds {len(objs)} entries, not 1")
            obj = objs[0]
            vec = tuple(int(x) for x in obj["vector"])
            witness = obj.get("witness")
            if obj["n"] != n or len(vec) != self.k - 2:
                raise CacheError(f"cache file {path} does not match (k={self.k}, n={n})")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise CacheError(f"corrupt frontier cache file {path}: {err}") from err
        if not isinstance(witness, str):
            raise CacheError(f"cache file {path} holds witness {witness!r}, not a code")
        try:
            leaves, outdegree, counts = caterpillar_counts_of_code(witness, self.k, memo)
        except ParseError as err:
            raise CacheError(f"cache file {path} holds a malformed witness: {err}") from None
        if leaves != n or outdegree > self.d:
            raise CacheError(
                f"cache file {path} holds witness {witness!r} with {leaves} leaves and "
                f"outdegree {outdegree}, not a {self.d}-ary tree with {n} leaves"
            )
        if counts[1:] != vec:
            raise CacheError(
                f"cache file {path} stores vector {vec}, but its witness recounts to {counts[1:]}"
            )
        return vec, witness

    def _store_level(self, n: int) -> None:
        if self.cache_dir is None:
            return
        line = json.dumps(
            {"n": n, "vector": list(self.vector(n)), "witness": self.witness(n)},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_file(n)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        os.replace(tmp, path)

    # -- the DP proper ------------------------------------------------------

    def _columns(self, n: int):
        """Candidate columns of level n, and its splits into 3..d parts.

        Column j - 3 holds c_j of every candidate in generation order: the
        binary splits (a, n - a), a = 1..n//2, then the m-part partitions of
        n, m = 3..d, in ``_partitions_into_parts`` order.
        """
        h = n // 2
        room = max(0, self.candidate_cap + 1 - h)
        parts = (_partitions_into_parts(n, m) for m in range(3, min(self.d, n) + 1))
        multi = list(islice(chain.from_iterable(parts), room))
        if h + len(multi) > self.candidate_cap:
            raise BudgetError(
                f"level n={n} produced more than {self.candidate_cap} "
                f"candidate vectors; raise candidate_cap to continue"
            )
        weights = range(n, 0, -1)  # n - s for s = 0..n-1
        # terms[j - 3][s] = c_j(s) + (n - s) c_{j-1}(s): branch s's share of c_j
        terms = []
        below = self._c2
        for col in self._cols:
            terms.append(list(map(add, col[:n], map(mul, weights, below[:n]))))
            below = col
        columns = [list(map(add, f[1 : h + 1], reversed(f[n - h :]))) for f in terms]
        for _, group in groupby(multi, len):
            picks = list(zip(*group))  # picks[i][p]: size of branch i in partition p
            for column, f in zip(columns, terms):
                acc = map(f.__getitem__, picks[0])
                for sizes in picks[1:]:
                    acc = map(add, acc, map(f.__getitem__, sizes))
                column.extend(acc)
        return columns, multi

    def _select(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Level n's minimal vector and the root split of its first candidate."""
        columns, multi = self._columns(n)
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
                    f"coordinate minimum; {vectors[a]} and {vectors[b]} are incomparable"
                ) from None
            if all(col[i] == m for col, m in zip(columns, mins)):
                break
        h = n // 2
        split = (i + 1, n - i - 1) if i < h else multi[i - h]
        parts = [(s, self._counts(s)) for s in split]
        recount = combine_caterpillar_counts(parts, self.k)[1:]
        if recount != mins:
            raise ConsistencyError(
                f"counts of split {split} at d={self.d}, k={self.k}, n={n}: "
                f"columns give {mins}, recombined {recount}"
            )
        return mins, split

    def _build_level(self, n: int, memo: dict) -> None:
        if n <= self.max_n():
            return
        loaded = self._load_level(n, memo)
        if loaded is not None:
            vector, witness = loaded
            self._append(vector, witness=witness)
            return
        if n == 1:
            self._append((0,) * (self.k - 2), witness="*")
        else:
            self._append(*self._select(n))
        self._store_level(n)

    def run(self, n_max: int) -> ParetoDP:
        if not isinstance(n_max, int) or n_max < 1:
            raise PreconditionError(f"n_max must be an integer >= 1, got {n_max!r}")
        memo: dict = {}  # witness recounts of the cached levels share subtrees
        for n in range(1, n_max + 1):
            self._build_level(n, memo)
        return self


def cache_report(cache_dir: str | os.PathLike, *, clear: bool = False) -> SearchReport:
    """Number and total bytes of the frontier cache files in ``cache_dir``,
    after deleting every one of them when ``clear`` is set."""
    cache_dir = Path(cache_dir)
    files = sorted(cache_dir.glob(_CACHE_GLOB)) if cache_dir.is_dir() else []
    if clear:
        for f in files:
            f.unlink()
        files = []
    return SearchReport(
        mode="cache",
        params={"cleared": clear},
        columns=("path", "files", "bytes"),
        rows=[(str(cache_dir), len(files), sum(f.stat().st_size for f in files))],
    )
