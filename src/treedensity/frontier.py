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
frontier over all d-ary trees holds one vector at every level built. The DP
keeps the first candidate, in generation order, that attains every column
minimum.

A candidate's c_j is the sum over its branches of their shares
f_n(s) = c_j(s) + (n - s) c_{j-1}(s). Since f_{n+1}(s) = f_n(s) + c_{j-1}(s),
the DP carries each share up a level with one addition. Every candidate is a
head, its first m - 2 parts, plus a last pair; the pairs (p, rest - p),
p = low..top, that complete one head form a block, whose entries are two
slices of the share list added entrywise plus the head's own share sum. The
binary splits are the block of the empty head, so splits into 2..d parts
take one path.

A level keeps its full (c_2, ..., c_k), but a run to n_max scans and
carries shares for only the columns c_lo, ..., c_top that neither the family
fixes nor its size keeps at 0. Below: c_2 is C(n, 2) for every n-leaf tree,
and at d = 2 so is c_3 = C(n, 3), since every three leaves of a binary tree
induce the 3-leaf caterpillar, so lo = 4 at d = 2 with k > 3, else 3.
Above: top = max(lo, min(k, h + 2)), where d^(h-1) < n_max <= d^h. A level
s <= n_max <= d^(j-3), for j >= h + 3, has a tree of height j - 3 or less,
which holds no (j-1)-leaf caterpillar, so its minimal c_{j-1}(s) and c_j(s)
are 0, and so is every share c_j(s) + (n - s) c_{j-1}(s). Every candidate
attains a column's minimum that is constant over the candidates, so such a
column cannot change the chosen split; the level's vector takes its
binomial or its 0, and the recount of its split checks the whole vector. At
d = 2 with k = 3 the c_3 column is scanned, so that every level has a
column to scan.

The columns c_lo, ..., c_top are packed into one int per branch size,
field t, of W bits, holding column lo + t, so c_top is the top field, and
J = top + 1 - lo fields are laid out. A field holds a candidate's c_j or
part of its sum, a share f_{n+1}(s) or a c_{j-1}(s): each is at most the
number of j- or (j-1)-leaf subsets of one tree of at most n_max + 1 leaves,
so at most C(n_max + 1, j) for some j = lo - 1..top, and W is chosen with
W - 1 >= the bit length of the largest of those binomials, the one at the
j nearest (n_max + 1) / 2. No field then reaches its top bit, so adding
packed ints adds every field at once with no carry between fields, and
integer order is lexicographic order, c_top first. A level is then one
pass of additions per block, one ``min`` and one ``index``, whatever the
number of columns. A candidate that attains every column minimum is
fieldwise at most every other, so it is the least int, and the first least
candidate is the one the DP keeps exactly when the least int's lower fields
equal their columns' minima, which one more pass checks.

Every level is computed: a stored level could be checked for being attained
by its witness, but proving it minimal takes the very recomputation that
storing it would save.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from math import comb
from operator import add, and_
from typing import Sequence

from ._partitions import partition_counts, partition_heads
from .counting import combine_caterpillar_counts
from .errors import BudgetError, ConsistencyError, int_str, require_int
from .trees import join_codes

__all__ = [
    "ParetoDP",
]

# the most packed steps one run may take, as ParetoDP._price counts them: a
# candidate of m parts takes m - 1 steps, its additions, and one more for its
# check when the DP scans more than one column; a carried share takes half a
# step; each step weighs 1 + B / 256 for the B = J * W bytes of a packed int
# as laid out; and every level takes 4k steps, for its vector, its recount
# and its unpacking. In-process runs near the cap took 76-109 ns a step on
# a 2-vCPU host, at k = 3..800 and d = 2..6
CANDIDATE_CAP = 25 * 10**6


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


def _candidates(d: int, hi: int, limit: int, check: bool) -> int:
    """Candidate vectors of the levels 2..hi, one for each split of a level
    n into m parts, 2 <= m <= d, weighted by m - 1 + ``check`` and counted
    until they exceed ``limit``.

    The binary splits are in closed form, since the sum of n // 2 over
    n <= hi is hi^2 // 4, and settle d = 2. Otherwise
    :func:`partition_counts` counts the partitions of each level into at
    most m parts for m = 1, 2, ... in turn, so each step from m = 2 on adds
    the m-part splits, and the weighted count only grows as m does.
    """
    binary = (1 + check) * (hi * hi // 4)
    if d < 3 or binary > limit:
        return binary
    total, fewer = 0, hi - 1  # fewer: the splits into under m parts
    for m, ways in zip(range(2, min(d, hi) + 1), islice(partition_counts(hi), 1, None)):
        upto = sum(ways[2:])
        total += (m - 1 + check) * (upto - fewer)
        if total > limit:
            break
        fewer = upto
    return total


class ParetoDP:
    """Minimal caterpillar-count vectors over d-ary trees, level by level.

    ``run(n_max)`` builds levels 1..n_max afresh and returns the DP itself;
    ``min_count``, ``vector`` and ``witness`` then read any level built.

    Levels are stored by leaf count s (index 0 unused): ``_vectors[s]`` is
    (c_2, ..., c_k), and ``_split[s]`` the root branch sizes of the witness
    (None at s = 1, whose code is known). A run scans the ``_fields``
    columns j = lo..top of the module docstring, packed ``_size`` bytes a
    field, lowest first: ``_f[s]`` holds their shares f_n(s) for s < n, n
    being the next level to build, and ``_below[s]`` level s's c_{j-1},
    j = lo..top.
    """

    def __init__(self, k: int, d: int = 2):
        require_int(k, 3, "caterpillar size")
        require_int(d, 2, "arity bound")
        self.k = k
        self.d = d
        self._lo = 4 if d == 2 and k > 3 else 3
        self._split: list[tuple[int, ...] | None] = [None]  # no level until a run

    # -- levels --------------------------------------------------------------

    def _counts(self, n: int) -> tuple[int, ...]:
        """(c_2, c_3, ..., c_k) of level n."""
        if not 1 <= n <= self.max_n():
            raise KeyError(n)
        return self._vectors[n]

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

    def _unpack(self, x: int) -> tuple[int, ...]:
        """(c_lo, ..., c_k) of a packed candidate: its fields, lowest first,
        then a 0 for each column above c_top, which the run does not lay
        out."""
        size = self._size
        raw = x.to_bytes(self._fields * size, "little")
        return (
            *[int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)],
            *[0] * (self.k + 1 - self._lo - self._fields),
        )

    def _blocks(self, n: int) -> tuple[list[int], list[tuple]]:
        """Level n's packed candidates in generation order, and the heads
        that generate them.

        The candidates are the partitions of n into m parts, m = 2..d, in
        ``partition_heads`` order, so the binary splits (a, n - a),
        a = 1..n//2, come first as the block of the empty head. A candidate
        is the sum of its branches' packed shares f_n(s): a head's block adds
        the shares of each last pair (p, rest - p), p = low..top, two slices
        of the share list, and then, if the head has parts, its own share sum.
        """
        f = self._f
        heads = [((), n, 1, n // 2)]  # partition_heads(n, 2): the binary splits
        for m in range(3, min(self.d, n) + 1):
            heads += partition_heads(n, m)
        candidates: list[int] = []
        for head, rest, low, top in heads:
            block = map(add, f[low : top + 1], reversed(f[rest - top : rest - low + 1]))
            if head:
                block = map(sum(map(f.__getitem__, head)).__add__, block)
            candidates.extend(block)
        return candidates, heads

    def _level(self, n: int) -> None:
        """Build level n: its minimal (c_2, ..., c_k), the root split of its
        first candidate that attains it, and the shares carried up to n + 1.

        The least packed candidate is the lexicographic minimum, c_k first,
        so it holds the c_k minimum, and the first candidate that attains
        every column minimum is the first least one exactly when the least
        one's lower fields are their columns' minima. With one lower field,
        masking it off and taking the least checks that. With more, adding
        ``guards - least`` to a candidate, ``guards`` setting the top bit
        2^(W-1) of each lower field, leaves x_t + 2^(W-1) - least_t in each
        field t, which is in 1..2^W - 1 since both fields are below 2^(W-1):
        no field borrows or carries, and field t keeps its guard exactly when
        x_t >= least_t.
        """
        candidates, heads = self._blocks(n)
        least = min(candidates)
        fixed = (comb(n, 2), comb(n, 3))[: self._lo - 2]  # the columns fixed
        lower = self._low
        if not least & lower:  # no lower field (J = 1), or each is 0
            attained = True
        elif self._fields == 2:
            attained = min(map(lower.__and__, candidates)) == least & lower
        else:
            guards = self._guards
            spare = guards - least
            attained = reduce(and_, map(spare.__add__, candidates), guards) == guards
        if not attained:
            vectors = list(map(self._unpack, candidates))
            a, b = pareto_minimal(vectors)[:2]
            raise ConsistencyError(
                f"no candidate at d={self.d}, k={self.k}, n={n} attains every "
                f"coordinate minimum; {fixed[1:] + vectors[a]} and "
                f"{fixed[1:] + vectors[b]} are incomparable"
            )
        i = candidates.index(least)
        for head, rest, low, top in heads:  # the block that holds candidate i
            if i <= top - low:
                break
            i -= top - low + 1
        split = head + (low + i, rest - low - i)
        vector = fixed + self._unpack(least)
        parts = [(s, self._vectors[s]) for s in split]
        recount = combine_caterpillar_counts(parts, self.k)
        if recount != vector:
            raise ConsistencyError(
                f"counts of split {split} at d={self.d}, k={self.k}, n={n}: "
                f"columns give {vector[1:]}, recombined {recount[1:]}"
            )
        self._store(vector, split, least)

    def _store(self, vector, split, packed: int) -> None:
        """Store level n's (c_2, ..., c_k), whose scanned columns ``packed``
        holds, and carry the shares up from f_n to f_{n+1}: f_{n+1}(s) =
        f_n(s) + c_{j-1}(s) for s < n, and f_{n+1}(n) = c_j(n) + c_{j-1}(n).
        Level n's c_{j-1} for j = lo..top are ``packed``'s fields c_lo..c_{top-1}
        moved up a field, under c_{lo-1}, a column the family fixes."""
        self._vectors.append(vector)
        self._split.append(split)
        below = ((packed & self._low) << (8 * self._size)) + vector[self._lo - 3]
        self._f = [*map(add, self._f, self._below), packed + below]
        self._below.append(below)

    def _price(self, n_max: int, limit: int) -> tuple[int, int, int]:
        """The packed steps of a run to n_max, as :data:`CANDIDATE_CAP` counts
        them; J, the fields it lays out; and W, the bytes of a field. A price
        above ``limit`` may be a lower bound, with W = 0: W's binomial took
        11 s at n_max = 10^6."""
        h = 1
        while self.d**h < n_max:
            h += 1
        top = max(self._lo, min(self.k, h + 2))
        fields = top + 1 - self._lo
        levels = 4 * self.k * (n_max + 1)  # vector, recount, unpacking
        carries = n_max * (n_max + 1) // 4  # half a step per share carried
        steps = carries + _candidates(self.d, n_max, limit - levels - carries, fields > 1)
        if levels + steps > limit:
            return levels + steps, fields, 0
        # the module docstring's field bound: C(n_max + 1, j) at its peak j
        size = comb(n_max + 1, min(max((n_max + 1) // 2, self._lo - 1), top)).bit_length() // 8 + 1
        return levels + steps * (256 + fields * size) // 256, fields, size

    def run(self, n_max: int) -> ParetoDP:
        """Build levels 1..n_max afresh, on every call, and return the DP, or
        refuse with BudgetError, keeping the levels built before, a run whose
        packed steps (:meth:`_price`) exceed :data:`CANDIDATE_CAP`."""
        require_int(n_max, 1, "n_max")
        price, fields, size = self._price(n_max, CANDIDATE_CAP)
        if price > CANDIDATE_CAP:
            raise BudgetError(
                f"levels 1..{n_max} at d={self.d}, k={self.k} need at least {int_str(price)} "
                f"packed steps (m - 1 a candidate of m parts and 1 more if checked, 1/2 a "
                f"carried share, each times 1 + packed bytes / 256, and 4k a level), above "
                f"the cap of {CANDIDATE_CAP}"
            )
        self._fields, self._size = fields, size
        self._low = (1 << (8 * size * (fields - 1))) - 1
        self._guards = int.from_bytes((bytes(size - 1) + b"\x80") * (fields - 1), "little")
        self._vectors, self._split, self._witnesses = [None], [None], {1: "*"}
        self._f, self._below = [0], [0]
        self._store((0,) * (self.k - 1), None, 0)
        for n in range(2, n_max + 1):
            self._level(n)
        return self
