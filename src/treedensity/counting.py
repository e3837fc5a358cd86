"""Counting copies of leaf-induced subtree patterns, exactly.

Selecting a set S of leaves of a tree T induces a smaller tree: take the
minimal subtree spanning S and the root paths down to it, then suppress every
vertex that is left with a single child. ``induced_subtree`` performs that
operation. For a pattern D, c(D, T) is the number of leaf subsets of T whose
induced tree is isomorphic to D; the density of D in T divides c(D, T) by the
number of subsets of that size, so it always lands in [0, 1].

Two independent routes to c(D, T) live here. ``count_copies_brute`` walks
every subset and is the ground truth at small sizes; it reads each induced
code straight off the depths at which consecutive chosen leaves meet, taken
from a range-minimum table built once per host, and builds no Tree, so it
shares nothing with the recursion. ``count_copies`` runs a
branch decomposition: a copy of D either sits inside a single branch of T, or
its root is the root of T and each branch of D is induced inside a distinct
branch of T. The cross term enumerates, per choice of |D|-many branches of T,
the distinct ways to assign D's branch isomorphism classes to them
(:func:`branch_pattern` precomputes those assignments).

``CopyEngine`` and ``caterpillar_counts`` share one bottom-up walk over a
host's distinct subtrees, fewest leaves first, so no count recurses over the
host's depth. No memo lives at module level: an engine owns its rows
(``count_copies`` and ``density`` build one per call), and the caller owns
``caterpillar_counts``'s. ``caterpillar_counts_of_code`` runs the caterpillar
combine straight off a bracket code, which is how witnesses are recounted.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, compress, count
from math import comb
from operator import not_
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import BudgetError, ConsistencyError, PreconditionError
from .reporting import SearchReport, decimal_str
from .trees import Tree, leaf, node, parse_tree

__all__ = [
    "induced_subtree",
    "count_copies_brute",
    "brute_copy_profile",
    "BranchPattern",
    "branch_pattern",
    "CopyEngine",
    "count_copies",
    "density",
    "count_report",
    "CountVector",
    "caterpillar_counts",
    "combine_caterpillar_counts",
    "caterpillar_counts_of_code",
    "DEFAULT_SUBSET_CAP",
]

DEFAULT_SUBSET_CAP = 10**8


def induced_subtree(t: Tree, leaves: Iterable[int]) -> Tree:
    """Tree induced by the given leaf indices of ``t``.

    Leaves are numbered 0..t.leaf_count-1 in depth-first (canonical) order.
    The argument must be a nonempty collection of valid indices; duplicates
    are tolerated. A single index induces the one-leaf tree.
    """
    sel = sorted(set(leaves))
    if not sel:
        raise PreconditionError("need at least one leaf index")
    if sel[0] < 0 or sel[-1] >= t.leaf_count:
        raise PreconditionError(
            f"leaf indices must lie in [0, {t.leaf_count - 1}], got {sel[0]}..{sel[-1]}"
        )

    # Depth-first with an explicit stack. An int on the stack closes a vertex
    # from that many finished children; a vertex with one child holding
    # chosen leaves is suppressed, and that child's tree stands in for it.
    done: list[Tree] = []
    stack: list = [(t, 0)]
    while stack:
        top = stack.pop()
        if isinstance(top, int):
            done[-top:] = [node(done[-top:])]
        elif top[0].is_leaf:
            done.append(leaf())
        else:
            u, base = top
            live = []
            for c in u.children:
                if bisect_left(sel, base) < bisect_left(sel, base + c.leaf_count):
                    live.append((c, base))
                base += c.leaf_count
            if len(live) > 1:
                stack.append(len(live))
            stack.extend(reversed(live))
    if len(done) != 1:
        raise ConsistencyError(f"{len(sel)} leaves of a {t.leaf_count}-leaf tree induced no tree")
    return done[0]


def _check_subset_budget(n: int, k: int, max_subsets: int, force: bool) -> None:
    total = comb(n, k)
    if total > max_subsets and not force:
        raise BudgetError(
            f"brute-force enumeration of C({n},{k}) = {total} subsets exceeds "
            f"the cap of {max_subsets}; pass force=True to run anyway"
        )


def _adjacent_lca_depths(t: Tree) -> list[int]:
    """Depth of LCA(leaf l, leaf l + 1) for l = 0..n-2, leaves in the
    depth-first order of :func:`induced_subtree`."""
    depths: list[int] = []
    stack = [(t, 0)]
    after_leaf = False
    while stack:
        u, depth = stack.pop()
        if after_leaf:
            # the first vertex entered after leaf l is a child of LCA(l, l + 1)
            depths.append(depth - 1)
            after_leaf = False
        if u.is_leaf:
            after_leaf = True
        else:
            stack.extend((c, depth + 1) for c in reversed(u.children))
    return depths


def _range_minima(values: list[int]) -> list[tuple[list[int], int]]:
    """Sparse table of ``values``: entry L - 1, for 1 <= L <= len(values),
    is (row, w) with w the largest power of two <= L and row[i] =
    min(values[i : i + w]), so min(values[a:b]) with b - a = L is
    min(row[a], row[b - w]). The rows, one per power of two, hold
    O(n log n) integers."""
    rows = [values]
    w = 1
    while 2 * w <= len(values):
        prev = rows[-1]
        rows.append([x if x < y else y for x, y in zip(prev, prev[w:])])
        w *= 2
    return [(rows[L.bit_length() - 1], 1 << (L.bit_length() - 1))
            for L in range(1, len(values) + 1)]


def _close(codes: list[str]) -> str:
    # a stable sort by length after one by code leaves (length, code) order
    codes.sort()
    codes.sort(key=len)
    return "(" + "".join(codes) + ")"


def _induced_codes(t: Tree, k: int) -> Iterator[str]:
    """Canonical code of the tree induced by each k-subset of t's leaves, in
    ``itertools.combinations`` order, without building Tree objects.

    Consecutive chosen leaves a < b meet at depth min(adj[a:b]), read off a
    sparse table built once per host. The induced tree's internal vertices
    are exactly those meeting points, so a stack of open vertices (depths
    strictly increasing) assembles it left to right.
    """
    spans = _range_minima(_adjacent_lca_depths(t))
    for subset in combinations(range(t.leaf_count), k):
        depths: list[int] = []
        kids: list[list[str]] = []
        cur = "*"
        for a, b in zip(subset, subset[1:]):
            row, w = spans[b - a - 1]
            h = row[a]
            if row[b - w] < h:
                h = row[b - w]
            while depths and depths[-1] > h:
                depths.pop()
                group = kids.pop()
                group.append(cur)
                cur = _close(group)
            if depths and depths[-1] == h:
                kids[-1].append(cur)
            else:
                depths.append(h)
                kids.append([cur])
            cur = "*"
        while kids:
            group = kids.pop()
            group.append(cur)
            cur = _close(group)
        yield cur


def count_copies_brute(
    d_pattern: Tree,
    t: Tree,
    *,
    max_subsets: int = DEFAULT_SUBSET_CAP,
    force: bool = False,
) -> int:
    """c(D, T) by enumerating every |D|-subset of T's leaves.

    Exponential and intended as an oracle at small sizes only; refuses with
    BudgetError when C(|T|, |D|) exceeds ``max_subsets`` unless forced.
    """
    k = d_pattern.leaf_count
    n = t.leaf_count
    if k > n:
        return 0
    _check_subset_budget(n, k, max_subsets, force)
    target = d_pattern.code
    return sum(1 for code in _induced_codes(t, k) if code == target)


def brute_copy_profile(
    t: Tree,
    k: int,
    *,
    max_subsets: int = DEFAULT_SUBSET_CAP,
    force: bool = False,
) -> dict[str, int]:
    """Tally {pattern code: copies} over all k-subsets of T's leaves.

    One pass shared by every pattern of size k; the counts sum to C(n, k).
    """
    n = t.leaf_count
    if k < 1:
        raise PreconditionError(f"subset size must be >= 1, got {k}")
    if k > n:
        return {}
    _check_subset_budget(n, k, max_subsets, force)
    return dict(Counter(_induced_codes(t, k)))


@dataclass(frozen=True)
class BranchPattern:
    """Root branch structure of a pattern D, preprocessed for the cross term.

    ``class_reps`` lists the distinct branch shapes (canonical order) and
    ``multiplicities`` how often each occurs. ``assignments`` holds every
    distinct sequence of branch shapes of length ``len(branches)``; its size
    is the multinomial coefficient r! / (m_1! ... m_c!).
    """

    branches: tuple[Tree, ...]
    class_reps: tuple[Tree, ...]
    multiplicities: tuple[int, ...]
    assignments: tuple[tuple[Tree, ...], ...]


def _distinct_sequences(mults: Sequence[int]):
    """Every distinct arrangement of ``mults[c]`` copies of each class c, in
    lexicographic order, by repeated next-permutation of the sorted classes."""
    seq = [c for c, m in enumerate(mults) for _ in range(m)]
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def branch_pattern(d_pattern: Tree) -> BranchPattern:
    """Precompute branch classes and distinct assignments for a pattern root."""
    if d_pattern.is_leaf:
        raise PreconditionError("a leaf has no branch structure")
    reps: list[Tree] = []
    mults: list[int] = []
    for b in d_pattern.children:  # children arrive sorted, equal codes adjacent
        if reps and reps[-1].code == b.code:
            mults[-1] += 1
        else:
            reps.append(b)
            mults.append(1)
    assignments = tuple(
        tuple(reps[ci] for ci in idx_seq) for idx_seq in _distinct_sequences(mults)
    )
    return BranchPattern(d_pattern.children, tuple(reps), tuple(mults), assignments)


def _internal_subtrees(t: Tree, known) -> list[Tree]:
    """The distinct internal subtrees of ``t`` whose codes ``known`` lacks,
    fewest leaves first. Memos are filled in this order, so the walk need
    not descend below a known code."""
    found: dict[str, Tree] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if u.children and u.code not in known and u.code not in found:
            found[u.code] = u
            stack.extend(u.children)
    return sorted(found.values(), key=lambda u: u.leaf_count)


class CopyEngine:
    """Copy counter that fills one row of counts per host subtree.

    A pattern's distinct internal shapes are numbered fewest leaves first,
    and each shape's branch assignments are written as shape numbers, with
    -1 for a leaf. The row of a host subtree u holds c(S, u) for every shape
    S, then u's leaf count, the count of the one-leaf pattern. Rows are
    filled bottom-up: the sum of the children's rows plus the cross term.

    The memo, one table of rows per pattern code, belongs to the instance and
    only ever grows, so an engine sweeping trees with shared subtrees pays
    for each once; call :meth:`clear` to reset it.
    """

    def __init__(self):
        self._memo: dict[str, tuple[list, dict[str, list[int]]]] = {}

    def clear(self) -> None:
        self._memo.clear()

    def count(self, d_pattern: Tree, t: Tree) -> int:
        """Number of leaf subsets of ``t`` inducing a copy of ``d_pattern``."""
        if d_pattern.code not in self._memo:
            shapes = _internal_subtrees(d_pattern, ())
            index = {s.code: i for i, s in enumerate(shapes)} | {"*": -1}
            plan = [
                (s.leaf_count, s.outdegree,
                 [[index[b.code] for b in a] for a in branch_pattern(s).assignments])
                for s in shapes
            ]
            self._memo[d_pattern.code] = (plan, {"*": [0] * len(shapes) + [1]})
        plan, rows = self._memo[d_pattern.code]
        for u in _internal_subtrees(t, rows):
            kids = [rows[c.code] for c in u.children]
            row = [sum(col) for col in zip(*kids)]
            for i, (size, r, assignments) in enumerate(plan):
                if size > u.leaf_count:
                    break  # this shape and the larger ones stay at 0
                if r > len(kids):
                    continue
                for hosts in combinations(kids, r):
                    for assignment in assignments:
                        prod = 1
                        for j, host in zip(assignment, hosts):
                            prod *= host[j]
                            if not prod:
                                break
                        row[i] += prod
            rows[u.code] = row
        # the pattern is its own largest shape, and a one-leaf pattern has no
        # shapes, so either way its number is len(plan) - 1
        return rows[t.code][len(plan) - 1]

    def density(self, d_pattern: Tree, t: Tree) -> Fraction:
        k = d_pattern.leaf_count
        n = t.leaf_count
        if n < k:
            raise PreconditionError(
                f"density needs at least as many tree leaves ({n}) as pattern leaves ({k})"
            )
        return Fraction(self.count(d_pattern, t), comb(n, k))


def count_copies(d_pattern: Tree, t: Tree) -> int:
    """c(D, T) via the branch decomposition, in a fresh engine."""
    return CopyEngine().count(d_pattern, t)


def density(d_pattern: Tree, t: Tree) -> Fraction:
    """c(D, T) / C(|T|, |D|) as an exact fraction. Requires |T| >= |D|."""
    return CopyEngine().density(d_pattern, t)


def count_report(
    d_pattern: Tree, t: Tree, *, mode: str = "count", brute: bool = False, force: bool = False
) -> SearchReport:
    """One-row report of c(D, T) and, when |T| >= |D|, its density.

    The count is taken once, by the recursion or (``brute``) the oracle, and
    the density is formed from it. ``mode`` "density" refuses hosts with
    fewer leaves than the pattern; "count" leaves their density cells blank.
    """
    start = time.perf_counter()
    c = count_copies_brute(d_pattern, t, force=force) if brute else count_copies(d_pattern, t)
    k, n = d_pattern.leaf_count, t.leaf_count
    if mode == "density" and n < k:
        raise PreconditionError(f"density needs a host with at least {k} leaves, got {n}")
    dens: tuple = ("", "", "")
    if n >= k:
        q = Fraction(c, comb(n, k))
        dens = (q.numerator, q.denominator, decimal_str(q))
    return SearchReport(
        mode=mode,
        params={"pattern": d_pattern.code, "tree_leaves": n,
                "method": "brute" if brute else "recursion"},
        columns=("pattern_code", "tree_code", "pattern_leaves", "tree_leaves", "count",
                 "density_num", "density_den", "density_decimal"),
        rows=[(d_pattern.code, t.code, k, n, c, *dens)],
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class CountVector:
    """Copies of every binary caterpillar size 2..k in one n-leaf tree.

    ``counts[j - 2]`` is the number of j-leaf binary caterpillar copies;
    indexing the object with j does the shift for you.
    """

    n: int
    k: int
    counts: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        if not 2 <= j <= self.k:
            raise IndexError(f"caterpillar size must be in [2, {self.k}], got {j}")
        return self.counts[j - 2]


def combine_caterpillar_counts(
    parts: Sequence[tuple[int, Sequence[int]]], k: int
) -> tuple[int, ...]:
    """Caterpillar counts of a tree from those of its root branches.

    ``parts`` holds (leaf_count, counts c_2..c_k) per branch. Every pair of
    leaves induces a cherry, so c_2 is C(n, 2) outright. For j >= 3 a copy
    either lies inside one branch or pairs a leaf from one branch with a
    (j-1)-caterpillar from a different branch:

        c_j = sum_i c_j(T_i) + sum_i (n - n_i) * c_{j-1}(T_i).

    The output is monotone in every input coordinate, which is what lets the
    minimum-count DP build each level from the minimal vectors of the smaller
    ones.
    """
    if k < 2:
        raise PreconditionError(f"need k >= 2, got {k}")
    if len(parts) < 2:
        raise PreconditionError("a combine needs at least two branches")
    n = sum(ni for ni, _ in parts)
    out = [0] * (k - 1)
    out[0] = comb(n, 2)
    for j in range(3, k + 1):
        idx = j - 2
        acc = 0
        for ni, vec in parts:
            acc += vec[idx] + (n - ni) * vec[idx - 1]
        out[idx] = acc
    return tuple(out)


def caterpillar_counts(t: Tree, k: int, memo: dict | None = None) -> CountVector:
    """CountVector of binary caterpillar copies in ``t`` for sizes 2..k.

    Runs the engine's bottom-up walk, combining each subtree's vector from
    its children's. ``memo`` maps subtree codes to (c_2, ..., c_k) for this
    k; the caller owns it, passes one to let related trees share shapes, and
    must not share it between values of k or with
    :func:`caterpillar_counts_of_code`. Without one a fresh dict is used.
    """
    if k < 2:
        raise PreconditionError(f"need k >= 2, got {k}")
    if memo is None:
        memo = {}
    memo.setdefault("*", (0,) * (k - 1))
    for u in _internal_subtrees(t, memo):
        parts = [(c.leaf_count, memo[c.code]) for c in u.children]
        memo[u.code] = combine_caterpillar_counts(parts, k)
    return CountVector(t.leaf_count, k, memo[t.code])


_DEPTH_STEP = {"(": 1, "*": 0, ")": -1}


def _malformed(code: str) -> NoReturn:
    parse_tree(code)  # raises ParseError naming the offset of the first fault
    raise ConsistencyError(f"parse_tree accepts {code!r}, which the code reader refused")


def caterpillar_counts_of_code(
    code: str, k: int, memo: dict[str, tuple[int, int, tuple[int, ...]]]
) -> tuple[int, int, tuple[int, ...]]:
    """(leaf count, largest outdegree, (c_2, ..., c_k)) of the tree a bracket
    code describes, read off its characters without building Tree objects.

    Children may appear in any order. Each vertex is split where the depth
    inside it returns to 0, and its children's vectors are joined by
    :func:`combine_caterpillar_counts`; an explicit stack replaces recursion,
    so the depth of the tree is unbounded. ``memo`` maps exact code strings
    (as written, not canonicalized) to results for this k; the caller owns it
    and must not share one between values of k. Only well-formed codes enter
    it. Malformed text raises ParseError or StructureError with the offset
    :func:`parse_tree` reports.
    """
    if k < 2:
        raise PreconditionError(f"need k >= 2, got {k}")
    memo.setdefault("*", (1, 0, (0,) * (k - 1)))
    pending: dict[str, list[str]] = {}
    stack = [code]
    while stack:
        sub = stack.pop()
        if sub in memo or sub in pending:
            continue
        if not (sub.startswith("(") and sub.endswith(")")):
            _malformed(code)
        # Children end where the depth inside sub returns to 0. The piece
        # between two such points is "*" or a bracketed group, unless the
        # depth dipped below 0: then the piece starts with ")" and fails the
        # check above when it comes off the stack.
        inside = sub[1:-1]
        ends = compress(count(1), map(not_, accumulate(map(_DEPTH_STEP.__getitem__, inside))))
        try:
            cuts = [next(ends, 0)]
            # a known code after the first child is the only other child
            cuts.extend([len(inside)] if inside[cuts[0] :] in memo else ends)
        except KeyError:
            _malformed(code)
        if len(cuts) < 2 or cuts[-1] != len(inside):
            _malformed(code)
        kids = [inside[a:b] for a, b in zip([0] + cuts, cuts)]
        pending[sub] = kids
        stack.extend(kids)
    # a vertex's code is longer than each of its children's
    for sub in sorted(pending, key=len):
        parts = [memo[c] for c in pending[sub]]
        memo[sub] = (
            sum(p[0] for p in parts),
            max(len(parts), *(p[1] for p in parts)),
            combine_caterpillar_counts([(p[0], p[2]) for p in parts], k),
        )
    return memo[code]
