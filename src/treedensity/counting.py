"""Counting copies of leaf-induced subtree patterns, exactly.

Selecting a set S of leaves of a tree T induces a smaller tree: take the
minimal subtree spanning S and the root paths down to it, then suppress every
vertex that is left with a single child. ``induced_subtree`` performs that
operation. For a pattern D, c(D, T) is the number of leaf subsets of T whose
induced tree is isomorphic to D; the density of D in T divides c(D, T) by the
number of subsets of that size, so it always lands in [0, 1].

Two independent routes to c(D, T) live here. ``count_copies_brute`` walks
every subset and is the ground truth at small sizes. It tallies the subsets
by the depths at which consecutive chosen leaves meet, read off a range-min
table, builds each distinct tally's tree in a shape table of its own and
writes each distinct shape's code once, so it builds no Tree and shares no
count with the recursion. ``count_copies`` runs a branch
decomposition: a copy of D either sits inside a single branch of T, or its
root is the root of T and each branch of D is induced inside a distinct
branch of T. One pass over T's branches sums their rows and adds each
two-branch shape's cross term; wider shapes have a pass of their own.

``CopyEngine``, ``caterpillar_counts``, ``induced_subtree`` and the oracle
read a host through its table of shapes (:mod:`treedensity.trees`): the
engine and ``caterpillar_counts`` fill one result per shape id, in id order,
for the shapes under each tree they are asked about, so no count recurses
over the host's depth. The tree's table keeps those results; an engine
keeps nothing. ``count`` and ``density`` price the density before counting.
``check_witnesses`` recounts a report's witnesses from their text.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, prod
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (BudgetError, ConsistencyError, ParseError, PreconditionError, int_str,
                     require_int)
from .formulas import LIMIT_BITS_CAP
from .reporting import SearchReport, decimal_str
from .trees import Tree, _Shapes

__all__ = [
    "induced_subtree",
    "count_copies_brute",
    "brute_copy_profile",
    "CopyEngine",
    "count_copies",
    "density",
    "count_report",
    "caterpillar_counts",
    "combine_caterpillar_counts",
]

# the most steps the oracle takes: k for each of its C(n, k) subsets, its
# k - 1 range-minimum steps and its tally, and for k > 1 three a host leaf,
# since walking the host and building and writing one subset's tree cost
# 1.3-4.3 us a leaf, against 0.15-0.65 us a range-minimum step. Near the cap
# `count --brute` took 1.9-2.1 s on C(1413, 1412) subsets of a caterpillar,
# 0.9 s on C(2 * 10^6, 1) and 1.4 s on the one subset of 500,000 leaves of
# an even binary tree; the one of a 3-ary caterpillar's 499,999 took 1.9 s
SUBSET_CAP = 2 * 10**6
# the most steps a count's passes may take: outdegree times steps, summed over
# new host subtrees and the shapes with no more branches than the subtree.
# Priced first at r steps a shape of r branches, its least, a 3-ary 499,999-
# leaf caterpillar in another is refused in 0.6-0.7 s, not 1.7-2.6 s
PASS_STEP_CAP = 10**7


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
    for i in sel:
        require_int(i, 0, "leaf index")

    # Depth-first with an explicit stack, into a table of its own. An int on
    # the stack closes a vertex from that many finished children; a vertex
    # with one child holding chosen leaves is suppressed, and that child's
    # shape stands in for it.
    kids, leaves = t._table.kids, t._table.leaves
    table = _Shapes()
    done: list[int] = []
    stack: list = [(t._id, 0)]
    while stack:
        top = stack.pop()
        if isinstance(top, int):
            done[-top:] = [table.vertex(done[-top:])]
        elif not top[0]:
            done.append(0)
        else:
            u, base = top
            live = []
            for c in kids[u]:
                if bisect_left(sel, base) < bisect_left(sel, base + leaves[c]):
                    live.append((c, base))
                base += leaves[c]
            if len(live) > 1:
                stack.append(len(live))
            stack.extend(reversed(live))
    if len(done) != 1:
        raise ConsistencyError(f"{len(sel)} leaves of a {t.leaf_count}-leaf tree induced no tree")
    return table.tree(done[0])


def _adjacent_lca_depths(t: Tree) -> list[int]:
    """Depth of LCA(leaf l, leaf l + 1) for l = 0..n-2, leaves in the
    depth-first order of :func:`induced_subtree`."""
    kids = t._table.kids
    depths: list[int] = []
    stack = [(t._id, 0)]
    after_leaf = False
    while stack:
        u, depth = stack.pop()
        if after_leaf:
            # the first vertex entered after leaf l is a child of LCA(l, l + 1)
            depths.append(depth - 1)
            after_leaf = False
        if not u:
            after_leaf = True
        else:
            stack.extend((c, depth + 1) for c in reversed(kids[u]))
    return depths


def _range_minima(values: list[int], longest: int) -> list[tuple[list[int], int]]:
    """Sparse table of ``values`` for ranges of up to ``longest`` values,
    at most len(values): entry L - 1, for 1 <= L <= longest, is (row, w)
    with w the largest power of two <= L and row[i] =
    min(values[i : i + w]), so min(values[a:b]) with b - a = L is
    min(row[a], row[b - w]). The rows, one per power of two up to
    ``longest``, hold O(n log longest) integers."""
    rows = [values]
    w = 1
    while 2 * w <= longest:
        prev = rows[-1]
        rows.append([x if x < y else y for x, y in zip(prev, prev[w:])])
        w *= 2
    return [(rows[L.bit_length() - 1], 1 << (L.bit_length() - 1))
            for L in range(1, longest + 1)]


def _shape_of_meets(sig: tuple[int, ...], table: _Shapes) -> int:
    """Id in ``table`` of the tree induced by leaves that meet, in order, at
    the depths ``sig``. Its internal vertices are those meeting points, so a
    stack of open vertices (depths strictly increasing) assembles it."""
    stack: list[tuple[int, list[int]]] = []  # open vertices: (depth, finished children)
    cur = 0
    for h in sig:
        while stack and stack[-1][0] > h:
            cur = table.vertex([*stack.pop()[1], cur])
        if stack and stack[-1][0] == h:
            stack[-1][1].append(cur)
        else:
            stack.append((h, [cur]))
        cur = 0
    while stack:
        cur = table.vertex([*stack.pop()[1], cur])
    return cur


def brute_copy_profile(t: Tree, k: int) -> dict[str, int]:
    """Tally {pattern code: copies} over all k-subsets of T's leaves.

    One pass shared by every pattern of size k; the counts sum to C(n, k).
    A subset's signature holds the depths at which its consecutive leaves
    a < b meet, min(adj[a:b]) from a sparse table built once per host; each
    distinct signature's tree is built once, as an id in a table of the
    call's own, and each distinct shape's code written once. An oracle for
    small sizes: refuses with BudgetError when its C(n, k) k steps, each
    subset's k - 1 range-minimum steps and its tally, plus 3 n for the host
    walk when k > 1, exceed :data:`SUBSET_CAP`.
    """
    n = t.leaf_count
    require_int(k, 1, "subset size")
    if k > n:
        return {}
    # C(n, k) >= C(2j, j) > 10^37 for j = min(k, n - k) > 64: such a C(n, k)
    # is refused without being built
    total = comb(n, k) if min(k, n - k) <= 64 else None
    # a one-leaf subset needs no host walk
    walk, price = (0, "C(n, k) * k") if k == 1 else (3 * n, "C(n, k) * k + 3 * n")
    if total is None or total * k + walk > SUBSET_CAP:
        size, steps = (("> 10^37", "more than 10^37") if total is None
                       else (f"= {int_str(total)}", int_str(total * k + walk)))
        raise BudgetError(
            f"brute-force enumeration of C({n},{k}) {size} subsets needs {steps} steps "
            f"({price}), above the cap of {SUBSET_CAP}"
        )
    # consecutive leaves of a subset lie at most n - k + 1 apart, and a
    # one-leaf subset has no two
    spans = _range_minima(_adjacent_lca_depths(t), n - k + 1) if k > 1 else []
    tally: Counter = Counter()
    for subset in combinations(range(n), k):
        sig, a = [], subset[0]
        for b in subset[1:]:
            row, w = spans[b - a - 1]
            h, g = row[a], row[b - w]
            sig.append(h if h < g else g)
            a = b
        tally[tuple(sig)] += 1
    table, shapes = _Shapes(), Counter()
    for sig, copies in tally.items():
        shapes[_shape_of_meets(sig, table)] += copies
    return {table.code(i): copies for i, copies in shapes.items()}


def count_copies_brute(d_pattern: Tree, t: Tree) -> int:
    """c(D, T) by enumerating every |D|-subset of T's leaves: D's entry in
    :func:`brute_copy_profile`, under the same budget."""
    return brute_copy_profile(t, d_pattern.leaf_count).get(d_pattern.code, 0)


def _pass_steps(classes: Counter) -> tuple[list[tuple[int, int, int]], list[int]]:
    """A shape's steps (state, next state, class column), most branches placed
    first, and ends[p], the count of steps from states with p or more placed.
    Digit c of a state, in radix m_c + 1, counts class-c branches placed."""
    mults = list(classes.values())
    strides = list(accumulate((m + 1 for m in mults), mul, initial=1))
    placed = [sum(st // s % (m + 1) for s, m in zip(strides, mults)) for st in range(strides[-1])]
    steps, ends = [], [0] * (sum(mults) + 1)
    for state in sorted(range(strides[-1] - 1), key=placed.__getitem__, reverse=True):
        steps += [(state, state + s, col) for col, m, s in zip(classes, mults, strides)
                  if state // s % (m + 1) < m]
        ends[placed[state]] = len(steps)
    return steps, ends


def _cross_term(pass_steps: tuple[list, list[int]], last: int, kids: list[list[int]]) -> int:
    """A shape's cross term: one pass over the children's rows ``kids``. A
    state's value sums the products of counts over the placements of its
    branches on the children seen so far. A child runs the steps, most placed
    first, so it takes at most one branch, and skips the states that the
    children after it cannot fill up to all r; the last state's value is the term."""
    steps, ends = pass_steps
    val = [1] + [0] * last
    short = len(ends) - 1 - len(kids)  # r - m: the fewest placed worth a step
    for kid in kids:
        for state, nxt, col in steps if short <= 0 else steps[: ends[short]]:
            if val[state] and kid[col]:
                val[nxt] += val[state] * kid[col]
        short += 1
    return val[last]


def _require_steps(bound: str, steps: dict, degrees: Counter, d_pattern: Tree, t: Tree) -> None:
    """Refuse a count whose passes need more than :data:`PASS_STEP_CAP`
    steps: ``steps[r]`` at each of the ``degrees[d]`` host vertices of d >= r
    children, times d."""
    work = sum(n * d * s for r, s in steps.items() for d, n in degrees.items() if d >= r)
    if work > PASS_STEP_CAP:
        raise BudgetError(f"counting a {d_pattern.leaf_count}-leaf pattern in a "
                          f"{t.leaf_count}-leaf tree needs {bound} {work} steps, "
                          f"above the cap of {PASS_STEP_CAP}")


def _pair_pass(pairs: list[tuple], size: int, kids: list[list[int]]) -> list[int]:
    """A ``size``-leaf vertex's row from its children's rows ``kids``, in one
    pass that keeps P, the sum of the rows seen so far: each child x after the
    first adds P[a] x[b] + P[b] x[a], or P[a] x[a] when a = b, to the cross
    term of each shape (leaves, column, a, b) in ``pairs`` that fits."""
    acc, *rest = kids
    cross = [0] * len(acc)
    for x in rest:
        for least, i, a, b in pairs:
            if least > size:
                break  # this shape and the larger ones stay at 0
            cross[i] += acc[a] * x[b] + acc[b] * x[a] if a != b else acc[a] * x[a]
        acc = list(map(add, acc, x))
    return list(map(add, acc, cross))


class CopyEngine:
    """Copy counter that fills one row of counts per host shape, and keeps
    nothing itself.

    Each count numbers the pattern's distinct internal shapes fewest leaves
    first, ties in the order that its code first meets them, with -1 for a
    leaf, so the code alone fixes the columns. The row of a host shape u
    holds c(S, u) for every shape S, then u's leaf count, the count of the
    one-leaf pattern. Rows are filled bottom-up by :func:`_pair_pass`; a
    vertex of three or more children adds the wider shapes' cross terms by
    :func:`_cross_term`. Counts above :data:`PASS_STEP_CAP` steps are
    refused up front. The rows live in the host's table under the pattern's
    code, by shape id, filled children first for the shapes under each host,
    so the trees of one table, in any engine, pay for each shape once.
    """

    def count(self, d_pattern: Tree, t: Tree) -> int:
        """Number of leaf subsets of ``t`` inducing a copy of ``d_pattern``."""
        pattern, seen, stack = d_pattern._table, {}, [d_pattern._id]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen[u] = None
                stack += reversed(pattern.kids[u])
        seen.pop(0, None)  # the leaf
        table = t._table
        rows = table.results.setdefault(d_pattern.code, {0: [0] * len(seen) + [1]})
        todo = table.below(t._id, rows)
        kids, leaves = table.kids, table.leaves
        degrees = Counter(len(kids[u]) for u in todo)
        widths = Counter(len(pattern.kids[s]) for s in seen)
        # a shape of r branches takes at least r steps: priced before the plan
        _require_steps("at least", {r: r * c for r, c in widths.items()}, degrees, d_pattern, t)
        pairs, wider, steps = [], [], Counter()  # steps: a pass's steps by branch count
        index = {s: i for i, s in enumerate(sorted(seen, key=pattern.leaves.__getitem__))}
        for s, i in index.items():
            branches = [index.get(b, -1) for b in pattern.kids[s]]
            classes = Counter(branches)
            states = prod(m + 1 for m in classes.values())
            steps[len(branches)] += sum(states // (m + 1) * m for m in classes.values())
            if len(branches) == 2:
                pairs.append((pattern.leaves[s], i, *branches))
            else:
                wider.append((pattern.leaves[s], i, len(branches), classes, states - 1))
        _require_steps("up to", steps, degrees, d_pattern, t)
        listed = {}  # a wider shape's pass steps, listed on first use
        for u in todo:
            below = [rows[c] for c in kids[u]]
            size = leaves[u]
            row = _pair_pass(pairs, size, below)
            for least, i, r, classes, last in wider if len(below) > 2 else ():
                if least > size:
                    break  # this shape and the larger ones stay at 0
                if r <= len(below):
                    if i not in listed:
                        listed[i] = _pass_steps(classes)
                    row[i] += _cross_term(listed[i], last, below)
            rows[u] = row
        return rows[t._id][len(seen) - 1]  # the pattern's column, or leaf count


def count_copies(d_pattern: Tree, t: Tree) -> int:
    """c(D, T) via the branch decomposition, in a fresh engine."""
    return CopyEngine().count(d_pattern, t)


def _require_host(k: int, n: int) -> None:
    # C(n, k) is 0 below k leaves, so no density is defined there
    if n < k:
        raise PreconditionError(f"density needs a host with at least {k} leaves, got {n}")


def _price_density(k: int, n: int) -> None:
    """Refuse, before counting, a density too large to build: for n >= k,
    C(n, k) and every count of a k-leaf pattern in an n-leaf tree are at
    most 2^(min(k, n - k) * bit_length(n))."""
    bits = min(k, n - k) * n.bit_length()
    if bits > LIMIT_BITS_CAP:
        raise BudgetError(
            f"the density of a {int_str(k)}-leaf pattern in a {int_str(n)}-leaf tree needs up "
            f"to {int_str(bits)} bits (min(k, n - k) * bit_length(n)), "
            f"above the cap of {int_str(LIMIT_BITS_CAP)}"
        )


def density(d_pattern: Tree, t: Tree) -> Fraction:
    """c(D, T) / C(|T|, |D|) as an exact fraction. Requires |T| >= |D|."""
    k, n = d_pattern.leaf_count, t.leaf_count
    _require_host(k, n)
    _price_density(k, n)
    c = count_copies(d_pattern, t)
    return Fraction(c, comb(n, k)) if c else Fraction(0)  # C(n, k) may take seconds


def count_report(
    d_pattern: Tree, t: Tree, *, mode: str = "count", brute: bool = False
) -> SearchReport:
    """One-row report of c(D, T) and, when |T| >= |D|, its density.

    The count is taken once, by the recursion or (``brute``) the oracle, and
    the density is formed from it, and priced before the count is taken.
    ``mode`` "density" refuses hosts with fewer leaves than the pattern;
    "count" leaves their density cells blank; any other is refused.
    """
    if mode not in ("count", "density"):
        raise PreconditionError(f"unknown count mode {mode!r}, expected 'count' or 'density'")
    k, n = d_pattern.leaf_count, t.leaf_count
    if mode == "density":
        _require_host(k, n)
    if n >= k:
        _price_density(k, n)
    c = count_copies_brute(d_pattern, t) if brute else count_copies(d_pattern, t)
    dens: tuple = ("", "", "")
    if n >= k:
        q = Fraction(c, comb(n, k)) if c else Fraction(0)
        dens = (q.numerator, q.denominator, decimal_str(q))
    code = d_pattern.code
    return SearchReport(
        mode=mode,
        params={"pattern": code, "tree_leaves": n, "method": "brute" if brute else "recursion"},
        columns=("pattern_code", "tree_code", "pattern_leaves", "tree_leaves", "count",
                 "density_num", "density_den", "density_decimal"),
        rows=[(code, t.code, k, n, c, *dens)],
    )


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
    require_int(k, 2, "caterpillar size")
    if len(parts) < 2:
        raise PreconditionError("a combine needs at least two branches")
    n = sum(ni for ni, _ in parts)
    out = [0] * (k - 1)
    out[0] = comb(n, 2)
    for idx in range(1, k - 1):  # c_j sits at j - 2
        acc = 0
        for ni, vec in parts:
            acc += vec[idx] + (n - ni) * vec[idx - 1]
        out[idx] = acc
    return tuple(out)


def _fill_caterpillar_counts(table: _Shapes, ids: Iterable[int], vectors: dict, k: int) -> None:
    """Combine the vector of each shape in ``ids`` from its children's into
    ``vectors``; every child's vector is there or comes earlier in ``ids``."""
    leaves, kids = table.leaves, table.kids
    for u in ids:
        vectors[u] = combine_caterpillar_counts([(leaves[c], vectors[c]) for c in kids[u]], k)


def caterpillar_counts(t: Tree, k: int) -> tuple[int, ...]:
    """(c_2, ..., c_k): the copies in ``t`` of the binary caterpillar with
    j leaves, for j = 2..k, so c_j sits at index j - 2.

    Combines each shape's vector from its children's, in id order, for the
    shapes under ``t`` that lack one. ``t``'s table keeps the vectors for
    this k, so trees of one table share them.
    """
    require_int(k, 2, "caterpillar size")
    table = t._table
    vectors = table.results.setdefault(k, {0: (0,) * (k - 1)})
    _fill_caterpillar_counts(table, table.below(t._id, vectors), vectors, k)
    return vectors[t._id]


def check_witnesses(rows: Iterable[tuple[int, int, str]], d: int, k: int) -> None:
    """Recount each (n, count, code) row's witness, read in order into one
    table of the call's own, for n leaves, no outdegree above d among the
    shapes its read adds (earlier rows passed d) and ``count`` k-caterpillar
    copies; ConsistencyError names the first fault of the first faulty row.
    A read adds shapes at the end of the table, each after its children, so
    the vectors of the shapes it adds are filled in id order; a text read
    before adds none, its vector being filled already."""
    require_int(k, 2, "caterpillar size")
    table = _Shapes()
    vectors = {0: (0,) * (k - 1)}
    for n, expected, code in rows:
        before = len(table.kids)
        try:
            i = table.read(code)
        except ParseError as err:
            fault = f"malformed code, {err}"
        else:
            if table.leaves[i] != n:
                fault = f"the witness has {table.leaves[i]} leaves, not {n}"
            elif (outdegree := max(map(len, table.kids[before:]), default=0)) > d:
                fault = f"the witness has outdegree {outdegree} > d = {d}"
            else:
                _fill_caterpillar_counts(table, range(before, len(table.kids)), vectors, k)
                if (recount := vectors[i][-1]) == expected:
                    continue
                fault = f"reported {expected}, recounted {recount}"
        raise ConsistencyError(f"{k}-caterpillar count of witness {code}: {fault}")
