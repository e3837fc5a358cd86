"""Minimum-count DP: pruning soundness, closed-form anchors and budget
refusals."""

import json
import time
import tracemalloc
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from treedensity import (
    BudgetError,
    ConsistencyError,
    ParetoDP,
    PreconditionError,
    caterpillar_copies_complete,
    caterpillar_counts,
    enumerate_trees,
    leaf,
    make_caterpillar,
    node,
    parse_tree,
)
from treedensity import counting, frontier
from treedensity.cli import main as cli_main
from treedensity._partitions import partition_counts, partition_heads, partitions_into_parts
from treedensity.frontier import pareto_minimal
from treedensity.trees import _Shapes, join_codes


# ---------------------------------------------------------------------------
# the pruning primitive


def test_pareto_minimal_basic():
    assert pareto_minimal([(1, 2), (2, 1), (2, 2)]) == [0, 1]
    assert pareto_minimal([(3, 3), (1, 1)]) == [1]
    # duplicates keep the first occurrence only
    assert pareto_minimal([(2, 2), (2, 2), (1, 3)]) == [2, 0]
    assert pareto_minimal([]) == []
    assert pareto_minimal([(5,)]) == [0]


def _dominates(u, v):
    return all(a <= b for a, b in zip(u, v))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=25,
    )
)
def test_pareto_minimal_against_direct_filter(vectors):
    kept = pareto_minimal(vectors)
    kept_set = [vectors[i] for i in kept]
    # every kept vector is undominated by the other kept vectors
    for i, u in enumerate(kept_set):
        assert not any(_dominates(w, u) for j, w in enumerate(kept_set) if j != i)
    # every dropped vector is dominated by some kept vector
    for i, v in enumerate(vectors):
        if i not in kept:
            assert any(_dominates(u, v) for u in kept_set)
    # the set of minimal values is exactly reproduced by a direct filter
    minimal = {
        v for v in vectors if not any(_dominates(u, v) and u != v for u in vectors)
    }
    assert set(kept_set) == minimal
    assert len(set(kept_set)) == len(kept_set)


def test_partitions_into_parts():
    assert list(partitions_into_parts(5, 2)) == [(1, 4), (2, 3)]
    assert list(partitions_into_parts(6, 3)) == [(1, 1, 4), (1, 2, 3), (2, 2, 2)]
    assert list(partitions_into_parts(2, 3)) == []
    # every partition, in lexicographic order, against a generate-and-filter
    for n in range(1, 21):
        for m in range(1, 7):
            expect = [t for t in combinations_with_replacement(range(1, n + 1), m) if sum(t) == n]
            assert list(partitions_into_parts(n, m)) == expect, (n, m)
            if m < 2:
                continue
            # each head stands for the nonempty block of its last pairs
            blocks = []
            for head, rest, low, top in partition_heads(n, m):
                assert len(head) == m - 2 and list(head) == sorted(head)
                assert low == (head[-1] if head else 1)
                assert low <= top == rest // 2 and sum(head) + rest == n
                blocks += [head + (p, rest - p) for p in range(low, top + 1)]
            assert blocks == expect, (n, m)
    # the counter's list for m counts, at each s, the partitions into at most m parts
    for m, ways in zip(range(1, 23), partition_counts(20)):
        assert ways == [
            sum(len(list(partitions_into_parts(s, j))) for j in range(1, m + 1)) + (s == 0)
            for s in range(21)
        ], m


# ---------------------------------------------------------------------------
# DP vs exhaustive enumeration


def _exhaustive_min(n, d, k):
    return min(caterpillar_counts(t, k)[-1] for t in enumerate_trees(n, d))


@pytest.mark.parametrize("k", [4, 5])
def test_dp_matches_exhaustive_binary(k):
    dp = ParetoDP(k).run(12)
    for n in range(k, 13):
        assert dp.min_count(n) == _exhaustive_min(n, 2, k), n


def test_dp_matches_exhaustive_ternary():
    dp = ParetoDP(4, 3).run(10)
    for n in range(4, 11):
        assert dp.min_count(n) == _exhaustive_min(n, 3, 4), n


def test_dp_frontier_vectors_are_real_trees():
    # every frontier vector must be attained by an actual binary tree
    dp = ParetoDP(5).run(10)
    for n in range(1, 11):
        attained = {
            caterpillar_counts(t, 5)[1:] for t in enumerate_trees(n, 2)
        }
        vec = dp.vector(n)
        assert vec in attained, (n, vec)
        assert dp.frontier_size(n) == 1


def test_dp_witnesses_recount():
    dp = ParetoDP(4).run(16)
    assert dp.max_n() == 16
    for n in range(4, 17):
        witness = dp.witness(n)
        assert witness is not None
        t = parse_tree(witness)
        assert t.leaf_count == n
        assert caterpillar_counts(t, 4)[-1] == dp.vector(n)[-1] == dp.min_count(n)


def test_dp_argument_errors():
    for k, d in [(2, 2), (4, 1)]:
        with pytest.raises(PreconditionError):
            ParetoDP(k, d)
    with pytest.raises(PreconditionError):
        ParetoDP(4, 2).run(0)


def test_levels_outside_those_built_are_refused():
    # a level below 1 or above max_n has no vector, so no witness either
    dp = ParetoDP(4).run(10)
    for n in (-1, 0, 11):
        for read in (dp.min_count, dp.vector, dp.witness):
            with pytest.raises(KeyError) as exc:
                read(n)
            assert exc.value.args == (n,)


def test_dp_budget_refusals(monkeypatch):
    monkeypatch.setattr(frontier, "CANDIDATE_CAP", 3)
    with pytest.raises(BudgetError) as exc:
        ParetoDP(5, 2).run(8)
    assert "candidate" in str(exc.value)


def test_a_candidate_of_m_parts_weighs_m_minus_one():
    # the price counts packed steps: a split into m parts costs m - 1
    # additions, and one more for its check when the DP scans two columns
    for d in (2, 3, 4, 6):
        for hi in (1, 2, 17, 30):
            for check in (False, True):
                weighted = sum(
                    (m - 1 + check) * len(list(partitions_into_parts(n, m)))
                    for n in range(2, hi + 1)
                    for m in range(2, d + 1)
                )
                assert frontier._candidates(d, hi, 10**9, check) == weighted, (d, hi, check)
    # the count stops at the first m that passes the limit: here m = 3
    for check in (False, True):
        limit = (1 + check) * 10**6
        assert frontier._candidates(6, 2000, limit, check) == frontier._candidates(
            3, 2000, 10**12, check
        )


# README's near-cap runs of the DP, (k, d, n_max)
NEAR_CAP = [(3, 2, 6990), (4, 2, 6973), (40, 2, 4194), (800, 2, 3325), (4, 3, 657),
            (5, 4, 236), (5, 5, 140), (5, 6, 103)]


@pytest.mark.parametrize("k, d, n_max", NEAR_CAP)
def test_the_price_admits_a_near_cap_run_and_refuses_a_quarter_more(k, d, n_max):
    # the price alone, with no level built
    cap = frontier.CANDIDATE_CAP
    dp = ParetoDP(k, d)
    assert dp._price(n_max, cap)[0] <= cap < dp._price(n_max + 1, cap)[0]
    assert dp._price(n_max * 5 // 4, cap)[0] > cap
    assert dp.max_n() == 0


@pytest.mark.parametrize(
    "k, d, n_max", [(40, 2, 200), (12, 3, 60), (9, 4, 40), (3, 2, 50), (120, 2, 300)]
)
def test_a_run_fills_no_field_its_price_leaves_out(k, d, n_max):
    # a run lays out, and its price weighs, the columns c_lo..c_top, where
    # top = min(k, h + 2) and d^(h-1) < n_max <= d^h: the top one holds a
    # value, every column above it stays 0, and a field W bits wide is at
    # most about twice as wide as the widest value the run holds in one
    dp = ParetoDP(k, d).run(n_max)
    h = next(h for h in range(1, n_max + 1) if d**h >= n_max)
    top = dp._lo + dp._fields - 1
    assert top == min(k, h + 2)
    held = [dp._unpack(x) for x in dp._f + dp._below]
    assert any(fields[top - dp._lo] for fields in held)
    assert all(dp.vector(n)[top - 2 :] == (0,) * (k - top) for n in range(1, n_max + 1))
    widest = max(c.bit_length() for fields in held for c in fields)
    assert 8 * dp._size - 1 <= 2 * widest


@pytest.mark.parametrize("d, k, h", [(2, 9, 4), (2, 9, 5), (2, 9, 6), (3, 7, 3), (3, 7, 4),
                                     (4, 6, 2), (4, 6, 3)])
def test_a_column_the_layout_leaves_out_changes_no_choice(d, k, h):
    # one leaf past d^h lays out c_(h+3) as well, and every level up to d^h
    # keeps the vector, split and witness it had without that column
    short, longer = ParetoDP(k, d).run(d**h), ParetoDP(k, d).run(d**h + 1)
    assert longer._fields == short._fields + 1
    for n in range(1, d**h + 1):
        assert (short.vector(n), short._split[n], short.witness(n)) == (
            longer.vector(n), longer._split[n], longer.witness(n)
        ), n


@pytest.mark.parametrize("d, k", [(d, 4) for d in range(2, 7)] + [(d, 5) for d in range(2, 6)])
def test_the_minimum_leaves_zero_one_leaf_past_d_to_the_k_minus_2(d, k):
    # one leaf past the complete tree of height k - 2, whose leaves are the
    # zero range's last level, a cherry in place of a leaf is minimal: its
    # copies each take the cherry and one leaf from every other branch on the
    # way up, (d - 1)^(k - 2) d^((k - 2)(k - 3) / 2) of them
    def complete(h, cherry):
        if h == 0:
            return node([leaf(), leaf()]) if cherry else leaf()
        return node([complete(h - 1, cherry)] + [complete(h - 1, False)] * (d - 1))

    edge = d ** (k - 2)
    dp = ParetoDP(k, d).run(edge + 1)
    tree = complete(k - 2, True)
    assert tree.leaf_count == edge + 1
    assert dp.min_count(edge) == 0
    assert dp.min_count(edge + 1) == (d - 1) ** (k - 2) * d ** ((k - 2) * (k - 3) // 2)
    assert dp.min_count(edge + 1) == caterpillar_counts(tree, k)[-1]


# Vectors and witnesses produced by the general Pareto-frontier DP, which kept
# candidate lists pruned by ``pareto_minimal`` at every level. The (3, 4) rows
# past n = 16, the (4, 4) rows past n = 14 and the (5, 4) and (6, 4) tables
# were recorded from the single-vector DP while it still gathered each split
# into 3..d parts as its own tuple, before candidates were formed a head at a
# time; there 4-, 5- and 6-part splits compete, so a different split chosen at
# a head boundary changes a witness.
GOLDEN = {
    (2, 5): [
        ((0, 0, 0), "*"),
        ((0, 0, 0), "(**)"),
        ((1, 0, 0), "(*(**))"),
        ((4, 0, 0), "((**)(**))"),
        ((10, 2, 0), "((**)(*(**)))"),
        ((20, 6, 0), "((*(**))(*(**)))"),
        ((35, 16, 0), "((*(**))((**)(**)))"),
        ((56, 32, 0), "(((**)(**))((**)(**)))"),
        ((84, 62, 8), "(((**)(**))((**)(*(**))))"),
        ((120, 104, 20), "(((**)(*(**)))((**)(*(**))))"),
        ((165, 168, 42), "(((**)(*(**)))((*(**))(*(**))))"),
        ((220, 252, 72), "(((*(**))(*(**)))((*(**))(*(**))))"),
        ((286, 372, 138), "(((*(**))(*(**)))((*(**))((**)(**))))"),
        ((364, 522, 224), "(((*(**))((**)(**)))((*(**))((**)(**))))"),
        ((455, 720, 352), "(((*(**))((**)(**)))(((**)(**))((**)(**))))"),
        ((560, 960, 512), "((((**)(**))((**)(**)))(((**)(**))((**)(**))))"),
        ((680, 1270, 792), "((((**)(**))((**)(**)))(((**)(**))((**)(*(**)))))"),
        ((816, 1636, 1132), "((((**)(**))((**)(*(**))))(((**)(**))((**)(*(**)))))"),
        ((969, 2086, 1584), "((((**)(**))((**)(*(**))))(((**)(*(**)))((**)(*(**)))))"),
        ((1140, 2608, 2120), "((((**)(*(**)))((**)(*(**))))(((**)(*(**)))((**)(*(**)))))"),
        ((1330, 3242, 2886), "((((**)(*(**)))((**)(*(**))))(((**)(*(**)))((*(**))(*(**)))))"),
        ((1540, 3966, 3780), "((((**)(*(**)))((*(**))(*(**))))(((**)(*(**)))((*(**))(*(**)))))"),
        ((1771, 4820, 4902), "((((**)(*(**)))((*(**))(*(**))))(((*(**))(*(**)))((*(**))(*(**)))))"),
        ((2024, 5784, 6192), "((((*(**))(*(**)))((*(**))(*(**))))(((*(**))(*(**)))((*(**))(*(**)))))"),
    ],
    (3, 4): [
        ((0, 0), "*"),
        ((0, 0), "(**)"),
        ((0, 0), "(***)"),
        ((2, 0), "(**(**))"),
        ((6, 0), "(**(***))"),
        ((12, 0), "((**)(**)(**))"),
        ((22, 0), "((**)(**)(***))"),
        ((36, 0), "((**)(***)(***))"),
        ((54, 0), "((***)(***)(***))"),
        ((80, 12), "((***)(***)(**(**)))"),
        ((112, 28), "((***)(**(**))(**(**)))"),
        ((150, 48), "((**(**))(**(**))(**(**)))"),
        ((198, 84), "((**(**))(**(**))(**(***)))"),
        ((254, 128), "((**(**))(**(***))(**(***)))"),
        ((318, 180), "((**(***))(**(***))(**(***)))"),
        ((394, 252), "((**(***))(**(***))((**)(**)(**)))"),
        ((480, 336), "((**(***))((**)(**)(**))((**)(**)(**)))"),
        ((576, 432), "(((**)(**)(**))((**)(**)(**))((**)(**)(**)))"),
        ((688, 576), "(((**)(**)(**))((**)(**)(**))((**)(**)(***)))"),
        ((812, 740), "(((**)(**)(**))((**)(**)(***))((**)(**)(***)))"),
        ((948, 924), "(((**)(**)(***))((**)(**)(***))((**)(**)(***)))"),
        ((1102, 1164), "(((**)(**)(***))((**)(**)(***))((**)(***)(***)))"),
        ((1270, 1432), "(((**)(**)(***))((**)(***)(***))((**)(***)(***)))"),
        ((1452, 1728), "(((**)(***)(***))((**)(***)(***))((**)(***)(***)))"),
        ((1654, 2088), "(((**)(***)(***))((**)(***)(***))((***)(***)(***)))"),
        ((1872, 2484), "(((**)(***)(***))((***)(***)(***))((***)(***)(***)))"),
        ((2106, 2916), "(((***)(***)(***))((***)(***)(***))((***)(***)(***)))"),
        ((2366, 3504), "(((***)(***)(***))((***)(***)(***))((***)(***)(**(**))))"),
        ((2644, 4144), "(((***)(***)(***))((***)(***)(**(**)))((***)(***)(**(**))))"),
        ((2940, 4836), "(((***)(***)(**(**)))((***)(***)(**(**)))((***)(***)(**(**))))"),
    ],
    (4, 4): [
        ((0, 0), "*"),
        ((0, 0), "(**)"),
        ((0, 0), "(***)"),
        ((0, 0), "(****)"),
        ((3, 0), "(***(**))"),
        ((8, 0), "(**(**)(**))"),
        ((15, 0), "(*(**)(**)(**))"),
        ((24, 0), "((**)(**)(**)(**))"),
        ((39, 0), "((**)(**)(**)(***))"),
        ((58, 0), "((**)(**)(***)(***))"),
        ((81, 0), "((**)(***)(***)(***))"),
        ((108, 0), "((***)(***)(***)(***))"),
        ((144, 0), "((***)(***)(***)(****))"),
        ((186, 0), "((***)(***)(****)(****))"),
        ((234, 0), "((***)(****)(****)(****))"),
        ((288, 0), "((****)(****)(****)(****))"),
        ((357, 36), "((****)(****)(****)(***(**)))"),
        ((434, 78), "((****)(****)(***(**))(***(**)))"),
        ((519, 126), "((****)(***(**))(***(**))(***(**)))"),
        ((612, 180), "((***(**))(***(**))(***(**))(***(**)))"),
        ((722, 264), "((***(**))(***(**))(***(**))(**(**)(**)))"),
        ((842, 358), "((***(**))(***(**))(**(**)(**))(**(**)(**)))"),
        ((972, 462), "((***(**))(**(**)(**))(**(**)(**))(**(**)(**)))"),
        ((1112, 576), "((**(**)(**))(**(**)(**))(**(**)(**))(**(**)(**)))"),
        ((1272, 726), "((**(**)(**))(**(**)(**))(**(**)(**))(*(**)(**)(**)))"),
        ((1444, 890), "((**(**)(**))(**(**)(**))(*(**)(**)(**))(*(**)(**)(**)))"),
        ((1628, 1068), "((**(**)(**))(*(**)(**)(**))(*(**)(**)(**))(*(**)(**)(**)))"),
        ((1824, 1260), "((*(**)(**)(**))(*(**)(**)(**))(*(**)(**)(**))(*(**)(**)(**)))"),
        ((2043, 1494), "((*(**)(**)(**))(*(**)(**)(**))(*(**)(**)(**))((**)(**)(**)(**)))"),
        ((2276, 1746), "((*(**)(**)(**))(*(**)(**)(**))((**)(**)(**)(**))((**)(**)(**)(**)))"),
    ],
    (5, 4): [
        ((0, 0), "*"),
        ((0, 0), "(**)"),
        ((0, 0), "(***)"),
        ((0, 0), "(****)"),
        ((0, 0), "(*****)"),
        ((4, 0), "(****(**))"),
        ((10, 0), "(***(**)(**))"),
        ((18, 0), "(**(**)(**)(**))"),
        ((28, 0), "(*(**)(**)(**)(**))"),
        ((40, 0), "((**)(**)(**)(**)(**))"),
        ((60, 0), "((**)(**)(**)(**)(***))"),
        ((84, 0), "((**)(**)(**)(***)(***))"),
        ((112, 0), "((**)(**)(***)(***)(***))"),
        ((144, 0), "((**)(***)(***)(***)(***))"),
        ((180, 0), "((***)(***)(***)(***)(***))"),
        ((228, 0), "((***)(***)(***)(***)(****))"),
        ((282, 0), "((***)(***)(***)(****)(****))"),
        ((342, 0), "((***)(***)(****)(****)(****))"),
        ((408, 0), "((***)(****)(****)(****)(****))"),
        ((480, 0), "((****)(****)(****)(****)(****))"),
        ((568, 0), "((****)(****)(****)(****)(*****))"),
        ((664, 0), "((****)(****)(****)(*****)(*****))"),
        ((768, 0), "((****)(****)(*****)(*****)(*****))"),
        ((880, 0), "((****)(*****)(*****)(*****)(*****))"),
        ((1000, 0), "((*****)(*****)(*****)(*****)(*****))"),
        ((1144, 80), "((*****)(*****)(*****)(*****)(****(**)))"),
        ((1298, 168), "((*****)(*****)(*****)(****(**))(****(**)))"),
        ((1462, 264), "((*****)(*****)(****(**))(****(**))(****(**)))"),
        ((1636, 368), "((*****)(****(**))(****(**))(****(**))(****(**)))"),
        ((1820, 480), "((****(**))(****(**))(****(**))(****(**))(****(**)))"),
    ],
    (6, 4): [
        ((0, 0), "*"),
        ((0, 0), "(**)"),
        ((0, 0), "(***)"),
        ((0, 0), "(****)"),
        ((0, 0), "(*****)"),
        ((0, 0), "(******)"),
        ((5, 0), "(*****(**))"),
        ((12, 0), "(****(**)(**))"),
        ((21, 0), "(***(**)(**)(**))"),
        ((32, 0), "(**(**)(**)(**)(**))"),
        ((45, 0), "(*(**)(**)(**)(**)(**))"),
        ((60, 0), "((**)(**)(**)(**)(**)(**))"),
        ((85, 0), "((**)(**)(**)(**)(**)(***))"),
        ((114, 0), "((**)(**)(**)(**)(***)(***))"),
        ((147, 0), "((**)(**)(**)(***)(***)(***))"),
        ((184, 0), "((**)(**)(***)(***)(***)(***))"),
        ((225, 0), "((**)(***)(***)(***)(***)(***))"),
        ((270, 0), "((***)(***)(***)(***)(***)(***))"),
        ((330, 0), "((***)(***)(***)(***)(***)(****))"),
        ((396, 0), "((***)(***)(***)(***)(****)(****))"),
        ((468, 0), "((***)(***)(***)(****)(****)(****))"),
        ((546, 0), "((***)(***)(****)(****)(****)(****))"),
        ((630, 0), "((***)(****)(****)(****)(****)(****))"),
        ((720, 0), "((****)(****)(****)(****)(****)(****))"),
        ((830, 0), "((****)(****)(****)(****)(****)(*****))"),
        ((948, 0), "((****)(****)(****)(****)(*****)(*****))"),
        ((1074, 0), "((****)(****)(****)(*****)(*****)(*****))"),
        ((1208, 0), "((****)(****)(*****)(*****)(*****)(*****))"),
        ((1350, 0), "((****)(*****)(*****)(*****)(*****)(*****))"),
        ((1500, 0), "((*****)(*****)(*****)(*****)(*****)(*****))"),
    ],
}


@pytest.mark.parametrize("d, k", sorted(GOLDEN))
def test_dp_matches_recorded_frontier_dp(d, k):
    expected = GOLDEN[(d, k)]
    dp = ParetoDP(k, d).run(len(expected))
    for n, (vector, witness) in enumerate(expected, start=1):
        assert (dp.vector(n), dp.witness(n)) == (vector, witness), n


def _per_column_levels(k, d, n_max):
    """(vector, split, witness) of levels 1..n_max, one column at a time: each
    scanned column c_j holds every candidate's sum of its branches' shares
    c_j(s) + (n - s) c_{j-1}(s), and the level takes the first candidate, in
    partition order, that attains every column minimum."""
    lo = 4 if d == 2 and k > 3 else 3
    cols = [[0, 0] for _ in range(2, k + 1)]  # c_j at j - 2, of levels 0 and 1
    splits, codes = [None, None], [None, "*"]
    for n in range(2, n_max + 1):
        parts = [p for m in range(2, min(d, n) + 1) for p in partitions_into_parts(n, m)]
        columns = []
        for j in range(lo, k + 1):
            c, below = cols[j - 2], cols[j - 3]
            f = [c[s] + (n - s) * below[s] for s in range(n)]
            columns.append([sum(map(f.__getitem__, p)) for p in parts])
        mins = [min(column) for column in columns]
        i = next(i for i in range(len(parts)) if all(map(int.__eq__, mins, (c[i] for c in columns))))
        for col, c in zip(cols, [comb(n, j) for j in range(2, lo)] + mins):
            col.append(c)
        splits.append(parts[i])
        codes.append(join_codes([codes[s] for s in parts[i]]))
    return [(tuple(col[n] for col in cols[1:]), splits[n], codes[n]) for n in range(1, n_max + 1)]


# (k, d, n_max) whose bound on a packed field, C(n_max + 1, j) at its peak j,
# has that peak among the scanned columns, and a bit length that is a
# multiple of 8: there a field one bit short of holding the bound and a spare
# top bit is a whole byte narrower, and the bound reaches its top bit
WIDE = [(40, 2, 62), (12, 3, 49)]


@pytest.mark.parametrize(
    "d, n_max, ks",
    [pytest.param(d, n, range(3, 9), id=f"d{d}-k3..8")
     for d, n in zip(range(2, 7), (300, 90, 50, 40, 34))]
    + [pytest.param(d, n, [k], id=f"d{d}-k{k}") for k, d, n in WIDE],
)
def test_packed_dp_matches_the_per_column_selection(d, n_max, ks):
    for k in ks:
        dp = ParetoDP(k, d).run(n_max)
        packed = [(dp.vector(n), dp._split[n], dp.witness(n)) for n in range(1, n_max + 1)]
        assert packed == _per_column_levels(k, d, n_max), k


@pytest.mark.parametrize("k, d, n_max", WIDE)
@pytest.mark.parametrize("c4, fault", [(6, "counts of split"), (4, "no candidate")])
def test_a_field_at_the_bound_keeps_the_check_exact(monkeypatch, k, d, n_max, c4, fault):
    # the other candidate's c_3 field holds the bound itself, and its c_4
    # field is one above or below the least one's. Above, the least attains
    # every column minimum, so the check passes and the recount refuses the
    # made-up vector; a field with no spare top bit would carry out of c_3
    # and report a miss. Below, the least misses the c_4 minimum.
    dp = ParetoDP(k, d)
    fields = dp._price(n_max, frontier.CANDIDATE_CAP)[1]
    bound = max(comb(n_max + 1, j) for j in range(dp._lo - 1, dp._lo + fields))
    pad = (0,) * (fields - 3)
    _fake_level(monkeypatch, dp, n_max, (0, 5, *pad, 0), (bound, c4, *pad, 1))
    with pytest.raises(ConsistencyError) as exc:
        dp.run(n_max)
    assert str(exc.value).startswith(fault)
    assert f"d={d}, k={k}, n={n_max}" in str(exc.value)


@pytest.mark.parametrize("d, n_max", [(2, 12), (3, 10), (4, 10), (5, 10)])
def test_dp_vectors_are_exhaustive_componentwise_minima(d, n_max):
    for k in range(3, 7):
        dp = ParetoDP(k, d).run(n_max)
        for n in range(1, n_max + 1):
            attained = [caterpillar_counts(t, k)[1:] for t in enumerate_trees(n, d)]
            minima = tuple(map(min, zip(*attained)))
            assert dp.vector(n) == minima, (k, n)
            assert dp.min_count(n) == minima[-1]
            witness = parse_tree(dp.witness(n))
            assert witness.code == dp.witness(n)
            assert caterpillar_counts(witness, k)[1:] == minima


# ---------------------------------------------------------------------------
# closed forms against the DP's minima for d > 2

ANCHORS = [(d, k, n_max) for d, n_max in [(3, 81), (4, 64)] for k in (3, 4, 5)]


@pytest.mark.parametrize("d, k, n_max", ANCHORS)
def test_dp_minimum_is_zero_exactly_up_to_d_to_the_k_minus_2(d, k, n_max):
    # a tree of height k - 2 holds no k-caterpillar, and a root-to-leaf path
    # through k - 1 internal vertices yields one
    dp = ParetoDP(k, d).run(n_max)
    for n in range(k, n_max + 1):
        assert (dp.min_count(n) == 0) == (n <= d ** (k - 2)), n


@pytest.mark.parametrize("d, k, n_max", ANCHORS)
def test_dp_minimum_at_d_to_the_h_is_the_complete_tree_count(d, k, n_max):
    dp = ParetoDP(k, d).run(n_max)
    heights = [h for h in range(1, n_max.bit_length()) if k <= d**h <= n_max]
    assert heights
    for h in heights:
        assert dp.min_count(d**h) == caterpillar_copies_complete(2, k, d, h), h


def _packed(dp, *vectors):
    """One packed candidate of ``dp``'s run per (c_lo, ..., c_k)."""
    return [
        int.from_bytes(b"".join(c.to_bytes(dp._size, "little") for c in vector), "little")
        for vector in vectors
    ]


def _fake_level(monkeypatch, dp, level, *vectors):
    """Make ``vectors`` the only candidates of ``dp``'s level ``level``."""
    real = dp._blocks
    monkeypatch.setattr(
        dp, "_blocks", lambda n: (_packed(dp, *vectors), real(n)[1]) if n == level else real(n)
    )


def test_incomparable_candidates_are_a_consistency_error(monkeypatch):
    for k, vectors in [
        # one lower field: the least candidate, (2, 1), misses the c_3 minimum
        (4, [(1, 2), (2, 1)]),
        # two lower fields: the least candidate misses the c_3 minimum only,
        # then the c_4 minimum only
        (5, [(1, 5, 3), (2, 4, 3)]),
        (5, [(1, 5, 3), (1, 6, 2)]),
    ]:
        dp = ParetoDP(k, 3)
        _fake_level(monkeypatch, dp, 6, *vectors)
        with pytest.raises(ConsistencyError) as exc:
            dp.run(10)  # lays out c_3..c_k: at n_max = 6, c_5 is 0 and not laid out
        assert str(exc.value) == (
            f"no candidate at d=3, k={k}, n=6 attains every coordinate minimum; "
            f"{vectors[0]} and {vectors[1]} are incomparable"
        )
        assert dp.max_n() == 5


def test_recombine_mismatch_is_a_consistency_error(monkeypatch, capsys):
    real = frontier.combine_caterpillar_counts

    def off_by_one(parts, k):
        counts = real(parts, k)
        return counts[:-1] + (counts[-1] + 1,)

    monkeypatch.setattr(frontier, "combine_caterpillar_counts", off_by_one)
    with pytest.raises(ConsistencyError) as exc:
        ParetoDP(4, 2).run(6)
    assert "n=2" in str(exc.value)
    assert cli_main(["conjecture", "--k", "4", "--n-max", "6"]) == 1
    assert "consistency check failed" in capsys.readouterr().err


def test_a_shifted_c3_recount_is_a_consistency_error(monkeypatch):
    # at d = 2 the DP stores no c_3 column, since every binary tree's c_3 is
    # C(n, 3); the recount still compares it
    real = frontier.combine_caterpillar_counts

    def c3_off_by_one(parts, k):
        counts = real(parts, k)
        return (counts[0], counts[1] + 1, *counts[2:])

    monkeypatch.setattr(frontier, "combine_caterpillar_counts", c3_off_by_one)
    with pytest.raises(ConsistencyError) as exc:
        ParetoDP(5, 2).run(6)
    assert "k=5, n=2: columns give (0, 0, 0), recombined (1, 0, 0)" in str(exc.value)


@pytest.mark.parametrize("k", range(4, 8))
def test_binary_c3_is_n_choose_3(k):
    dp = ParetoDP(k, 2).run(200)
    assert all(dp.vector(n)[0] == comb(n, 3) for n in range(1, 201))


def _levels(dp, n_top):
    return [(dp.vector(n), dp.min_count(n), dp.witness(n)) for n in range(1, n_top + 1)]


@pytest.mark.parametrize("d, n_max", [(2, 90), (3, 40), (4, 24)])
def test_a_second_run_builds_afresh(d, n_max):
    # a run to a larger or a smaller n holds a fresh DP's levels, and one
    # refused by its budget leaves the levels built before it readable
    for k in range(3, 8):
        dp = ParetoDP(k, d).run(n_max // 2)
        for n_top in (n_max, n_max // 3):
            assert dp.run(n_top) is dp and dp.max_n() == n_top
            assert _levels(dp, n_top) == _levels(ParetoDP(k, d).run(n_top), n_top), k
        with pytest.raises(KeyError):
            dp.vector(n_top + 1)
        with pytest.raises(BudgetError):
            dp.run(10**6)
        assert dp.max_n() == n_top
        assert _levels(dp, n_top) == _levels(ParetoDP(k, d).run(n_top), n_top), k


# ---------------------------------------------------------------------------
# nothing is read back from disk


def test_a_poisoned_cache_level_is_not_reported(tmp_path, monkeypatch, capsys):
    # Level 10 of (d, k) = (2, 4) in the file format of the deleted frontier
    # cache, holding the 10-leaf caterpillar's own vector and code: consistent,
    # since its witness recounts to it, but not minimal (the minimum c_4 is
    # 104, the caterpillar's 210). A cache that trusted it reported 210.
    monkeypatch.delenv("TREEDENSITY_CACHE_DIR", raising=False)
    conjecture = ["conjecture", "--k", "4", "--n-max", "21"]
    uncached = cli_main(conjecture), capsys.readouterr().out
    level = {"n": 10, "vector": [120, 210], "witness": make_caterpillar(2, 10).code}
    (tmp_path / "frontier_d2_k4_n10.jsonl").write_text(
        json.dumps(level, separators=(",", ":")) + "\n"
    )
    monkeypatch.setenv("TREEDENSITY_CACHE_DIR", str(tmp_path))
    argv = ["search-min", "--d", "2", "--k", "4", "--n-min", "10", "--n-max", "10",
            "--format", "csv"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "104"
    assert (cli_main(conjecture), capsys.readouterr().out) == uncached
    assert uncached[0] == 0


def test_a_code_reader_fault_on_a_witness_exits_1(monkeypatch, capsys):
    # the reader refusing a code that parse_tree accepts is a bug in the
    # package, not a bad witness, so it is a consistency failure
    malformed = "((**)(*(**))"
    monkeypatch.setattr(_Shapes, "parse", lambda self, text: 0)
    with pytest.raises(ConsistencyError) as exc:
        counting.check_witnesses([(5, 2, malformed)], 2, 4)
    assert "which the code reader refused" in str(exc.value)
    monkeypatch.setattr(ParetoDP, "witness", lambda self, n: malformed)
    assert cli_main(["search-min", "--d", "2", "--k", "4", "--n-min", "5", "--n-max", "5"]) == 1
    assert "which the code reader refused" in capsys.readouterr().err


def test_frontier_sizes_stay_small_for_binary():
    # the even-split tree dominates every coordinate at once in the observed
    # range, so frontiers collapse to single entries
    dp = ParetoDP(4).run(40)
    assert all(dp.frontier_size(n) == 1 for n in range(1, 41))


def test_larger_sweep_spot_value():
    dp = ParetoDP(5).run(40)
    assert dp.min_count(40) == 108560


def test_a_dp_builds_its_columns_after_the_budget_check():
    # k - 2 columns took 69 MiB at k = 10^6 when the constructor built them
    tracemalloc.start()
    try:
        dp = ParetoDP(10**6)
        with pytest.raises(BudgetError):
            dp.run(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert dp.max_n() == 0


@pytest.mark.parametrize("n_max", [1, 2])
def test_a_dp_of_few_levels_and_a_huge_k_is_refused_before_level_1(n_max):
    # one candidate at level 2 is cheap at any k, but each level's vector
    # (c_2, ..., c_k) is k - 1 counts: each level costs 4k steps, and the
    # price stops there, before W's binomial. At n_max = 2 the carried
    # shares and the binary candidate add 1 + 1: one field is laid out, so
    # the candidate is not checked
    price = 4 * 10**7 * (n_max + 1) + 2 * (n_max - 1)
    for d in (2, 3):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            dp = ParetoDP(10**7, d)
            with pytest.raises(BudgetError) as exc:
                dp.run(n_max)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20
        assert str(exc.value) == (
            f"levels 1..{n_max} at d={d}, k=10000000 need at least "
            f"{price} packed steps (m - 1 a candidate of m parts "
            "and 1 more if checked, 1/2 a carried share, each times 1 + packed bytes / 256, "
            "and 4k a level), above the cap of 25000000"
        )
        assert dp.max_n() == 0


def test_a_huge_k_packs_and_unpacks_in_linear_time():
    # a run to 5 lays out c_4 and c_5, and pads each vector's other 99,995
    # columns with zeros. The bound is the per-column DP's time, 1.0-1.2 s
    # on a 2-vCPU host, where the packed one took 0.2 s with every column
    # laid out
    start = time.perf_counter()
    dp = ParetoDP(10**5, 2).run(5)
    assert time.perf_counter() - start < 1.2
    assert dp.vector(5) == (10, 2) + (0,) * (10**5 - 4)


def test_a_huge_k_stores_a_level_as_one_vector():
    # an admitted run of one level at k = 3.1 * 10^6: k - 1 column lists of
    # one count each took 1.5 s and 451 MiB, where one vector takes 25 MB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        dp = ParetoDP(3_100_000, 2).run(1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 64 * 2**20
    assert dp.max_n() == 1 and not any(dp.vector(1))
