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
    make_caterpillar,
    parse_tree,
)
from treedensity import counting, frontier
from treedensity.cli import main as cli_main
from treedensity._partitions import partition_counts, partitions_into_parts
from treedensity.frontier import pareto_minimal
from treedensity.trees import _Shapes


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
        for m in range(1, 6):
            expect = [t for t in combinations_with_replacement(range(1, n + 1), m) if sum(t) == n]
            assert list(partitions_into_parts(n, m)) == expect, (n, m)
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
    # the budget counts column additions: a split into m parts costs m - 1
    for d in (2, 3, 4, 6):
        for hi in (1, 2, 17, 30):
            weighted = sum(
                (m - 1) * len(list(partitions_into_parts(n, m)))
                for n in range(2, hi + 1)
                for m in range(2, d + 1)
            )
            assert frontier._candidates(d, hi, 10**9) == weighted, (d, hi)
    # the count stops at the first m that passes the limit: here m = 3
    assert frontier._candidates(6, 2000, 10**6) == frontier._candidates(3, 2000, 10**12)


# Vectors and witnesses produced by the general Pareto-frontier DP, which kept
# candidate lists pruned by ``pareto_minimal`` at every level.
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
    ],
}


@pytest.mark.parametrize("d, k", sorted(GOLDEN))
def test_dp_matches_recorded_frontier_dp(d, k):
    expected = GOLDEN[(d, k)]
    dp = ParetoDP(k, d).run(len(expected))
    for n, (vector, witness) in enumerate(expected, start=1):
        assert (dp.vector(n), dp.witness(n)) == (vector, witness), n


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


def test_incomparable_candidates_are_a_consistency_error(monkeypatch):
    dp = ParetoDP(4, 3)
    real = dp._columns
    # at n = 6 two candidates, (1, 2) and (2, 1), neither of which attains
    # both minima
    monkeypatch.setattr(dp, "_columns", lambda n: ([[1, 2], [2, 1]], []) if n == 6 else real(n))
    with pytest.raises(ConsistencyError) as exc:
        dp.run(6)
    message = str(exc.value)
    assert "d=3, k=4, n=6" in message
    assert "(1, 2)" in message and "(2, 1)" in message
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
    # one candidate at level 2 passes the candidate check at any k, but the
    # k - 2 column and share lists would take about 7 GB at k = 2 * 10^7
    tracemalloc.start()
    try:
        start = time.perf_counter()
        dp = ParetoDP(10**7, 2)
        with pytest.raises(BudgetError) as exc:
            dp.run(n_max)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20
    assert str(exc.value) == (
        f"levels 1..{n_max} at d=2, k=10000000 store up to {2 * 9999998 * (n_max + 1)} "
        "entries (2 (k - 2) lists of n_max + 1), above the cap of 20000000"
    )
    assert dp.max_n() == 0
