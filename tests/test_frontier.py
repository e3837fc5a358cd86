"""Minimum-count DP: pruning soundness, closed-form anchors, caching and
budget refusals."""

import json
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from treedensity import (
    BudgetError,
    CacheError,
    ConsistencyError,
    ParetoDP,
    PreconditionError,
    caterpillar_copies_complete,
    caterpillar_counts,
    enumerate_trees,
    parse_tree,
)
from treedensity import frontier
from treedensity.cli import main as cli_main
from treedensity.frontier import _partitions_into_parts, pareto_minimal


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
    assert list(_partitions_into_parts(5, 2)) == [(1, 4), (2, 3)]
    assert list(_partitions_into_parts(6, 3)) == [(1, 1, 4), (1, 2, 3), (2, 2, 2)]
    assert list(_partitions_into_parts(2, 3)) == []
    # every partition, in lexicographic order, against a generate-and-filter
    for n in range(1, 21):
        for m in range(1, 6):
            expect = [t for t in combinations_with_replacement(range(1, n + 1), m) if sum(t) == n]
            assert list(_partitions_into_parts(n, m)) == expect, (n, m)


# ---------------------------------------------------------------------------
# DP vs exhaustive enumeration


def _exhaustive_min(n, d, k):
    return min(caterpillar_counts(t, k)[k] for t in enumerate_trees(n, d))


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
            caterpillar_counts(t, 5).counts[1:] for t in enumerate_trees(n, 2)
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
        assert caterpillar_counts(t, 4)[4] == dp.vector(n)[-1] == dp.min_count(n)


def test_dp_argument_errors():
    for k, d in [(2, 2), (4, 1)]:
        with pytest.raises(PreconditionError):
            ParetoDP(k, d)
    with pytest.raises(PreconditionError):
        ParetoDP(4, 2).run(0)


def test_dp_budget_refusals():
    with pytest.raises(BudgetError) as exc:
        ParetoDP(5, 2, candidate_cap=3).run(8)
    assert "candidate" in str(exc.value)


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
            attained = [caterpillar_counts(t, k).counts[1:] for t in enumerate_trees(n, d)]
            minima = tuple(map(min, zip(*attained)))
            assert dp.vector(n) == minima, (k, n)
            assert dp.min_count(n) == minima[-1]
            witness = parse_tree(dp.witness(n))
            assert witness.code == dp.witness(n)
            assert caterpillar_counts(witness, k).counts[1:] == minima


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
    dp.run(5)
    # two candidates, (1, 2) and (2, 1), neither of which attains both minima
    monkeypatch.setattr(dp, "_columns", lambda n: ([[1, 2], [2, 1]], []))
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


# ---------------------------------------------------------------------------
# persistence


def test_cache_roundtrip_and_resume(tmp_path):
    first = ParetoDP(4, 2, cache_dir=tmp_path).run(10)
    files = sorted(p.name for p in tmp_path.glob("frontier_*.jsonl"))
    assert files == [f"frontier_d2_k4_n{n}.jsonl" for n in sorted(range(1, 11), key=str)]

    # a fresh DP over the same directory reloads rather than recomputes,
    # and extends the sweep past the cached range
    second = ParetoDP(4, 2, cache_dir=tmp_path).run(12)
    for n in range(1, 11):
        assert second.vector(n) == first.vector(n)
        assert second.witness(n) == first.witness(n)
    assert second.min_count(12) == _exhaustive_min(12, 2, 4)

    # cached witnesses survive the round trip
    assert caterpillar_counts(parse_tree(second.witness(8)), 4)[4] == second.vector(8)[-1]


def test_cache_files_are_byte_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    ParetoDP(4, 2, cache_dir=a_dir).run(9)
    ParetoDP(4, 2, cache_dir=b_dir).run(9)
    for n in range(1, 10):
        name = f"frontier_d2_k4_n{n}.jsonl"
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_cache_content_shape(tmp_path):
    ParetoDP(4, 2, cache_dir=tmp_path).run(6)
    lines = (tmp_path / "frontier_d2_k4_n6.jsonl").read_text().splitlines()
    for line in lines:
        obj = json.loads(line)
        assert obj["n"] == 6 and len(obj["vector"]) == 2


def test_cache_corruption_is_reported(tmp_path):
    ParetoDP(4, 2, cache_dir=tmp_path).run(5)
    target = tmp_path / "frontier_d2_k4_n5.jsonl"

    target.write_text("not json\n")
    with pytest.raises(CacheError):
        ParetoDP(4, 2, cache_dir=tmp_path).run(5)

    # wrong leaf count inside the file
    target.write_text('{"n": 4, "vector": [0, 0], "witness": null}\n')
    with pytest.raises(CacheError):
        ParetoDP(4, 2, cache_dir=tmp_path).run(5)

    # wrong vector width (written by a different k)
    target.write_text('{"n": 5, "vector": [0, 0, 0], "witness": null}\n')
    with pytest.raises(CacheError):
        ParetoDP(4, 2, cache_dir=tmp_path).run(5)

    target.write_text("")
    with pytest.raises(CacheError):
        ParetoDP(4, 2, cache_dir=tmp_path).run(5)


@pytest.mark.parametrize(
    "lines",
    [
        # more than one entry
        ['{"n":5,"vector":[10,2],"witness":"((**)(*(**)))"}'] * 2,
        # witness not a string
        ['{"n":5,"vector":[10,2],"witness":null}'],
        ['{"n":5,"vector":[10,2],"witness":5}'],
        # witness with the wrong leaf count
        ['{"n":5,"vector":[10,2],"witness":"(*(**))"}'],
        # a vector the witness does not recount to
        ['{"n":5,"vector":[10,3],"witness":"((**)(*(**)))"}'],
        # a ternary witness at d = 2, stored with its own counts
        ['{"n":5,"vector":[9,0],"witness":"((***)(**))"}'],
        # a malformed witness with 5 leaves
        ['{"n":5,"vector":[10,2],"witness":"((**)(*(**))"}'],
    ],
)
def test_cache_file_must_hold_one_entry_with_a_witness(tmp_path, lines, capsys):
    ParetoDP(4, 2, cache_dir=tmp_path).run(5)
    target = tmp_path / "frontier_d2_k4_n5.jsonl"
    assert target.read_text() == '{"n":5,"vector":[10,2],"witness":"((**)(*(**)))"}\n'
    target.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(CacheError) as exc:
        ParetoDP(4, 2, cache_dir=tmp_path).run(5)
    assert str(target) in str(exc.value)
    argv = ["search-min", "--d", "2", "--k", "4", "--n", "5", "--cache-dir", str(tmp_path)]
    assert cli_main(argv) == 4
    assert str(target) in capsys.readouterr().err


def test_frontier_sizes_stay_small_for_binary():
    # the even-split tree dominates every coordinate at once in the observed
    # range, so frontiers collapse to single entries
    dp = ParetoDP(4).run(40)
    assert all(dp.frontier_size(n) == 1 for n in range(1, 41))


def test_larger_sweep_spot_value():
    dp = ParetoDP(5).run(40)
    assert dp.min_count(40) == 108560
