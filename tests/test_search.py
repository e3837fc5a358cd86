"""Tree enumeration and the exhaustive/Pareto minimum-density searches."""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from treedensity import (
    BudgetError,
    ConsistencyError,
    ParetoDP,
    PreconditionError,
    caterpillar_counts,
    count_trees,
    enumerate_trees,
    is_d_ary,
    is_strictly_d_ary,
    leaf,
    liminf_density,
    make_even_binary,
    parse_tree,
    search_min_report,
    verify_even_conjecture,
    verify_monotone_min,
)
from treedensity import search, trees
from treedensity.counting import check_witnesses
from treedensity.search import _even_split_counts

# minimum k-caterpillar counts among binary hosts, from an independent
# brute-force prototype over full enumerations
MIN_C4 = {n: v for n, v in zip(range(4, 15), [0, 2, 6, 16, 32, 62, 104, 168, 252, 372, 522])}
MIN_C5 = {n: v for n, v in zip(range(5, 15), [0, 0, 0, 0, 8, 20, 42, 72, 138, 224])}


# ---------------------------------------------------------------------------
# counting and enumeration


def _independent_count(n, d, strict):
    # by-size multiset DP, deliberately structured unlike the library's
    # partition-based recurrence
    @lru_cache(maxsize=None)
    def types(m):
        if m == 1:
            return 1
        arities = (d,) if strict else tuple(range(2, d + 1))
        return sum(multisets(m, r, 1) for r in arities if r <= m)

    @lru_cache(maxsize=None)
    def multisets(total, parts, size):
        # multisets of `parts` trees with sizes >= `size` summing to `total`
        if parts == 0:
            return 1 if total == 0 else 0
        if parts * size > total:
            return 0
        acc = 0
        for c in range(0, parts + 1):
            rest = total - c * size
            if rest < 0:
                break
            ways = 1 if c == 0 else comb(types(size) + c - 1, c)
            acc += ways * multisets(rest, parts - c, size + 1)
        return acc

    return types(n)


def test_count_trees_binary_wedderburn_etherington():
    expect = [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983, 2179, 4850, 10905, 24631, 56011]
    for n, a in enumerate(expect, start=1):
        assert count_trees(n, 2) == a
        assert count_trees(n, 2, strict=True) == a  # binary is strict by construction
        assert _independent_count(n, 2, False) == a


def test_count_trees_ternary_against_independent_recurrence():
    for n in range(1, 13):
        assert count_trees(n, 3) == _independent_count(n, 3, False)
        assert count_trees(n, 3, strict=True) == _independent_count(n, 3, True)
    assert [count_trees(n, 3) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    strict = [count_trees(n, 3, strict=True) for n in range(1, 14, 2)]
    assert strict == [1, 1, 1, 2, 4, 8, 17]
    # no strictly ternary tree has an even number of leaves
    assert all(count_trees(n, 3, strict=True) == 0 for n in range(2, 14, 2))


def test_count_trees_wider_arities():
    for d in (4, 5):
        for n in range(1, 11):
            assert count_trees(n, d) == _independent_count(n, d, False)


def test_strict_counts_walk_only_the_sizes_strict_trees_have():
    # with every size and every part walked, these took 15.5 s and 20.2 s
    start = time.perf_counter()
    assert count_trees(97, 7, strict=True) == _independent_count(97, 7, True) == 233547
    assert count_trees(100, 7, strict=True) == 0
    assert time.perf_counter() - start < 1


def test_strict_counts_and_levels_match_independent_ones():
    for d in range(2, 7):
        for n in range(1, 60):
            assert count_trees(n, d, strict=True) == _independent_count(n, d, True), (d, n)
    for d in (2, 3, 4):
        for n in range(1, 14, d - 1):
            strict = [t.code for t in enumerate_trees(n, d) if is_strictly_d_ary(t, d)]
            assert [t.code for t in enumerate_trees(n, d, strict=True)] == strict, (d, n)


def test_a_strict_star_counts_at_once():
    # a root of d leaves once took lists of d - 2 ones to split: 0.20 s and
    # 27 MiB at d = 10^6 + 1
    start = time.perf_counter()
    assert count_trees(10**6 + 1, 10**6 + 1, strict=True) == 1
    assert count_trees(10**18 + 1, 10**18 + 1, strict=True) == 1
    assert time.perf_counter() - start < 0.1


def test_enumerate_small_levels():
    assert list(enumerate_trees(1, 2)) == [leaf()]
    assert sorted(t.code for t in enumerate_trees(4, 2)) == [
        "((**)(**))",
        "(*(*(**)))",
    ]
    assert sorted(t.code for t in enumerate_trees(3, 3)) == ["(*(**))", "(***)"]


def test_enumeration_matches_count_and_is_well_formed():
    for d, n_max in [(2, 13), (3, 10), (4, 9)]:
        for n in range(1, n_max + 1):
            level = list(enumerate_trees(n, d))
            assert len(level) == count_trees(n, d)
            codes = [t.code for t in level]
            assert len(set(codes)) == len(codes)
            assert codes == sorted(codes, key=lambda c: (len(c), c))
            assert all(t.leaf_count == n and is_d_ary(t, d) for t in level)


def test_enumeration_strict_mode():
    for n in range(1, 12, 2):
        level = list(enumerate_trees(n, 3, strict=True))
        assert len(level) == count_trees(n, 3, strict=True)
        assert all(is_strictly_d_ary(t, 3) for t in level)
    with pytest.raises(PreconditionError) as exc:
        enumerate_trees(4, 3, strict=True)
    assert "n = 1 mod 2" in str(exc.value)


def test_enumerate_report_writes_no_code(monkeypatch):
    # the rows are the codes that the level joined while building it
    level = search._tree_levels(range(9, 10), 2, False, search.DEFAULT_TREE_CAP)[1][9]

    def refuse(*args):
        raise AssertionError("a tree code was written")

    monkeypatch.setattr(trees._Shapes, "code", refuse)
    rep = search.enumerate_report(9, 2)
    monkeypatch.undo()
    assert rep.rows == list(enumerate(code for _, code, _ in level))
    assert [code for _, code in rep.rows] == [t.code for t in enumerate_trees(9, 2)]
    # the report checks its arguments as enumerate_trees does
    with pytest.raises(PreconditionError, match="n = 1 mod 2"):
        search.enumerate_report(4, 3, strict=True)


def test_enumeration_budget_names_the_count():
    # every level built is kept, so the trees of sizes 1..n count: 850 up to
    # 12 leaves, and 983 more with 13
    with pytest.raises(BudgetError) as exc:
        list(enumerate_trees(13, 2, max_trees=1000))
    assert str(exc.value) == (
        "enumerating 2-ary trees with 13 leaves keeps 1833 trees of 1..13 leaves, "
        "above the cap of 1000"
    )
    assert len(list(enumerate_trees(12, 2, max_trees=850))) == 451
    # counting stops at the first size over the cap, and names it
    with pytest.raises(BudgetError) as exc:
        list(enumerate_trees(18, 2, max_trees=1000))
    assert str(exc.value) == (
        "enumerating 2-ary trees with 18 leaves keeps more than the cap of 1000: "
        "there are already 1833 of 1..13 leaves"
    )


def test_max_trees_can_only_lower_the_default_cap(monkeypatch):
    # the cap is read when the call runs, and a larger max_trees leaves it
    monkeypatch.setattr(search, "DEFAULT_TREE_CAP", 100)
    with pytest.raises(BudgetError) as exc:
        enumerate_trees(12, 2, max_trees=10**6)
    assert str(exc.value) == (
        "enumerating 2-ary trees with 12 leaves keeps more than the cap of 100: "
        "there are already 192 of 1..10 leaves"
    )


def test_the_default_tree_cap_counts_every_level_kept():
    # enumerate --n 21 --d 2 kept 1,198,025 trees (15.4 s, 487 MiB) while
    # its last level alone, 676,157, passed the cap
    kept = [sum(count_trees(s, 2) for s in range(1, n + 1)) for n in (20, 21)]
    assert kept == [521868, 1198025]
    with pytest.raises(BudgetError) as exc:
        enumerate_trees(21, 2)
    assert str(exc.value) == (
        "enumerating 2-ary trees with 21 leaves keeps 1198025 trees of 1..21 leaves, "
        "above the cap of 1000000"
    )


def test_enumeration_domain_errors():
    for n, d in [(0, 2), (3, 1), (-1, 3)]:
        with pytest.raises(PreconditionError):
            enumerate_trees(n, d)


# ---------------------------------------------------------------------------
# exhaustive minimum search


def _exhaustive(n, d, k, **kw):
    return search_min_report(d, k, n, n, method="exhaustive", **kw)


def test_exhaustive_search_spot_cases():
    rep = _exhaustive(4, 2, 4)
    assert rep.mode == "search-min"
    assert rep.rows == [(4, 0, 0, 1, "((**)(**))")]

    rep = _exhaustive(5, 2, 4)
    (n, c, num, den, code) = rep.rows[0]
    assert (n, c) == (5, 2)
    assert Fraction(num, den) == Fraction(2, comb(5, 4))
    assert code == "((**)(*(**)))"
    assert caterpillar_counts(parse_tree(code), 4)[-1] == 2

    # with k=3 every binary host has c_3 = C(n, 3), so everything ties
    rep = _exhaustive(4, 2, 3)
    assert rep.rows[0][1] == comb(4, 3)


def test_exhaustive_search_matches_frozen_minima():
    for n, c in MIN_C4.items():
        if n <= 11:
            assert _exhaustive(n, 2, 4).rows[0][1] == c


def test_exhaustive_search_errors():
    with pytest.raises(PreconditionError):
        _exhaustive(3, 2, 4)  # n < k
    with pytest.raises(PreconditionError):
        _exhaustive(4, 2, 1)
    with pytest.raises(BudgetError):
        _exhaustive(14, 2, 4, max_trees=100)


def test_strict_exhaustive_search():
    rep = _exhaustive(7, 3, 3, strict=True)
    assert rep.mode == "search-min-strict"
    n, c, num, den, code = rep.rows[0]
    assert n == 7 and is_strictly_d_ary(parse_tree(code), 3)
    assert caterpillar_counts(parse_tree(code), 3)[-1] == c


def test_exhaustive_search_recounts_four_tied_witnesses_per_size(monkeypatch):
    # with k = 3 every binary tree ties, so each size recounts the first
    # min(4, count) trees of its level, in enumeration order
    checked = []
    real = search.check_witnesses

    def spy(rows, *args):
        checked.extend((n, code) for n, _, code in rows)
        return real(rows, *args)

    monkeypatch.setattr(search, "check_witnesses", spy)
    rep = search_min_report(2, 3, 3, 8, method="exhaustive")
    assert [r[1] for r in rep.rows] == [comb(n, 3) for n in range(3, 9)]
    assert checked == [
        (n, t.code) for n in range(3, 9) for t in list(enumerate_trees(n, 2))[:4]
    ]
    assert len(checked) == 1 + 2 + 3 + 4 + 4 + 4


@pytest.mark.parametrize("d, k, n_min, n_max, strict", [
    (3, 4, 4, 9, False), (2, 5, 5, 12, False), (3, 3, 3, 11, True), (4, 4, 5, 10, True),
])
def test_exhaustive_range_matches_its_sizes_one_by_one(d, k, n_min, n_max, strict):
    rows = search_min_report(d, k, n_min, n_max, method="exhaustive", strict=strict).rows
    single = [
        row
        for n in range(n_min, n_max + 1)
        if not strict or (n - 1) % (d - 1) == 0
        for row in _exhaustive(n, d, k, strict=strict).rows
    ]
    assert rows == single and rows


@pytest.mark.parametrize("d, k, n_min, n_max, strict, cap, first", [
    (3, 4, 4, 400, False, 3000, 11),
    (3, 4, 5, 41, True, 50, 15),
    (2, 4, 13, 14, False, 500, 13),
])
def test_exhaustive_range_refuses_at_its_first_size_over_the_cap(
    d, k, n_min, n_max, strict, cap, first
):
    # the same refusal as enumerating that size alone; counting stops there,
    # so a far n_max costs nothing
    with pytest.raises(BudgetError) as alone:
        enumerate_trees(first, d, strict, max_trees=cap)
    with pytest.raises(BudgetError) as ranged:
        search_min_report(d, k, n_min, n_max, method="exhaustive", strict=strict, max_trees=cap)
    assert str(ranged.value) == str(alone.value)
    assert f"with {first} leaves" in str(alone.value)


def test_strict_exhaustive_range_without_a_size_is_empty():
    assert search_min_report(3, 4, 1000, 1000, method="exhaustive", strict=True).rows == []


# ---------------------------------------------------------------------------
# report sweeps


def test_search_min_report_pareto_agrees_with_exhaustive():
    ex = search_min_report(2, 4, 4, 12, method="exhaustive")
    pa = search_min_report(2, 4, 4, 12, method="pareto")
    assert ex.params["method"] == "exhaustive" and pa.params["method"] == "pareto"
    assert [r[:4] for r in ex.rows] == [r[:4] for r in pa.rows]
    for n, c, _num, _den, code in pa.rows:
        assert caterpillar_counts(parse_tree(code), 4)[-1] == c
        assert [r for r in ex.rows if r[0] == n][0][1] == MIN_C4[n]


def test_search_min_report_auto_routes_to_pareto_for_binary():
    rep = search_min_report(2, 5, 5, 14)
    assert rep.params["method"] == "pareto"
    assert [(r[0], r[1]) for r in rep.rows] == sorted(MIN_C5.items())


def test_search_min_report_auto_routes_to_exhaustive_where_pareto_does_not_apply():
    assert search_min_report(3, 4, 4, 8).params["method"] == "pareto"
    assert search_min_report(3, 3, 3, 7, strict=True).params["method"] == "exhaustive"
    assert search_min_report(2, 3, 3, 7, strict=True).params["method"] == "pareto"
    assert search_min_report(3, 2, 2, 5).params["method"] == "exhaustive"


def test_search_min_report_strict_skips_impossible_sizes():
    rep = search_min_report(3, 3, 3, 8, method="exhaustive", strict=True)
    assert [r[0] for r in rep.rows] == [3, 5, 7]


def test_search_min_report_argument_errors():
    with pytest.raises(PreconditionError):
        search_min_report(2, 4, 3, 10)  # n_min < k
    with pytest.raises(PreconditionError):
        search_min_report(2, 4, 8, 6)
    with pytest.raises(PreconditionError):
        search_min_report(2, 4, 4, 10, method="guess")
    with pytest.raises(PreconditionError):
        search_min_report(3, 4, 4, 10, method="pareto", strict=True)


def test_verify_even_conjecture_small_range():
    rep = verify_even_conjecture(4, 20)
    assert rep.all_ok is True
    assert rep.columns == ("n", "min_count", "even_count", "verdict")
    assert [r[0] for r in rep.rows] == list(range(4, 21))
    assert all(r[1] == r[2] and r[3] for r in rep.rows)
    by_n = {r[0]: r[1] for r in rep.rows}
    for n, c in MIN_C4.items():
        assert by_n[n] == c
    with pytest.raises(PreconditionError):
        verify_even_conjecture(2, 20)
    with pytest.raises(PreconditionError):
        verify_even_conjecture(4, 3)


def test_even_split_recurrence_matches_the_even_tree():
    for k in range(3, 9):
        even = _even_split_counts(k, 200)
        assert len(even) == 201
        for n in range(1, 201):
            assert even[n] == caterpillar_counts(make_even_binary(n), k), (k, n)


@pytest.mark.parametrize(
    "code, fault",
    [
        ("((**)(*(**)))", "reported 3, recounted 2"),
        ("(*(**))", "the witness has 3 leaves, not 5"),
        ("((***)(**))", "the witness has outdegree 3 > d = 2"),
        ("((**)(*(**))", "malformed code, unbalanced '(': input ended inside a group (offset 12)"),
        ("((**)(*(*)))", "malformed code, internal vertex with exactly one child (offset 9)"),
    ],
)
def test_witness_check_rejects(code, fault):
    check_witnesses([(5, 2, "((**)(*(**)))")], 2, 4)
    with pytest.raises(ConsistencyError) as exc:
        check_witnesses([(5, 3, code)], 2, 4)
    assert str(exc.value) == f"4-caterpillar count of witness {code}: {fault}"


def test_witness_check_names_the_first_faulty_row():
    good = "((**)(*(**)))"
    rows = [(5, 2, good), (5, 2, "(*(**))"), (5, 3, good)]
    with pytest.raises(ConsistencyError) as exc:
        check_witnesses(rows, 2, 4)
    assert str(exc.value) == "4-caterpillar count of witness (*(**)): the witness has 3 leaves, not 5"
    # a text read before is recounted too
    with pytest.raises(ConsistencyError) as exc:
        check_witnesses(rows[::2], 2, 4)
    assert str(exc.value) == f"4-caterpillar count of witness {good}: reported 3, recounted 2"


@pytest.mark.parametrize("raised", [0, 12, 26])
def test_witness_check_passes_a_dp_run_and_names_a_raised_count(raised):
    dp = ParetoDP(4, 3).run(30)
    rows = [(n, dp.min_count(n), dp.witness(n)) for n in range(4, 31)]
    check_witnesses(rows, 3, 4)
    n, c, code = rows[raised]
    rows[raised] = (n, c + 1, code)
    with pytest.raises(ConsistencyError) as exc:
        check_witnesses(rows, 3, 4)
    assert str(exc.value) == f"4-caterpillar count of witness {code}: reported {c + 1}, recounted {c}"


@pytest.mark.parametrize("method", ["pareto", "exhaustive"])
def test_search_checks_its_witnesses_in_one_call(monkeypatch, method):
    calls = []
    real = search.check_witnesses

    def spy(rows, d, k):
        calls.append(list(rows))
        return real(rows, d, k)

    monkeypatch.setattr(search, "check_witnesses", spy)
    rep = search_min_report(3, 4, 4, 9, method=method)
    [rows] = calls
    assert [(n, c, code) for n, c, _, _, code in rep.rows] == [
        next(row for row in rows if row[0] == n) for n in range(4, 10)
    ]


def test_verify_monotone_min_binary():
    rep = verify_monotone_min(2, 4, 14)
    assert rep.all_ok is True
    dens = [Fraction(r[2], r[3]) for r in rep.rows]
    assert dens == sorted(dens)
    assert dens[-1] <= liminf_density(2, 4) == Fraction(4, 7)


def test_verify_monotone_min_ternary():
    rep = verify_monotone_min(3, 3, 9, method="exhaustive")
    assert rep.all_ok is True
    assert [r[1] for r in rep.rows] == [0, 2, 6, 12, 22, 36, 54]
    assert Fraction(rep.rows[-1][2], rep.rows[-1][3]) == Fraction(9, 14)
