"""Copy counting: brute-force oracle, branch recursion, caterpillar vectors."""

import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from treedensity import (
    BudgetError,
    CopyEngine,
    ParseError,
    PreconditionError,
    brute_copy_profile,
    caterpillar_counts,
    combine_caterpillar_counts,
    count_copies,
    count_copies_brute,
    count_report,
    density,
    induced_subtree,
    leaf,
    make_caterpillar,
    make_complete,
    make_even_binary,
    parse_tree,
    star_copies,
)
from treedensity import counting
from treedensity.counting import check_witnesses
from treedensity.search import enumerate_trees
from treedensity.trees import _Shapes


def _internal_shapes(t):
    """The distinct internal subtrees of ``t``, fewest leaves first."""
    found, stack = set(), [t]
    while stack:
        u = stack.pop()
        if not u.is_leaf and u not in found:
            found.add(u)
            stack.extend(u.children)
    return sorted(found, key=lambda u: (u.leaf_count, u.code))


# ---------------------------------------------------------------------------
# induced_subtree


def test_induced_single_leaf_and_full_set():
    t = parse_tree("((**)(*(**)))")
    for i in range(t.leaf_count):
        assert induced_subtree(t, [i]) == leaf()
    assert induced_subtree(t, range(t.leaf_count)) == t


def test_induced_suppresses_pass_through_vertices():
    t = parse_tree("(*(**)(**(**)))")
    # leaf 0 is the bare leaf, leaf 1 sits in the cherry, leaves 3 and 5 in
    # the last branch land in different children of it.
    assert induced_subtree(t, [0, 1, 3, 5]).code == "(**(**))"
    # both leaves of one cherry: the path above it is suppressed entirely
    assert induced_subtree(t, [5, 6]).code == "(**)"
    assert induced_subtree(t, [1, 2]).code == "(**)"


def test_induced_tolerates_duplicates():
    t = parse_tree("((**)(**))")
    assert induced_subtree(t, [0, 0, 3]).code == "(**)"


def test_induced_errors():
    t = parse_tree("(**)")
    with pytest.raises(PreconditionError):
        induced_subtree(t, [])
    with pytest.raises(PreconditionError):
        induced_subtree(t, [2])
    with pytest.raises(PreconditionError):
        induced_subtree(t, [-1, 0])


def test_induced_subtree_size_matches_selection():
    t = make_even_binary(9)
    for subset in combinations(range(9), 4):
        assert induced_subtree(t, subset).leaf_count == 4


def test_induced_subtree_has_no_depth_limit():
    depth = 3 * sys.getrecursionlimit()
    t = make_caterpillar(2, depth + 1)
    assert induced_subtree(t, [0, depth]).code == "(**)"
    assert induced_subtree(t, range(depth + 1)) == t


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_small_examples():
    f23 = make_caterpillar(2, 3)
    assert count_copies_brute(f23, make_complete(2, 2)) == 4
    assert count_copies_brute(make_caterpillar(2, 2), make_even_binary(7)) == comb(7, 2)
    # a binary host has no 3-star copies
    assert count_copies_brute(parse_tree("(***)"), make_even_binary(6)) == 0
    # pattern larger than host
    assert count_copies_brute(make_caterpillar(2, 4), f23) == 0


def test_brute_budget_refuses_over_the_cap(monkeypatch):
    monkeypatch.setattr(counting, "SUBSET_CAP", 100)
    t = make_even_binary(30)
    f23 = make_caterpillar(2, 3)
    with pytest.raises(BudgetError) as exc:
        count_copies_brute(f23, t)
    assert str(exc.value) == (  # C(30, 3), the quantity that tripped
        "brute-force enumeration of C(30,3) = 4060 subsets needs 12270 steps "
        "(C(n, k) * k + 3 * n), above the cap of 100"
    )
    with pytest.raises(BudgetError, match="4060"):
        brute_copy_profile(t, 3)


def test_brute_budget_prices_each_subset_by_its_leaves(monkeypatch):
    # C(6000, 5999) is only 6000 subsets, but each has 5999 leaves: the run
    # would take about 20 s
    host, pattern = make_even_binary(6000), make_even_binary(5999)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as exc:
        count_copies_brute(pattern, host)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == (
        "brute-force enumeration of C(6000,5999) = 6000 subsets needs 36012000 steps "
        "(C(n, k) * k + 3 * n), above the cap of 2000000"
    )
    # C(30, 3) * 3 + 3 * 30 = 12270 steps: the cap admits exactly that many
    t = make_even_binary(30)
    monkeypatch.setattr(counting, "SUBSET_CAP", 12270)
    assert sum(brute_copy_profile(t, 3).values()) == 4060
    monkeypatch.setattr(counting, "SUBSET_CAP", 12269)
    with pytest.raises(BudgetError, match="needs 12270 steps"):
        brute_copy_profile(t, 3)
    # a one-leaf subset walks no host: C(30, 1) * 1 = 30 steps
    monkeypatch.setattr(counting, "SUBSET_CAP", 30)
    assert brute_copy_profile(t, 1) == {"*": 30}
    monkeypatch.setattr(counting, "SUBSET_CAP", 29)
    with pytest.raises(BudgetError) as exc:
        brute_copy_profile(t, 1)
    assert str(exc.value) == (
        "brute-force enumeration of C(30,1) = 30 subsets needs 30 steps (C(n, k) * k), "
        "above the cap of 29"
    )


def _reference_profile(t, k):
    """{code: copies} over every k-subset, built with induced_subtree."""
    return Counter(
        induced_subtree(t, s).code for s in combinations(range(t.leaf_count), k)
    )


def test_brute_matches_induced_subtree_reference():
    patterns = list(enumerate_trees(6, 4))
    hosts = list(enumerate_trees(7, 4)) + [
        make_caterpillar(2, 12),
        parse_tree("((**)(***)(*(**)(****)))"),
    ]
    for t in hosts:
        ref = _reference_profile(t, 6)
        for p in patterns:
            assert count_copies_brute(p, t) == ref[p.code], (p.code, t.code)


def test_brute_profile_sums_to_binomial():
    t = parse_tree("((**)(*(**))(**))")
    for k in range(1, 5):
        profile = brute_copy_profile(t, k)
        assert sum(profile.values()) == comb(t.leaf_count, k)
    assert brute_copy_profile(t, 9) == {}
    for t in (make_caterpillar(2, 12), parse_tree("((**)(***)(*(**)(****)))")):
        for k in range(1, 7):
            profile = brute_copy_profile(t, k)
            assert sum(profile.values()) == comb(t.leaf_count, k)
            assert profile == _reference_profile(t, k)
            for code, copies in profile.items():
                assert count_copies_brute(parse_tree(code), t) == copies
    with pytest.raises(PreconditionError):
        brute_copy_profile(t, 0)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=12))
def test_brute_profile_matches_induced_subtree_on_random_hosts(rnd, d, n):
    t = parse_tree(_random_code(rnd, n, d))
    for k in range(2, min(6, n) + 1):
        assert brute_copy_profile(t, k) == _reference_profile(t, k), (t.code, k)


def test_brute_orders_equal_length_siblings_by_code():
    # the star's branch comes first in the host, but the 3-caterpillar that
    # three leaves of the other branch induce has a code of the same length
    # that sorts in front of the star's
    t = parse_tree("((*****)(**(**)))")
    assert t.code == "((*****)(**(**)))"
    profile = brute_copy_profile(t, 8)
    assert profile == _reference_profile(t, 8)
    assert profile["((*(**))(*****))"] == 2


@pytest.mark.parametrize("n", [5, 7, 9, 11, 12])
def test_brute_profile_at_the_range_table_edges(n):
    # the host has n - 1 adjacent meeting depths, a power of two (n = 5, 9)
    # or not; k = 2 asks for spans of every length, k = n - 1 for spans of
    # up to two, k = n for spans one leaf wide only, read from the table's
    # first row, and k = 1 for none
    for t in (make_caterpillar(2, n), make_even_binary(n),
              parse_tree(_random_code(random.Random(n), n, 3))):
        for k in (1, 2, n - 1, n):
            assert brute_copy_profile(t, k) == _reference_profile(t, k), (t.code, k)
        assert brute_copy_profile(t, n) == {t.code: 1}
        assert count_copies_brute(t, t) == 1


def test_brute_writes_a_deep_induced_code_in_linear_time():
    # one subset of a caterpillar's 250,001 leaves induces the caterpillar,
    # and each vertex's code holds the rest of it: joining each level's code
    # onto the next took about 8.5 s, writing it from a shape table 1.3 s
    t = make_caterpillar(2, 250_001)
    start = time.perf_counter()
    assert brute_copy_profile(t, t.leaf_count) == {t.code: 1}
    assert time.perf_counter() - start < 4


# ---------------------------------------------------------------------------
# cross-term pass


def test_cross_term_pass_matches_placement_enumeration():
    # the sum the pass replaces: over r-subsets of the host's children and
    # distinct arrangements of the root's branch classes on them
    rng = random.Random(23)
    for d in (2, 3):
        for n in range(2, 8):
            for s in enumerate_trees(n, d):
                reps = list(dict.fromkeys(s.children))  # one per shape, canonical order
                classes = [reps.index(b) for b in s.children]
                mults = Counter(classes)
                pass_steps = counting._pass_steps(mults)
                last = prod(m + 1 for m in mults.values()) - 1
                r = len(classes)
                for m in range(r, r + 3):
                    kids = [[rng.randrange(4) for _ in reps] for _ in range(m)]
                    expect = sum(
                        prod(host[c] for c, host in zip(arrangement, hosts))
                        for hosts in combinations(kids, r)
                        for arrangement in set(permutations(classes))
                    )
                    assert counting._cross_term(pass_steps, last, kids) == expect, (s.code, kids)


def test_two_branch_term_matches_the_pass():
    # the one pass over the children's rows adds P[a] x[b] + P[b] x[a] (or
    # P[a] x[a]) per child, with P the rows before it: on random rows, its
    # column 3 is the column sum plus the cross term that _cross_term finds
    rng = random.Random(29)
    for a, b in [(0, 1), (1, 0), (0, 0), (-1, 0), (-1, -1), (2, -1)]:
        classes = Counter([a, b])
        pass_steps = counting._pass_steps(classes)
        last = prod(m + 1 for m in classes.values()) - 1
        for m in range(2, 8):
            kids = [[rng.randrange(50) for _ in range(5)] for _ in range(m)]
            sums = [sum(col) for col in zip(*kids)]
            row = counting._pair_pass([(2, 3, a, b)], 2, kids)
            cross = counting._cross_term(pass_steps, last, kids)
            assert row == sums[:3] + [sums[3] + cross, sums[4]], (a, b, kids)
            # a shape with more leaves than the vertex adds nothing
            assert counting._pair_pass([(3, 3, a, b)], 2, kids) == sums, (a, b, kids)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=2, max_value=7),
       st.integers(min_value=6, max_value=13), st.integers(min_value=2, max_value=5))
def test_count_matches_brute_on_random_binary_patterns(seed, k, n, d):
    # hosts up to 5-ary: vertices of 3 or more children meet two-branch
    # shapes with equal classes, such as the two cherries of ((**)(**))
    rnd = random.Random(seed)
    pattern = parse_tree(_random_code(rnd, k, 2))
    host = parse_tree(_random_code(rnd, n, d))
    assert count_copies(pattern, host) == count_copies_brute(pattern, host)


def test_trees_of_one_table_share_rows_in_every_engine(monkeypatch):
    # rows live in the host's table, so a fresh engine counting the host's
    # branches, or the host again, adds no row and runs no pass
    host = parse_tree(_random_code(random.Random(31), 200, 3))
    pattern = parse_tree("((**)(**)(*(**)))")
    first = CopyEngine().count(pattern, host)
    branches = [(b.code, count_copies(pattern, parse_tree(b.code))) for b in host.children]
    calls = []
    for name in ("_pair_pass", "_cross_term"):
        real = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, real=real: calls.append(a) or real(*a))
    engine = CopyEngine()
    assert [(b.code, engine.count(pattern, b)) for b in host.children] == branches
    assert CopyEngine().count(pattern, host) == first
    assert calls == []


def test_parses_of_one_pattern_written_apart_fill_rows_alike():
    # the two 4-leaf shapes get their ids in the order each text meets them,
    # yet rows that one parse leaves in the host's table serve the other's
    # engine; the root's branches use the two shapes unequally
    host = parse_tree(_random_code(random.Random(35), 20, 3))
    texts = ["((*(*(**)))((**)(**))(*(*(**))))", "(((**)(**))(*(*(**)))(*(*(**))))"]
    a, b = map(parse_tree, texts)
    assert a == b and a._table.kids != b._table.kids
    expected = count_copies_brute(a, host)
    assert expected
    for branch in host.children:
        CopyEngine().count(a, branch)
    assert CopyEngine().count(b, host) == expected


def test_a_refused_host_leaves_the_engine_counting_other_hosts(monkeypatch):
    # a refused host fills no row, and the engine prices and fills only the
    # shapes under each later host
    monkeypatch.setattr(counting, "PASS_STEP_CAP", 200)
    engine, pattern = CopyEngine(), make_caterpillar(2, 4)
    with pytest.raises(BudgetError):
        engine.count(pattern, make_caterpillar(2, 300))
    host = parse_tree("((**)(*(**))(*(*(**))))")
    for t in (host.children[2], host, make_caterpillar(2, 8)):
        assert engine.count(pattern, t) == count_copies_brute(pattern, t)


def test_a_count_is_priced_before_its_plan_is_built(monkeypatch):
    # a 3-ary caterpillar of 9 leaves has 4 shapes of 3 branches, and one of
    # 15 leaves 7 vertices of 3 children: at least 3 * 4 * 7 * 3 = 252 steps.
    # The exact price counts 3 for (***) and 2 * 2 + 3 for each shape of two
    # leaves and a smaller shape: 24 * 7 * 3 = 504
    pattern, host = make_caterpillar(3, 9), make_caterpillar(3, 15)
    plans = []
    monkeypatch.setattr(counting, "prod", lambda xs: plans.append(xs) or prod(xs))
    for cap, price in [(251, "at least 252"), (503, "up to 504")]:
        monkeypatch.setattr(counting, "PASS_STEP_CAP", cap)
        with pytest.raises(BudgetError) as exc:
            CopyEngine().count(pattern, host)
        assert str(exc.value) == (f"counting a 9-leaf pattern in a 15-leaf tree needs {price} "
                                  f"steps, above the cap of {cap}")
        assert len(plans) == (0 if cap == 251 else 4)
    monkeypatch.setattr(counting, "PASS_STEP_CAP", 504)
    assert CopyEngine().count(pattern, host) == count_copies_brute(pattern, host) > 0


def test_count_of_a_30_star_in_a_60_star():
    # C(60, 30) subsets: listing them per host vertex would never finish
    assert count_copies(make_complete(30, 1), make_complete(60, 1)) == star_copies(30, 60, 1)


# ---------------------------------------------------------------------------
# branch recursion vs oracle


def test_count_copies_matches_brute_on_small_trees():
    engine = CopyEngine()
    for d in (2, 3):
        patterns = [p for k in range(1, 5) for p in enumerate_trees(k, d)]
        for n in range(1, 8):
            for t in enumerate_trees(n, d):
                for p in patterns:
                    assert engine.count(p, t) == count_copies_brute(p, t), (
                        p.code,
                        t.code,
                    )


def test_count_copies_spot_values():
    f23 = make_caterpillar(2, 3)
    assert count_copies(f23, make_complete(2, 2)) == 4
    assert count_copies(f23, make_complete(3, 2)) == 54
    assert count_copies(f23, make_complete(2, 3)) == 56
    assert count_copies(parse_tree("(***)"), make_complete(3, 2)) == 30
    # pattern in host of larger outdegree than the pattern root
    star4 = parse_tree("(****)")
    assert count_copies(f23, star4) == 0
    assert count_copies(parse_tree("(***)"), star4) == 4


def test_count_copies_identity_and_degenerate_cases():
    for d in (2, 3):
        for n in range(1, 7):
            for t in enumerate_trees(n, d):
                assert count_copies(t, t) == 1
    t = make_even_binary(5)
    assert count_copies(leaf(), t) == 5
    assert count_copies(t, leaf()) == 0
    assert count_copies(leaf(), leaf()) == 1


def test_density_values_and_errors():
    f23 = make_caterpillar(2, 3)
    assert density(f23, make_complete(3, 2)) == Fraction(9, 14)
    assert density(f23, make_complete(2, 3)) == 1
    message = "^density needs a host with at least 4 leaves, got 3$"
    with pytest.raises(PreconditionError, match=message):
        density(make_caterpillar(2, 4), f23)
    with pytest.raises(PreconditionError, match=message):
        count_report(make_caterpillar(2, 4), f23, mode="density")


def test_unknown_count_mode_is_rejected():
    message = "^unknown count mode 'dens', expected 'count' or 'density'$"
    with pytest.raises(PreconditionError, match=message):
        count_report(make_caterpillar(2, 3), make_complete(3, 2), mode="dens")


def test_a_count_of_0_needs_no_binomial(monkeypatch):
    # a 3-caterpillar cannot fit a star: the density is 0/1, as Fraction(0, C)
    # would read, and C(n, k) is never taken
    pattern, star = make_caterpillar(2, 3), make_complete(5, 1)
    expect = count_report(pattern, star, mode="density").rows
    calls = []
    monkeypatch.setattr(counting, "comb", lambda *a: calls.append(a) or comb(*a))
    assert density(pattern, star) == Fraction(0, comb(5, 3))
    for mode in ("count", "density"):
        for brute in (False, True):
            report = count_report(pattern, star, mode=mode, brute=brute)
            assert report.rows == expect == [(pattern.code, star.code, 3, 5, 0, 0, 1, "0")]
    assert calls == [(5, 3), (5, 3)]  # the oracle's budget check, once per brute report
    calls.clear()
    assert count_report(make_caterpillar(2, 30), make_complete(60, 1)).rows[0][4:7] == (0, 0, 1)
    assert calls == []


def test_normalization_over_all_patterns():
    # every k-subset induces exactly one pattern shape, so the copy counts
    # over all candidate patterns partition C(n, k)
    cases = [(2, 12), (3, 9)]
    engine = CopyEngine()
    for d, n_max in cases:
        for k in (3, 4, 5):
            patterns = list(enumerate_trees(k, d))
            for n in range(k, n_max + 1):
                for t in enumerate_trees(n, d):
                    total = sum(engine.count(p, t) for p in patterns)
                    assert total == comb(n, k), (d, k, t.code)


def test_engine_reuses_rows_for_a_host_and_its_branches():
    rnd = random.Random(7)
    patterns = [p for k in range(1, 6) for p in enumerate_trees(k, 3)]
    host = parse_tree(_random_code(rnd, 40, 3))
    engine = CopyEngine()
    # the host first, then its distinct branches, largest first
    for t in [*reversed(_internal_shapes(host)), leaf()]:
        for p in patterns:
            assert engine.count(p, t) == CopyEngine().count(p, t), (p.code, t.code)


# hosts three times deeper than the interpreter's recursion limit
DEEP = 3 * sys.getrecursionlimit()


@pytest.fixture(scope="module", params=[2, 3], ids=["binary", "ternary"])
def deep_caterpillar(request):
    r = request.param
    host = make_caterpillar(r, DEEP * (r - 1) + 1)
    # the host's code read back into a table of its own
    table = _Shapes()
    counts = caterpillar_counts(table.tree(table.read(host.code)), 6)
    return r, host, counts


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_counters_on_deep_caterpillar_hosts(deep_caterpillar, k):
    r, host, counts = deep_caterpillar
    n = host.leaf_count
    pattern = make_caterpillar(2, k)
    found = {
        CopyEngine().count(pattern, host),
        count_copies(pattern, host),
        caterpillar_counts(host, k)[-1],
    }
    assert found == {counts[k - 2]}
    if k == 3:
        # binary: every triple induces the caterpillar; ternary: the star
        # (***) takes the triples that meet at one vertex
        star = count_copies(parse_tree("(***)"), host) if r == 3 else 0
        assert counts[1] + star == comb(n, 3)


def test_pattern_as_wide_as_three_recursion_limits():
    star = parse_tree("(" + "*" * DEEP + ")")
    assert count_copies(star, star) == 1
    assert CopyEngine().count(star, star) == 1
    # a binary host has no vertex with three children
    assert count_copies(star, make_caterpillar(2, DEEP)) == 0


# ---------------------------------------------------------------------------
# caterpillar count vectors


def test_caterpillar_counts_examples():
    # the sole 4-subset of the complete tree induces the complete tree, not
    # the caterpillar, so the k=4 entry is zero
    assert caterpillar_counts(make_complete(2, 2), 4) == (6, 4, 0)
    assert caterpillar_counts(make_complete(3, 2), 3) == (36, 54)
    for k in range(2, 8):
        assert caterpillar_counts(make_caterpillar(2, k), k)[-1] == 1


def test_caterpillar_counts_match_general_recursion():
    engine = CopyEngine()
    pats = {j: make_caterpillar(2, j) for j in range(2, 6)}
    for d, n_max in [(2, 10), (3, 8)]:
        for n in range(2, n_max + 1):
            for t in enumerate_trees(n, d):
                v = caterpillar_counts(t, 5)
                for j in range(2, 6):
                    assert v[j - 2] == engine.count(pats[j], t), (t.code, j)
                    assert 0 <= v[j - 2] <= comb(n, j)


def test_caterpillar_counts_of_an_enumerated_tree_combine_only_its_shapes(monkeypatch):
    # the trees of one enumeration share a table of shapes, but a count fills
    # vectors only for the shapes under the tree it is asked for, once each
    trees = list(enumerate_trees(12, 2))
    t = trees[len(trees) // 2]
    calls = []
    real = counting.combine_caterpillar_counts
    monkeypatch.setattr(counting, "combine_caterpillar_counts",
                        lambda parts, k: calls.append(k) or real(parts, k))
    expected = tuple(count_copies(make_caterpillar(2, j), t) for j in (2, 3, 4))
    assert caterpillar_counts(t, 4) == expected
    assert len(calls) == len(_internal_shapes(t))
    assert caterpillar_counts(t, 4) == expected and len(calls) == len(_internal_shapes(t))


def test_combine_requires_two_branches():
    with pytest.raises(PreconditionError):
        combine_caterpillar_counts([(3, (3, 1, 0))], 4)
    with pytest.raises(PreconditionError):
        combine_caterpillar_counts([(1, ()), (1, ())], 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_combine_monotone_in_every_coordinate(data):
    k = data.draw(st.integers(min_value=3, max_value=6))
    m = data.draw(st.integers(min_value=2, max_value=4))
    parts = []
    for _ in range(m):
        ni = data.draw(st.integers(min_value=1, max_value=30))
        vec = tuple(
            data.draw(st.integers(min_value=0, max_value=1000)) for _ in range(k - 1)
        )
        parts.append((ni, vec))
    base = combine_caterpillar_counts(parts, k)
    i = data.draw(st.integers(min_value=0, max_value=m - 1))
    j = data.draw(st.integers(min_value=0, max_value=k - 2))
    bump = data.draw(st.integers(min_value=1, max_value=50))
    ni, vec = parts[i]
    bumped = vec[:j] + (vec[j] + bump,) + vec[j + 1 :]
    parts[i] = (ni, bumped)
    after = combine_caterpillar_counts(parts, k)
    assert all(a >= b for a, b in zip(after, base))


def test_combine_agrees_with_direct_computation():
    # recombining the branch vectors of a real tree reproduces its own vector
    for code in ["((**)(**))", "(*(*(**)))", "((*(**))((**)(**)))", "(**(***))"]:
        t = parse_tree(code)
        k = min(t.leaf_count, 5)
        parts = [
            (c.leaf_count, caterpillar_counts(c, k)) for c in t.children
        ]
        assert combine_caterpillar_counts(parts, k) == caterpillar_counts(t, k)


# ---------------------------------------------------------------------------
# counts of codes read through a table of shapes


def _random_code(rnd, n, d):
    """A random tree with n leaves and outdegrees 2..d, children in random
    order."""
    if n == 1:
        return "*"
    m = rnd.randint(2, min(d, n))
    cuts = sorted(rnd.sample(range(1, n), m - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return "(" + "".join(_random_code(rnd, s, d) for s in sizes) + ")"


_CODE_TABLE = _Shapes()  # one table across draws, so reads skip texts read before


def _read(table, code):
    """The id ``table`` reads ``code`` as, and the largest outdegree under it."""
    i = table.read(code)
    return i, max((len(table.kids[u]) for u in table.below(i)), default=0)


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=7),
)
def test_counts_of_code_match_the_tree(rnd, d, n, k):
    code = _random_code(rnd, n, d)
    t = parse_tree(code)
    i, outdegree = _read(_CODE_TABLE, code)
    assert _CODE_TABLE.leaves[i] == t.leaf_count == n
    assert _CODE_TABLE.code(i) == t.code
    assert outdegree == max((u.outdegree for u in _internal_shapes(t)), default=0)
    assert caterpillar_counts(_CODE_TABLE.tree(i), k) == caterpillar_counts(t, k)
    check_witnesses([(n, caterpillar_counts(t, k)[-1], code)], d, k)


def test_counts_of_code_have_no_depth_limit():
    t = make_caterpillar(2, 1500)
    table = _Shapes()
    i, outdegree = _read(table, t.code)
    assert (table.leaves[i], outdegree) == (1500, 2)
    assert caterpillar_counts(table.tree(i), 5) == caterpillar_counts(t, 5)


def test_deep_caterpillar_counts_are_binomials():
    # every leaf subset of a binary caterpillar induces a caterpillar, so the
    # 6001-leaf one holds C(6001, 5) copies of the 5-leaf one, and its
    # even-indexed leaves induce the 3001-leaf one
    host = make_caterpillar(2, 6001)
    assert count_copies(make_caterpillar(2, 5), host) == comb(6001, 5)
    assert caterpillar_counts(host, 5)[-1] == comb(6001, 5)
    assert induced_subtree(host, range(0, 6001, 2)) == make_caterpillar(2, 3001)


def test_deep_caterpillar_code_counts_are_binomials():
    code = make_caterpillar(2, 6001).code
    check_witnesses([(6001, comb(6001, 5), code)], 2, 5)
    table = _Shapes()
    counts = caterpillar_counts(table.tree(table.read(code)), 5)
    assert counts == tuple(comb(6001, j) for j in range(2, 6))


def test_witness_check_reads_a_deep_code_in_linear_time():
    # each vertex of a caterpillar's code holds the rest of it, so a reader
    # that rescans every vertex's text is quadratic: about 30 minutes here
    n = 100_001
    code = make_caterpillar(2, n).code
    start = time.perf_counter()
    check_witnesses([(n, comb(n, 4), code)], 2, 4)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize(
    "code",
    ["", "*)", "**", "(*", "(()", "()", "(*)", "(**)*", "(**))", "(*x*)", "((**)(*)*)",
     "((**)(**)", "(*)(**)", ")(**)("],
)
def test_counts_of_malformed_code_name_the_offset(code):
    with pytest.raises(ParseError) as expected:
        parse_tree(code)
    table = _Shapes()
    with pytest.raises(ParseError) as exc:
        table.read(code)
    assert type(exc.value) is type(expected.value)
    assert exc.value.offset == expected.value.offset
    assert str(exc.value) == str(expected.value)
    # nothing from a malformed code enters the table's texts
    assert table.texts == {"*": 0}


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=2, max_value=30),
    st.sampled_from(["(", ")", "*", "x", ""]),
)
def test_reads_of_mutated_codes_agree_with_the_parser(rnd, n, ch):
    # one character of a random code replaced (or dropped, for ""), read in
    # the shared table, where some of its pieces were read before
    code = _random_code(rnd, n, 4)
    j = rnd.randrange(len(code))
    text = code[:j] + ch + code[j + 1 :]
    try:
        expected = parse_tree(text).code
    except ParseError as err:
        expected = (str(err), err.offset)
    before = dict(_CODE_TABLE.texts)
    try:
        found = _CODE_TABLE.code(_CODE_TABLE.read(text))
    except ParseError as err:
        found = (str(err), err.offset)
        assert _CODE_TABLE.texts == before
    assert found == expected
