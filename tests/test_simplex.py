"""The pair-term simplex functional: exact bounds, optimization, Muirhead."""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import factorial, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from treedensity import (
    BudgetError,
    PreconditionError,
    bound_certificate,
    eval_F,
    majorization_pair,
    minimize_F,
    muirhead_check,
    simplex_certify_report,
    simplex_min_report,
    simplex_point,
    simplex_sup_report,
    sup_boundary_scan,
    uniform_min_value,
)
from treedensity import _realmode, simplex
from treedensity.reporting import FORMATS, SearchReport, decimal_str, render_report
from treedensity.simplex import simplex_bound_sample_report, symmetrized_power_sum


# ---------------------------------------------------------------------------
# points


def test_simplex_point_modes():
    p = simplex_point((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert len(p) == 3 and all(c > 0 for c in p)
    # floats and ints are read at their exact values
    q = simplex_point((0.25, 0.25, 0.5))
    assert q == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert all(type(c) is Fraction for c in q)
    r = simplex_point((Fraction(1, 2), Fraction(1, 2), 0))
    assert r == (Fraction(1, 2), Fraction(1, 2), 0)


def test_simplex_point_validation():
    with pytest.raises(PreconditionError):
        simplex_point((Fraction(1),))
    with pytest.raises(PreconditionError):
        simplex_point((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(PreconditionError):
        simplex_point((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(PreconditionError):
        simplex_point((0.6, 0.6))
    # the three floats sum to exactly 1 - 2^-55, and no tolerance forgives it
    with pytest.raises(PreconditionError, match="36028797018963967/36028797018963968"):
        simplex_point((0.1, 0.2, 0.7))
    # a value that Fraction refuses is named
    half = mpmath.mpf(1) / 2
    for read in (lambda: simplex_point((half, half)), lambda: eval_F(2, 3, (0.5, half))):
        with pytest.raises(PreconditionError, match=r"refuses mpf\('0.5'\)"):
            read()
    # a minimize_F point holds mpfs: eval_F reads its coordinates again
    point = minimize_F(2, 3, starts=1, budget=200).point
    with pytest.raises(PreconditionError, match="refuses mpf"):
        eval_F(2, 3, point)
    for bad in (float("nan"), float("inf"), None):
        with pytest.raises(PreconditionError, match="refuses"):
            simplex_point((bad, 0.5))


def _interior_point(d, rng):
    """Exact interior point a / sum(a), each a_i uniform in 1..10^6: the
    draws simplex_bound_sample_report makes."""
    weights = [rng.randint(1, 10**6) for _ in range(d)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_F_flat_binary_cubic_case():
    for x in [Fraction(1, 7), Fraction(2, 5), Fraction(1, 2), Fraction(9, 10)]:
        assert eval_F(2, 3, (x, 1 - x)) == Fraction(1, 3)


def test_eval_F_uniform_values():
    for d in range(2, 6):
        uniform = (Fraction(1, d),) * d
        for k in range(2, 7):
            assert eval_F(d, k, uniform) == uniform_min_value(d, k)
    assert uniform_min_value(2, 4) == Fraction(1, 7)
    assert uniform_min_value(3, 3) == Fraction(1, 4)
    assert uniform_min_value(3, 4) == Fraction(1, 13)
    assert uniform_min_value(4, 5) == Fraction(1, 85)


def test_eval_F_is_symmetric_and_handles_boundary():
    coords = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    base = eval_F(3, 4, coords)
    assert eval_F(3, 4, coords[::-1]) == base
    assert eval_F(3, 4, (coords[1], coords[2], coords[0])) == base
    # boundary zeros are fine as long as no coordinate is 1
    assert eval_F(3, 4, (Fraction(0), Fraction(1, 3), Fraction(2, 3))) > 0


CORNER = "^denominator vanishes at a simplex corner$"


def test_eval_F_singularities_and_domain():
    with pytest.raises(PreconditionError, match=CORNER):
        eval_F(3, 4, (Fraction(1), Fraction(0), Fraction(0)))
    with pytest.raises(PreconditionError, match=CORNER):
        eval_F(2, 5, (Fraction(0), Fraction(1)))
    with pytest.raises(PreconditionError):
        eval_F(3, 4, (Fraction(1, 2), Fraction(1, 2)))  # wrong dimension
    with pytest.raises(PreconditionError):
        eval_F(2, 1, (Fraction(1, 2), Fraction(1, 2)))


def test_eval_F_real_mode():
    # a float point is read exactly, so it gives its Fraction twin's value
    assert eval_F(2, 3, (0.5, 0.5)) == Fraction(1, 3)
    floats = (0.125, 0.375, 0.5)
    twin = tuple(map(Fraction, floats))
    for k in (3, 4, 7):
        assert eval_F(3, k, floats) == eval_F(3, k, twin)


def test_eval_F_bounds_on_sampled_points():
    rng = random.Random(1234)
    for d, k in [(2, 3), (2, 5), (3, 4), (4, 6)]:
        lo = uniform_min_value(d, k)
        hi = Fraction(1, k)
        for _ in range(200):
            v = eval_F(d, k, _interior_point(d, rng))
            assert lo <= v <= hi


def _reference_F(k, xs):
    """F written out over the pairs, in plain Fraction arithmetic."""
    d = len(xs)
    num = sum(
        xs[i] * xs[j] ** (k - 1) + xs[j] * xs[i] ** (k - 1)
        for i in range(d)
        for j in range(i + 1, d)
    )
    return num / (1 - sum(x**k for x in xs))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 60)), min_size=2, max_size=6
    ).filter(lambda ws: any(n for n, _ in ws)),
)
def test_eval_F_matches_the_pairwise_formula(k, weights):
    # each coordinate brings its own denominator; zero weights put the point
    # on the boundary, a single nonzero weight puts it at a corner
    qs = [Fraction(n, m) for n, m in weights]
    xs = tuple(q / sum(qs) for q in qs)
    if max(xs) == 1:
        with pytest.raises(PreconditionError, match=CORNER):
            eval_F(len(xs), k, xs)
    else:
        v = eval_F(len(xs), k, xs)
        assert isinstance(v, Fraction) and v == _reference_F(k, xs)


@pytest.mark.parametrize("k, a", [
    (3, (1, 1)),
    (4, (1, 2, 3)),
    (5, (0, 1, 2)),  # a boundary zero
    (6, (0, 0, 3, 7)),  # two of them
    (4, (2, 4, 6)),  # not in lowest terms
    (7, (10**6, 1, 999_999, 500_000)),
    (3, (5, 5, 5, 5, 5)),  # the uniform point
])
def test_integer_core_matches_the_pairwise_formula(k, a):
    (num,), (den,) = simplex._F_ints([[x] for x in a], [sum(a)], k)
    assert Fraction(num, den) == _reference_F(k, [Fraction(x, sum(a)) for x in a])


def test_integer_core_denominator_vanishes_at_a_corner():
    assert simplex._F_ints([[0], [5], [0]], [5], 4)[1] == [0]


@pytest.mark.parametrize("k", [3, 4, 7])
def test_column_core_evaluates_each_point_of_its_columns(k):
    points = [(1, 2, 3), (0, 1, 2), (2, 4, 6), (10**6, 1, 999_999), (5, 5, 5)]
    nums, dens = simplex._F_ints(list(zip(*points)), [sum(a) for a in points], k)
    assert list(map(Fraction, nums, dens)) == [
        _reference_F(k, [Fraction(x, sum(a)) for x in a]) for a in points
    ]


def test_eval_F_is_singular_at_every_corner():
    for d in range(2, 7):
        for k in range(2, 9):
            for i in range(d):
                corner = tuple(Fraction(int(j == i)) for j in range(d))
                with pytest.raises(PreconditionError, match=CORNER):
                    eval_F(d, k, corner)


# ---------------------------------------------------------------------------
# boundary supremum


def test_sup_scan_flat_case_sits_at_the_bound():
    # for k = 3, F is 1/3 on every edge point, whatever d is
    for d in range(2, 7):
        vals = sup_boundary_scan(d, 3, [Fraction(1, 2), Fraction(1, 5), Fraction(1, 100)])
        assert vals == [Fraction(1, 3)] * 3


def test_sup_scan_increases_toward_the_bound():
    eps = [Fraction(1, 2**t) for t in range(1, 21)]
    vals = sup_boundary_scan(3, 4, eps)
    assert vals[0] == Fraction(1, 7)  # two equal halves, one zero
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < Fraction(1, 4) for v in vals)
    assert Fraction(1, 4) - vals[-1] < Fraction(1, 10**4)


def test_sup_scan_domain():
    with pytest.raises(PreconditionError):
        sup_boundary_scan(3, 4, [Fraction(2, 3)])
    with pytest.raises(PreconditionError):
        sup_boundary_scan(3, 4, [Fraction(0)])
    assert sup_boundary_scan(4, 5, [Fraction(1, 2)])[0] <= Fraction(1, 5)


def test_sup_report_verdict_at_k3():
    # the values sit on the bound, so only the k = 3 rule can pass them
    rep = simplex_sup_report(3, 3, 4)
    assert rep.all_ok is True
    assert rep.params["bound"] == "1/3"
    assert [row[0] for row in rep.rows] == ["1/2", "1/4", "1/8", "1/16"]
    assert [row[1] for row in rep.rows] == [Fraction(1, 3)] * 4


def test_sup_report_verdict_at_k4():
    rep = simplex_sup_report(3, 4, 4)
    assert rep.all_ok is True
    assert [row[1] for row in rep.rows] == [
        Fraction(1, 7), Fraction(5, 29), Fraction(25, 121), Fraction(113, 497)
    ]
    assert rep.rows[0][3] == "0.107142857143"  # 1/4 - 1/7


@pytest.mark.parametrize("k, values", [
    (3, [Fraction(1, 3), Fraction(1, 3) - Fraction(1, 10**9)]),  # one value off the bound
    (4, [Fraction(1, 5), Fraction(1, 5)]),  # not strictly increasing
    (4, [Fraction(1, 5), Fraction(1, 4)]),  # reaches the bound
])
def test_sup_report_verdict_fails(monkeypatch, k, values):
    monkeypatch.setattr(simplex, "sup_boundary_scan", lambda d, k, schedule: values)
    assert simplex_sup_report(3, k, len(values)).all_ok is False


def test_sup_report_refusals():
    with pytest.raises(PreconditionError, match="needs k >= 3"):
        simplex_sup_report(3, 2)
    with pytest.raises(PreconditionError, match="--eps-steps must be an integer >= 1"):
        simplex_sup_report(3, 4, 0)


# ---------------------------------------------------------------------------
# bound sampling


def _bound_sample_by_fractions(d, k, samples, seed):
    """simplex_bound_sample_report by the Fraction route: the same draws,
    eval_F at each point and the bounds compared as Fractions."""
    rng = random.Random(seed)
    lower, upper = uniform_min_value(d, k), Fraction(1, k)
    rows = []
    for i in range(samples):
        point = _interior_point(d, rng)
        v = eval_F(d, k, point)
        rows.append((i, ";".join(map(str, point)), v, lower <= v <= upper))
    return SearchReport(
        mode="simplex-bound-sample",
        params={"d": d, "k": k, "seed": seed, "samples": samples,
                "lower": str(lower), "upper": str(upper)},
        columns=("index", "point", "value", "within_bounds"),
        rows=rows,
        all_ok=all(row[-1] for row in rows),
    )


@pytest.mark.parametrize("d, k, samples", [
    *(pytest.param(d, k, 25, id=f"{k}-{d}") for k in (3, 4, 5, 6) for d in (2, 3, 4, 5)),
    # one row, so each column holds one cell
    pytest.param(2, 4, 1, id="one-sample-d2"),
    pytest.param(7, 5, 1, id="one-sample-d7"),
    pytest.param(7, 3, 25, id="d7"),
    # powers of about 40,000 bits, within the cap: 4 * 2 * (1990^2 + 5000)
    pytest.param(2, 1990, 4, id="k1990"),
])
def test_bound_sample_report_matches_the_fraction_route(d, k, samples):
    for seed in (0, 7, 1000 * d + k):
        got = simplex_bound_sample_report(d, k, samples=samples, seed=seed)
        want = _bound_sample_by_fractions(d, k, samples, seed)
        for fmt in FORMATS:
            assert render_report(got, fmt) == render_report(want, fmt), (seed, fmt)


@pytest.mark.parametrize("num, den, within", [
    (1, 4, True),  # on the upper bound 1/k
    (2, 7, False),  # above it
    (1, 13, True),  # on the lower bound (d - 1) / (d^(k-1) - 1) = 1/13
    (1, 14, False),  # below it
])
def test_bound_sample_verdict_at_the_bounds(monkeypatch, num, den, within):
    # F from the column core is replaced, so the cross-multiplied
    # comparison meets values on and just off each bound
    monkeypatch.setattr(simplex, "_F_ints", lambda columns, scales, k: ([num], [den]))
    rep = simplex_bound_sample_report(3, 4, samples=1)
    assert rep.rows[0][2:] == (Fraction(num, den), within)
    assert rep.all_ok is within


# ---------------------------------------------------------------------------
# minimization


def test_minimize_lands_on_the_uniform_point():
    res = minimize_F(3, 3, starts=4, budget=20000)
    assert res.converged
    assert len(res.point) == 3 and all(isinstance(c, mpmath.mpf) for c in res.point)
    third = mpmath.mpf(1) / 3
    assert all(abs(c - third) < mpmath.mpf("1e-6") for c in res.point)
    assert abs(res.value - mpmath.mpf(1) / 4) < mpmath.mpf("1e-9")
    assert res.stationarity < mpmath.mpf("1e-8")
    assert res.evaluations <= 20000 + 16  # polish may finish a shrink step


def test_minimize_flat_case_reports_the_constant():
    res = minimize_F(2, 3, starts=2, budget=4000)
    with mpmath.workprec(128):
        assert abs(res.value - mpmath.mpf(1) / 3) < mpmath.mpf("1e-30")


def test_minimize_is_deterministic_for_a_fixed_seed():
    a = minimize_F(3, 4, starts=2, budget=8000, seed=5)
    b = minimize_F(3, 4, starts=2, budget=8000, seed=5)
    assert a.point == b.point
    assert a.value == b.value and a.evaluations == b.evaluations


def test_minimize_argument_errors():
    with pytest.raises(PreconditionError):
        minimize_F(3, 2)
    with pytest.raises(PreconditionError):
        minimize_F(1, 4)
    with pytest.raises(PreconditionError):
        minimize_F(3, 4, starts=8, budget=10)


@pytest.mark.parametrize(
    "args, message",
    [
        # a start costs about 15 ms at d = 3
        ((3, 4, 1000000, 1000000000000),
         "--budget 1000000000000 at d=3 needs up to 14000000000084 terms "
         "((budget + d (d - 1)) * (C(d + 1, 2) + 8)), above the cap of 6500000"),
        # one evaluation sums C(400, 2) pair terms
        ((400, 3, 1, 100000),
         "--budget 100000 at d=400 needs up to 20821996800 terms "
         "((budget + d (d - 1)) * (C(d + 1, 2) + 8)), above the cap of 6500000"),
        # 3 terms an evaluation, but its bookkeeping costs as much as 8:
        # 2 * 10^6 evaluations took 63 s
        ((2, 4, 100000, 1999998),
         "--budget 1999998 at d=2 needs up to 22000000 terms "
         "((budget + d (d - 1)) * (C(d + 1, 2) + 8)), above the cap of 6500000"),
    ],
    ids=["min-budget", "min-arity", "min-bookkeeping"],
)
def test_minimize_F_refuses_work_over_its_cap(args, message):
    d, k, starts, budget = args
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        minimize_F(d, k, starts=starts, budget=budget)
    assert time.perf_counter() - start < 1
    assert str(err.value) == message


def test_minimize_F_refuses_a_huge_budget_by_its_full_amount():
    # the amount has more than 4300 digits, which str() refuses to write
    budget = int("9" * 4300)
    start = time.perf_counter()
    amount = r"^--budget 9{4300} at d=3 needs up to [0-9]{4301,} terms "
    with pytest.raises(BudgetError, match=amount):
        minimize_F(3, 4, budget=budget)
    assert time.perf_counter() - start < 1


def _raw(x):
    """An mpf's (sign, mantissa, exponent, bitcount) with a plain int
    mantissa, so the digest does not depend on mpmath's backend."""
    sign, man, exp, bc = x._mpf_
    return (sign, int(man), exp, bc)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# (d, k, keywords) -> SHA-256 of the repr of (point, value, stationarity as
# raw mpf tuples, evaluations, converged), recorded from plain mpf arithmetic,
# which every iterate must reproduce bit for bit
MINIMIZE_PINS = [
    (3, 3, dict(starts=4, budget=4000, seed=11),
     "9e29f0e218f9230f315937506925a56f0543de9a8197ef552c701ca88da8f65a"),
    (3, 4, dict(starts=4, budget=4000, seed=12),
     "c3ab89de1d347e0266d6802c7401b79be88c195fb6b0b3f21ac617511684cff6"),
    (3, 5, dict(starts=4, budget=4000, seed=13),
     "9cd917b0dcf796f5711876f5ff25fc44ca8c9ecbd9307755b2043ccb6f8e1c6c"),
    (3, 6, dict(starts=4, budget=4000, seed=14),
     "942fb609a45d320bbf1f3540aafae60cba84778cffb29380e7e2f9b75a0ca4f3"),
    (2, 5, dict(starts=3, budget=3000, seed=5),
     "a2ed949524ea05a30ce9ef43136c051e6a3a9a501ab3585969a732cca2fa9f46"),
    (5, 4, dict(starts=2, budget=6000, seed=6),
     "8f7b54658f99406061c4296e82c49f83053f85533c0f8607e4ce60abec80fe79"),
    # from k = 9 mpf_pow_int no longer rounds once at 128 bits
    (3, 9, dict(starts=2, budget=3000, seed=9),
     "0e0a39e2723e2448df78874cefd35ca68c9750022f1771129b86585d84ec0db5"),
    # runs out of budget: converged is False
    (4, 5, dict(starts=2, budget=60, seed=3),
     "ef9ec58cd92cda46811ac004d749a2831e4a0e3e70b0fb8ed901bafbcd0833d2"),
    (3, 4, dict(),
     "a5a2120e02a24ebd7c9debb1c137da23a4cd75a8fe34184be400d58a16fe29a5"),
]


def test_minimize_F_is_pinned():
    got = []
    for d, k, kwargs, _ in MINIMIZE_PINS:
        res = minimize_F(d, k, **kwargs)
        key = (tuple(map(_raw, res.point)), _raw(res.value), _raw(res.stationarity),
               res.evaluations, res.converged)
        got.append((d, k, kwargs, _sha(key)))
    assert got == MINIMIZE_PINS


def test_stationarity_vanishes_at_the_uniform_point():
    one = mpmath.mpf(1)
    for d, k in [(2, 4), (3, 3), (3, 4), (4, 5)]:
        assert _realmode.stationarity(k, (one / d,) * d) < mpmath.mpf("1e-8")
    # a lopsided point is far from stationary
    assert _realmode.stationarity(4, (one / 2, one / 3, one / 6)) > mpmath.mpf("1e-3")


# ---------------------------------------------------------------------------
# the certificate and the exact minimum


def _every_partition(k):
    """Every partition of k, read off its 2^(k-1) compositions, in reverse
    lexicographic order."""
    found = set()
    for cuts in product((False, True), repeat=k - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
            run = 1 if cut else run + 1
        found.add(tuple(sorted(parts + [run], reverse=True)))
    return sorted(found, reverse=True)


def test_partitions_come_in_reverse_lexicographic_order():
    for k in range(1, 13):
        every = _every_partition(k)
        for d in range(1, k + 2):
            got = [tuple(mu) for mu in simplex._partitions(k, d)]
            assert got == [mu for mu in every if len(mu) <= d]
    # p(12) = 77 partitions, 58 of them into at most 6 parts
    assert len(_every_partition(12)) == 77
    assert sum(1 for _ in simplex._partitions(12, 6)) == 58


def _polynomial_of_monomials(d, k, m):
    """N - m D and, by the shape mu of each exponent vector, its number of
    vectors r_mu, over the weak compositions of k into d parts: N is
    sum_{i != j} x_i x_j^(k-1) and D = (x_1 + ... + x_d)^k - sum x_i^k."""
    poly, shapes = {}, Counter()
    for bars in combinations(range(k + d - 1), d - 1):
        cuts = (-1, *bars, k + d - 1)
        e = tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))
        shapes[tuple(sorted((x for x in e if x), reverse=True))] += 1
        if max(e) < k:
            poly[e] = poly.get(e, 0) - m * factorial(k) / prod(map(factorial, e))
        if sorted(e)[-2:] == [1, k - 1]:
            poly[e] += 1
    return {e: c for e, c in poly.items() if c}, shapes


@pytest.mark.parametrize("d", range(2, 7))
def test_the_certificate_is_the_monomial_expansion_of_N_minus_m_D(d):
    for k in range(3, 10):
        m = uniform_min_value(d, k)
        expansion, shapes = _polynomial_of_monomials(d, k, m)
        rows, holds = bound_certificate(d, k)
        assert holds and all(row[-1] for row in rows)
        top = (k - 1, 1)
        # sum of w_mu (M_(k-1,1) - M_mu), with M_mu = m_mu / r_mu
        combination = {}
        for cell, multinomial, r, w, _ in rows[:-1]:
            mu = tuple(map(int, cell.split(";")))
            assert multinomial == factorial(k) // prod(map(factorial, mu))
            assert r == shapes[mu] and w == m * multinomial * r > 0
            for shape, weight in ((top, w / shapes[top]), (mu, -w / r)):
                for e in set(permutations(shape + (0,) * (d - len(shape)))):
                    combination[e] = combination.get(e, 0) + weight
        assert {e: c for e, c in combination.items() if c} == expansion
        assert rows[-1] == (f"{k - 1};1", k, shapes[top], shapes[top] * (1 - k * m), True)
        assert sum(r * mult for _, mult, r, _, _ in rows) + d == d**k


def test_a_wrong_m_breaks_the_closing_identity(monkeypatch):
    def nudged(d, k):
        return Fraction(d - 1, d ** (k - 1) - 1) + Fraction(1, 10**6)

    monkeypatch.setattr(simplex, "uniform_min_value", nudged)
    for d, k in [(2, 3), (3, 4), (5, 7)]:
        rows, holds = bound_certificate(d, k)
        assert not holds
        assert rows[-1][-1] is False and all(row[-1] for row in rows[:-1])
        report = simplex_min_report(d, k)
        assert report.all_ok is False and report.rows[0][-1] is False


def test_a_wrong_value_at_the_uniform_point_fails_the_min_verdict(monkeypatch):
    # the certificate still holds, and only F at the uniform point is off
    exact = simplex.eval_F
    monkeypatch.setattr(simplex, "eval_F", lambda *args: exact(*args) + Fraction(1, 10**6))
    for d, k in [(2, 3), (3, 4), (5, 7)]:
        assert bound_certificate(d, k)[1]
        report = simplex_min_report(d, k)
        assert report.rows[0][4:] == ("0.000e+00", False) and report.all_ok is False


def test_a_missing_partition_or_a_refused_pair_fails_the_verdict(monkeypatch):
    every = simplex._partitions
    # without (k), whose multinomial r_mu is d, only the sum to d^k is short
    monkeypatch.setattr(simplex, "_partitions", lambda k, d: islice(every(k, d), 1, None))
    rows, holds = bound_certificate(3, 5)
    assert not holds and rows[-1][-1] is False and all(row[-1] for row in rows[:-1])
    monkeypatch.setattr(simplex, "_partitions", every)
    accepts = simplex.majorization_pair

    def refuses_221(a, b):
        if list(b) == [2, 2, 1]:
            raise PreconditionError("refused")
        return accepts(a, b)

    monkeypatch.setattr(simplex, "majorization_pair", refuses_221)
    rows, holds = bound_certificate(3, 5)
    assert not holds and [row[0] for row in rows if not row[-1]] == ["2;2;1"]
    # the uniform point's value still holds, but the verdict does not
    report = simplex_min_report(3, 5)
    assert report.rows[0][3:] == ("0.025", "0.000e+00", False) and report.all_ok is False


def test_the_certificate_holds_on_the_whole_grid_in_under_a_second():
    start = time.perf_counter()
    verdicts = {(d, k): simplex_certify_report(d, k).all_ok
                for d in range(2, 11) for k in range(3, 13)}
    assert time.perf_counter() - start < 1
    assert set(verdicts.values()) == {True}
    # the min report, outside the timing: F at the uniform point is m
    for d, k in verdicts:
        report = simplex_min_report(d, k)
        m = float(uniform_min_value(d, k))
        assert report.rows[0][3:] == (decimal_str(m), "0.000e+00", True) and report.all_ok
    # at (2, 3) no partition but (k - 1, 1) is left, and its row is checked
    rows = simplex_certify_report(2, 3).rows
    assert rows == [("2;1", 3, 2, 0, True)]


def test_the_exact_minimum_agrees_with_the_numeric_one():
    for k in range(3, 7):
        report = simplex_min_report(3, k)
        assert report.all_ok
        d, k_, point, value, stationarity, converged = report.rows[0]
        assert (d, k_, stationarity, converged) == (3, k, "0.000e+00", True)
        res = minimize_F(3, k, starts=4, budget=4000)
        cells = [float(c) for c in point.split(";")]
        assert max(abs(a - float(b)) for a, b in zip(cells, res.point)) < 1e-12
        assert abs(float(value) - float(res.value)) < 1e-12
        assert value == decimal_str(float(uniform_min_value(3, k)))


def test_the_certificate_is_priced_before_a_partition_is_formed(monkeypatch):
    def formed(*args):
        raise AssertionError("a partition was formed")

    monkeypatch.setattr(simplex, "_partitions", formed)
    for d, k in [(3, 800), (2, 6000), (100000, 3), (3, 10**2200), (10**2200, 3)]:
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="above the cap of 300000000$"):
            bound_certificate(d, k)
        assert time.perf_counter() - start < 1
    with pytest.raises(PreconditionError, match="caterpillar size must be an integer >= 3"):
        bound_certificate(3, 2)


# ---------------------------------------------------------------------------
# majorization and Muirhead


def test_majorization_pair_validation():
    assert majorization_pair((0, 2), (1, 1)) == ((2, 0), (1, 1))
    majorization_pair((2, 2), (2, 2))
    for a, b in [((1, 1), (2, 0)), ((2, 1), (1, 1)), ((2,), (1, 1)), ((), ())]:
        with pytest.raises(PreconditionError):
            majorization_pair(a, b)


def test_symmetrized_power_sum_uses_the_full_group():
    x, y = Fraction(2), Fraction(5)
    assert symmetrized_power_sum((2, 0), (x, y)) == x**2 + y**2
    assert symmetrized_power_sum((1, 1), (x, y)) == 2 * x * y
    # three repeated exponents still sum over all 3! permutations
    assert symmetrized_power_sum((1, 1, 1), (x, y, y)) == 6 * x * y * y


def _power_sum_over_the_group(exponents, values):
    """The symmetrized power sum written out over all d! permutations."""
    total = 0
    for order in permutations(values):
        term = 1
        for e, v in zip(exponents, order):
            term *= v**e
        total += term
    return total


def test_symmetrized_power_sum_matches_the_full_enumeration():
    rng = random.Random(5)
    for _ in range(150):
        d = rng.randint(1, 6)
        exponents = [rng.choice([0, 0, 1, 2, rng.randint(0, 7)]) for _ in range(d)]
        values = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(d)]
        expected = _power_sum_over_the_group(exponents, values)
        assert symmetrized_power_sum(exponents, values) == expected, (exponents, values)


def test_muirhead_basic_and_equality_cases():
    pair = a, b = majorization_pair((2, 0), (1, 1))
    assert muirhead_check(pair, (Fraction(3), Fraction(7)))
    # equality when all values coincide
    v = (Fraction(4), Fraction(4))
    assert symmetrized_power_sum(a, v) == symmetrized_power_sum(b, v)
    # strict inequality at distinct values and distinct exponent vectors
    w = (Fraction(1), Fraction(2))
    assert symmetrized_power_sum(a, w) > symmetrized_power_sum(b, w)
    same_a, same_b = majorization_pair((3, 1), (3, 1))
    assert symmetrized_power_sum(same_a, w) == symmetrized_power_sum(same_b, w)


def test_muirhead_against_every_composition():
    # the pair shape majorizes every corner-free exponent composition
    rng = random.Random(99)
    for d, k in [(2, 4), (3, 3), (3, 5)]:
        top = (k - 1, 1) + (0,) * (d - 2)
        values = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(d))
        comps = [c for c in product(range(k), repeat=d) if sum(c) == k]
        for comp in comps:
            pair = majorization_pair(top, comp)
            assert muirhead_check(pair, values)


def test_muirhead_check_matches_the_plain_comparison():
    # reversed pairs, which need not hold, and pairs of unequal degree keep
    # both outcomes in play
    rng = random.Random(31)
    outcomes = set()
    for _ in range(200):
        d, k = rng.randint(2, 5), rng.randint(2, 7)
        top, low = simplex.random_majorization_pair(rng, d, k)
        shifted = (top[0] + rng.randint(-1, 1),) + top[1:]
        for a, b in [(top, low), (low, top), (shifted, low)]:
            ints = [rng.randint(1, 50) for _ in range(d)]
            fractions = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(d)]
            mixed = [x if i % 2 else q for i, (x, q) in enumerate(zip(ints, fractions))]
            reals = [float(q) for q in fractions]
            for values in (ints, fractions, mixed, reals):
                # floats are compared at their exact values
                exact = list(map(Fraction, values))
                want = symmetrized_power_sum(a, exact) >= symmetrized_power_sum(b, exact)
                assert muirhead_check((a, b), values) == want, (a, b, values)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_muirhead_argument_errors():
    pair = majorization_pair((2, 0), (1, 1))
    with pytest.raises(PreconditionError):
        muirhead_check(pair, (Fraction(1), Fraction(0)))
    with pytest.raises(PreconditionError):
        muirhead_check(pair, (Fraction(1), Fraction(-2)))
    with pytest.raises(PreconditionError):
        muirhead_check(pair, (Fraction(1),))
    with pytest.raises(PreconditionError, match=r"refuses mpf\('2.0'\)"):
        muirhead_check(pair, (Fraction(1), mpmath.mpf(2)))
    with pytest.raises(PreconditionError):
        symmetrized_power_sum((1, 1), (Fraction(1),))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_muirhead_holds_along_random_transfer_chains(data):
    d = data.draw(st.integers(min_value=2, max_value=4))
    k = data.draw(st.integers(min_value=2, max_value=6))
    cuts = sorted(
        data.draw(st.integers(min_value=0, max_value=k)) for _ in range(d - 1)
    )
    b = tuple(
        sorted(
            [cuts[0]]
            + [hi - lo for lo, hi in zip(cuts, cuts[1:])]
            + [k - cuts[-1]],
            reverse=True,
        )
    )
    a = list(b)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        donors = [i for i in range(1, d) if a[i] >= 1]
        if not donors:
            break
        j = data.draw(st.sampled_from(donors))
        i = data.draw(st.integers(min_value=0, max_value=j - 1))
        a[i] += 1
        a[j] -= 1
        a.sort(reverse=True)
    pair = majorization_pair(a, b)
    values = tuple(
        Fraction(data.draw(st.integers(min_value=1, max_value=40)), 7) for _ in range(d)
    )
    assert muirhead_check(pair, values)
