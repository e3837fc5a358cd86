"""Closed-form copy counts and density limits against independent values."""

from fractions import Fraction
from math import comb, factorial

import pytest

from treedensity import (
    PreconditionError,
    bk_coefficient,
    bk_lower_bound,
    caterpillar_copies_complete,
    count_copies,
    density,
    liminf_density,
    limit_density_complete,
    make_caterpillar,
    make_complete,
    star_copies,
)


def test_star_copies_spot_values():
    assert star_copies(3, 3, 2) == 30
    assert star_copies(2, 2, 0) == 0
    # the 2-star is a cherry: every leaf pair of any tree induces it
    for h in range(5):
        assert star_copies(2, 2, h) == comb(2**h, 2)
    # height one leaves only the root, which hosts C(d, r) stars
    for d in range(2, 7):
        for r in range(2, d + 1):
            assert star_copies(r, d, 1) == comb(d, r)


def test_star_copies_matches_brute_counts():
    for d in (2, 3, 4):
        for r in range(2, d + 1):
            star = make_caterpillar(r, r)
            for h in range(0, 4):
                assert star_copies(r, d, h) == count_copies(star, make_complete(d, h))


def test_star_copies_domain_errors():
    for r, d, h in [(4, 3, 2), (1, 2, 2), (2, 2, -1), (2, 1, 1)]:
        with pytest.raises(PreconditionError):
            star_copies(r, d, h)


def test_caterpillar_copies_reduce_to_star_when_k_equals_r():
    for d in range(2, 6):
        for r in range(2, d + 1):
            for h in range(1, 5):
                assert caterpillar_copies_complete(r, r, d, h) == star_copies(r, d, h)


def test_caterpillar_copies_spot_values():
    assert caterpillar_copies_complete(2, 3, 2, 2) == 4
    assert caterpillar_copies_complete(2, 3, 3, 2) == 54
    # C(8,4) = 70 subsets split into 32 caterpillars and 38 balanced shapes
    assert caterpillar_copies_complete(2, 4, 2, 3) == 32
    # too short a spine: height 1 hosts no caterpillar with k > r
    assert caterpillar_copies_complete(2, 3, 2, 1) == 0
    assert caterpillar_copies_complete(3, 5, 3, 1) == 0


def test_caterpillar_copies_match_recursion():
    for d in range(2, 5):
        for h in range(1, 4):
            host = make_complete(d, h)
            for r in range(2, d + 1):
                for k in range(r, 10, r - 1) if r > 2 else range(r, 10):
                    if (k - 1) % (r - 1):
                        continue
                    expect = count_copies(make_caterpillar(r, k), host)
                    assert caterpillar_copies_complete(r, k, d, h) == expect, (r, k, d, h)


def test_caterpillar_copies_domain_errors():
    for r, k, d, h in [(2, 3, 2, 0), (3, 4, 3, 2), (2, 1, 2, 2), (3, 3, 2, 2)]:
        with pytest.raises(PreconditionError):
            caterpillar_copies_complete(r, k, d, h)


def test_integrality_holds_across_the_valid_range():
    # _exact_int would raise ConsistencyError if any formula went non-integral
    for d in range(2, 6):
        for r in range(2, d + 1):
            for h in range(0, 7):
                star_copies(r, d, h)
            for k in range(r, 14):
                if (k - 1) % (r - 1):
                    continue
                for h in range(1, 7):
                    caterpillar_copies_complete(r, k, d, h)


def test_limit_density_spot_values():
    assert limit_density_complete(2, 3, 3) == Fraction(3, 4)
    assert limit_density_complete(2, 3, 2) == 1
    assert limit_density_complete(2, 4, 2) == Fraction(4, 7)
    # the 3-star: (27^h - 3^h)/24 copies against C(3^h, 3) subsets
    assert limit_density_complete(3, 3, 3) == Fraction(1, 4)


def test_limit_density_is_the_height_limit():
    # densities at height h approach the closed-form limit from below; the
    # error shrinks strictly except in the flat binary k=3 case, where every
    # 3-subset induces the caterpillar and the density is exactly 1
    for d in (2, 3):
        for k in (3, 4, 5):
            lim = limit_density_complete(2, k, d)
            errs = []
            for h in range(3, 9):
                dens = Fraction(
                    caterpillar_copies_complete(2, k, d, h), comb(d**h, k)
                )
                errs.append(lim - dens)
            if (d, k) == (2, 3):
                assert lim == 1 and all(e == 0 for e in errs)
                continue
            assert all(e > 0 for e in errs)
            assert all(a > b for a, b in zip(errs, errs[1:]))
            assert errs[-1] < errs[0] / 10


def test_liminf_spot_values():
    assert liminf_density(2, 3) == 1
    assert liminf_density(3, 3) == Fraction(3, 4)
    assert liminf_density(2, 4) == Fraction(4, 7)
    assert liminf_density(2, 5) == Fraction(4, 21)
    assert liminf_density(5, 2) == 1  # a cherry has density 1 in any tree


def test_liminf_equals_binary_caterpillar_limit():
    for d in range(2, 7):
        for k in range(2, 11):
            assert liminf_density(d, k) == limit_density_complete(2, k, d)


def test_liminf_domain_errors():
    for d, k in [(1, 3), (2, 1)]:
        with pytest.raises(PreconditionError):
            liminf_density(d, k)


def test_bk_recurrence_and_scaling():
    for d in range(2, 7):
        assert bk_coefficient(d, 2) == Fraction(1, 2)
        for k in range(3, 21):
            step = Fraction(d - 1, d ** (k - 1) - 1)
            assert bk_coefficient(d, k) == bk_coefficient(d, k - 1) * step
            assert liminf_density(d, k) == bk_coefficient(d, k) * factorial(k)


def test_bk_spot_values():
    assert bk_coefficient(2, 3) == Fraction(1, 6)
    assert bk_coefficient(3, 3) == Fraction(1, 8)


def test_bk_lower_bound_values():
    assert bk_lower_bound(2, 3, 4) == Fraction(4**3, 6) - Fraction(4**2, 2)
    assert bk_lower_bound(2, 3, 4) == Fraction(8, 3)
    assert bk_lower_bound(2, 3, 0) == 0
    with pytest.raises(PreconditionError):
        bk_lower_bound(2, 3, -1)


def test_asymptotic_leading_term():
    # the leading term b_k n^k of the minimum k-caterpillar count
    for n in (0, 1, 7, 100):
        assert bk_coefficient(2, 3) * n**3 == Fraction(n**3, 6)
        assert bk_coefficient(3, 3) * n**3 == Fraction(n**3, 8)
    assert bk_coefficient(2, 4) * 10**4 == liminf_density(2, 4) * 10**4 / factorial(4)


def test_density_error_shrinks_like_the_closed_form():
    # at height 6 the observed density of the 3-caterpillar in the complete
    # ternary tree is within 0.01 of the 3/4 limit, approached from below
    f23 = make_caterpillar(2, 3)
    lim = liminf_density(3, 3)
    errs = []
    for h in range(3, 7):
        errs.append(lim - density(f23, make_complete(3, h)))
    assert all(e > 0 for e in errs)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < Fraction(1, 100)
    # and the exact error has the predicted form (3/4) / (3^h - 2)
    for h, e in zip(range(3, 7), errs):
        assert e == Fraction(3, 4) / (3**h - 2)
