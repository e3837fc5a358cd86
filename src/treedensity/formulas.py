"""Closed-form copy counts and density limits, in exact rational arithmetic.

Everything here is a direct evaluation (no tree is ever built): copy counts
of stars and caterpillars inside complete d-ary trees, the limiting densities
those counts approach as the host tree grows, and the coefficient of the
leading term of the minimum caterpillar count over all d-ary hosts.
``limits_report`` renders one limit, cross-checked between two closed forms.

Counts are returned as Python ints and densities as ``fractions.Fraction``;
any formula whose value must be integral is checked for integrality before
returning, so a wrong edit fails loudly instead of silently truncating.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import BudgetError, ConsistencyError, int_str, require_int
from .reporting import SearchReport, decimal_str
from .trees import caterpillar_spine

__all__ = [
    "star_copies",
    "caterpillar_copies_complete",
    "limit_density_complete",
    "liminf_density",
    "bk_coefficient",
    "bk_lower_bound",
    "limits_report",
]


# the most bits limits_report lets the denominator of its limit take, counted
# as sum_{j <= q} j (r - 1) ceil(log2 d): at the cap, d = 2, k = 2121 took
# 20 s and d = 4, k = 1500 took 22 s, since the time grows as its square
LIMIT_BITS_CAP = 2_250_000


def _check_r_d(r: int, d: int) -> None:
    require_int(r, 2, "pattern arity")
    require_int(d, r, "host arity")


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"{what} must be integral, got {value}")
    return value.numerator


def star_copies(r: int, d: int, h: int) -> int:
    """Copies of the r-leaf star in the complete d-ary tree of height h.

    Any r leaves hanging below a common vertex with pairwise-distinct first
    steps induce the star; summing C(d, r) * (subtree leaf count)^r over the
    vertices of each depth gives the geometric sum

        C(d, r) / (d^r - d) * (d^(r h) - d^h).
    """
    _check_r_d(r, d)
    require_int(h, 0, "height")
    value = Fraction(comb(d, r) * (d ** (r * h) - d**h), d**r - d)
    return _exact_int(value, "star copy count")


def caterpillar_copies_complete(r: int, k: int, d: int, h: int) -> int:
    """Copies of the r-ary caterpillar with k leaves in the complete d-ary
    tree of height h.

    With q = (k - 1) / (r - 1) internal vertices on the caterpillar's spine,

        C(d, r)^q * (r / d)^(q - 1) * d^(h - 1)
            * prod_{i = 1..q} (d^(h (r - 1)) - d^((i - 1)(r - 1))) / (d^(i (r - 1)) - 1).

    For k == r this collapses to :func:`star_copies`, and for h too small to
    host the spine the product vanishes, so the count is 0.
    """
    _check_r_d(r, d)
    q = caterpillar_spine(r, k)
    require_int(h, 1, "height")
    s = r - 1
    value = Fraction(comb(d, r)) ** q * Fraction(r, d) ** (q - 1) * d ** (h - 1)
    for i in range(1, q + 1):
        value *= Fraction(d ** (h * s) - d ** ((i - 1) * s), d ** (i * s) - 1)
    return _exact_int(value, "caterpillar copy count")


def limit_density_complete(r: int, k: int, d: int) -> Fraction:
    """Limit, as the height grows, of the density of the r-ary caterpillar
    with k leaves inside complete d-ary trees:

        (k! / d) * C(d, r)^q * (r / d)^(q - 1) * prod_{j = 1..q} 1 / (d^(j (r - 1)) - 1).
    """
    _check_r_d(r, d)
    q = caterpillar_spine(r, k)
    s = r - 1
    value = Fraction(factorial(k), d) * Fraction(comb(d, r)) ** q * Fraction(r, d) ** (q - 1)
    for j in range(1, q + 1):
        value /= d ** (j * s) - 1
    return value


def liminf_density(d: int, k: int) -> Fraction:
    """Smallest limiting density of the k-leaf binary caterpillar over
    growing d-ary trees, attained along complete d-ary trees:

        (k! / 2) * (d - 1)^(k - 1) * prod_{j = 1..k-1} 1 / (d^j - 1).

    Algebraically identical to ``limit_density_complete(2, k, d)``.
    """
    _check_r_d(2, d)
    require_int(k, 2, "caterpillar size")
    value = Fraction(factorial(k), 2) * (d - 1) ** (k - 1)
    for j in range(1, k):
        value /= d**j - 1
    return value


def bk_coefficient(d: int, k: int) -> Fraction:
    """Leading coefficient b_k of the minimum k-caterpillar count in n-leaf
    d-ary trees: (1/2) (d - 1)^(k - 1) prod_{j = 1..k-1} 1 / (d^j - 1).

    Satisfies b_k = b_{k-1} (d - 1) / (d^(k-1) - 1) and relates to the density
    limit by liminf = k! * b_k.
    """
    return liminf_density(d, k) / factorial(k)


def bk_lower_bound(d: int, k: int, n: int) -> Fraction:
    """Lower bound b_k n^k - n^(k-1) / (k - 1)! valid for the k-caterpillar
    count of every strictly d-ary tree with n leaves."""
    require_int(n, 0, "leaf count")
    return bk_coefficient(d, k) * n**k - Fraction(n ** (k - 1), factorial(k - 1))


def limits_report(d: int, k: int, r: int = 2) -> SearchReport:
    """One-row report of :func:`limit_density_complete`, exact and decimal.

    For binary caterpillars (r = 2) the value is also computed by
    :func:`liminf_density`, an independent closed form, and any
    disagreement raises ConsistencyError with both values. A denominator
    prod_{j <= q} (d^(j (r - 1)) - 1) of more than :data:`LIMIT_BITS_CAP`
    bits is refused with BudgetError.
    """
    _check_r_d(r, d)
    q = caterpillar_spine(r, k)
    bits = q * (q + 1) // 2 * (r - 1) * (d - 1).bit_length()
    if bits > LIMIT_BITS_CAP:
        raise BudgetError(
            f"the limit at d={d}, k={k}, r={r} has a denominator of up to {int_str(bits)} bits, "
            f"above the cap of {LIMIT_BITS_CAP}"
        )
    value = limit_density_complete(r, k, d)
    if r == 2:
        liminf = liminf_density(d, k)
        if value != liminf:
            raise ConsistencyError(
                f"limit density for d={d}, k={k}: complete-tree limit {value}, "
                f"liminf formula {liminf}"
            )
    return SearchReport(
        mode="limits",
        params={"d": d, "k": k, "r": r},
        columns=("d", "k", "r", "exact", "decimal"),
        rows=[(d, k, r, value, decimal_str(value))],
    )
