"""Exact and high-precision study of a pair-term ratio on the simplex.

For a point x = (x_1, ..., x_d) with nonnegative coordinates summing to 1,
the functional of interest is

    F(x) = sum_{i<j} (x_i x_j^(k-1) + x_j x_i^(k-1)) / (1 - sum_i x_i^k).

It is the limiting object behind caterpillar densities: the numerator tracks
splits that pair one leaf against a (k-1)-block, the denominator renormalizes
by everything that is not concentrated in a single coordinate. F never
exceeds 1/k on the simplex, and its minimum sits at the uniform point with
value m = (d - 1) / (d^(k-1) - 1): :func:`bound_certificate` proves both
bounds for one (d, k) exactly, by Muirhead's inequality, and
``simplex_min_report`` reports that minimum from it and from F at the
uniform point, where F's tangent derivatives vanish by symmetry and are not
computed. For k = 3, F equals eps (1 - eps) / (3 eps (1 - eps)) = 1/3 at
every boundary point (0, ..., 0, eps, 1 - eps), for every d, so the
supremum is attained there; for d = 2 the functional is identically 1/3.
For k >= 4 the supremum 1/k is approached, never attained, along those
points as eps shrinks.

Every simplex input is read exactly with ``Fraction(x)``: ints, Fractions
and floats at their exact values, and a point must sum to exactly 1; a value
``Fraction`` refuses, such as an mpmath mpf, is refused. Values are plain
tuples: a point is a tuple of Fractions, ``minimize_F``'s point a tuple of
mpfs, and a majorization pair the exponent vectors (a, b). The exact checks run
on integers. F is homogeneous of degree 0, so a point scaled by a common
denominator gives the same value, and ``_F_ints`` computes F's numerators and
denominators at integer weights, a coordinate column at a time for many
points at once; ``eval_F`` calls it with one-element columns.
``bound-sample`` draws all its integer weights first, then evaluates them
by column that way and checks the bounds by cross-multiplying, building one
Fraction per sample, for its value. A Muirhead comparison scales its values
to integers, since its two sides are homogeneous of one degree. The
library's ``minimize_F`` is an independent numeric check of the minimum: a
seeded multi-start Nelder-Mead at 128-bit precision (a log barrier keeps
iterates interior, then a barrier-free polish removes its bias). Muirhead-style
majorization comparisons live here too, as do the functions that build the
reports of the ``simplex`` command's five modes.

mpmath is loaded only by ``minimize_F``, which no command calls: its body,
in plain mpf arithmetic, lives in the private leaf module ``_realmode``,
imported on first use, so every command runs without it. The
certificate's partitions come from the leaf module ``_partitions``, which
the DP and the tree enumeration share, so this module loads no tree code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby, permutations, repeat
from math import comb, factorial, gcd, lcm, perm
from operator import and_, floordiv, le, lt, mul, sub
from typing import Iterable, NamedTuple, Sequence

from ._partitions import partition_counts, partitions_into_parts
from .errors import BudgetError, PreconditionError, int_str, require_int
from .reporting import SearchReport, decimal_str, fraction_str

__all__ = [
    "simplex_point",
    "eval_F",
    "MinimizeResult",
    "minimize_F",
    "sup_boundary_scan",
    "uniform_min_value",
    "majorization_pair",
    "muirhead_check",
    "bound_certificate",
    "simplex_min_report",
    "simplex_certify_report",
    "simplex_sup_report",
    "simplex_bound_sample_report",
    "simplex_muirhead_report",
]

# the most work a sup scan does, k^2 t^2 for its value at step t: that value
# has about k t bits, and reducing and printing it costs about their square.
# Near the cap, at d = 3, the command took 0.7-0.9 s for k = 12, 100, 2000
# and 10000, and 0.26 s for k = 3 with 2550 steps; k = 1000 with 300 steps,
# 9 * 10^12, ran past 10 s
SUP_WORK_CAP = 5 * 10**10
# the most work a bound-sample run does, d (k^2 + 5000) a sample: each of its
# d powers has about 20 k bits, and drawing a coordinate and writing its cell
# cost about as much as 5000 units. Near the cap the command took 0.7-1.1 s
# at (d, k) = (2, 3), 1.0-1.4 s at (3, 100) and 0.6-0.8 s at (3, 18000)
BOUND_SAMPLE_WORK_CAP = 10**9
# the most work a minimize_F run could do, in terms: C(d, 2) pairs and d
# powers an evaluation, plus Nelder-Mead bookkeeping worth 8 terms. An
# evaluation, bookkeeping included, took about 115 us at d = 3 and 470 us
# at d = 10, so a run that spends its whole budget at the cap at d = 10
# takes 50-80 s, by the host's speed. Most converge well before: the
# default budget at d = 10, 6.3 * 10^6 terms, took 5.1-5.4 s
MIN_WORK_CAP = 65 * 10**5
# the most power-sum work a muirhead run does: a term multiplies up to
# min(d, k) powers whose exponents sum to k, of integers whose size grows with
# d, and costs k^2 min(d, k) + 3000 units; a sample's draw and row cost as
# much as 10 d terms of 3000 units. Near the cap the command took 2.2 s at
# (d, k) = (2, 3), 1.5 s at (2, 90), 1.4 s at (3, 55) and 1.0 s at (5, 10)
MUIRHEAD_WORK_CAP = 3 * 10**9
# the most work a certificate does, (rows + d) ((k bit_length(d))^2 / 1000
# + 4000): a row's multinomial, weight and cells have up to k bit_length(d)
# bits, and forming and printing them costs about their square; below a few
# thousand bits a row costs about as much as 4000 units. The d coordinates
# of the min report's uniform point count as rows. Near the cap the command
# took 1.9 s at (d, k) = (2, 5000), 1.3 s at (3, 560), 0.9 s at (10, 45),
# and the min report 0.5 s at (70000, 3)
CERTIFY_WORK_CAP = 3 * 10**8


def _exact(values: Iterable, what: str) -> tuple[Fraction, ...]:
    """Each value as ``Fraction(value)``, exact for ints, Fractions and
    floats; a value that Fraction refuses is a PreconditionError naming it."""
    out = []
    for v in values:
        try:
            out.append(Fraction(v))
        except (TypeError, ValueError, OverflowError):
            raise PreconditionError(
                f"{what} are read exactly by Fraction(x), which refuses {v!r}"
            ) from None
    return tuple(out)


def simplex_point(coords: Iterable) -> tuple[Fraction, ...]:
    """The coordinates as a tuple of Fractions, each read exactly with
    ``Fraction(x)``: nonnegative, at least two, summing to exactly 1."""
    xs = _exact(coords, "simplex coordinates")
    if len(xs) < 2:
        raise PreconditionError("a simplex point needs at least two coordinates")
    if any(c < 0 for c in xs):
        raise PreconditionError("simplex coordinates must be nonnegative")
    if sum(xs) != 1:
        raise PreconditionError(f"coordinates must sum to exactly 1, got {fraction_str(sum(xs))}")
    return xs


def eval_F(d: int, k: int, point):
    """Evaluate F exactly, as a Fraction, at a point read by
    :func:`simplex_point`.

    Raises PreconditionError when the denominator 1 - sum x_i^k vanishes,
    which happens exactly at the simplex corners.
    """
    require_int(d, 2, "arity bound")
    require_int(k, 2, "caterpillar size")
    xs = simplex_point(point)
    if len(xs) != d:
        raise PreconditionError(f"point has {len(xs)} coordinates, expected d={d}")
    # with L the lcm of the coordinate denominators, a_i = x_i L are
    # integers summing to L
    scale = lcm(*(x.denominator for x in xs))
    (num,), (den,) = _F_ints([[x.numerator * (scale // x.denominator)] for x in xs], [scale], k)
    if den == 0:
        raise PreconditionError("denominator vanishes at a simplex corner")
    return Fraction(num, den)


def _F_ints(
    columns: Sequence[Sequence[int]], scales: Sequence[int], k: int
) -> tuple[list[int], list[int]]:
    """(numerators, denominators) of F at the points (a_i / scale), one
    point per entry of ``scales``: column i holds each point's a_i, and a
    point's nonnegative ints a_i sum to its scale. A denominator is 0 at a
    corner.

    Since sum_{i != j} x_j x_i^(k-1) = sum_i x_i^(k-1) (1 - x_i), multiplying
    both parts of F by scale^k gives, with S = sum_i a_i^k,
    F = (scale sum_i a_i^(k-1) - S) / (scale^k - S).
    """
    powers = [list(map(pow, column, repeat(k - 1))) for column in columns]
    lows = list(map(sum, zip(*powers)))
    tops = list(map(sum, zip(*(map(mul, p, a) for p, a in zip(powers, columns)))))
    return (list(map(sub, map(mul, scales, lows), tops)),
            list(map(sub, map(pow, scales, repeat(k)), tops)))


def uniform_min_value(d: int, k: int) -> Fraction:
    """Value of F at the uniform point: (d - 1) / (d^(k-1) - 1)."""
    require_int(d, 2, "arity bound")
    require_int(k, 2, "caterpillar size")
    return Fraction(d - 1, d ** (k - 1) - 1)


def sup_boundary_scan(d: int, k: int, eps_schedule: Sequence) -> list[Fraction]:
    """Exact values of F at (0, ..., 0, eps, 1 - eps) for each eps.

    Every eps must lie in (0, 1/2]. For k = 3 every value equals 1/3 = 1/k;
    for k >= 4 the values increase towards (but stay below) 1/k as eps
    decreases. This function only evaluates; :func:`simplex_sup_report`
    turns the values into a verdict by that rule. The d - 2 zero coordinates
    add nothing to either sum of F, so each value is F at (eps, 1 - eps) and
    the scan costs the same at every d.
    """
    require_int(d, 2, "arity bound")
    values = []
    for eps in eps_schedule:
        e = Fraction(eps)
        if not 0 < e <= Fraction(1, 2):
            raise PreconditionError(f"eps must lie in (0, 1/2], got {eps!r}")
        values.append(eval_F(2, k, (e, 1 - e)))
    return values


def _require_bound_k(mode: str, k: int) -> None:
    # F is identically 1 at k = 2, so the 1/k bounds do not apply
    if k < 3:
        raise PreconditionError(f"--mode {mode} needs k >= 3, got k={k}")


def simplex_sup_report(d: int, k: int, eps_steps: int = 20) -> SearchReport:
    """F along (0, ..., 0, eps, 1 - eps) for eps = 1/2, 1/4, ..., 2^-eps_steps.

    The verdict holds at k = 3 when every value equals 1/3 exactly, and at
    k >= 4 when the values stay below 1/k and increase strictly. More than
    :data:`SUP_WORK_CAP` k^2 t^2 summed over the steps t is refused with
    BudgetError.
    """
    require_int(d, 2, "arity bound")
    _require_bound_k("sup", k)
    require_int(eps_steps, 1, "--eps-steps")  # a verdict over no checks would pass vacuously
    work = k * k * eps_steps * (eps_steps + 1) * (2 * eps_steps + 1) // 6
    if work > SUP_WORK_CAP:
        raise BudgetError(
            f"--eps-steps {eps_steps} at k={k} needs {int_str(work)} work units "
            f"(k^2 * sum of t^2 for t <= eps-steps), above the cap of {SUP_WORK_CAP}"
        )
    schedule = [Fraction(1, 2**t) for t in range(1, eps_steps + 1)]
    values = sup_boundary_scan(d, k, schedule)
    bound = Fraction(1, k)
    if k == 3:
        # F is 1/3 on every edge point (0, ..., 0, eps, 1 - eps)
        ok = all(v == bound for v in values)
    else:
        ok = all(v < bound for v in values) and all(map(lt, values, values[1:]))
    return SearchReport(
        mode="simplex-sup",
        params={"d": d, "k": k, "bound": str(bound)},
        columns=("eps", "value", "value_decimal", "gap_to_bound"),
        rows=[
            (str(e), v, decimal_str(v), decimal_str(bound - v)) for e, v in zip(schedule, values)
        ],
        all_ok=ok,
    )


def simplex_bound_sample_report(
    d: int, k: int, *, samples: int = 1000, seed: int = 0
) -> SearchReport:
    """Check uniform_min_value(d, k) <= F <= 1/k exactly at ``samples``
    seeded random interior points, all drawn before any is evaluated.

    A point is (a_1, ..., a_d) / sum(a) with each a_i uniform in 1..10^6,
    drawn point by point. F is evaluated by :func:`_F_ints` on the columns
    of integer weights, each point with scale sum(a), and the bounds are
    checked by cross-multiplying, so the only Fraction a row builds is its
    value. More than :data:`BOUND_SAMPLE_WORK_CAP` samples times
    d (k^2 + 5000) is refused with BudgetError.
    """
    _require_bound_k("bound-sample", k)
    require_int(samples, 1, "--samples")
    work = samples * d * (k * k + 5000)
    if work > BOUND_SAMPLE_WORK_CAP:
        raise BudgetError(
            f"--samples {samples} at d={d}, k={k} needs {int_str(work)} work units "
            f"(samples * d * (k^2 + 5000)), above the cap of {BOUND_SAMPLE_WORK_CAP}"
        )
    rng = random.Random(seed)
    lower, upper = uniform_min_value(d, k), Fraction(1, k)
    # randrange(1, 10**6 + 1) is randint(1, 10**6), one call shorter: every
    # coordinate is drawn, sample by sample, before any is evaluated, and
    # column i holds each sample's a_i
    draws = [rng.randrange(1, 10**6 + 1) for _ in range(samples * d)]
    columns = [draws[i::d] for i in range(d)]
    del draws
    totals = list(map(sum, zip(*columns)))
    nums, dens = _F_ints(columns, totals, k)
    # every a_i is positive, so each den > 0 and each a_i / total is below 1:
    # its cell is str(Fraction(a_i, total))
    cells = []
    for a in columns:
        g = list(map(gcd, a, totals))
        cells.append(map("{}/{}".format, map(floordiv, a, g), map(floordiv, totals, g)))
    ok = list(map(and_,
                  map(le, map(mul, repeat(lower.numerator), dens),
                      map(mul, nums, repeat(lower.denominator))),
                  map(le, map(mul, repeat(k), nums), dens)))
    rows = list(zip(range(samples), map(";".join, zip(*cells)), map(Fraction, nums, dens), ok))
    return SearchReport(
        mode="simplex-bound-sample",
        params={"d": d, "k": k, "seed": seed, "samples": samples,
                "lower": fraction_str(lower), "upper": fraction_str(upper)},
        columns=("index", "point", "value", "within_bounds"),
        rows=rows,
        all_ok=all(ok),
    )


# -- the minimum, exactly -----------------------------------------------------


def _partitions(k: int, d: int) -> list[tuple[int, ...]]:
    """The partitions of k into at most d parts, each a tuple of parts in
    descending order, in reverse lexicographic order: (k), (k - 1, 1), ..."""
    parts = (p[::-1] for m in range(1, min(d, k) + 1) for p in partitions_into_parts(k, m))
    return sorted(parts, reverse=True)


def _require_certificate_budget(d: int, k: int) -> None:
    """Refuse a certificate whose rows and uniform point would cost more
    than :data:`CERTIFY_WORK_CAP`, before any partition is formed.

    The rows number at least k // 2 - 1, the partitions into two parts, so
    a k of thousands of digits is refused on that bound alone. Otherwise
    :func:`partition_counts` counts the partitions into at most j parts for
    j = 1, 2, ..., min(d, k), each count a lower bound on the next, and
    counting stops once one settles the refusal.
    """
    unit = (k * d.bit_length()) ** 2 // 1000 + 4000
    rows = k // 2 - 1
    if (rows + d) * unit <= CERTIFY_WORK_CAP:
        for _, counts in zip(range(min(d, k)), partition_counts(k)):
            rows = counts[k] - 2
            if (rows + d) * unit > CERTIFY_WORK_CAP:
                break
        else:
            return
    raise BudgetError(
        f"the certificate at d={d}, k={k} needs at least {int_str((rows + d) * unit)} "
        f"work units ((rows + d) * ((k * bit_length(d))^2 / 1000 + 4000)), above the cap of "
        f"{CERTIFY_WORK_CAP}"
    )


def _majorizes(a: Sequence[int], b: Sequence[int]) -> bool:
    try:
        majorization_pair(a, b)
    except PreconditionError:
        return False
    return True


def bound_certificate(d: int, k: int) -> tuple[list[tuple], bool]:
    """Exact certificate that m <= F <= 1/k on the simplex, m being
    :func:`uniform_min_value`, and its verdict.

    With p_j the power sums, F = N / D for N = p_1 p_(k-1) - p_k and
    D = p_1^k - p_k. Expanded in the monomial symmetric polynomials m_mu,
    N = m_(k-1,1) and D is the sum of multinomial(k, mu) m_mu over the
    partitions mu != (k) of k into at most d parts. With r_mu the number
    of terms of m_mu, M_mu = m_mu / r_mu and w_mu = m multinomial(k, mu) r_mu,

        N - m D = sum of w_mu (M_(k-1,1) - M_mu), over mu not (k), (k-1, 1),

    because the weights sum to r_(k-1,1) (1 - k m), which, given that the
    multinomial(k, mu) r_mu add up to d^k over all mu, is the definition of
    m. (k - 1, 1) majorizes every such mu, so by Muirhead's inequality each
    term, and so F - m, is >= 0; D - k N >= 0 holds term by term.

    One row (partition, multinomial(k, mu), r_mu, w_mu, holds) per such mu,
    in reverse lexicographic order, where holds means w_mu > 0 and
    :func:`majorization_pair` accepts ((k - 1, 1), mu), zero-padded. A last
    row for (k - 1, 1) holds r_(k-1,1) (1 - k m) as its weight, and holds
    when the weights sum to it and the multinomial(k, mu) r_mu sum to d^k,
    so no verdict rests on zero checks, not even at (2, 3), where no other
    partition is left. r_mu is C(d, len mu) len(mu)! over the factorials of
    the parts' multiplicities, and no factorial of d is formed. The
    argument holds for every d >= 2 and k >= 3, so a false verdict is a
    fault in this code. More than :data:`CERTIFY_WORK_CAP` work units,
    (rows + d) ((k bit_length(d))^2 / 1000 + 4000), is refused with
    BudgetError before any partition is formed.
    """
    require_int(d, 2, "arity bound")
    require_int(k, 3, "caterpillar size")
    _require_certificate_budget(d, k)
    m = uniform_min_value(d, k)
    # total sums multinomial(k, mu) r_mu over every mu, inner over the rows'
    # mu, so the rows' weights sum to m * inner
    rows, total, inner = [], 0, 0
    for mu in _partitions(k, d):
        multinomial, left = 1, k
        for part in mu:
            multinomial *= comb(left, part)
            left -= part
        repeats = 1
        for _, group in groupby(mu):
            repeats *= factorial(len(list(group)))
        r = comb(d, len(mu)) * factorial(len(mu)) // repeats
        total += multinomial * r
        if mu[0] < k - 1:
            inner += multinomial * r
            w = m * (multinomial * r)
            top = (k - 1, 1, *repeat(0, len(mu) - 2))
            rows.append((";".join(map(str, mu)), multinomial, r, w, w > 0 and _majorizes(top, mu)))
    r_top = d * (d - 1)
    target = r_top * (1 - k * m)
    rows.append((f"{k - 1};1", k, r_top, target, m * inner == target and total == d**k))
    return rows, all(row[-1] for row in rows)


def simplex_certify_report(d: int, k: int) -> SearchReport:
    """:func:`bound_certificate` as a report, one row per partition."""
    rows, holds = bound_certificate(d, k)
    return SearchReport(
        mode="simplex-certify",
        params={"d": d, "k": k, "m": fraction_str(uniform_min_value(d, k))},
        columns=("partition", "multinomial", "r", "w", "holds"),
        rows=rows,
        all_ok=holds,
    )


def simplex_min_report(d: int, k: int) -> SearchReport:
    """The minimum of F on the simplex, exactly, as a one-row report.

    The row holds the uniform point, F there, its stationarity, 0 by
    symmetry and not computed, and the verdict, each number rendered
    through its float. The verdict holds when :func:`bound_certificate`
    does and :func:`eval_F` at the uniform point equals
    ``uniform_min_value(d, k)``. The certificate's cap prices the point's
    d coordinates too.
    """
    _, holds = bound_certificate(d, k)
    m = uniform_min_value(d, k)
    value = eval_F(d, k, repeat(Fraction(1, d), d))
    ok = holds and value == m
    point = ";".join(repeat(decimal_str(float(Fraction(1, d))), d))
    return SearchReport(
        mode="simplex-min",
        params={"d": d, "k": k, "m": fraction_str(m)},
        columns=("d", "k", "point", "value", "stationarity", "converged"),
        # F is symmetric, so every tangent derivative vanishes at the uniform point
        rows=[(d, k, point, decimal_str(float(value)), "0.000e+00", ok)],
        all_ok=ok,
    )


# -- numerical minimization ---------------------------------------------------


class MinimizeResult(NamedTuple):
    """Outcome of :func:`minimize_F`.

    ``point`` is the tuple of mpf coordinates reached, at 128 bits;
    :func:`eval_F` refuses it, since it reads points exactly.
    ``stationarity`` is the largest absolute directional derivative along the
    tangent directions (e_i - e_j)/sqrt(2), estimated by central differences;
    near an interior minimum it should be tiny. ``converged`` is False when the evaluation
    budget ran out before the polish stage settled.
    """

    point: tuple
    value: object
    stationarity: object
    evaluations: int
    converged: bool


def minimize_F(
    d: int,
    k: int,
    *,
    starts: int = 8,
    budget: int = 100_000,
    seed: int = 0,
) -> MinimizeResult:
    """Seeded multi-start Nelder-Mead minimization of F over the open simplex.

    Each start runs with a small log barrier to stay interior, then the best
    candidate is polished barrier-free. Fixed ``seed`` gives a reproducible
    trajectory; ``budget`` caps total objective evaluations across stages,
    and running out of budget is reported as ``converged=False`` with the
    best point so far. The run, with the d (d - 1) evaluations of its
    stationarity check, is refused with BudgetError when it could evaluate
    more than :data:`MIN_WORK_CAP` terms, an evaluation's bookkeeping
    counting as 8.
    """
    require_int(d, 2, "arity bound")
    require_int(k, 3, "caterpillar size")
    require_int(starts, 1, "starts")
    require_int(budget, (d + 1) * (starts + 1), "budget")
    work = (budget + d * (d - 1)) * (comb(d + 1, 2) + 8)
    if work > MIN_WORK_CAP:
        raise BudgetError(
            f"--budget {budget} at d={d} needs up to {int_str(work)} terms "
            f"((budget + d (d - 1)) * (C(d + 1, 2) + 8)), above the cap of {MIN_WORK_CAP}"
        )
    from . import _realmode
    coords, value, resid, evaluations, converged = _realmode.minimize(d, k, starts, budget, seed)
    return MinimizeResult(coords, value, resid, evaluations, converged)


# -- majorization -------------------------------------------------------------


def majorization_pair(a: Iterable[int], b: Iterable[int]) -> tuple[tuple, tuple]:
    """The exponent vectors (a, b), each sorted descending, after checking
    that a majorizes b: equal lengths and sums, and every prefix sum of a
    dominates that of b. Every exponent must be an int >= 0."""
    ta = tuple(sorted(a, reverse=True))
    tb = tuple(sorted(b, reverse=True))
    for e in ta + tb:
        require_int(e, 0, "exponent")
    if len(ta) != len(tb) or not ta:
        raise PreconditionError("majorization needs two equal-length nonempty vectors")
    if sum(ta) != sum(tb):
        raise PreconditionError(f"sums differ: {sum(ta)} vs {sum(tb)}")
    pa = pb = 0
    for va, vb in zip(ta[:-1], tb[:-1]):
        pa += va
        pb += vb
        if pa < pb:
            raise PreconditionError(f"{ta} does not majorize {tb}")
    return ta, tb


def symmetrized_power_sum(exponents: Sequence[int], values: Sequence):
    """sum over all permutations sigma of prod_i values[sigma(i)]^exponents[i].

    The full symmetric group is used (repeated exponents are not collapsed),
    matching the classical majorization inequality setting. A factor whose
    exponent is 0 is 1, so with m nonzero exponents among n the sum is
    (n - m)! times the sum over the n! / (n - m)! placements of the nonzero
    ones onto distinct values.
    """
    n = len(exponents)
    if n != len(values):
        raise PreconditionError("need as many values as exponents")
    nonzero = [e for e in exponents if e]
    total = 0
    for placed in permutations(values, len(nonzero)):
        prod = 1
        for e, v in zip(nonzero, placed):
            prod *= v**e
        total += prod
    return factorial(n - len(nonzero)) * total


def muirhead_check(pair: tuple[Sequence[int], Sequence[int]], values: Sequence) -> bool:
    """True when, for the exponent vectors (a, b) of ``pair``, the
    symmetrized power sum for a dominates that of b at the given positive
    values, each read exactly with ``Fraction(v)``.

    The comparison runs on integers: with L the lcm of the values'
    denominators, the sum for exponents e at the values is its sum at the
    integers v L divided by L^sum(e), so each side is multiplied by the
    other's power of L. For a majorization pair both powers are L^k.
    """
    a, b = pair
    values = _exact(values, "majorization values")
    if len(values) != len(a):
        raise PreconditionError("need as many values as exponent entries")
    if any(v <= 0 for v in values):
        raise PreconditionError("majorization comparison needs positive values")
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return (symmetrized_power_sum(a, ints) * scale ** sum(b)
            >= symmetrized_power_sum(b, ints) * scale ** sum(a))


def random_majorization_pair(rng: random.Random, d: int, k: int) -> tuple[tuple, tuple]:
    """A seeded pair (a, b) of d-part exponent vectors summing to k, a
    majorizing b.

    b is a random composition of k, sorted, with no part equal to k. a is b
    after up to three moves of one unit onto an earlier part at least as
    large, and each such move keeps a majorizing b.
    """
    while True:
        cuts = sorted(rng.randint(0, k) for _ in range(d - 1))
        b = tuple(sorted(map(sub, cuts + [k], [0] + cuts), reverse=True))
        if b[0] < k:
            break
    a = list(b)
    for _ in range(rng.randint(0, 3)):
        donors = [i for i in range(d) if a[i] >= 1 and any(a[j] >= a[i] for j in range(i))]
        if not donors:
            break
        j = rng.choice(donors)
        receivers = [i for i in range(j) if a[i] >= a[j]]
        i = rng.choice(receivers)
        a[i] += 1
        a[j] -= 1
        a.sort(reverse=True)
    return majorization_pair(a, b)


def simplex_muirhead_report(
    d: int, k: int, *, samples: int = 1000, seed: int = 0
) -> SearchReport:
    """:func:`muirhead_check` at ``samples`` seeded pairs, each drawn before
    its d positive rational values.

    A pair has at most min(d, k) nonzero exponents, so its two power sums
    take at most 2 perm(d, min(d, k)) terms, each a product of up to
    min(d, k) powers and counted as k^2 min(d, k) + 3000 work units.
    Drawing a sample and building its row cost about as much as 10 d terms
    of 3000 units. When ``samples`` times that work exceeds
    :data:`MUIRHEAD_WORK_CAP`, nothing is drawn and BudgetError is raised;
    past 16 factors the bound perm(d, min(d, k)) >= min(d, k)! settles that
    without building the perm.
    """
    # with d < 2 or k < 2 every composition of k has a part equal to k, so
    # random_majorization_pair would never find one to use
    require_int(d, 2, "arity bound")
    require_int(k, 2, "caterpillar size")
    require_int(samples, 1, "--samples")
    m = min(d, k)
    # perm(d, m) >= m!, and 2 * 10! * 3000 is over the cap already, so a
    # perm of more than 16 factors is not built
    work = samples * (2 * perm(d, m) * (k * k * m + 3000) + 10 * d * 3000) if m <= 16 else None
    if work is None or work > MUIRHEAD_WORK_CAP:
        amount = f"more than {m}!" if work is None else f"up to {int_str(work)}"
        raise BudgetError(
            f"--samples {samples} at d={d}, k={k} needs {amount} work units "
            f"(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
            f"above the cap of {MUIRHEAD_WORK_CAP}"
        )
    rng = random.Random(seed)
    rows = []
    for i in range(samples):
        pair = random_majorization_pair(rng, d, k)
        values = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(d)]
        cells = (";".join(map(str, seq)) for seq in (*pair, values))
        rows.append((i, *cells, muirhead_check(pair, values)))
    return SearchReport(
        mode="simplex-muirhead",
        params={"d": d, "k": k, "seed": seed, "samples": samples},
        columns=("index", "majorant", "majorized", "values", "holds"),
        rows=rows,
        all_ok=all(row[-1] for row in rows),
    )
