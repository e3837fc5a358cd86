"""The body of :func:`treedensity.simplex.minimize_F`, in mpmath arithmetic.

The package's one import of mpmath, and a leaf: it imports nothing from the
package, and ``minimize_F`` imports it on first use, so every command runs
without it. The arithmetic runs on raw mpf tuples (``x._mpf_``). Each
step is the libmp call that mpf's own operator makes, with the same operands
in the same order and at the working precision, so the values are those of
the plain mpf expressions in the comments, bit for bit, without the cost of
building an mpf object per step.
"""

from __future__ import annotations

import random
from functools import cmp_to_key
from itertools import combinations

import mpmath
from mpmath.libmp import (
    finf,
    fone,
    fzero,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_le,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)


def _sum(terms: list, prec: int):
    """sum(terms): Python's sum adds 0 + terms[0] first, and that add rounds."""
    acc = mpf_add(terms[0], fzero, prec, round_nearest)
    for i in range(1, len(terms)):
        acc = mpf_add(acc, terms[i], prec, round_nearest)
    return acc


def _F_terms_mp(k: int, xs, prec: int):
    """(numerator, denominator) of F at raw ``xs``: powers, then 1 - sum p x,
    then the i < j pairs, one fixed order so every mpmath F rounds alike."""
    d = len(xs)
    rnd = round_nearest
    # powers = [x ** (k - 1) for x in xs]
    powers = [mpf_pow_int(x, k - 1, prec, rnd) for x in xs]
    # den = 1 - sum(p * x for p, x in zip(powers, xs))
    weighted = [mpf_mul(p, x, prec, rnd) for p, x in zip(powers, xs)]
    den = mpf_sub(fone, _sum(weighted, prec), prec, rnd)
    # num = 0, then num += xs[i] * powers[j] + xs[j] * powers[i] for i < j
    pairs = [
        mpf_add(
            mpf_mul(xs[i], powers[j], prec, rnd), mpf_mul(xs[j], powers[i], prec, rnd), prec, rnd
        )
        for i in range(d)
        for j in range(i + 1, d)
    ]
    return _sum(pairs, prec), den


def _nelder_mead(f, x0, step, xtol, ftol, max_evals):
    """Plain Nelder-Mead over raw mpf vectors at the working precision;
    returns (x, fx, evals, converged)."""
    prec, rnd = mpmath.mp.prec, round_nearest

    def gap(a, b):
        # abs(a - b)
        return mpf_abs(mpf_sub(a, b, prec, rnd), prec, rnd)

    def move(base, t, a, b):
        # base + t * (a - b), every move of the simplex
        return mpf_add(base, mpf_mul(t, mpf_sub(a, b, prec, rnd), prec, rnd), prec, rnd)

    # objective values are never NaN, so mpf_cmp orders them as mpf's < does
    by_value = cmp_to_key(mpf_cmp)
    dim = len(x0)
    # one = mpf(1); alpha, gamma, rho, sigma = one, 2 * one, one / 2, one / 2
    half = mpf_div(fone, from_int(2), prec, rnd)
    alpha, gamma, rho, sigma = fone, mpf_mul_int(fone, 2, prec, rnd), half, half
    simplex = [list(x0)]
    for i in range(dim):
        v = list(x0)
        v[i] = mpf_add(v[i], step, prec, rnd)
        simplex.append(v)
    fvals = [f(v) for v in simplex]
    evals = len(simplex)
    converged = False
    while evals < max_evals:
        order = sorted(range(dim + 1), key=lambda i: by_value(fvals[i]))
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        # max(|v_j - best_j|) < xtol and |f_worst - f_best| < ftol; no value
        # is NaN, so the max is below xtol exactly when every term is
        best = simplex[0]
        if all(
            mpf_lt(gap(v[j], best[j]), xtol) for v in simplex[1:] for j in range(dim)
        ) and mpf_lt(gap(fvals[-1], fvals[0]), ftol):
            converged = True
            break
        # sum(simplex[i][j] for i in range(dim)) / dim
        centroid = [
            mpf_div(_sum([v[j] for v in simplex[:-1]], prec), from_int(dim), prec, rnd)
            for j in range(dim)
        ]
        worst = simplex[-1]
        refl = [move(c, alpha, c, w) for c, w in zip(centroid, worst)]
        f_refl = f(refl)
        evals += 1
        if mpf_le(fvals[0], f_refl) and mpf_lt(f_refl, fvals[-2]):
            simplex[-1], fvals[-1] = refl, f_refl
            continue
        if mpf_lt(f_refl, fvals[0]):
            expa = [move(c, gamma, c, w) for c, w in zip(centroid, worst)]
            f_expa = f(expa)
            evals += 1
            if mpf_lt(f_expa, f_refl):
                simplex[-1], fvals[-1] = expa, f_expa
            else:
                simplex[-1], fvals[-1] = refl, f_refl
            continue
        contr = [move(c, rho, w, c) for c, w in zip(centroid, worst)]
        f_contr = f(contr)
        evals += 1
        if mpf_lt(f_contr, fvals[-1]):
            simplex[-1], fvals[-1] = contr, f_contr
            continue
        for i in range(1, dim + 1):
            simplex[i] = [move(b, sigma, v, b) for b, v in zip(best, simplex[i])]
            fvals[i] = f(simplex[i])
        evals += dim
    best_i = min(range(dim + 1), key=lambda i: by_value(fvals[i]))
    return simplex[best_i], fvals[best_i], evals, converged


def _raw_mpfs(*texts):
    return [mpmath.mpf(text)._mpf_ for text in texts]


def _full_point(y, prec: int):
    # y + [1 - sum(y)]
    return [*y, mpf_sub(fone, _sum(y, prec), prec, round_nearest)]


def _barrier_objective(k, mu):
    """F - mu * sum(log x_i) at the raw point whose first d - 1 coordinates
    are y, +inf off the open simplex; ``mu`` is a raw mpf, or None for F."""

    def f(y):
        prec = mpmath.mp.prec
        x = _full_point(y, prec)
        for c in x:
            if mpf_le(c, fzero):
                return finf
        num, den = _F_terms_mp(k, x, prec)
        if mpf_le(den, fzero):
            return finf
        val = mpf_div(num, den, prec, round_nearest)
        if mu is not None:
            # val - mu * sum(log(c))
            logs = _sum([mpf_log(c, prec, round_nearest) for c in x], prec)
            val = mpf_sub(val, mpf_mul(mu, logs, prec, round_nearest), prec, round_nearest)
        return val

    return f


def stationarity(k: int, coords: tuple):
    """Max |directional derivative| of F along (e_i - e_j)/sqrt(2) directions
    at the mpf ``coords``, by central differences with step 1e-5, at the
    working precision."""
    xs = list(coords)
    hh = mpmath.mpf("1e-5")
    u = 1 / mpmath.sqrt(2)
    worst = mpmath.mpf(0)
    obj = _barrier_objective(k, None)

    def value_at(v):
        return mpmath.mp.make_mpf(obj([c._mpf_ for c in v[:-1]]))

    for i, j in combinations(range(len(xs)), 2):
        plus = list(xs)
        minus = list(xs)
        plus[i] += hh * u
        plus[j] -= hh * u
        minus[i] -= hh * u
        minus[j] += hh * u
        deriv = (value_at(plus) - value_at(minus)) / (2 * hh)
        worst = max(worst, abs(deriv))
    return worst


def minimize(d: int, k: int, starts: int, budget: int, seed: int) -> tuple:
    """The run of ``minimize_F`` on checked arguments: the point's mpf
    coordinates, its value, its stationarity, the evaluations made and
    whether the polish converged."""
    rng = random.Random(seed)
    with mpmath.workprec(128):
        rough = _barrier_objective(k, mpmath.mpf("1e-6")._mpf_)
        polish = _barrier_objective(k, None)
        stage1_budget = budget // (2 * starts)
        evals_total = 0
        best_y = None
        best_f = finf
        for _ in range(starts):
            weights = [mpmath.mpf(rng.random()) + mpmath.mpf("0.05") for _ in range(d)]
            total = sum(weights)
            y0 = [(w / total)._mpf_ for w in weights][: d - 1]
            y, fy, evals, _ = _nelder_mead(
                rough, y0, *_raw_mpfs("0.05", "1e-10", "1e-14"), stage1_budget
            )
            evals_total += evals
            if mpf_lt(fy, best_f):
                best_f, best_y = fy, y
        remaining = max(budget - evals_total, (d + 1) * 4)
        y, fy, evals, converged = _nelder_mead(
            polish, best_y, *_raw_mpfs("1e-7", "1e-16", "1e-28"), remaining
        )
        evals_total += evals
        coords = tuple(map(mpmath.mp.make_mpf, _full_point(y, mpmath.mp.prec)))
        value = mpmath.mp.make_mpf(polish(y))
        resid = stationarity(k, coords)
    return coords, value, resid, evals_total, converged
