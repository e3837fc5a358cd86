"""The body of :func:`treedensity.simplex.minimize_F`, in mpmath arithmetic.

The package's one import of mpmath, and a leaf: it imports nothing from the
package, and ``minimize_F`` imports it on first use, so every command runs
without it. Every value is an mpf at the working precision of 128 bits, and
every step one mpf operator, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import random
from itertools import combinations

import mpmath


def _F_terms_mp(k: int, xs):
    """(numerator, denominator) of F at the mpf ``xs``: powers, then 1 - sum p x,
    then the i < j pairs, one fixed order so every mpmath F rounds alike."""
    powers = [x ** (k - 1) for x in xs]
    den = 1 - sum(p * x for p, x in zip(powers, xs))
    num = sum(xs[i] * powers[j] + xs[j] * powers[i] for i, j in combinations(range(len(xs)), 2))
    return num, den


def _nelder_mead(f, x0, step, xtol, ftol, max_evals):
    """Plain Nelder-Mead over mpf vectors at the working precision;
    returns (x, fx, evals, converged). Objective values are never NaN."""
    dim = len(x0)
    one = mpmath.mpf(1)
    alpha, gamma, rho, sigma = one, 2 * one, one / 2, one / 2
    simplex = [list(x0)]
    for i in range(dim):
        v = list(x0)
        v[i] += step
        simplex.append(v)
    fvals = [f(v) for v in simplex]
    evals = len(simplex)
    converged = False
    while evals < max_evals:
        order = sorted(range(dim + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        best = simplex[0]
        if abs(fvals[-1] - fvals[0]) < ftol and all(
            abs(v[j] - best[j]) < xtol for v in simplex[1:] for j in range(dim)
        ):
            converged = True
            break
        centroid = [sum(v[j] for v in simplex[:-1]) / dim for j in range(dim)]
        worst = simplex[-1]
        refl = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        f_refl = f(refl)
        evals += 1
        if fvals[0] <= f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
            continue
        if f_refl < fvals[0]:
            expa = [c + gamma * (c - w) for c, w in zip(centroid, worst)]
            f_expa = f(expa)
            evals += 1
            if f_expa < f_refl:
                simplex[-1], fvals[-1] = expa, f_expa
            else:
                simplex[-1], fvals[-1] = refl, f_refl
            continue
        contr = [c + rho * (w - c) for c, w in zip(centroid, worst)]
        f_contr = f(contr)
        evals += 1
        if f_contr < fvals[-1]:
            simplex[-1], fvals[-1] = contr, f_contr
            continue
        for i in range(1, dim + 1):
            simplex[i] = [b + sigma * (v - b) for b, v in zip(best, simplex[i])]
            fvals[i] = f(simplex[i])
        evals += dim
    best_i = min(range(dim + 1), key=fvals.__getitem__)
    return simplex[best_i], fvals[best_i], evals, converged


def _full_point(y):
    return [*y, 1 - sum(y)]


def _barrier_objective(k, mu):
    """F - mu * sum(log x_i) at the point whose first d - 1 coordinates
    are y, +inf off the open simplex; ``mu`` is an mpf, or None for F."""

    def f(y):
        x = _full_point(y)
        if any(c <= 0 for c in x):
            return mpmath.inf
        num, den = _F_terms_mp(k, x)
        if den <= 0:
            return mpmath.inf
        val = num / den
        if mu is not None:
            val = val - mu * sum(map(mpmath.ln, x))
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
    for i, j in combinations(range(len(xs)), 2):
        plus, minus = list(xs), list(xs)
        plus[i] += hh * u
        plus[j] -= hh * u
        minus[i] -= hh * u
        minus[j] += hh * u
        deriv = (obj(plus[:-1]) - obj(minus[:-1])) / (2 * hh)
        worst = max(worst, abs(deriv))
    return worst


def minimize(d: int, k: int, starts: int, budget: int, seed: int) -> tuple:
    """The run of ``minimize_F`` on checked arguments: the point's mpf
    coordinates, its value, its stationarity, the evaluations made and
    whether the polish converged."""
    rng = random.Random(seed)
    with mpmath.workprec(128):
        rough = _barrier_objective(k, mpmath.mpf("1e-6"))
        polish = _barrier_objective(k, None)
        stage1_budget = budget // (2 * starts)
        evals_total = 0
        best_y, best_f = None, mpmath.inf
        for _ in range(starts):
            weights = [mpmath.mpf(rng.random()) + mpmath.mpf("0.05") for _ in range(d)]
            total = sum(weights)
            y0 = [w / total for w in weights][: d - 1]
            y, fy, evals, _ = _nelder_mead(
                rough, y0, *map(mpmath.mpf, ("0.05", "1e-10", "1e-14")), stage1_budget
            )
            evals_total += evals
            if fy < best_f:
                best_f, best_y = fy, y
        remaining = max(budget - evals_total, (d + 1) * 4)
        y, fy, evals, converged = _nelder_mead(
            polish, best_y, *map(mpmath.mpf, ("1e-7", "1e-16", "1e-28")), remaining
        )
        evals_total += evals
        coords = tuple(_full_point(y))
        value = polish(y)
        resid = stationarity(k, coords)
    return coords, value, resid, evals_total, converged
