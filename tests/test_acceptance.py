"""Acceptance gate: the checks this package must pass, one verdict per test.

Each criterion builds a deterministic report (rendered as CSV and written to
a session directory) and prints a single PASS/FAIL line to the terminal. The
final criterion regenerates every report from scratch and requires the bytes
to match, so everything upstream has to be reproducible under fixed seeds.
"""

import random
import time
from fractions import Fraction
from math import comb

import mpmath
import pytest

from treedensity import (
    CopyEngine,
    ParetoDP,
    bk_lower_bound,
    caterpillar_copies_complete,
    caterpillar_counts,
    count_copies_brute,
    density,
    enumerate_trees,
    liminf_density,
    make_caterpillar,
    make_complete,
    minimize_F,
    search_min_report,
    star_copies,
    sup_boundary_scan,
    uniform_min_value,
    verify_even_conjecture,
)
from treedensity.reporting import SearchReport, decimal_str, render_report
from treedensity.simplex import eval_F, random_interior_point

_GENERATED: dict[int, str] = {}


@pytest.fixture(scope="session")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-reports")


def _record(report_dir, capsys, number: int, label: str, report: SearchReport) -> None:
    text = render_report(report, "csv")
    _GENERATED[number] = text
    (report_dir / f"criterion_{number}.csv").write_text(text, encoding="utf-8")
    verdict = "PASS" if report.all_ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({label}): {verdict}")


# ---------------------------------------------------------------------------
# criterion 1: branch recursion == subset enumeration on every small case


def _criterion_1() -> SearchReport:
    start = time.perf_counter()
    engine = CopyEngine()
    rows = []
    total_mismatches = 0
    for d in (2, 3):
        patterns = [p for k in range(1, 6) for p in enumerate_trees(k, d)]
        for n in range(1, 10):
            pairs = 0
            mismatches = 0
            for t in enumerate_trees(n, d):
                for p in patterns:
                    pairs += 1
                    if engine.count(p, t) != count_copies_brute(p, t):
                        mismatches += 1
            total_mismatches += mismatches
            rows.append((d, n, pairs, mismatches))
    return SearchReport(
        mode="acceptance-1",
        params={},
        columns=("d", "host_leaves", "pairs_checked", "mismatches"),
        rows=rows,
        all_ok=total_mismatches == 0,
        wall_time=time.perf_counter() - start,
    )


def test_criterion_1_oracle_equivalence(report_dir, capsys):
    report = _criterion_1()
    _record(report_dir, capsys, 1, "recursion matches brute force", report)
    assert report.all_ok
    assert report.wall_time < 300


# ---------------------------------------------------------------------------
# criterion 2: closed forms == recursion on complete hosts


def _criterion_2() -> SearchReport:
    engine = CopyEngine()
    rows = []
    all_ok = True
    for d in (2, 3, 4):
        hosts = {h: make_complete(d, h) for h in range(0, 4)}
        for r in range(2, d + 1):
            star = make_caterpillar(r, r)
            star_ok = all(
                star_copies(r, d, h) == engine.count(star, hosts[h]) for h in range(0, 4)
            )
            checks = 0
            cat_ok = True
            for k in range(r, 10, r - 1) if r > 2 else range(r, 10):
                pattern = make_caterpillar(r, k)
                for h in range(1, 4):
                    checks += 1
                    if caterpillar_copies_complete(r, k, d, h) != engine.count(
                        pattern, hosts[h]
                    ):
                        cat_ok = False
            all_ok = all_ok and star_ok and cat_ok
            rows.append((d, r, checks, star_ok, cat_ok))
    return SearchReport(
        mode="acceptance-2",
        params={},
        columns=("d", "r", "caterpillar_checks", "stars_match", "caterpillars_match"),
        rows=rows,
        all_ok=all_ok,
    )


def test_criterion_2_closed_form_agreement(report_dir, capsys):
    report = _criterion_2()
    _record(report_dir, capsys, 2, "closed forms match recursion", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 3: limit values and the rate of approach


def _criterion_3() -> SearchReport:
    rows = []
    ok_23 = liminf_density(2, 3) == 1
    ok_33 = liminf_density(3, 3) == Fraction(3, 4)
    rows.append(("liminf(2,3)", "1/1", ok_23))
    rows.append(("liminf(3,3)", "3/4", ok_33))
    f23 = make_caterpillar(2, 3)
    errs = [
        abs(density(f23, make_complete(3, h)) - Fraction(3, 4)) for h in range(3, 7)
    ]
    shrinking = all(a > b for a, b in zip(errs, errs[1:]))
    small = errs[-1] < Fraction(1, 100)
    for h, e in zip(range(3, 7), errs):
        rows.append((f"error at h={h}", decimal_str(e), True))
    rows.append(("errors strictly decreasing", "", shrinking))
    rows.append(("error at h=6 below 0.01", "", small))
    return SearchReport(
        mode="acceptance-3",
        params={},
        columns=("check", "value", "ok"),
        rows=rows,
        all_ok=ok_23 and ok_33 and shrinking and small,
    )


def test_criterion_3_limit_reproduction(report_dir, capsys):
    report = _criterion_3()
    _record(report_dir, capsys, 3, "limiting densities reproduced", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 4: the polynomial lower bound on every small strict host


def _criterion_4() -> SearchReport:
    rows = []
    all_ok = True
    for d in (2, 3):
        sizes = [n for n in range(1, 14) if (n - 1) % (d - 1) == 0]
        counted = []
        for n in sizes:
            for t in enumerate_trees(n, d, strict=True):
                counted.append((n, caterpillar_counts(t, 5)))
        for k in (3, 4, 5):
            violations = 0
            for n, vec in counted:
                if Fraction(vec[k]) < bk_lower_bound(d, k, n):
                    violations += 1
            all_ok = all_ok and violations == 0
            rows.append((d, k, len(counted), violations))
    return SearchReport(
        mode="acceptance-4",
        params={},
        columns=("d", "k", "trees_checked", "violations"),
        rows=rows,
        all_ok=all_ok,
    )


def test_criterion_4_lower_bound_suite(report_dir, capsys):
    report = _criterion_4()
    _record(report_dir, capsys, 4, "polynomial lower bound holds", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 5: exhaustive minimum density is monotone and bounded


def _criterion_5() -> SearchReport:
    base = search_min_report(2, 4, 5, 14, method="exhaustive")
    bound = Fraction(4, 7)
    rows = []
    all_ok = True
    prev = None
    for n, min_count, num, den, _code in base.rows:
        dens = Fraction(num, den)
        nondecreasing = prev is None or dens >= prev
        bounded = dens <= bound
        all_ok = all_ok and nondecreasing and bounded
        rows.append((n, min_count, num, den, nondecreasing, bounded))
        prev = dens
    return SearchReport(
        mode="acceptance-5",
        params={},
        columns=("n", "min_count", "density_num", "density_den", "nondecreasing", "le_4_7"),
        rows=rows,
        all_ok=all_ok,
    )


def test_criterion_5_monotone_minimum(report_dir, capsys):
    report = _criterion_5()
    _record(report_dir, capsys, 5, "minimum density monotone below 4/7", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 6: the even-split tree attains the minimum up to n = 100


def _criterion_6() -> SearchReport:
    start = time.perf_counter()
    exhaustive = {4: {}, 5: {}}
    for n in range(1, 17):
        best4 = best5 = None
        for t in enumerate_trees(n, 2):
            vec = caterpillar_counts(t, 5)
            c4, c5 = vec[4], vec[5]
            best4 = c4 if best4 is None else min(best4, c4)
            best5 = c5 if best5 is None else min(best5, c5)
        exhaustive[4][n], exhaustive[5][n] = best4, best5
    rows = []
    all_ok = True
    for k in (4, 5):
        dp = ParetoDP(k).run(16)
        dp_ok = all(dp.min_count(n) == exhaustive[k][n] for n in range(k, 17))
        sweep = verify_even_conjecture(k, 100)
        all_ok = all_ok and dp_ok and bool(sweep.all_ok)
        rows.append((k, "frontier matches exhaustive, n <= 16", dp_ok))
        rows.append((k, "even tree attains the minimum, n <= 100", bool(sweep.all_ok)))
    return SearchReport(
        mode="acceptance-6",
        params={},
        columns=("k", "check", "ok"),
        rows=rows,
        all_ok=all_ok,
        wall_time=time.perf_counter() - start,
    )


def test_criterion_6_conjecture_reproduction(report_dir, capsys):
    report = _criterion_6()
    _record(report_dir, capsys, 6, "even-split tree minimizes up to 100", report)
    assert report.all_ok
    assert report.wall_time < 1800


# ---------------------------------------------------------------------------
# criterion 7: simplex functional bounds, minimum, boundary supremum


def _criterion_7() -> SearchReport:
    rows = []
    all_ok = True
    for d in (2, 3, 4):
        for k in (3, 4, 5, 6):
            rng = random.Random(1000 * d + k)
            lo, hi = uniform_min_value(d, k), Fraction(1, k)
            violations = 0
            for _ in range(10**4):
                v = eval_F(d, k, random_interior_point(d, rng))
                if not lo <= v <= hi:
                    violations += 1
            all_ok = all_ok and violations == 0
            rows.append(("bounds", d, k, 10**4, violations, True))
    for d, k in [(2, 4), (3, 3), (3, 4), (4, 5)]:
        res = minimize_F(d, k)
        coord_err = max(abs(c - mpmath.mpf(1) / d) for c in res.point.coords)
        value_err = abs(res.value - uniform_min_value(d, k))
        ok = float(coord_err) < 1e-6 and float(value_err) < 1e-9
        all_ok = all_ok and ok
        rows.append(
            ("minimize", d, k, decimal_str(float(coord_err)), decimal_str(float(value_err)), ok)
        )
    values = sup_boundary_scan(3, 4, [Fraction(1, 2**t) for t in range(1, 21)])
    increasing = all(a < b for a, b in zip(values, values[1:]))
    below = all(v < Fraction(1, 4) for v in values)
    gap = Fraction(1, 4) - values[-1]
    gap_ok = gap < Fraction(1, 10**4)
    all_ok = all_ok and increasing and below and gap_ok
    rows.append(("sup-scan", 3, 4, "increasing", "", increasing))
    rows.append(("sup-scan", 3, 4, "below 1/4", decimal_str(gap), below and gap_ok))
    return SearchReport(
        mode="acceptance-7",
        params={},
        columns=("part", "d", "k", "detail", "extra", "ok"),
        rows=rows,
        all_ok=all_ok,
    )


def test_criterion_7_simplex_suite(report_dir, capsys):
    report = _criterion_7()
    _record(report_dir, capsys, 7, "simplex bounds, minimum and supremum", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 8: the two ternary 3-leaf shapes partition every 3-subset


def _criterion_8() -> SearchReport:
    engine = CopyEngine()
    f23 = make_caterpillar(2, 3)
    star3 = make_complete(3, 1)
    rows = []
    all_ok = True
    for n in range(1, 11):
        trees = 0
        violations = 0
        for t in enumerate_trees(n, 3):
            trees += 1
            if engine.count(f23, t) + engine.count(star3, t) != comb(n, 3):
                violations += 1
        all_ok = all_ok and violations == 0
        rows.append((n, trees, violations))
    return SearchReport(
        mode="acceptance-8",
        params={},
        columns=("n", "trees_checked", "violations"),
        rows=rows,
        all_ok=all_ok,
    )


def test_criterion_8_normalization(report_dir, capsys):
    report = _criterion_8()
    _record(report_dir, capsys, 8, "3-subset counts partition C(n,3)", report)
    assert report.all_ok


# ---------------------------------------------------------------------------
# criterion 9: everything above is byte-reproducible


_CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
}


def test_criterion_9_determinism(report_dir, capsys):
    missing = [n for n in _CRITERIA if n not in _GENERATED]
    assert not missing, f"criteria {missing} left no first-generation report"
    rows = []
    all_ok = True
    rerun_dir = report_dir / "second-generation"
    rerun_dir.mkdir(exist_ok=True)
    for number, build in _CRITERIA.items():
        text = render_report(build(), "csv")
        (rerun_dir / f"criterion_{number}.csv").write_text(text, encoding="utf-8")
        first = (report_dir / f"criterion_{number}.csv").read_bytes()
        second = (rerun_dir / f"criterion_{number}.csv").read_bytes()
        identical = first == second
        all_ok = all_ok and identical
        rows.append((number, len(first), identical))
    report = SearchReport(
        mode="acceptance-9",
        params={},
        columns=("criterion", "report_bytes", "identical"),
        rows=rows,
        all_ok=all_ok,
    )
    _record(report_dir, capsys, 9, "reports byte-identical across reruns", report)
    assert report.all_ok
