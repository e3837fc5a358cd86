"""Independent checks of each op's report.

The counts are re-derived here from the bracket codes alone, with no Tree
objects and no memo shared with the program; where the program's own
functions are used as a reference (closed forms, tree counts, a fresh
CopyEngine for the brute-force oracle), they are ones the op under test did
not run. A check returns None when the report is right and a short reason
when a value is wrong.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import comb

from workloads import caterpillar_code


def _combine(kids: list, k: int) -> tuple[int, tuple[int, ...]]:
    """(leaves, caterpillar copies c_2..c_k) of a vertex from its children's.

    A j-caterpillar copy (j >= 3) either lies in one branch or joins one
    leaf of a branch to a (j-1)-caterpillar of another branch.
    """
    n = sum(ni for ni, _ in kids)
    vec = [n * (n - 1) // 2]
    for idx in range(1, k - 1):
        vec.append(sum(v[idx] + (n - ni) * v[idx - 1] for ni, v in kids))
    return n, tuple(vec)


def cat_profile(code: str, k: int) -> tuple[int, int, tuple[int, ...]]:
    """(leaves, largest outdegree, copies of the binary caterpillars of
    sizes 2..k) of the tree written as ``code``."""
    leaf = (1, (0,) * (k - 1))
    stack: list[list] = []
    top = None
    widest = 0
    for ch in code:
        if ch == "(":
            stack.append([])
            continue
        if ch == "*":
            item = leaf
        else:
            kids = stack.pop()
            widest = max(widest, len(kids))
            item = _combine(kids, k)
        if stack:
            stack[-1].append(item)
        else:
            top = item
    return top[0], widest, top[1]


def even_profile(n: int, k: int, memo: dict) -> tuple[int, ...]:
    """Caterpillar copies in the n-leaf even-split binary tree."""
    if (n, k) not in memo:
        if n == 1:
            memo[n, k] = (0,) * (k - 1)
        else:
            halves = [(m, even_profile(m, k, memo)) for m in ((n + 1) // 2, n // 2)]
            memo[n, k] = _combine(halves, k)[1]
    return memo[n, k]


def eval_F(d: int, k: int, xs: list[Fraction]) -> Fraction:
    num = sum(xs[i] * xs[j] ** (k - 1) + xs[j] * xs[i] ** (k - 1)
              for i in range(d) for j in range(i + 1, d))
    return num / (1 - sum(x**k for x in xs))


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _covers(op, k: int, rows: list[list[str]]) -> str | None:
    """A sweep report needs one row per n from n_min (default k) to n_max."""
    first = int(_arg(op.argv, "--n-min")) if "--n-min" in op.argv else k
    expect = list(range(first, int(_arg(op.argv, "--n-max")) + 1))
    if [int(row[0]) for row in rows] != expect:
        return f"rows do not run from n={first} to n={expect[-1]}"
    return None


class Checker:
    """Checks for one workload; keeps the state that spans ops (minimum
    counts seen per (d, k, n), reference reports for cached commands)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.minimum: dict[tuple[int, int, int], int] = {}
        self.witness_ok: dict[tuple[str, int, int, int, int], bool] = {}
        self.even: dict = {}
        self.cached_reports: dict[tuple[str, ...], bytes] = {}

    def check(self, op, report: str) -> str | None:
        if op.expect_exit != 0:
            return None  # a documented refusal writes no report
        if self.workload == "frontier-sweep":
            return self._frontier(op, report)
        if self.workload == "frontier-resume":
            return self._remember_cached(op, report)
        if self.workload == "exact-count":
            return self._exact(op, report)
        return self._simplex(op, report)

    # -- frontier ------------------------------------------------------------

    def _agree(self, d: int, k: int, n: int, count: int) -> str | None:
        seen = self.minimum.setdefault((d, k, n), count)
        if seen != count:
            return f"min count for d={d} k={k} n={n} is {count}, earlier op said {seen}"
        return None

    def _witness(self, code: str, d: int, k: int, n: int, count: int) -> bool:
        key = (code, d, k, n, count)
        if key not in self.witness_ok:
            leaves, widest, vec = cat_profile(code, k)
            self.witness_ok[key] = leaves == n and widest <= d and vec[-1] == count
        return self.witness_ok[key]

    def _frontier(self, op, report: str) -> str | None:
        d, k = op.info["d"], op.info["k"]
        header, rows = _csv(report)
        problem = _covers(op, k, rows)
        if problem:
            return problem
        for row in rows:
            cells = dict(zip(header, row))
            n, count = int(cells["n"]), int(cells["min_count"])
            if "even_count" in cells:
                even = even_profile(n, k, self.even)[-1]
                if cells["verdict"] != "true" or int(cells["even_count"]) != even or count != even:
                    return f"conjecture row n={n} does not match the even tree's {even}"
            else:
                q = Fraction(count, comb(n, k))
                if (int(cells["min_density_num"]), int(cells["min_density_den"])) != (
                    q.numerator, q.denominator,
                ):
                    return f"density at n={n} is not {count}/C({n},{k})"
            if "argmin_code" in cells and not self._witness(cells["argmin_code"], d, k, n, count):
                return f"witness at n={n} does not have {count} copies"
            if "nondecreasing" in cells and not (
                cells["nondecreasing"] == cells["le_liminf"] == "true"
            ):
                return f"monotone row n={n} fails"
            problem = self._agree(d, k, n, count)
            if problem:
                return problem
        return None

    def _remember_cached(self, op, report: str) -> str | None:
        key = tuple(op.argv[: op.argv.index("--cache-dir")])
        data = report.encode()
        seen = self.cached_reports.setdefault(key, data)
        return None if seen == data else "cached command gave different bytes on a rerun"

    def resume_references(self, run_uncached) -> tuple[int, str | None]:
        """Compare every cached report with the same command run without a
        cache; ``run_uncached(argv)`` returns (exit code, report text)."""
        for key, data in sorted(self.cached_reports.items()):
            rc, text = run_uncached(list(key))
            if rc != 0 or text.encode() != data:
                return len(self.cached_reports), f"{' '.join(key)} differs from the uncached report"
        return len(self.cached_reports), None

    # -- exact counts ----------------------------------------------------------

    def _exact(self, op, report: str) -> str | None:
        info, argv = op.info, op.argv
        kind = info["kind"]
        header, rows = _csv(report)
        if kind in ("enum", "exhaustive"):
            return self._enumeration(op, header, rows)
        cells = dict(zip(header, rows[0]))
        count, n, k = int(cells["count"]), int(cells["tree_leaves"]), int(cells["pattern_leaves"])
        if kind == "complete":
            from treedensity.formulas import caterpillar_copies_complete, star_copies

            r, d, h = info["r"], info["d"], info["h"]
            expect = (star_copies(r, d, h) if info["k"] == r
                      else caterpillar_copies_complete(r, info["k"], d, h))
            leaves = info["d"] ** info["h"]
        elif kind == "brute":
            from treedensity.counting import CopyEngine
            from treedensity.trees import parse_tree

            host = _arg(argv, "--tree")
            expect = CopyEngine().count(parse_tree(_arg(argv, "--pattern")), parse_tree(host))
            leaves = host.count("*")
        else:
            host = (caterpillar_code(info["r"], info["size"]) if kind == "caterpillar"
                    else _arg(argv, "--tree"))
            leaves, _, vec = cat_profile(host, info["k"])
            expect = vec[-1]
        if (count, n) != (expect, leaves):
            return f"count {count} on {n} leaves, expected {expect} on {leaves}"
        if cells["density_num"]:
            q = Fraction(count, comb(n, k))
            if (int(cells["density_num"]), int(cells["density_den"])) != (q.numerator, q.denominator):
                return "density is not count / C(n, k)"
        return None

    def _enumeration(self, op, header, rows) -> str | None:
        info = op.info
        d = info["d"]
        if info["kind"] == "enum":
            from treedensity.search import count_trees

            n = info["n"]
            codes = [row[1] for row in rows]
            if len(codes) != count_trees(n, d) or len(set(codes)) != len(codes):
                return f"{len(codes)} trees listed, expected {count_trees(n, d)} distinct"
            for code in codes:
                leaves, widest, _ = cat_profile(code, 2)
                if leaves != n or widest > d:
                    return f"{code} is not a {d}-ary tree with {n} leaves"
            return None
        k = info["k"]
        problem = _covers(op, k, rows)
        if problem:
            return problem
        for row in rows:
            cells = dict(zip(header, row))
            n, count = int(cells["n"]), int(cells["min_count"])
            if not self._witness(cells["argmin_code"], d, k, n, count):
                return f"witness at n={n} does not have {count} copies"
        return None

    # -- simplex ---------------------------------------------------------------

    def _simplex(self, op, report: str) -> str | None:
        lines = report.splitlines()
        if lines[-1] != "verdict: all checks passed":
            return f"verdict line is {lines[-1]!r}"
        d, k = op.info["d"], op.info["k"]
        lower = Fraction(d - 1, d ** (k - 1) - 1)
        rows = [line.split() for line in lines[4:-1]]
        flag = "--eps-steps" if op.cls == "sup" else "--samples"
        if flag in op.argv and len(rows) != int(_arg(op.argv, flag)):
            return f"{len(rows)} rows for {flag} {_arg(op.argv, flag)}"
        if op.cls == "bound-sample":
            for row in rows[::10]:
                xs = [Fraction(c) for c in row[1].split(";")]
                value = Fraction(row[2])
                if sum(xs) != 1 or value != eval_F(d, k, xs) or not lower <= value <= Fraction(1, k):
                    return f"sample {row[0]} has value {row[2]}"
        elif op.cls == "min":
            value = float(rows[0][3])
            if abs(value - float(lower)) > 1e-9 * float(lower) or rows[0][5] != "true":
                return f"minimum {value} is not the uniform value {float(lower)}"
        return None
