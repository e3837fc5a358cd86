"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import treedensity
from treedensity import ConsistencyError, cli, counting, formulas, make_caterpillar, trees
from treedensity.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _checkout_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(treedensity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# counting commands


def test_count_pattern_in_complete_tree(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--pattern-caterpillar", "2,3",
        "--tree-complete", "2,3",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("pattern_code,tree_code,")
    cells = row.split(",")
    assert cells[0] == "(*(**))"
    assert cells[2:8] == ["3", "8", "56", "1", "1", "1"]


def test_count_on_a_deep_caterpillar_host(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--pattern-caterpillar", "2,3", "--tree-caterpillar", "2,3000",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "4495501000"


def test_count_of_a_wide_star_in_itself(capsys):
    star = "(" + "*" * 1200 + ")"
    code, out, _ = run_cli(capsys, "count", "--pattern", star, "--tree", star, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[2:5] == ["1200", "1200", "1"]


def test_count_brute_agrees_with_recursion(capsys):
    args = ("--pattern", "(*(**))", "--tree-even", "9", "--format", "csv")
    _, out_fast, _ = run_cli(capsys, "count", *args)
    _, out_brute, _ = run_cli(capsys, "count", *args, "--brute")
    count_col = out_fast.splitlines()[1].split(",")[4]
    assert count_col == out_brute.splitlines()[1].split(",")[4]


@pytest.mark.parametrize("command", ["count", "density"])
def test_no_argv_switches_the_subset_cap_off(capsys, monkeypatch, command):
    monkeypatch.setattr(counting, "SUBSET_CAP", 100)
    args = (command, "--brute", "--pattern-caterpillar", "2,3", "--tree-even", "30")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (3, "")
    assert err == ("refused: brute-force enumeration of C(30,3) = 4060 subsets needs 12270 steps "
                   "(C(n, k) * k + 3 * n), above the cap of 100\n")
    code, out, err = run_cli(capsys, *args, "--force")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --force" in err


def test_density_small_host_is_an_input_error(capsys):
    code, _, err = run_cli(
        capsys, "density", "--pattern-caterpillar", "2,4", "--tree", "(*(**))"
    )
    assert code == 2
    assert "error:" in err and "leaves" in err


def test_count_of_oversized_pattern_reports_blank_density(capsys):
    code, out, _ = run_cli(
        capsys,
        "count",
        "--pattern-caterpillar", "2,4",
        "--tree", "(*(**))",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4:] == ["0", "", "", ""]


# ---------------------------------------------------------------------------
# enumeration, limits


def test_enumerate_lists_each_tree(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--d", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "index,code",
        "0,((**)(**))",
        "1,(*(*(**)))",
    ]


def test_limits_reports_exact_and_decimal(capsys):
    code, out, _ = run_cli(capsys, "limits", "--d", "3", "--k", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,3,2,3/4,0.75"
    code, out, _ = run_cli(
        capsys, "limits", "--d", "3", "--k", "5", "--r", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[:3] == ["3", "5", "3"]


def test_limits_cross_check_failure_exits_1(capsys, monkeypatch):
    # limits_report compares two independent closed forms; a wrong
    # liminf formula must fail the report, naming both values
    real = formulas.liminf_density
    monkeypatch.setattr(formulas, "liminf_density", lambda d, k: 2 * real(d, k))
    with pytest.raises(ConsistencyError):
        formulas.limits_report(3, 4)
    code, out, err = run_cli(capsys, "limits", "--d", "3", "--k", "4")
    assert code == 1
    assert out == ""
    assert err == (
        "error: consistency check failed: limit density for d=3, k=4: "
        "complete-tree limit 3/13, liminf formula 6/13\n"
    )


# ---------------------------------------------------------------------------
# searches and verification sweeps


def test_search_min_methods_agree(capsys):
    base = ("search-min", "--d", "2", "--k", "4", "--n-min", "9", "--n-max", "9",
            "--format", "csv")
    code_a, out_a, _ = run_cli(capsys, *base, "--method", "exhaustive")
    code_b, out_b, _ = run_cli(capsys, *base, "--method", "pareto")
    assert code_a == code_b == 0
    row_a = out_a.splitlines()[1].split(",")
    row_b = out_b.splitlines()[1].split(",")
    assert row_a[:4] == row_b[:4] == ["9", "62", "31", "63"]


def test_search_min_range_jsonl(capsys):
    code, out, _ = run_cli(
        capsys,
        "search-min",
        "--d", "2",
        "--k", "4",
        "--n-min", "4",
        "--n-max", "8",
        "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["min_count"] for r in rows] == [0, 2, 6, 16, 32]


def test_witness_recount_mismatch_exits_1(capsys, monkeypatch):
    real = counting.caterpillar_counts

    def one_too_many(t, k):
        counts = real(t, k)
        return counts[:-1] + (counts[-1] + 1,)

    monkeypatch.setattr(counting, "caterpillar_counts", one_too_many)
    code, out, err = run_cli(
        capsys, "search-min", "--d", "2", "--k", "4", "--n-min", "8", "--n-max", "8",
        "--method", "pareto",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: consistency check failed: 4-caterpillar count of witness")
    assert "Traceback" not in err


def test_search_min_requires_a_range(capsys):
    code, out, err = run_cli(capsys, "search-min", "--d", "2", "--k", "4")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: --n-max\n")


def test_a_one_size_range_prints_what_the_n_flag_printed(capsys):
    # the bytes of the former `search-min --d 2 --k 4 --n 9 --format csv`
    code, out, err = run_cli(
        capsys, "search-min", "--d", "2", "--k", "4", "--n-min", "9", "--n-max", "9",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out == (
        "n,min_count,min_density_num,min_density_den,argmin_code\n"
        "9,62,31,63,(((**)(**))((**)(*(**))))\n"
    )


@pytest.mark.parametrize(
    "flag, usage, message",
    [
        ("--n-min", "treedensity search-min", "the following arguments are required: --n-max"),
        ("--n-max", "treedensity", "unrecognized arguments: --n 6"),
        (None, "treedensity search-min", "the following arguments are required: --n-max"),
    ],
    ids=["--n-min", "--n-max", "alone"],
)
def test_search_min_refuses_n_with_a_range_flag(capsys, flag, usage, message):
    # --n is gone, and no flag is read by a prefix of its name
    argv = ("search-min", "--d", "2", "--k", "4", "--n", "6") + ((flag, "9") if flag else ())
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {usage} [-h]")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("monotone", "--d", "2", "--k", "4", "--n", "6", "--format", "csv"),
         "the following arguments are required: --n-max"),
        (("enumerate", "--n", "5", "--d", "2", "--max", "2"),
         "unrecognized arguments: --max 2"),
    ],
    ids=["monotone --n", "enumerate --max"],
)
def test_no_flag_is_read_by_a_prefix_of_its_name(capsys, argv, message):
    # with prefix matching, --n ran as --n-max 6 and --max as --max-trees 2
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_search_min_general_d_gate(capsys):
    # --general-d is accepted and changes nothing: pareto runs for every d
    args = ("search-min", "--d", "3", "--k", "4", "--n-min", "8", "--n-max", "8",
            "--method", "pareto")
    without = run_cli(capsys, *args, "--format", "csv")
    assert without == run_cli(capsys, *args, "--general-d", "--format", "csv")
    code, out, err = without
    assert code == 0 and err == ""
    # star-built ternary hosts dodge the binary 4-caterpillar entirely
    assert out.splitlines()[1].split(",")[1] == "0"


def test_auto_method_runs_the_dp_for_every_d(capsys):
    # the exhaustive scan would refuse 3-ary trees with 17 leaves and more
    code, out, err = run_cli(capsys, "search-min", "--d", "3", "--k", "4", "--n-max", "30")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "params: d=3, k=4, method=pareto, n_max=30, n_min=4"
    assert len(out.splitlines()) == 4 + 27
    # monotone's report carries no method, so auto and exhaustive give the same bytes
    argv = ("monotone", "--d", "3", "--k", "4", "--n-max", "12", "--format", "csv")
    exhaustive = run_cli(capsys, *argv, "--method", "exhaustive")
    assert exhaustive[0] == 0
    assert run_cli(capsys, *argv) == exhaustive


def test_conjecture_and_monotone_exit_clean(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--k", "4", "--n-max", "12", "--format", "pretty"
    )
    assert code == 0
    assert out.splitlines()[-1] == "verdict: all checks passed"

    code, out, _ = run_cli(
        capsys, "monotone", "--d", "2", "--k", "4", "--n-max", "10", "--format", "csv"
    )
    assert code == 0
    assert all(line.endswith("true,true") for line in out.splitlines()[1:])


def test_monotone_prints_a_limit_of_over_4300_digits(capsys):
    # from about k = 175 at d = 2, the limit's denominator has more digits
    # than str() renders
    code, out, err = run_cli(
        capsys, "monotone", "--d", "2", "--k", "200", "--n-max", "200", "--format", "pretty"
    )
    assert (code, err) == (0, "")
    params = out.splitlines()[1]
    assert re.fullmatch(r"params: d=2, k=200, limit=[0-9]+/[0-9]{4301,}, n_max=200, n_min=200",
                        params)


@pytest.mark.parametrize("method", ["exhaustive", "pareto"])
def test_search_min_refuses_a_negative_tree_cap_on_either_route(capsys, method):
    code, out, err = run_cli(
        capsys, "search-min", "--d", "2", "--k", "4", "--n-max", "10",
        "--max-trees", "-1", "--method", method,
    )
    assert (code, out) == (2, "")
    assert err == "error: max_trees must be an integer >= 1, got -1\n"


# ---------------------------------------------------------------------------
# simplex command


def test_simplex_min_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "simplex",
        "--d", "2", "--k", "3",
        "--mode", "min",
        "--starts", "2",
        "--budget", "2000",
        "--format", "csv",
    )
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[3] == "0.333333333333"
    assert cells[5] == "true"


def test_simplex_sup_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        "simplex",
        "--d", "3", "--k", "4",
        "--mode", "sup",
        "--eps-steps", "6",
        "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0].split(",")[:2] == ["1/2", "1/7"]
    assert len(rows) == 6
    # k >= 4 keeps the strict rule: increasing and below 1/4
    values = [Fraction(r.split(",")[1]) for r in rows]
    assert all(a < b < Fraction(1, 4) for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("d", ["2", "3"])
def test_simplex_sup_k3_attains_the_bound(capsys, d):
    code, out, err = run_cli(
        capsys,
        "simplex",
        "--d", d, "--k", "3",
        "--mode", "sup",
        "--eps-steps", "8",
        "--format", "csv",
    )
    assert code == 0, err
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert len(rows) == 8
    assert all(r[1] == "1/3" and r[3] == "0" for r in rows)


@pytest.mark.parametrize(
    "mode, flag",
    [("sup", "--eps-steps"), ("bound-sample", "--samples"), ("muirhead", "--samples")],
)
def test_simplex_refuses_zero_checks(capsys, mode, flag):
    code, out, err = run_cli(
        capsys, "simplex", "--d", "3", "--k", "4", "--mode", mode, flag, "0"
    )
    assert code == 2
    assert out == ""
    assert f"{flag} must be an integer >= 1, got 0" in err


def test_simplex_sup_report_is_the_same_at_every_d(capsys):
    # the d - 2 zero coordinates add nothing to F, so only the params line
    # names d, and the scan costs the same at d = 10^8 as at d = 2
    reports = {}
    for d in ("2", "3", "100000000"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simplex", "--d", d, "--k", "5", "--mode", "sup", "--eps-steps", "40",
            "--format", "pretty",
        )
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == f"params: bound=1/5, d={d}, k=5"
        reports[d] = lines[:1] + lines[2:]
    assert reports["2"] == reports["3"] == reports["100000000"]


@pytest.mark.parametrize("mode", ["sup", "bound-sample"])
def test_simplex_bounds_refuse_k2(capsys, mode):
    code, out, err = run_cli(capsys, "simplex", "--d", "3", "--k", "2", "--mode", mode)
    assert code == 2
    assert out == ""
    assert "k >= 3, got k=2" in err


def test_simplex_bound_sample(capsys):
    code, out, _ = run_cli(
        capsys,
        "simplex",
        "--d", "3", "--k", "4",
        "--mode", "bound-sample",
        "--samples", "40",
        "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 40 and all(r.endswith(",true") for r in rows)


@pytest.mark.parametrize(
    "mode, d, k, wrong",
    [
        ("muirhead", "1", "3", "arity bound"),
        ("muirhead", "0", "3", "arity bound"),
        ("muirhead", "3", "1", "caterpillar size"),
        ("muirhead", "3", "0", "caterpillar size"),
        ("muirhead", "3", "-1", "caterpillar size"),
        ("sup", "1", "4", "arity bound"),
        ("min", "1", "3", "arity bound"),
        ("certify", "1", "3", "arity bound"),
        ("bound-sample", "1", "3", "arity bound"),
    ],
)
def test_simplex_refuses_too_small_d_or_k(mode, d, k, wrong):
    # a child process, so that a sampler that never finds a pair fails the
    # test by its timeout instead of hanging the suite
    proc = subprocess.run(
        [
            sys.executable, "-m", "treedensity.cli",
            "simplex", "--mode", mode, "--d", d, "--k", k, "--samples", "3",
        ],
        capture_output=True,
        text=True,
        env=_checkout_env(),
        timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    value = d if wrong == "arity bound" else k
    assert proc.stderr == f"error: {wrong} must be an integer >= 2, got {value}\n"


def _zeros(n):
    return "1" + "0" * n


@pytest.mark.parametrize(
    "argv, message",
    [
        # a sample's two power sums take up to 2 * 12! terms at d = k = 12
        (("simplex", "--mode", "muirhead", "--d", "12", "--k", "12"),
         "--samples 1000 at d=12, k=12 needs up to 4529439489600000 work units "
         "(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
         "above the cap of 3000000000"),
        # 4 terms a sample, but drawing it costs more than they do
        (("simplex", "--mode", "muirhead", "--d", "2", "--k", "3", "--samples", "250000"),
         "--samples 250000 at d=2, k=3 needs up to 18018000000 work units "
         "(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
         "above the cap of 3000000000"),
        # 40 terms, but each multiplies powers whose exponents sum to 10^5
        (("simplex", "--mode", "muirhead", "--d", "2", "--k", "100000", "--samples", "10"),
         "--samples 10 at d=2, k=100000 needs up to 800000720000 work units "
         "(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
         "above the cap of 3000000000"),
        # 725,760 terms, but each multiplies 9 powers
        (("simplex", "--mode", "muirhead", "--d", "9", "--k", "55", "--samples", "1"),
         "--samples 1 at d=9, k=55 needs up to 21936366000 work units "
         "(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
         "above the cap of 3000000000"),
        (("count", "--pattern", "(**)", "--tree-even", "1000000000"),
         "even-split tree would have 1000000000 leaves, above the cap of 10000000"),
        # a spine vertex costs about 5 us and 600 bytes from build to report
        (("count", "--pattern", "(**)", "--tree-caterpillar", "2,250002"),
         "2-ary caterpillar with 250002 leaves would have 250001 internal vertices, "
         "above the cap of 250000"),
        # a star: one spine vertex, but a child per leaf
        (("count", "--pattern", "(**)", "--tree-caterpillar", "200000000,200000000"),
         "200000000-ary caterpillar would have 200000000 leaves, above the cap of 10000000"),
        # the 2-ary caterpillar with 250,002 leaves as text, refused before
        # it is read
        (("count", "--pattern", "(**)", "--tree", "(*" * 250000 + "(**)" + ")" * 250000),
         "tree text would have 250001 internal vertices, above the cap of 250000"),
        # about 53,000 partitions of 800 into at most 3 parts, of 1,600 bits each
        (("simplex", "--mode", "certify", "--d", "3", "--k", "800"),
         "the certificate at d=3, k=800 needs at least 352501600 work units "
         "((rows + d) * ((k * bit_length(d))^2 / 1000 + 4000)), above the cap of 300000000"),
        # 2,999 rows, but each has 12,000 bits
        (("simplex", "--mode", "certify", "--d", "2", "--k", "6000"),
         "the certificate at d=2, k=6000 needs at least 444148000 work units "
         "((rows + d) * ((k * bit_length(d))^2 / 1000 + 4000)), above the cap of 300000000"),
        # one row, but the uniform point has 10^5 coordinates
        (("simplex", "--mode", "min", "--d", "100000", "--k", "3"),
         "the certificate at d=100000, k=3 needs at least 400200000 work units "
         "((rows + d) * ((k * bit_length(d))^2 / 1000 + 4000)), above the cap of 300000000"),
        # refused on the rows of two parts, none counted: 10^4400 and more
        (("simplex", "--mode", "certify", "--d", "3", "--k", _zeros(2200)),
         f"the certificate at d=3, k={10**2200} needs at least "
         f"{Decimal((10**2200 // 2 + 2) * ((2 * 10**2200) ** 2 // 1000 + 4000))} work units "
         "((rows + d) * ((k * bit_length(d))^2 / 1000 + 4000)), above the cap of 300000000"),
        # each coordinate's draw and cell cost as much as k^2 = 5000 units
        (("simplex", "--mode", "bound-sample", "--d", "100000000", "--k", "3", "--samples", "1"),
         "--samples 1 at d=100000000, k=3 needs 500900000000 work units "
         "(samples * d * (k^2 + 5000)), above the cap of 1000000000"),
        # values of up to 300,000 bits: it ran past 10 s
        (("simplex", "--mode", "sup", "--d", "3", "--k", "1000", "--eps-steps", "300"),
         "--eps-steps 300 at k=1000 needs 9045050000000 work units "
         "(k^2 * sum of t^2 for t <= eps-steps), above the cap of 50000000000"),
        # at k = 3 the work alone bounds the steps: 2,550 pass
        (("simplex", "--mode", "sup", "--d", "2", "--k", "3", "--eps-steps", "2600"),
         "--eps-steps 2600 at k=3 needs 52758423900 work units "
         "(k^2 * sum of t^2 for t <= eps-steps), above the cap of 50000000000"),
        # powers of about 600,000 bits: one sample took 2.6 s
        (("simplex", "--mode", "bound-sample", "--d", "3", "--k", "30000", "--samples", "1"),
         "--samples 1 at d=3, k=30000 needs 2700015000 work units "
         "(samples * d * (k^2 + 5000)), above the cap of 1000000000"),
        # a 10,000-leaf star in a 20,000-leaf star: 20,000 children, each
        # stepping through 10,000 states
        (("count", "--pattern-caterpillar", "10000,10000", "--tree-caterpillar", "20000,20000"),
         "counting a 10000-leaf pattern in a 20000-leaf tree needs at least 200000000 steps, "
         "above the cap of 10000000"),
        # 9.98 * 10^7 subsets: it took 321 s
        (("count", "--brute", "--pattern", "(*(**))", "--tree-even", "844"),
         "brute-force enumeration of C(844,3) = 99846044 subsets needs 299540664 steps "
         "(C(n, k) * k + 3 * n), above the cap of 2000000"),
        # 6,000 subsets, but each of 5,999 leaves: it took 20.9 s
        (("count", "--brute", "--pattern-even", "5999", "--tree-even", "6000"),
         "brute-force enumeration of C(6000,5999) = 6000 subsets needs 36012000 steps "
         "(C(n, k) * k + 3 * n), above the cap of 2000000"),
        # one subset, but the host walk and the code of 2,000,000 leaves: it
        # took 3.1-4.1 s
        (("count", "--brute", "--pattern-even", "2000000", "--tree-even", "2000000"),
         "brute-force enumeration of C(2000000,2000000) = 1 subsets needs 8000000 steps "
         "(C(n, k) * k + 3 * n), above the cap of 2000000"),
        (("limits", "--d", "3", "--k", "20000"),
         "the limit at d=3, k=20000, r=2 has a denominator of up to 399980000 bits, "
         "above the cap of 2250000"),
        # the DP's levels cost k - 2 columns a candidate, and a binary level n
        # has n // 2 candidates: this run would take days
        (("conjecture", "--k", "4", "--n-max", "1000000"),
         "levels 2..1000000 at d=2, k=4 need at least 500000000000 column additions "
         "(k - 2 per candidate of m parts, times m - 1), above the cap of 20000000"),
        # 160,000 candidates, of 798 columns each: it took 37 s
        (("search-min", "--d", "2", "--k", "800", "--n-max", "800"),
         "levels 2..800 at d=2, k=800 need at least 127680000 column additions "
         "(k - 2 per candidate of m parts, times m - 1), above the cap of 20000000"),
        # under the cap in binary splits alone, but the 3-part partitions of
        # a level n number about n^2 / 12, and each costs 2 additions a column
        (("monotone", "--d", "3", "--k", "4", "--n-max", "2000", "--method", "pareto"),
         "levels 2..2000 at d=3, k=4 need at least 891554888 column additions "
         "(k - 2 per candidate of m parts, times m - 1), above the cap of 20000000"),
        # d**h took 0.87 s to build here, and 2,10000000000 ran past 30 s
        (("count", "--pattern", "(**)", "--tree-complete", "2,100000000"),
         "complete tree would have 2^100000000 leaves, above the cap of 10000000"),
        (("count", "--pattern", "(**)", "--tree-complete", "2,10000000000"),
         "complete tree would have 2^10000000000 leaves, above the cap of 10000000"),
        (("count", "--pattern", "(**)", "--tree-complete", "10000001,1"),
         "complete tree would have 10000001^1 leaves, above the cap of 10000000"),
        (("count", "--pattern", "(**)", "--tree-complete", "2,24"),
         "complete tree would have 2^24 leaves, above the cap of 10000000"),
        # C(2000000, 65536) took 0.42 s to build
        (("count", "--brute", "--pattern-complete", "2,16", "--tree-even", "2000000"),
         "brute-force enumeration of C(2000000,65536) > 10^37 subsets needs more than 10^37 "
         "steps (C(n, k) * k + 3 * n), above the cap of 2000000"),
        # perm(100000, 100000) has 456,574 digits
        (("simplex", "--mode", "muirhead", "--d", "100000", "--k", "100000"),
         "--samples 1000 at d=100000, k=100000 needs more than 100000! work units "
         "(samples * (2 * perm(d, min(d, k)) * (k^2 * min(d, k) + 3000) + 10 * d * 3000)), "
         "above the cap of 3000000000"),
        # the k - 2 columns of the DP took 155 MiB before this refusal
        (("conjecture", "--k", "1000000", "--n-max", "1000000"),
         "levels 2..1000000 at d=2, k=1000000 need at least 249999500000000000 column "
         "additions (k - 2 per candidate of m parts, times m - 1), above the cap of 20000000"),
        # it ran 94 s at 333 MiB, 18 s of it building C(8388608, 524288)
        (("count", "--pattern-complete", "2,19", "--tree-complete", "2,23"),
         "the density of a 524288-leaf pattern in a 8388608-leaf tree needs up to 12582912 "
         "bits (min(k, n - k) * bit_length(n)), above the cap of 2250000"),
        # a star has no copy in a binary tree, but the bound is priced before
        # the count, so a count of 0 over the cap is refused as well
        (("count", "--pattern-caterpillar", "800001,800001", "--tree-complete", "2,23"),
         "the density of a 800001-leaf pattern in a 8388608-leaf tree needs up to 19200024 "
         "bits (min(k, n - k) * bit_length(n)), above the cap of 2250000"),
        # a strictly d-ary tree has 1 mod d - 1 leaves, so the size after 1 is
        # the d-leaf star: walking every size up to it took 24.8 s and exited 0
        (("enumerate", "--n", "10000001", "--d", "10000001", "--strict"),
         "enumerating strictly 10000001-ary trees with 10000001 leaves needs trees of "
         "10000001 leaves, above the cap of 10000000"),
        # it had not finished after 40 s
        (("enumerate", "--n", str(10**18 + 1), "--d", str(10**18 + 1), "--strict"),
         f"enumerating strictly {10**18 + 1}-ary trees with {10**18 + 1} leaves needs trees "
         f"of {10**18 + 1} leaves, above the cap of 10000000"),
    ],
    ids=[
        "muirhead-terms", "muirhead-draws", "muirhead-work", "muirhead-factors",
        "tree-even-leaves", "tree-caterpillar-spine", "tree-caterpillar-leaves",
        "tree-text-depth", "certify-rows", "certify-bits", "min-point", "certify-huge-k",
        "bound-sample-arity",
        "sup-k", "sup-steps", "bound-sample-k", "count-steps", "brute-subsets", "brute-steps",
        "brute-walk",
        "limits-bits",
        "conjecture-run", "search-min-run", "monotone-run", "complete-height",
        "complete-height-10", "complete-arity", "complete-24", "brute-unbuilt",
        "muirhead-unbuilt", "dp-columns", "density-bits", "density-bits-zero-count",
        "strict-star-leaves", "strict-huge-arity",
    ],
)
def test_work_over_a_cap_is_refused_before_it_starts(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    # each of these would run for seconds or take gigabytes if it started
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", f"refused: {message}\n")


@pytest.mark.parametrize(
    "argv",
    # each refusal names an amount of more than 4300 digits, which str()
    # refuses to write
    [("search-min", "--d", "2", "--k", "4", "--n-max", _zeros(4000)),
     ("monotone", "--d", "2", "--k", "4", "--n-max", _zeros(4000)),
     ("limits", "--d", "2", "--k", _zeros(2200)),
     ("simplex", "--d", "2", "--k", _zeros(2200), "--mode", "sup"),
     ("simplex", "--d", "3", "--k", _zeros(2200), "--mode", "bound-sample", "--samples", "1"),
     ("simplex", "--d", "3", "--k", _zeros(2200), "--mode", "min"),
     ("simplex", "--d", _zeros(2200), "--k", "3", "--mode", "certify"),
     ("simplex", "--d", _zeros(1500), "--k", "4", "--mode", "muirhead", "--samples", "1"),
     ("count", "--pattern", "(**)", "--tree-complete", "2,20000"),
     ("count", "--brute", "--pattern-complete", "2,12", "--tree-even", "100000")],
    ids=["search-min", "monotone", "limits", "sup", "bound-sample", "min-k", "certify-d",
         "muirhead", "complete", "brute"],
)
def test_a_refusal_of_a_huge_amount_does_not_raise(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and "Traceback" not in err


@pytest.mark.parametrize("spec", ["2", "2,3,4", "a,3", "2,", ""])
@pytest.mark.parametrize("flag", ["--tree-complete", "--tree-caterpillar"])
def test_a_malformed_tree_spec_is_a_usage_error(capsys, flag, spec):
    code, out, err = run_cli(capsys, "count", "--pattern", "(**)", flag, spec)
    assert (code, out) == (2, "")
    assert err.startswith("usage: treedensity count ")
    assert err.endswith(
        f"error: argument {flag}: expects two comma-separated integers, got {spec!r}\n"
    )


@pytest.mark.parametrize(
    "argv",
    # str() refuses ints of more than 4300 digits
    [("simplex", "--mode", "sup", "--d", "3", "--k", "10000", "--eps-steps", "2"),
     ("simplex", "--mode", "bound-sample", "--d", "3", "--k", "3000", "--samples", "1"),
     # a denominator of 5,370 digits; k = 1500 gives 535,000 in 15 s
     ("limits", "--d", "3", "--k", "150")],
)
@pytest.mark.parametrize("fmt", ["csv", "jsonl", "pretty"])
def test_values_of_over_4300_digits_are_reported(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert re.search(r"[0-9]{4301}", out)


def test_exact_commands_run_without_mpmath():
    # a child process, since this one has loaded mpmath already: no command
    # needs it, simplex --mode min included, which is exact. The import loads
    # no library module, and each command adds only the modules its report
    # needs; in this order each command's additions are exact
    script = """
import json, os, sys
import treedensity, treedensity.cli as cli
loaded = lambda: {name for name in sys.modules if name.split(".")[0] == "treedensity"}
exact = [
    "simplex --d 3 --k 4 --mode sup --eps-steps 3", "limits --d 3 --k 5",
    "count --pattern (**) --tree-complete 2,3", "search-min --d 2 --k 4 --n-max 8",
    "density --pattern (**) --tree-even 8", "enumerate --n 5 --d 2",
    "conjecture --k 4 --n-max 10", "monotone --d 2 --k 4 --n-max 10",
    "simplex --d 3 --k 4 --mode bound-sample --samples 5",
    "simplex --d 3 --k 4 --mode muirhead --samples 5",
    "simplex --d 3 --k 4 --mode min --starts 2 --budget 400",
    "simplex --d 3 --k 4 --mode certify",
]
added, codes = [sorted(loaded())], []
for line in exact:
    known = loaded()
    codes.append(cli.main(line.split() + ["--output", os.devnull]))
    added.append(sorted(loaded() - known))
print(json.dumps([codes, "mpmath" in sys.modules, added]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded_mpmath, added = json.loads(proc.stdout)
    assert [codes, loaded_mpmath] == [[0] * 12, False]
    td = "treedensity."
    assert added == [
        ["treedensity", td + "cli", td + "errors"],  # import treedensity.cli
        [td + "_partitions", td + "reporting", td + "simplex"],  # simplex --mode sup
        [td + "formulas", td + "trees"],  # limits
        [td + "counting"],  # count
        [td + "frontier", td + "search"],  # search-min
    ] + [[]] * 8


def test_commands_outside_simplex_load_no_dataclasses():
    # a child process, as this one has loaded both. SearchReport is a plain
    # class because dataclasses imports inspect, about half of reporting's
    # import time
    script = """
import json, os, sys
import treedensity.cli as cli
lines = [
    "limits --d 3 --k 5", "count --pattern (**) --tree-complete 2,3",
    "density --pattern (**) --tree-even 8", "enumerate --n 5 --d 2",
    "search-min --d 2 --k 4 --n-max 8", "conjecture --k 4 --n-max 10",
    "monotone --d 2 --k 4 --n-max 10",
]
codes = [cli.main(line.split() + ["--output", os.devnull]) for line in lines]
print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 7, []]


def test_simplex_commands_load_no_dataclasses():
    # a child process, as this one has loaded both: simplex's MinimizeResult
    # is a NamedTuple, so no mode of the command loads them either
    script = """
import json, os, sys
import treedensity.cli as cli
lines = [
    "simplex --d 3 --k 4 --mode sup --eps-steps 3", "simplex --d 3 --k 4 --mode min",
    "simplex --d 3 --k 4 --mode certify", "simplex --d 3 --k 4 --mode bound-sample --samples 5",
    "simplex --d 3 --k 4 --mode muirhead --samples 5",
]
codes = [cli.main(line.split() + ["--output", os.devnull]) for line in lines]
print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 5, []]


def test_names_the_package_does_not_export_load_no_library_module():
    # a child process, since this one has loaded the library: the import
    # system asks the package for cli before it imports the submodule, and
    # the package refuses that name, and any other name it does not export,
    # without importing a module to look for it
    script = """
import json, sys
from treedensity import cli
import treedensity
probes = [hasattr(treedensity, name) for name in ("_realmode", "cli", "no_such_name")]
print(json.dumps([callable(cli.main), probes,
                  sorted(name for name in sys.modules if name.split(".")[0] == "treedensity")]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        True, [False, True, False], ["treedensity", "treedensity.cli", "treedensity.errors"]
    ]


def test_a_library_module_is_loaded_by_its_name_on_the_package():
    # a child process, since this one has imported every module, and an
    # imported submodule is an attribute of the package that hides the
    # package's __getattr__
    script = """
import json, sys
import treedensity
before = "treedensity.counting" in sys.modules
module = treedensity.counting
print(json.dumps([before, module is sys.modules["treedensity.counting"],
                  callable(module.count_copies)]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, True]


def test_simplex_muirhead(capsys):
    code, out, _ = run_cli(
        capsys,
        "simplex",
        "--d", "3", "--k", "5",
        "--mode", "muirhead",
        "--samples", "25",
        "--format", "csv",
    )
    assert code == 0
    assert all(line.endswith(",true") for line in out.splitlines()[1:])


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_exit_code_for_parse_failure(capsys):
    code, _, err = run_cli(capsys, "count", "--pattern", "((*)", "--tree", "(**)")
    assert code == 2 and "error:" in err


def test_exit_code_for_bad_caterpillar(capsys):
    code, _, err = run_cli(
        capsys, "count", "--pattern-caterpillar", "3,4", "--tree-even", "8"
    )
    assert code == 2 and "caterpillar" in err


def test_exit_code_for_budget_refusal(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--n", "18", "--d", "2", "--max-trees", "100"
    )
    assert code == 3 and err == (
        "refused: enumerating 2-ary trees with 18 leaves keeps more than the cap of 100: "
        "there are already 192 of 1..10 leaves\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "1500", "--d", "2"],
     ["search-min", "--d", "2", "--k", "4", "--n-min", "1200", "--n-max", "1200",
      "--method", "exhaustive"],
     ["enumerate", "--n", "400", "--d", "3"]],
)
def test_budget_refusal_of_a_deep_size(capsys, argv):
    # counting the trees of a large size must not recurse once per leaf, and
    # stops at the first size over --max-trees, far below n
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and err.startswith("refused:")


def test_exit_code_for_unwritable_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "limits", "--d", "2", "--k", "4",
        "--output", str(tmp_path / "missing" / "out.csv"),
    )
    assert code == 4 and err.startswith("i/o error:")


def test_a_deep_tree_from_stdin_prints_the_bytes_of_the_family_flag():
    # 400,001 vertices: a text of 600,001 characters, past what one argv
    # string can hold; child processes, so that this one's memory stays small
    def count(*argv, text=None):
        return subprocess.run(
            [sys.executable, "-m", "treedensity.cli", "count", "--pattern-caterpillar", "2,4",
             *argv], input=text, capture_output=True, text=True, env=_checkout_env(), timeout=60,
        )

    # make_caterpillar(2, 200001).code, written without building it here
    text = "(*" * 199999 + "(**)" + ")" * 199999
    assert make_caterpillar(2, 5).code == "(*" * 3 + "(**)" + ")" * 3
    piped = count("--tree-file", "-", text=text + "\n")
    built = count("--tree-caterpillar", "2,200001")
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, built.stdout, "")
    assert built.returncode == 0


def test_a_tree_file_is_stripped_and_parsed_like_its_text(capsys, tmp_path):
    path = tmp_path / "pattern.txt"
    path.write_text("\n  ((**)*(***))\t\n", encoding="ascii")
    for fmt in ("csv", "pretty"):
        got = run_cli(capsys, "density", "--pattern-file", str(path), "--tree-complete", "3,3",
                      "--format", fmt)
        assert got == run_cli(capsys, "density", "--pattern", "(*(**)(***))",
                              "--tree-complete", "3,3", "--format", fmt)
        assert got[0] == 0


@pytest.mark.parametrize("text, message", [
    (" (*x*) ", "unexpected character 'x' (offset 2)"),
    ("(*\xe9*)", "unexpected character '\xc3' (offset 2)"),  # the first byte of its UTF-8
    ("(**)\n(**)", "trailing input after a complete tree (offset 4)"),
    ("", "empty input (offset 0)"),
])
def test_a_tree_file_parse_error_names_the_byte_offset(capsys, tmp_path, text, message):
    path = tmp_path / "tree.txt"
    path.write_bytes(text.encode())
    code, out, err = run_cli(capsys, "count", "--pattern", "(**)", "--tree-file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_unreadable_tree_file_is_an_io_error(capsys, tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run_cli(capsys, "count", "--pattern-file", str(path), "--tree", "(**)")
        assert (code, out) == (4, "")
        assert err.startswith("i/o error:") and "Traceback" not in err


def test_a_tree_file_over_the_text_cap_is_refused_unread(capsys, monkeypatch, tmp_path):
    # read_tree reads one byte past the cap, so a longer file is never held
    # whole; the cap and the text within it are checked before parsing
    monkeypatch.setattr(trees, "TEXT_CAP", 12)
    path = tmp_path / "tree.txt"
    path.write_text("(*(*(*(**))))", encoding="ascii")  # 13 characters
    code, out, err = run_cli(capsys, "count", "--pattern", "(**)", "--tree-file", str(path))
    assert (code, out, err) == (
        3, "", "refused: tree text is longer than the cap of 12 characters\n"
    )
    path.write_text("  (*(*(**)))  \n", encoding="ascii")  # 15 bytes, 10 once stripped
    code, out, err = run_cli(capsys, "count", "--pattern", "(**)", "--tree-file", str(path))
    assert (code, out) == (3, "")
    path.write_text(" (*(*(**))) ", encoding="ascii")  # 12 bytes
    assert run_cli(capsys, "count", "--pattern", "(**)", "--tree-file", str(path))[0] == 0


def test_argparse_failures_return_their_exit_code(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "enumerate", "--n", "4")[0] == 2  # missing --d
    # the tree source flags are mutually exclusive
    code, _, _ = run_cli(
        capsys,
        "count",
        "--pattern", "(**)",
        "--pattern-even", "4",
        "--tree-even", "8",
    )
    assert code == 2


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    for fmt in ("csv", "jsonl", "pretty"):
        args = (
            "search-min", "--d", "2", "--k", "5",
            "--n-min", "5", "--n-max", "12",
            "--format", fmt,
        )
        outs = {run_cli(capsys, *args)[1] for _ in range(2)}
        assert len(outs) == 1

    target = tmp_path / "report.csv"
    args = (
        "simplex", "--d", "3", "--k", "3",
        "--mode", "min", "--starts", "2", "--budget", "4000",
        "--format", "csv", "--output", str(target),
    )
    assert main(list(args)) == 0
    first = target.read_bytes()
    assert main(list(args)) == 0
    assert target.read_bytes() == first
    assert b"point" in first.splitlines()[0]


def test_console_script_entry_point():
    # Run the [project.scripts] target the way an installed console script
    # would, in a child process, against the same checkout this test imported.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["treedensity"]
    module, attr = target.split(":")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr} as f; sys.exit(f())",
            "limits", "--d", "3", "--k", "3", "--format", "csv",
        ],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "3,3,2,3/4,0.75"


def test_default_format_is_pretty(capsys):
    code, out, _ = run_cli(capsys, "limits", "--d", "2", "--k", "4")
    assert code == 0
    assert out.startswith("mode: limits\n")
    assert "4/7" in out


# ---------------------------------------------------------------------------
# parser construction


def test_the_parser_is_built_once_and_keeps_no_call_state(capsys, monkeypatch):
    # the first call builds every subcommand's arguments, and later calls
    # reuse that parser without adding to it
    cli.build_parser.cache_clear()
    add_argument = argparse._ActionsContainer.add_argument
    received = []

    def spy(container, *args, **kwargs):
        received.append((getattr(container, "prog", None), args))
        return add_argument(container, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    brute = ("count", "--brute", "--pattern-caterpillar", "2,3", "--tree-even", "6")
    code, out, _ = run_cli(capsys, *brute, "--format", "csv")
    assert code == 0 and out
    # the tree flags' mutually exclusive groups have no prog
    assert {prog for prog, _ in received} - {None} == {"treedensity"} | {
        f"treedensity {name}" for name in cli._COMMANDS
    }
    assert ("--brute",) in [args for prog, args in received if prog == "treedensity density"]
    received.clear()
    code, out, _ = run_cli(capsys, "limits", "--d", "2", "--k", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("2,3,")
    assert received == []
    parser = cli.build_parser()
    assert parser.parse_args([*brute, "--format", "csv"]).brute is True
    args = parser.parse_args(["limits", "--d", "2", "--k", "3"])
    assert not hasattr(args, "brute")
    assert (args.command, args.d, args.k, args.r) == ("limits", 2, 3, 2)
