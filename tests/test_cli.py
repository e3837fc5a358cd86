"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treedensity
from treedensity import ConsistencyError, formulas, search
from treedensity.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_search_min_methods_agree(capsys, tmp_path):
    base = ("search-min", "--d", "2", "--k", "4", "--n", "9", "--format", "csv")
    code_a, out_a, _ = run_cli(capsys, *base, "--method", "exhaustive")
    code_b, out_b, _ = run_cli(
        capsys, *base, "--method", "pareto", "--cache-dir", str(tmp_path)
    )
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
    real = search.caterpillar_counts_of_code

    def one_too_many(code, k, memo):
        leaves, outdegree, counts = real(code, k, memo)
        return leaves, outdegree, counts[:-1] + (counts[-1] + 1,)

    monkeypatch.setattr(search, "caterpillar_counts_of_code", one_too_many)
    code, out, err = run_cli(
        capsys, "search-min", "--d", "2", "--k", "4", "--n", "8", "--method", "pareto"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: consistency check failed: 4-caterpillar count of witness")
    assert "Traceback" not in err


def test_search_min_requires_a_range(capsys):
    code, _, err = run_cli(capsys, "search-min", "--d", "2", "--k", "4")
    assert code == 2 and "--n" in err


def test_search_min_general_d_gate(capsys):
    # --general-d is accepted and changes nothing: pareto runs for every d
    args = ("search-min", "--d", "3", "--k", "4", "--n", "8", "--method", "pareto")
    without = run_cli(capsys, *args, "--format", "csv")
    assert without == run_cli(capsys, *args, "--general-d", "--format", "csv")
    code, out, err = without
    assert code == 0 and err == ""
    # star-built ternary hosts dodge the binary 4-caterpillar entirely
    assert out.splitlines()[1].split(",")[1] == "0"


def test_conjecture_and_monotone_exit_clean(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "conjecture",
        "--k", "4",
        "--n-max", "12",
        "--cache-dir", str(tmp_path),
        "--format", "pretty",
    )
    assert code == 0
    assert out.splitlines()[-1] == "verdict: all checks passed"

    code, out, _ = run_cli(
        capsys, "monotone", "--d", "2", "--k", "4", "--n-max", "10", "--format", "csv"
    )
    assert code == 0
    assert all(line.endswith("true,true") for line in out.splitlines()[1:])


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
    assert f"{flag} must be >= 1, got 0" in err


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
# cache administration


def test_cache_inspect_and_clear(capsys, tmp_path):
    run_cli(
        capsys,
        "search-min",
        "--d", "2", "--k", "4", "--n", "8",
        "--method", "pareto",
        "--cache-dir", str(tmp_path),
    )
    assert len(list(tmp_path.glob("frontier_*.jsonl"))) == 8

    code, out, _ = run_cli(capsys, "cache", "--cache-dir", str(tmp_path), "--format", "csv")
    assert code == 0
    _, files, size = out.splitlines()[1].rsplit(",", 2)
    assert int(files) == 8 and int(size) > 0

    code, out, _ = run_cli(
        capsys, "cache", "--cache-dir", str(tmp_path), "--clear", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1].rsplit(",", 2)[1] == "0"
    assert list(tmp_path.glob("frontier_*.jsonl")) == []


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TREEDENSITY_CACHE_DIR", str(tmp_path / "envcache"))
    run_cli(
        capsys,
        "search-min", "--d", "2", "--k", "4", "--n", "6", "--method", "pareto",
    )
    assert len(list((tmp_path / "envcache").glob("frontier_*.jsonl"))) == 6


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
    assert code == 3 and err.startswith("refused:") and "56011" in err


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "1500", "--d", "2"],
     ["search-min", "--d", "2", "--k", "4", "--n", "1200", "--method", "exhaustive"]],
)
def test_budget_refusal_of_a_deep_size(capsys, argv):
    # counting the trees of a large size must not recurse once per leaf
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and err.startswith("refused:")


def test_exit_code_for_unwritable_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "limits", "--d", "2", "--k", "4",
        "--output", str(tmp_path / "missing" / "out.csv"),
    )
    assert code == 4 and err.startswith("i/o error:")


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
    src = str(Path(treedensity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr} as f; sys.exit(f())",
            "limits", "--d", "3", "--k", "3", "--format", "csv",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "3,3,2,3/4,0.75"


def test_default_format_is_pretty(capsys):
    code, out, _ = run_cli(capsys, "limits", "--d", "2", "--k", "4")
    assert code == 0
    assert out.startswith("mode: limits\n")
    assert "4/7" in out
