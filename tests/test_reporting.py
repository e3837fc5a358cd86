"""Deterministic report rendering."""

import json
from fractions import Fraction

import pytest

from treedensity import SearchReport, render_report
from treedensity.reporting import decimal_str, fraction_str, render_cell


def _sample_report(wall_time=0.0):
    return SearchReport(
        mode="demo",
        params={"k": 4, "d": 2},
        columns=("n", "ratio", "ok", "label"),
        rows=[(4, Fraction(1, 3), True, "x"), (5, Fraction(2, 5), False, "y z")],
        all_ok=False,
        wall_time=wall_time,
    )


def test_fraction_str():
    assert fraction_str(Fraction(3, 4)) == "3/4"
    assert fraction_str(Fraction(5)) == "5/1"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"


def test_decimal_str():
    assert decimal_str(5) == "5"
    assert decimal_str(Fraction(1, 4)) == "0.25"
    assert decimal_str(Fraction(3, 4)) == "0.75"
    assert decimal_str(Fraction(2, 3)) == "0.666666666667"
    assert decimal_str(Fraction(9, 14)) == "0.642857142857"
    assert decimal_str(Fraction(1, 1)) == "1"
    assert decimal_str(Fraction(1, 3), digits=4) == "0.3333"
    assert decimal_str(0.5) == "0.5"
    assert decimal_str(1e-7) == "1e-07"


def test_render_cell_types():
    assert render_cell(True) == "true"
    assert render_cell(False) == "false"
    assert render_cell(7) == "7"
    assert render_cell(Fraction(1, 2)) == "1/2"
    assert render_cell("code") == "code"
    assert render_cell(0.25) == "0.25"


def test_render_csv():
    text = render_report(_sample_report(), "csv")
    assert text.splitlines() == [
        "n,ratio,ok,label",
        "4,1/3,true,x",
        "5,2/5,false,y z",
    ]
    assert text.endswith("\n")


def test_render_jsonl():
    lines = render_report(_sample_report(), "jsonl").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"n": 4, "ratio": "1/3", "ok": True, "label": "x"}
    # keys are emitted sorted for byte stability
    assert lines[0].index('"label"') < lines[0].index('"n"') < lines[0].index('"ok"')


def test_render_pretty():
    text = render_report(_sample_report(), "pretty")
    lines = text.splitlines()
    assert lines[0] == "mode: demo"
    assert lines[1] == "params: d=2, k=4"
    assert lines[-1] == "verdict: CHECK FAILED"
    assert not any(line != line.rstrip() for line in lines)


def test_wall_time_never_reaches_any_rendering():
    fast, slow = _sample_report(wall_time=0.001), _sample_report(wall_time=99.5)
    for fmt in ("csv", "jsonl", "pretty"):
        assert render_report(fast, fmt) == render_report(slow, fmt)


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        render_report(_sample_report(), "xml")


def test_verdict_line_only_when_a_verdict_exists():
    rep = _sample_report()
    rep.all_ok = None
    assert "verdict" not in render_report(rep, "pretty")
    rep.all_ok = True
    assert render_report(rep, "pretty").splitlines()[-1] == "verdict: all checks passed"
