"""Deterministic report rendering."""

import json
from fractions import Fraction

import pytest

from treedensity import SearchReport, render_report
from treedensity.reporting import decimal_str, fraction_str, render_cell


def _sample_report():
    return SearchReport(
        mode="demo",
        params={"k": 4, "d": 2},
        columns=("n", "ratio", "ok", "label"),
        rows=[(4, Fraction(1, 3), True, "x"), (5, Fraction(2, 5), False, "y z")],
        all_ok=False,
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
    assert decimal_str(Fraction(1, 3)) == "0.333333333333"
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


def test_values_past_the_int_string_limit_render_in_every_format():
    # str() refuses ints of more than 4300 digits; these digits are known
    # from how the ints are built, not from converting them
    num, den = 10**5000 + 1, 2**13
    num_text = "1" + "0" * 4999 + "1"
    report = SearchReport(
        mode="big", params={}, columns=("value", "count"), rows=[(Fraction(num, den), num)]
    )
    assert render_report(report, "csv") == f"value,count\n{num_text}/8192,{num_text}\n"
    assert render_report(report, "jsonl") == f'{{"count":{num_text},"value":"{num_text}/8192"}}\n'
    rows = render_report(report, "pretty").splitlines()[2:]
    assert rows[-1] == f"{num_text}/8192  {num_text}"


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        render_report(_sample_report(), "xml")


def test_verdict_line_only_when_a_verdict_exists():
    rep = _sample_report()
    rep.all_ok = None
    assert "verdict" not in render_report(rep, "pretty")
    rep.all_ok = True
    assert render_report(rep, "pretty").splitlines()[-1] == "verdict: all checks passed"
