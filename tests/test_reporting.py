"""Deterministic report rendering."""

import csv
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from treedensity import PreconditionError, SearchReport, render_report
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
    message = r"^unknown format 'xml', expected one of \('csv', 'jsonl', 'pretty'\)$"
    with pytest.raises(PreconditionError, match=message):
        render_report(_sample_report(), "xml")


def test_verdict_line_only_when_a_verdict_exists():
    rep = _sample_report()
    rep.all_ok = None
    assert "verdict" not in render_report(rep, "pretty")
    rep.all_ok = True
    assert render_report(rep, "pretty").splitlines()[-1] == "verdict: all checks passed"


# ---------------------------------------------------------------------------
# column conversion against a per-cell oracle


def _oracle_cell(value) -> str:
    """A cell's text by the per-cell rules, one cell at a time."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(Decimal(value))  # str() refuses more than 4300 digits
    if isinstance(value, Fraction):
        return f"{_oracle_cell(value.numerator)}/{_oracle_cell(value.denominator)}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _oracle_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows([_oracle_cell(v) for v in row] for row in report.rows)
    return buf.getvalue()


def _oracle_pretty(report):
    cells = [[_oracle_cell(v) for v in row] for row in report.rows]
    widths = [len(c) for c in report.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"mode: {report.mode}"]
    if report.params:
        lines.append("params: " + ", ".join(f"{k}={report.params[k]}" for k in sorted(report.params)))
    header = "  ".join(c.ljust(w) for c, w in zip(report.columns, widths)).rstrip()
    lines += [header, "-" * len(header)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    if report.all_ok is not None:
        lines.append("verdict: " + ("all checks passed" if report.all_ok else "CHECK FAILED"))
    return "".join(line + "\n" for line in lines)


def _oracle_jsonl(report):
    def value(v):
        if isinstance(v, int) and not isinstance(v, bool):
            return _oracle_cell(v)
        return json.dumps(v if isinstance(v, (bool, str)) or v is None else _oracle_cell(v))
    return "".join(
        "{" + ",".join(f"{json.dumps(c)}:{value(row[i])}"
                       for c, i in sorted(zip(report.columns, range(len(report.columns)))))
        + "}\n"
        for row in report.rows
    )


_BIG = 10**5000 + 1


class _Count(int):
    pass


class _Label(str):
    pass


@pytest.mark.parametrize("columns, rows", [
    # a bool in an int column, before and after the ints
    (("n", "flag"), [(True, 1), (3, 0), (17, 2)]),
    (("n", "flag"), [(3, 5), (False, 0), (-2, True)]),
    # ints and strs mixed in one column, with None and a cell csv quotes
    (("mixed", "label"), [(1, "a"), ("b,c", 22), (None, 'say "x"'), (4, "")]),
    (("x", "y"), [(0.5, 1e-7), (2 / 3, -0.0), (1e20, 3.0)]),
    # past the 4300 digits that str() writes, in columns of several rows
    (("count", "value"), [(_BIG, Fraction(_BIG, 2**13)), (5, Fraction(-1, 3)),
                          (-(10**4301), Fraction(7, 10**4400 + 3))]),
    # the last column's trailing spaces and empty cells are stripped with
    # the line, and a wide header sets its column's width
    (("a", "a long header", "last"), [("x", 1, "y  "), ("wide cell", 2, ""), ("", 3, " ")]),
    # subclasses of the writers' types, alone in their columns
    (("count", "label"), [(_Count(3), _Label("a")), (_Count(10**4400), _Label("b"))]),
    (("one", "row"), [(Fraction(3, 4), "only")]),
    (("no", "rows"), []),
], ids=["bool-then-int", "int-then-bool", "int-and-str", "floats", "past-4300-digits",
        "stripped-last-column", "subclasses", "one-row", "zero-rows"])
@pytest.mark.parametrize("all_ok", [None, True])
def test_columns_render_as_the_per_cell_oracle(columns, rows, all_ok):
    report = SearchReport(mode="demo", params={"k": 3}, columns=columns, rows=rows,
                          all_ok=all_ok)
    assert render_report(report, "pretty") == _oracle_pretty(report)
    assert render_report(report, "csv") == _oracle_csv(report)
    assert render_report(report, "jsonl") == _oracle_jsonl(report)

