"""Search reports and their deterministic renderings.

A SearchReport is a small table plus context: which mode produced it, the
parameters, column names, rows, and an overall verdict where one applies.
Rendering is bit-stable by construction. Cells are converted to text through
one function (:func:`render_cell`) with fixed formatting rules, fractions are
printed as ``num/den``, reals through a 12-significant-digit decimal path,
and no timestamps or timings ever enter rendered output. The ``wall_time``
field on the report is informational only; emitters skip it so that two runs
with the same configuration produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any

__all__ = [
    "SearchReport",
    "fraction_str",
    "decimal_str",
    "render_cell",
    "render_csv",
    "render_jsonl",
    "render_pretty",
    "render_report",
    "FORMATS",
]

FORMATS = ("csv", "jsonl", "pretty")


def fraction_str(q: Fraction) -> str:
    """``num/den`` in lowest terms, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def decimal_str(x, digits: int = 12) -> str:
    """Deterministic decimal rendering with ``digits`` significant digits.

    Fractions and ints go through the decimal module so the result does not
    depend on binary float rounding; floats (and mpmath values) are formatted
    with a fixed significant-digit count.
    """
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(x.numerator) / Decimal(x.denominator)
        return format(d.normalize(), "f")
    return f"{float(x):.{digits}g}"


def render_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, float):
        return decimal_str(value)
    return str(value)


@dataclass
class SearchReport:
    """Tabular result of a search or verification sweep.

    ``rows`` hold raw values (ints, Fractions, bools, strings); conversion to
    text happens at render time. ``all_ok`` is None for modes that have no
    verdict semantics. ``wall_time`` is seconds spent producing the report
    and is deliberately excluded from every rendering.
    """

    mode: str
    params: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    all_ok: bool | None = None
    wall_time: float = 0.0

    def cell_rows(self) -> list[list[str]]:
        return [[render_cell(v) for v in row] for row in self.rows]


def render_csv(report: SearchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows(report.cell_rows())
    return buf.getvalue()


def _jsonable(value) -> Any:
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return decimal_str(value)
    return str(value)


def render_jsonl(report: SearchReport) -> str:
    lines = []
    for row in report.rows:
        obj = {col: _jsonable(v) for col, v in zip(report.columns, row)}
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def render_pretty(report: SearchReport) -> str:
    cells = report.cell_rows()
    widths = [len(c) for c in report.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [f"mode: {report.mode}"]
    if report.params:
        out.append(
            "params: " + ", ".join(f"{k}={report.params[k]}" for k in sorted(report.params))
        )
    header = "  ".join(col.ljust(w) for col, w in zip(report.columns, widths))
    out.append(header.rstrip())
    out.append("-" * len(header.rstrip()))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if report.all_ok is not None:
        out.append(f"verdict: {'all checks passed' if report.all_ok else 'CHECK FAILED'}")
    return "".join(line + "\n" for line in out)


_RENDERERS = {"csv": render_csv, "jsonl": render_jsonl, "pretty": render_pretty}


def render_report(report: SearchReport, fmt: str) -> str:
    """Render in one of :data:`FORMATS`; same report and format, same bytes."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}") from None
    return renderer(report)
