"""Search reports and their deterministic renderings.

A SearchReport is a small table plus context: which mode produced it, the
parameters, column names, rows, and an overall verdict where one applies.
Rendering is bit-stable by construction. Each cell type has one writer in
one table: bools as ``true``/``false``, ints in full, fractions as
``num/den`` and floats through a 12-significant-digit decimal path. The csv
and pretty renderings convert a report a column at a time: a column whose
cells all have one of the table's exact types goes through its writer in one
``map``, and any other column cell by cell through :func:`render_cell`, which
dispatches through the same table. A report holds no timestamps or timings,
so two runs with the same configuration produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat

from .errors import PreconditionError, int_str

__all__ = ["SearchReport", "render_report"]

FORMATS = ("csv", "jsonl", "pretty")


def fraction_str(q: Fraction) -> str:
    """``num/den`` in lowest terms, always with an explicit denominator."""
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def decimal_str(x) -> str:
    """Deterministic decimal rendering with 12 significant digits.

    Fractions and ints go through the decimal module so the result does not
    depend on binary float rounding; floats are formatted with a fixed
    significant-digit count.
    """
    if isinstance(x, int):
        return int_str(x)
    if isinstance(x, Fraction):
        with localcontext() as ctx:
            ctx.prec = 12
            d = Decimal(x.numerator) / Decimal(x.denominator)
        return format(d.normalize(), "f")
    return f"{float(x):.12g}"


def bool_str(b: bool) -> str:
    return "true" if b else "false"


# each cell type's one writer, found by a cell's exact type; render_cell
# writes a cell of a subclass, such as an IntEnum, by the first type here it
# is an instance of, and any other cell by str()
_WRITERS = {bool: bool_str, int: int_str, Fraction: fraction_str, float: decimal_str, str: str}


def render_cell(value) -> str:
    write = _WRITERS.get(type(value))
    if write is None:
        write = next((w for kind, w in _WRITERS.items() if isinstance(value, kind)), str)
    return write(value)


def _column_cells(column: tuple) -> list[str]:
    """A column's cells as text: one writer mapped over a column of one
    exact type in the writer table, render_cell over any other."""
    kinds = set(map(type, column))
    write = _WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(write or render_cell, column))


class SearchReport:
    """Tabular result of a search or verification sweep.

    ``rows`` hold raw values (ints, Fractions, bools, strings); conversion to
    text happens at render time. ``all_ok`` is None for modes that have no
    verdict semantics. A plain class, not a dataclass: ``dataclasses``
    imports ``inspect``, about half of this module's import time.
    """

    def __init__(
        self,
        mode: str,
        params: dict,
        columns: tuple[str, ...],
        rows: list[tuple],
        all_ok: bool | None = None,
    ):
        self.mode = mode
        self.params = params
        self.columns = columns
        self.rows = rows
        self.all_ok = all_ok

    def cell_columns(self) -> list[list[str]]:
        """Each column's cells as text, columns in order."""
        columns = zip(*self.rows) if self.rows else repeat((), len(self.columns))
        return list(map(_column_cells, columns))


def render_csv(report: SearchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows(zip(*report.cell_columns()))
    return buf.getvalue()


def _jsonable(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return int_str(value)
    plain = isinstance(value, (bool, str)) or value is None
    return json.dumps(value if plain else render_cell(value))


def render_jsonl(report: SearchReport) -> str:
    # each row's keys sorted, its cells written one by one: json.dumps would
    # write an int with str()
    order = sorted(zip(report.columns, range(len(report.columns))))
    keys = [(json.dumps(c) + ":", i) for c, i in order]
    return "".join(
        "{" + ",".join(key + _jsonable(row[i]) for key, i in keys) + "}\n" for row in report.rows
    )


def render_pretty(report: SearchReport) -> str:
    cells = report.cell_columns()
    widths = [max(max(map(len, column), default=0), len(col))
              for col, column in zip(report.columns, cells)]
    out = [f"mode: {report.mode}"]
    if report.params:
        out.append(
            "params: " + ", ".join(f"{k}={report.params[k]}" for k in sorted(report.params))
        )
    header = "  ".join(col.ljust(w) for col, w in zip(report.columns, widths)).rstrip()
    out.append(header)
    out.append("-" * len(header))
    # each line is stripped on the right, so the last column needs no padding
    padded = [map(str.ljust, column, repeat(w)) for column, w in zip(cells[:-1], widths)]
    out.extend(line.rstrip() for line in map("  ".join, zip(*padded, *cells[-1:])))
    if report.all_ok is not None:
        out.append(f"verdict: {'all checks passed' if report.all_ok else 'CHECK FAILED'}")
    return "".join(line + "\n" for line in out)


_RENDERERS = {"csv": render_csv, "jsonl": render_jsonl, "pretty": render_pretty}


def render_report(report: SearchReport, fmt: str) -> str:
    """Render in one of :data:`FORMATS`; same report and format, same bytes."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise PreconditionError(f"unknown format {fmt!r}, expected one of {FORMATS}") from None
    return renderer(report)
