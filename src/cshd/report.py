"""Tabular experiment reports with CSV and markdown rendering.

A table's row is a ``NamedTuple`` whose ``_fields`` are its schema: the
header, written by :func:`as_record` and parsed by declared type.  Floats
carry 17 significant digits, so parsing a report back reproduces every
numeric field exactly.  Summary values are ``key=value`` comment lines from
:func:`summary_lines`.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .exceptions import ParameterError

__all__ = ["CSV_HEADER", "FORMATS", "ReportRow", "ExperimentReport", "as_record", "fmt_float",
           "fmt_point", "render_table", "summary_lines"]

FORMATS = ("csv", "md")


def fmt_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trips exactly)."""
    return "%.17g" % float(x)


def fmt_point(p) -> str:
    """Comma-joined full-precision coordinates."""
    return ",".join(["%.17g" % v for v in np.asarray(p, dtype=float).tolist()])


def _texts(values) -> list[str]:
    """``None`` as empty, floats as :func:`fmt_float` writes them (inlined: a
    call per value makes the records ~10% slower), anything else with ``str``."""
    return ["" if v is None else "%.17g" % v if isinstance(v, float) else str(v) for v in values]


def as_record(row) -> list[str]:
    """A row of any report table as text, its fields in declaration order."""
    return _texts(row)


def summary_lines(**values) -> list[str]:
    """``key=value`` lines written as :func:`as_record` writes values, booleans
    as ``true``/``false``."""
    texts = _texts(str(v).lower() if isinstance(v, (bool, np.bool_)) else v
                   for v in values.values())
    return [f"{key}={text}" for key, text in zip(values, texts)]


def render_table(header: list[str], records, comments, fmt: str) -> str:
    """A table of string records in one of :data:`FORMATS`: CSV with the
    comments as trailing ``# key=value`` lines, or a markdown table with the
    comments as ``- key=value`` list items."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)
        buf.writelines(f"# {c}\n" for c in comments)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines.extend("| " + " | ".join(r) + " |" for r in records)
        lines.extend(f"- {c}" for c in comments)
        return "\n".join(lines) + "\n"
    raise ParameterError(f"unknown report format {fmt!r} (expected {' or '.join(FORMATS)})")


class ReportRow(NamedTuple):
    """A row of an approx, sweep or limit-study report; the fields are the header."""

    function: str
    point: str  # comma-joined coordinates
    set: str
    h: float
    delta_s: float
    rer_diag: float | None
    abs_err_diag: float | None
    rer_grad: float | None
    bound_total: float | None
    bound_cross: float | None
    evals: int


CSV_HEADER = list(ReportRow._fields)

# Keyed on the annotation text, which NamedTuple keeps as a str or as the
# argument of a typing.ForwardRef, depending on the Python version.
_PARSERS = {"str": str, "int": int, "float": float,
            "float | None": lambda v: float(v) if v else None}
_ROW_KINDS = [(name, getattr(t, "__forward_arg__", t))
              for name, t in ReportRow.__annotations__.items()]
_ROW_PARSERS = [(name, kind, _PARSERS[kind]) for name, kind in _ROW_KINDS]


def _parse_row(lineno: int, record: list[str]) -> ReportRow:
    if len(record) != len(_ROW_PARSERS):
        raise ParameterError(f"report line {lineno}: expected {len(_ROW_PARSERS)} fields, "
                             f"got {len(record)}")
    values = []
    for (name, kind, parse), text in zip(_ROW_PARSERS, record):
        try:
            values.append(parse(text))
        except ValueError:
            raise ParameterError(
                f"report line {lineno}: {name} must be {kind}, got {text!r}") from None
    return ReportRow(*values)


class ExperimentReport(NamedTuple):
    """Rows of experiment results plus key=value summary comments."""

    rows: Sequence[ReportRow] = ()
    comments: Sequence[str] = ()

    def summary(self) -> dict[str, str]:
        """The ``key=value`` comments as a dict of their text."""
        pairs = (c.partition("=") for c in self.comments)
        return {key.strip(): value.strip() for key, _, value in pairs}

    def render(self, fmt: str = "csv") -> str:
        return render_table(CSV_HEADER, map(as_record, self.rows), self.comments, fmt)

    @staticmethod
    def from_csv(text: str) -> "ExperimentReport":
        """Parse a CSV report; a malformed record raises a
        :class:`ParameterError` naming its line."""
        comments, records = [], []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.startswith("#"):
                comments.append(line.lstrip("#").strip())
            elif line.strip():
                records.append((lineno, next(csv.reader([line]))))
        if not records:
            raise ParameterError("empty report")
        if records[0][1] != CSV_HEADER:
            raise ParameterError(f"unexpected report header: {records[0][1]!r}")
        return ExperimentReport([_parse_row(*r) for r in records[1:]], comments)
