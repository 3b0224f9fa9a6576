"""Tabular experiment reports with CSV and markdown rendering.

The CSV schema is fixed (see ``CSV_HEADER``); floats are serialized with 17
significant digits so that parsing a report back reproduces every numeric
field exactly.  Summary values (fitted orders, plateau estimates, ...) are
carried as ``key=value`` comment lines rendered with a leading ``#``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ParameterError

__all__ = ["CSV_HEADER", "FORMATS", "ReportRow", "ExperimentReport", "fmt_float", "fmt_point",
           "render_table"]

FORMATS = ("csv", "md")

CSV_HEADER = [
    "function",
    "point",
    "set",
    "h",
    "delta_s",
    "rer_diag",
    "abs_err_diag",
    "rer_grad",
    "bound_total",
    "bound_cross",
    "evals",
]


def fmt_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trips exactly)."""
    return "%.17g" % float(x)


def fmt_point(p) -> str:
    """Comma-joined full-precision coordinates."""
    return ",".join(fmt_float(v) for v in np.asarray(p, dtype=float))


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


@dataclass(frozen=True)
class ReportRow:
    function: str
    point: str  # comma-joined coordinates
    set_name: str
    h: float
    delta_s: float
    rer_diag: float | None
    abs_err_diag: float | None
    rer_grad: float | None
    bound_total: float | None
    bound_cross: float | None
    evals: int

    def as_record(self) -> list[str]:
        def opt(v):
            return "" if v is None else fmt_float(v)

        return [
            self.function,
            self.point,
            self.set_name,
            fmt_float(self.h),
            fmt_float(self.delta_s),
            opt(self.rer_diag),
            opt(self.abs_err_diag),
            opt(self.rer_grad),
            opt(self.bound_total),
            opt(self.bound_cross),
            str(self.evals),
        ]


@dataclass
class ExperimentReport:
    """Rows of experiment results plus key=value summary comments."""

    rows: list[ReportRow] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)

    def sort(self) -> "ExperimentReport":
        """Order rows by (function, point, set, descending h), in place."""
        self.rows.sort(key=lambda r: (r.function, r.point, r.set_name, -r.h))
        return self

    def summary(self) -> dict[str, str]:
        out = {}
        for c in self.comments:
            key, _, value = c.partition("=")
            out[key.strip()] = value.strip()
        return out

    def render(self, fmt: str = "csv") -> str:
        return render_table(CSV_HEADER, (row.as_record() for row in self.rows), self.comments, fmt)

    @staticmethod
    def from_csv(text: str) -> "ExperimentReport":
        comments = []
        data_lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                comments.append(line.lstrip("#").strip())
            elif line.strip():
                data_lines.append(line)
        if not data_lines:
            raise ParameterError("empty report")
        records = list(csv.reader(io.StringIO("\n".join(data_lines))))
        if records[0] != CSV_HEADER:
            raise ParameterError(f"unexpected report header: {records[0]!r}")

        def opt(v):
            return None if v == "" else float(v)

        rows = [
            ReportRow(
                function=r[0],
                point=r[1],
                set_name=r[2],
                h=float(r[3]),
                delta_s=float(r[4]),
                rer_diag=opt(r[5]),
                abs_err_diag=opt(r[6]),
                rer_grad=opt(r[7]),
                bound_total=opt(r[8]),
                bound_cross=opt(r[9]),
                evals=int(r[10]),
            )
            for r in records[1:]
        ]
        return ExperimentReport(rows, comments)

