import numpy as np
import pytest

from cshd.exceptions import ParameterError
from cshd.report import CSV_HEADER, ExperimentReport, ReportRow, fmt_float, fmt_point


def _row(function="f", point="1,2", set_name="cb", h=0.1, **kw):
    defaults = dict(
        delta_s=0.1,
        rer_diag=1.2345678901234567e-7,
        abs_err_diag=3.3e-4,
        rer_grad=None,
        bound_total=None,
        bound_cross=None,
        evals=5,
    )
    defaults.update(kw)
    return ReportRow(function=function, point=point, set_name=set_name, h=h, **defaults)


def test_fmt_float_roundtrips():
    rng = np.random.default_rng(20)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt_float(x)) == x


def test_fmt_point():
    assert fmt_point([1.0, -2.5]) == "1,-2.5"


def test_csv_roundtrip_is_exact():
    rows = [
        _row(h=1e-3, rer_diag=2.0193838852358603e-07, bound_total=0.25, bound_cross=440.0),
        _row(h=1e-2, point="0.9,0.81", rer_grad=1.1e-9),
    ]
    rep = ExperimentReport(rows, ["fitted_order=2.0000000000000018", "best_h=0.001"])
    back = ExperimentReport.from_csv(rep.render("csv"))
    assert back.rows == sorted(rows, key=lambda r: (r.function, r.point, r.set_name, -r.h)) or back.rows == rows
    for a, b in zip(rows, back.rows):
        assert a == b
    assert back.summary()["fitted_order"] == "2.0000000000000018"


def test_point_field_with_commas_survives_csv():
    rep = ExperimentReport([_row(point="1.1000000000000001,1.21001")])
    back = ExperimentReport.from_csv(rep.render("csv"))
    assert back.rows[0].point == "1.1000000000000001,1.21001"


def test_sort_invariant():
    rows = [
        _row(function="b", h=1e-2),
        _row(function="a", h=1e-3),
        _row(function="a", h=1e-1),
    ]
    rep = ExperimentReport(list(rows)).sort()
    assert [r.function for r in rep.rows] == ["a", "a", "b"]
    assert rep.rows[0].h > rep.rows[1].h


def test_markdown_render():
    text = ExperimentReport([_row()], ["note=1"]).render("md")
    lines = text.splitlines()
    assert lines[0].startswith("| function |")
    assert lines[1].startswith("|---")
    assert "- note=1" in lines


def test_render_rejects_unknown_format():
    with pytest.raises(ParameterError):
        ExperimentReport([_row()]).render("yaml")


def test_from_csv_rejects_wrong_header():
    with pytest.raises(ParameterError):
        ExperimentReport.from_csv("a,b,c\n1,2,3\n")
    assert CSV_HEADER[0] == "function" and CSV_HEADER[-1] == "evals"
