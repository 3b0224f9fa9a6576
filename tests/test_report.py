import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshd.exceptions import ParameterError
from cshd.report import (CSV_HEADER, ExperimentReport, ReportRow, fmt_float, fmt_point,
                         summary_lines)


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
    return ReportRow(function=function, point=point, set=set_name, h=h, **defaults)


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
    assert back.rows == sorted(rows, key=lambda r: (r.function, r.point, r.set, -r.h)) or back.rows == rows
    for a, b in zip(rows, back.rows):
        assert a == b
    assert back.summary()["fitted_order"] == "2.0000000000000018"


def test_point_field_with_commas_survives_csv():
    rep = ExperimentReport([_row(point="1.1000000000000001,1.21001")])
    back = ExperimentReport.from_csv(rep.render("csv"))
    assert back.rows[0].point == "1.1000000000000001,1.21001"


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


@pytest.mark.parametrize(
    "record, match",
    [
        ('f,"1,2",cb,0.1,0.1,,,,,', "line 2: expected 11 fields, got 10"),
        ('f,"1,2",cb,0.1,0.1,,,,,,5,6', "line 2: expected 11 fields, got 12"),
        ('f,"1,2",cb,abc,0.1,,,,,,5', "line 2: h must be float, got 'abc'"),
        ('f,"1,2",cb,0.1,0.1,,,,,,5.5', "line 2: evals must be int, got '5.5'"),
    ],
    ids=["short", "long", "non-numeric-h", "non-integer-evals"],
)
def test_from_csv_names_the_line_of_a_malformed_record(record, match):
    header = ",".join(CSV_HEADER)
    valid = 'f,"1,2",cb,0.1,0.1,,,,,,5'
    assert ExperimentReport.from_csv(f"{header}\n{valid}\n").rows == [
        _row(delta_s=0.1, rer_diag=None, abs_err_diag=None)]
    with pytest.raises(ParameterError, match=match):
        ExperimentReport.from_csv(f"{header}\n{record}\n# note=1\n")
    # Comment and blank lines count toward the line number.
    with pytest.raises(ParameterError, match=match.replace("line 2", "line 4")):
        ExperimentReport.from_csv(f"# note=1\n\n{header}\n{record}\n")


_floats = st.floats(allow_nan=False, allow_infinity=False)
_names = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12)
_rows = st.builds(
    ReportRow,
    function=_names,
    point=st.lists(_floats, min_size=1, max_size=4).map(fmt_point),
    set=_names,
    h=_floats,
    delta_s=_floats,
    rer_diag=st.none() | _floats,
    abs_err_diag=st.none() | _floats,
    rer_grad=st.none() | _floats,
    bound_total=st.none() | _floats,
    bound_cross=st.none() | _floats,
    evals=st.integers(0, 2**63),
)
_summary = st.dictionaries(_names, st.none() | st.booleans() | st.integers() | _floats, max_size=6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.lists(_rows, max_size=5), values=_summary)
def test_csv_roundtrip_is_exact_for_any_rows(rows, values):
    rep = ExperimentReport(rows, summary_lines(**values))
    back = ExperimentReport.from_csv(rep.render("csv"))
    assert back == rep
    summary = back.summary()
    assert list(summary) == list(values)
    for key, value in values.items():
        text = summary[key]
        if value is None:
            assert text == ""
        elif isinstance(value, bool):
            assert text == ("true" if value else "false")
        elif isinstance(value, float):
            assert float(text) == value
        else:
            assert int(text) == value


def test_summary_lines_encode_like_records():
    lines = summary_lines(a=None, b=0.1, c=np.float64(2.5), d=True, e=np.bool_(False), f=7, g="x,y")
    assert lines == ["a=", "b=0.10000000000000001", "c=2.5", "d=true", "e=false", "f=7", "g=x,y"]
