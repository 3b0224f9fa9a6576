"""The reproduce tables record for record: every column except ``computed``
is pinned, so a typo in the reproduction spec (a reference, a tolerance, a
set, an h or the row order) fails here."""

import csv
import io
import math

import pytest

from cshd import experiments

X1 = "1.1000000000000001,1.2100100000000003"
X2 = "0.90000000000000002,0.81000000000000005"
E41 = "3,2,1"
H6 = "9.9999999999999995e-07"
FP64 = "not reproducible in fp64"

# (function, point, set, h, quantity, reference, tolerance, status)
EXPECTED = {
    "table1": [
        ("rosenbrock2", X1, "cb", "0.001", "rer_diag", "2.0200000000000001e-07", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "rb", "0.001", "rer_diag", "0.314", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "cmpb", "0.001", "rer_diag", "0.41899999999999998", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "rmpb", "0.001", "rer_diag", "1.7800000000000001e-07", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "cb", H6, "rer_diag", "1.1800000000000001e-09", "factor<=3", "pass"),
        ("rosenbrock2", X2, "rb", H6, "rer_diag", "0.374", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "cmpb", H6, "rer_diag", "0.499", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "rmpb", H6, "rer_diag", "3.3900000000000001e-09", "factor<=3", "pass"),
    ],
    "table2": [
        ("rosenbrock2", X1, "cb", "", "limit_rer", "0", "<1e-05", "pass"),
        ("rosenbrock2", X1, "cb", "", "inf_rer", "0", "<1e-05", "pass"),
        ("rosenbrock2", X1, "rb", "", "limit_rer", "0.314", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "rb", "", "inf_rer", "0.314", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "cmpb", "", "limit_rer", "0.41899999999999998", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "cmpb", "", "inf_rer", "0.29599999999999999", "rel<=5%", "pass"),
        ("rosenbrock2", X1, "rmpb", "", "limit_rer", "divergent", FP64, "skip"),
        ("rosenbrock2", X1, "rmpb", "", "inf_rer", "5.71e-10", FP64, "skip"),
        ("rosenbrock2", X1, "rmpb", "", "nonmonotone", "1", "flag", "pass"),
        ("rosenbrock2", X2, "cb", "", "limit_rer", "0", "<1e-05", "pass"),
        ("rosenbrock2", X2, "cb", "", "inf_rer", "0", "<1e-05", "pass"),
        ("rosenbrock2", X2, "rb", "", "limit_rer", "0.374", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "rb", "", "inf_rer", "0.374", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "cmpb", "", "limit_rer", "0.5", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "cmpb", "", "inf_rer", "0.35299999999999998", "rel<=5%", "pass"),
        ("rosenbrock2", X2, "rmpb", "", "limit_rer", "4.65e-10", FP64, "skip"),
        ("rosenbrock2", X2, "rmpb", "", "inf_rer", "4.65e-10", FP64, "skip"),
    ],
    "table3": [
        ("expprod3", E41, "rmpb", "1", "rer_diag", "59.299999999999997", "rel<=10%", "pass"),
        ("expprod3", E41, "rmpb", "0.10000000000000001", "rer_diag", "0.13100000000000001", "rel<=10%", "pass"),
        ("expprod3", E41, "rmpb", "0.01", "rer_diag", "0.13300000000000001", "rel<=10%", "pass"),
        ("expprod3", E41, "rmpb", "0.001", "rer_diag", "0.13300000000000001", "rel<=10%", "pass"),
        ("expprod3", E41, "rmpb", "0.0001", "rer_diag", "0.13300000000000001", "rel<=10%", "pass"),
        ("expprod3", E41, "rmpb", "", "limit_rer", "0.13300000000000001", "rel<=5%", "pass"),
        ("expprod3", E41, "cb", "1", "rer_diag", "9.7899999999999991", "rel<=10%", "pass"),
        ("expprod3", E41, "cb", "0.10000000000000001", "rer_diag", "0.0293", "rel<=10%", "pass"),
        ("expprod3", E41, "cb", "0.01", "rer_diag", "0.00029", "rel<=10%", "pass"),
        ("expprod3", E41, "cb", "0.001", "rer_diag", "2.9000000000000002e-06", "rel<=10%", "pass"),
        ("expprod3", E41, "cb", "0.0001", "rer_diag", "2.9499999999999999e-08", "rel<=10%", "pass"),
        ("expprod3", E41, "cb", "", "limit_rer", "0", "<1e-05", "pass"),
    ],
    "example41": [
        ("expprod3", E41, "rmpb", "", "limit_rer", "0.13300000000000001", "rel<=5%", "pass"),
        ("expprod3", E41, "rmpb", "", "min_rer", "0.13", "rel<=5%", "pass"),
        ("expprod3", E41, "rmpb", "", "argmin_h", "0.0883", "info", "info"),
    ],
}


@pytest.mark.parametrize("target", experiments.REPRO_TARGETS)
def test_reproduce_records_match_the_reference_tables(target):
    result = experiments.run_reproduce(target)
    records = list(csv.reader(io.StringIO(result.render("csv"))))
    assert records[0] == experiments.REPRO_HEADER
    computed = experiments.REPRO_HEADER.index("computed")
    assert [(*r[:computed], *r[computed + 1:]) for r in records[1:]] == [
        (target, *row) for row in EXPECTED[target]
    ]
    assert all(math.isfinite(float(r[computed])) for r in records[1:])
    md_rows = result.render("md").splitlines()[2:]
    assert len(md_rows) == len(EXPECTED[target])


def test_every_target_is_pinned():
    assert set(EXPECTED) == set(experiments.REPRO_TARGETS)
