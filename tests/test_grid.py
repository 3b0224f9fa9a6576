"""Grid studies evaluate every h of a study as one array.

A sweep row must equal the row of a one-set ``run_approx`` over the same
scaled set; failures inside the grid keep their names and counts; the
plateau and the duplicate-h test no longer load ``numpy.ma``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cshd
from cshd import experiments as ex
from cshd.calculus import StencilPlan, evaluate_stencil, evaluate_stencils
from cshd.exceptions import ParameterError, StencilError
from cshd.registry import get
from cshd.report import FORMATS
from cshd.sets import SampleDirections, SetKind, build_set, load_directions

from helpers import CountedFunction, random_conditioned

RTOL = 1e-10
KINDS = (SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB, SetKind.CUSTOM)
# Points well inside the region where the truth and the bounds are moderate.
BOX = {2: 2.0, 3: 1.5}


def _close(a, b, scale):
    """Equal within RTOL of the larger of |b| and *scale*."""
    return abs(a - b) <= RTOL * max(abs(b), scale)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.sampled_from([2, 3]),
    kind=st.sampled_from(KINDS),
    hs=st.lists(st.floats(1e-4, 1.0), min_size=3, max_size=12, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_rows_equal_single_set_rows(n, kind, hs, seed):
    func = get("rosenbrock2" if n == 2 else "expprod3")
    rng = np.random.default_rng(seed)
    point = rng.uniform(-BOX[n], BOX[n], n)
    if kind is SetKind.CUSTOM:
        directions = SampleDirections(random_conditioned(rng, n, n + 1))
    else:
        directions = kind
    sweep = ex.run_sweep(func, point, directions, hs, with_bound=True)
    rows = sweep.report.rows
    assert [r.h for r in rows] == sorted(hs, reverse=True)
    f0 = func.fn(point)
    diag_norm = float(np.linalg.norm(func.diag_hessian(point)))
    for row in rows:
        S = ex.build_scaled_set(directions, n, row.h)
        # The sweep evaluates f(x0) once for all rows, so the single-set run
        # is given the same f0 and its row counts the same 2k evaluations.
        one = ex.run_approx(func, point, S, h=row.h, with_bound=True, known_f0=f0).row
        assert (row.h, row.delta_s, row.evals) == (one.h, one.delta_s, one.evals)
        # The two routes factor h*S and S with the same formulas, so their
        # estimates agree to round-off of the estimate: an error that is
        # itself tiny against the quantity (a lonely set at small h) is
        # compared at RTOL of that quantity.
        assert _close(row.abs_err_diag, one.abs_err_diag, diag_norm)
        assert _close(row.rer_diag, one.rer_diag, 1.0)
        assert _close(row.rer_grad, one.rer_grad, 1.0)
        assert row.bound_total == pytest.approx(one.bound_total, rel=RTOL)
        assert row.bound_cross == pytest.approx(one.bound_cross, rel=RTOL)


def _failing(func, bad_point, raises, value=float("nan")):
    def fn(y):
        if np.array_equal(y, bad_point):
            if raises:
                raise RuntimeError("boom")
            return value
        return func.fn(y)

    return CountedFunction(func.name, func.dim, fn, func.gradient, func.hessian, func.lipschitz_d3)


@pytest.mark.parametrize("study", ["sweep", "limit"])
def test_grid_failure_names_minus_point_and_counts(study):
    rng = np.random.default_rng(31)
    base = get("rosenbrock2")
    hs = 10.0 ** np.arange(0.0, -4.01, -0.25)
    point = np.array([0.9, 0.81])
    for trial, kind in enumerate(KINDS * 2):
        if kind is SetKind.CUSTOM:
            directions = SampleDirections(random_conditioned(rng, 2, 3))
        else:
            directions = kind
        unit = ex.build_scaled_set(directions, 2, 1.0)
        k = unit.k
        j = int(rng.integers(hs.size))
        i = int(rng.integers(1, k + 1))
        bad = point - unit.scaled(float(hs[j])).matrix[:, i - 1]
        raises = trial % 2 == 0
        func = _failing(base, bad, raises)
        match = "evaluation failed" if raises else "non-finite value nan"
        with pytest.raises(StencilError, match=f"{match} at x0 - s{i} = "):
            if study == "sweep":
                ex.run_sweep(func, point, directions, hs, with_bound=True)
            else:
                ex.run_limit_study(func, point, directions, hs=hs)
        (obj,) = func.issued
        assert obj.evals == 1 + 2 * k * j + k + i


@pytest.mark.parametrize("study", ["sweep", "limit"])
@pytest.mark.parametrize("raises", [False, True], ids=["inf", "raises"])
def test_grid_failure_at_x0_is_named_like_approx(study, raises):
    point = np.array([0.9, 0.81])
    func = _failing(get("rosenbrock2"), point, raises, value=float("inf"))
    match = "evaluation failed" if raises else "non-finite value inf"
    with pytest.raises(StencilError, match=rf"^{match} at x0 = \[0.9, 0.81\]"):
        if study == "sweep":
            ex.run_sweep(func, point, SetKind.CB, [1e-1, 1e-2, 1e-3])
        else:
            ex.run_limit_study(func, point, SetKind.CB)
    (obj,) = func.issued
    assert obj.evals == 1


@pytest.mark.parametrize("study", ["sweep", "limit"])
def test_a_bad_scale_is_named_before_any_evaluation(study):
    # Every h's set is validated before the grid's one evaluation call, so
    # f(x0) is not evaluated either.
    base = get("rosenbrock2")
    point = np.array([0.9, 0.81])
    big = SampleDirections(np.array([[1.0, 0.0, 1e10], [0.0, 1.0, -1.0]]))
    cases = ((SetKind.CB, [1e-2, 1e-3, 1e-170], "^direction column 0 is too small"),
             (SetKind.CB, [1e300, 1e-2, 1e-3], "^direction column 0 is too large"),
             (big, [1e300, 1e-2, 1e-3], r"^scale h=1e\+300 is too large"))
    for directions, hs, match in cases:
        func = CountedFunction(base.name, base.dim, base.fn, base.gradient, base.hessian,
                               base.lipschitz_d3)
        with pytest.raises(ParameterError, match=match):
            if study == "sweep":
                ex.run_sweep(func, point, directions, hs, with_bound=True)
            else:
                ex.run_limit_study(func, point, directions, hs=hs)
        (obj,) = func.issued
        assert obj.evals == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_point_gets_the_same_error_from_every_study(bad):
    func = get("rosenbrock2")
    point = np.array([bad, 0.81])
    hs = [1e-1, 1e-2, 1e-3]
    S = build_set(SetKind.CB, 2, 1e-2)
    runs = (lambda: ex.run_approx(func, point, S),
            lambda: ex.run_approx(func, point, S, with_bound=True),
            lambda: ex.run_sweep(func, point, SetKind.CB, hs),
            lambda: ex.run_sweep(func, point, SetKind.CB, hs, with_bound=True),
            lambda: ex.run_limit_study(func, point, SetKind.CB, hs=[1e-2, 1e-3, 1e-4]))
    for run in runs:
        with pytest.raises(ParameterError, match="^x0 contains NaN or infinite entries$"):
            run()


# The CI's ill-conditioned 3 x 4 set: its radius is ~5.7, so at the default
# grid's largest h, 10^0.5, exp(y1 y2 y3) overflows at x0 + h s4.
ILL_CONDITIONED = "3 4\n1 2 3 4\n1 2 3 4.0000001\n0 1 0 1\n"


def test_an_overflowing_value_is_named_with_no_warning(tmp_path):
    # Under the suite's error::RuntimeWarning, a leaked overflow warning would
    # be raised inside the evaluation instead of the StencilError below.
    path = tmp_path / "ill.txt"
    path.write_text(ILL_CONDITIONED)
    with pytest.raises(StencilError, match=r"^non-finite value inf at x0 \+ s4"):
        ex.run_limit_study(get("expprod3"), np.array([3.0, 2.0, 1.0]), load_directions(path))


@pytest.mark.parametrize("name,point", [("rosenbrock2", ex.POINT_X1), ("expprod3", ex.POINT_E41),
                                        ("bilinear2", np.array([0.5, -0.8]))])
def test_every_summary_comes_from_the_rows_error_column(name, point):
    # rer_diag is abs_err_diag / ||diag H|| exactly; bilinear2's diagonal is
    # 0, so its rows leave rer_diag empty and its summaries use abs_err_diag.
    func = get(name)
    norm = float(np.linalg.norm(func.diag_hessian(point)))
    lo, hi = ex.PLATEAU_WINDOW
    for kind in KINDS[:4]:
        sweep = ex.run_sweep(func, point, kind, 10.0 ** -np.arange(0.0, 6.0, 0.5), with_bound=True)
        study = ex.run_limit_study(func, point, kind)
        for result in (sweep, study):
            rows = result.report.rows
            for row in rows:
                assert row.rer_diag == (row.abs_err_diag / norm if norm > 0.0 else None)
            column = np.array([r.abs_err_diag if norm == 0.0 else r.rer_diag for r in rows])
            hs = np.array([r.h for r in rows])
            best = int(np.argmin(column))
            summary = result.report.summary()
            if result is sweep:
                assert (sweep.best_metric, sweep.best_h) == (column[best], hs[best])
                assert float(summary["best_rer"]) == column[best]
            else:
                window = (hs >= lo * (1.0 - 1e-9)) & (hs <= hi * (1.0 + 1e-9))
                assert study.plateau == float(np.median(column[window]))
                assert (study.grid_inf, study.grid_inf_h) == (column[best], hs[best])
                assert float(summary["plateau_rer"]) == study.plateau
                assert float(summary["inf_rer"]) == column[best]


def test_sweep_names_the_h_that_underflows():
    # Columns of norm ~1e20 keep h*S valid down to h ~ 1e-170, while h^2
    # underflows to 0 below h ~ 2e-162 and the estimates become 0/0.
    func = get("rosenbrock2")
    big = SampleDirections(1e20 * random_conditioned(np.random.default_rng(34), 2, 3))
    point = np.array([0.9, 0.81])
    cases = (([1e-2, 1e-150, 1e-165], "1e-165"), ([1e-166, 1e-2, 1e-164, 1e-170], "1e-164"))
    for hs, named in cases:
        with pytest.raises(ParameterError, match=rf"^scale h={named} is too small"):
            ex.run_sweep(func, point, big, hs, with_bound=True)


@pytest.mark.parametrize("kind", KINDS[:4], ids=lambda kind: kind.value)
def test_a_unit_set_is_the_same_argument_as_its_kind(kind):
    # A study takes one set argument: a named kind, or a set it scales by h.
    func = get("expprod3")
    point = np.array([3.0, 2.0, 1.0])
    unit = build_set(kind, 3, 1.0)
    hs = 10.0 ** np.arange(-1.0, -4.01, -0.5)
    studies = (lambda d: ex.run_sweep(func, point, d, hs, with_bound=True),
               lambda d: ex.run_limit_study(func, point, d))
    for study in studies:
        by_kind, by_set = study(kind), study(unit)
        for fmt in FORMATS:
            assert by_set.report.render(fmt) == by_kind.report.render(fmt)


def test_custom_kind_without_a_matrix_gets_build_sets_error():
    func = get("rosenbrock2")
    point = np.array([0.9, 0.81])
    with pytest.raises(ParameterError) as built:
        build_set(SetKind.CUSTOM, 2, 1.0)
    text = rf"^{re.escape(str(built.value))}$"
    with pytest.raises(ParameterError, match=text):
        ex.build_scaled_set(SetKind.CUSTOM, 2, 0.5)
    with pytest.raises(ParameterError, match=text):
        ex.run_sweep(func, point, SetKind.CUSTOM, [1e-1, 1e-2, 1e-3])
    with pytest.raises(ParameterError, match=text):
        ex.run_limit_study(func, point, SetKind.CUSTOM)


def test_duplicate_h_rejected_with_the_same_text():
    func = get("rosenbrock2")
    point = np.array([1.0, 1.0])
    for hs in ([1e-2, 1e-3, 1e-2, 1e-4, 5e-3], [1e-3, 1e-3]):
        with pytest.raises(ParameterError, match=r"^the h grid contains duplicate values$"):
            ex.run_sweep(func, point, SetKind.CB, hs)
        with pytest.raises(ParameterError, match=r"^the h grid contains duplicate values$"):
            ex.run_limit_study(func, point, SetKind.CB, hs=hs)


def test_plateau_middle_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(32)
    for size in range(1, 40):
        for scale in (1e-12, 1.0, 1e300):
            values = scale * rng.lognormal(0.0, 3.0, size)
            assert ex._middle(values).hex() == float(np.median(values)).hex()
    for values in ([1.0, 2.0], [1.0, np.nextafter(1.0, 2.0)], [3.0, 3.0, 1.0, 1.0]):
        assert ex._middle(np.array(values)).hex() == float(np.median(values)).hex()


def test_studies_do_not_load_numpy_ma():
    code = """
import contextlib, io, sys
import numpy as np
from cshd import cli, experiments, registry
from cshd.sets import SetKind

f = registry.get("rosenbrock2")
experiments.run_limit_study(f, experiments.POINT_X1, SetKind.RMPB)
experiments.run_sweep(f, experiments.POINT_X2, SetKind.CMPB, 10.0 ** -np.arange(0.0, 6.0, 0.5),
                      with_bound=True)
for target in experiments.REPRO_TARGETS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", target]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(cshd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_single_set_evaluation_is_the_one_row_grid():
    func = get("expprod3")
    point = np.array([0.9, -0.4, 1.2])
    unit = build_set(SetKind.RMPB, 3, 1.0)
    hs = np.array([0.5, 0.1, 0.02])
    grid = evaluate_stencils(func.fn, point, unit, hs)
    assert grid.evals_used == 1 + 2 * unit.k * hs.size
    assert grid.delta_c.shape == grid.eps.shape == (hs.size, unit.k)
    plan = StencilPlan(unit)
    g, d = plan.scaled_estimates(grid.delta_c, grid.eps, hs)
    for j, h in enumerate(hs.tolist()):
        S = unit.scaled(h)
        one = evaluate_stencil(func.fn, point, S, known_f0=grid.f0)
        assert np.array_equal(one.plus_vals, grid.plus_vals[j])
        assert np.array_equal(one.minus_vals, grid.minus_vals[j])
        assert np.array_equal(one.eps, grid.eps[j])
        # One row and m rows may go through different BLAS kernels.
        ge, de = plan.estimates(one, h)
        assert np.allclose(ge.value, g[j], rtol=1e-14, atol=0.0)
        assert np.allclose(de.value, d[j], rtol=1e-14, atol=0.0)
    for bad in ([], [0.1, 0.0], [0.1, np.inf], [[0.1]], [-0.1]):
        with pytest.raises(ParameterError, match="scales must be"):
            evaluate_stencils(func.fn, point, unit, bad)
    with pytest.raises(ParameterError, match="exactly one scale"):
        grid.single()
