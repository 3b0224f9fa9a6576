"""Every input error names its cause.

One case per message, each raised through the entry a user reaches it by:
the command line (exit 2, nothing on stdout) or the library function that
validates the input.
"""

import dataclasses
import re

import numpy as np
import pytest

from cshd import cli, experiments
from cshd.analysis import absolute_error, convergence_order, cross_term_sum, relative_error
from cshd.calculus import Objective
from cshd.exceptions import DimensionError, ParameterError
from cshd.registry import get
from cshd.sets import SetKind, build_set, load_directions

_APPROX = ["approx", "--function", "rosenbrock2"]


@pytest.mark.parametrize("argv,message", [
    ([*_APPROX, "--point", "1,a", "--set", "cb"],
     "point must be comma-separated numbers, got '1,a'"),
    ([*_APPROX, "--point", ",", "--set", "cb"], "point must contain at least one coordinate"),
    ([*_APPROX, "--point", "1,2", "--set", "custom:"],
     "custom set needs a path: --set custom:PATH"),
    ([*_APPROX, "--point", "1,2", "--set", "xx"],
     "unknown set 'xx'; expected cb, rb, cmpb, rmpb or custom:PATH"),
    (["approx", "--point", "1,2", "--set", "cb"], "--function is required for this command"),
    (["sweep", "--function", "rosenbrock2", "--point", "1,2", "--set", "cb"],
     "--h-grid is required for this command"),
    (["approx", "--function", "nosuch", "--point", "1,2", "--set", "cb"],
     "unknown function 'nosuch'; known functions: bilinear2, expprod3, quartic2, rosenbrock2"),
], ids=["point-not-numeric", "point-empty", "custom-no-path", "unknown-set", "no-function",
        "no-h-grid", "unknown-function"])
def test_command_line_input_errors(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config file {path}: "),
    ("function = rosenbrock2\njust words\n", "{path}: line 2: expected key = value"),
], ids=["missing", "no-equals"])
def test_config_file_input_errors(text, message, tmp_path, capsys):
    path = tmp_path / "study.cfg"
    if text is not None:
        path.write_text(text)
    assert cli.main(["approx", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.format(path=path)}")


@pytest.mark.parametrize("text,message", [
    ("# only a comment\n\n", "empty direction file"),
    ("2\n1 0\n0 1\n", "first line must be 'n k', got '2'"),
    ("2 two\n1 0\n0 1\n", "first line must be 'n k', got '2 two'"),
    ("2 2\n1 0\n0 x\n", "line 3: non-numeric entry"),
], ids=["empty", "one-number-header", "non-integer-header", "non-numeric"])
def test_direction_file_input_errors(text, message, tmp_path):
    path = tmp_path / "dirs.txt"
    path.write_text(text)
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_directions(path)


@pytest.mark.parametrize("spec,message", [
    ("1e-1:1e-4", "h-grid must look like START:STOP:FACTOR, got '1e-1:1e-4'"),
    ("a:b:c", "h-grid values must be numeric, got 'a:b:c'"),
    ("1e-4:1e-1:0.1", "h-grid needs START > STOP > 0, got '1e-4:1e-1:0.1'"),
    ("1e-1:1e-4:1.5", "h-grid FACTOR must lie in (0, 1), got '1e-1:1e-4:1.5'"),
    ("1:1e-300:0.9999999", "h-grid '1:1e-300:0.9999999' produces too many points"),
], ids=["shape", "numeric", "order", "factor", "too-many"])
def test_h_grid_input_errors(spec, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        experiments.parse_h_grid(spec)


@pytest.mark.parametrize("hs", [[], [1e-1, -1e-2, 1e-3]], ids=["empty", "negative"])
@pytest.mark.parametrize("study", ["sweep", "limit"])
def test_grid_studies_need_positive_hs(study, hs):
    func, point = get("rosenbrock2"), np.array([0.9, 0.81])
    with pytest.raises(ParameterError, match="^the h grid must contain positive values$"):
        if study == "sweep":
            experiments.run_sweep(func, point, SetKind.CB, hs)
        else:
            experiments.run_limit_study(func, point, SetKind.CB, hs=hs)


def test_a_bound_needs_a_certified_lipschitz_constant():
    func = dataclasses.replace(get("rosenbrock2"), lipschitz_d3=None)
    point = np.array([0.9, 0.81])
    message = "^no certified third-derivative Lipschitz bound for rosenbrock2$"
    with pytest.raises(ParameterError, match=message):
        experiments.run_sweep(func, point, SetKind.CB, [1e-1, 1e-2, 1e-3], with_bound=True)
    with pytest.raises(ParameterError, match=message):
        experiments.run_approx(func, point, build_set(SetKind.CB, 2, 1e-2), with_bound=True)


def test_analysis_input_errors():
    S = build_set(SetKind.CB, 2, 1.0)
    with pytest.raises(DimensionError,
                       match=r"^hessian shape \(3, 3\) does not match directions in R\^2$"):
        cross_term_sum(S, np.eye(3))
    for error in (relative_error, absolute_error):
        with pytest.raises(DimensionError,
                           match="^approx and truth differ in dimension: 2 vs 3$"):
            error(np.ones(2), np.ones(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="^hs and errors must be finite$"):
            convergence_order([1e-1, 1e-2, 1e-3], [1.0, bad, 1e-2])
        with pytest.raises(ParameterError, match="^hs and errors must be finite$"):
            convergence_order([bad, 1e-2, 1e-3], [1.0, 1e-1, 1e-2])


@pytest.mark.parametrize("dim", [0, -1])
def test_objective_dimension_must_be_positive(dim):
    with pytest.raises(ParameterError, match=f"^objective dimension must be positive, got {dim}$"):
        Objective(lambda y: 0.0, dim)
