import subprocess
import sys

import numpy as np
import pytest

from cshd import experiments
from cshd.exceptions import ParameterError
from cshd.registry import get
from cshd.report import FORMATS, ExperimentReport
from cshd.sets import SetKind, build_set


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "cshd.cli", *args], capture_output=True, text=True, **kw
    )


def test_approx_reference_value():
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "1.1,1.21001", "--set", "cb", "--h", "1e-3"
    )
    assert res.returncode == 0
    rep = ExperimentReport.from_csv(res.stdout)
    row = rep.rows[0]
    assert row.rer_diag == pytest.approx(2.02e-7, rel=0.05)
    assert row.evals == 5
    summary = rep.summary()
    d = np.array([float(v) for v in summary["d"].split(",")])
    assert np.allclose(d, [969.996, 200.0], rtol=1e-5)


def test_approx_f0_saves_one_evaluation():
    base = ["approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "cmpb", "--h", "0.1"]
    res = run_cli(*base)
    assert ExperimentReport.from_csv(res.stdout).rows[0].evals == 7
    res2 = run_cli(*base, "--f0", "0.01")
    assert ExperimentReport.from_csv(res2.stdout).rows[0].evals == 6


def test_approx_with_bound_comments():
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "1.1,1.21001",
        "--set", "cmpb", "--h", "1e-2", "--with-bound",
    )
    assert res.returncode == 0
    summary = ExperimentReport.from_csv(res.stdout).summary()
    assert float(summary["bound_cross_term"]) == pytest.approx(440.0, abs=1e-9)
    assert "bound_corollary_total" not in summary  # cmpb is not lonely


def test_exit_codes_for_input_errors():
    assert run_cli("approx", "--function", "nosuch", "--point", "1,2", "--set", "cb").returncode == 2
    assert (
        run_cli("approx", "--function", "rosenbrock2", "--point", "1,2,3", "--set", "cb").returncode
        == 2
    )
    assert (
        run_cli(
            "sweep", "--function", "rosenbrock2", "--point", "1,2", "--set", "cb",
            "--h-grid", "1e-3:1e-1:0.1",
        ).returncode
        == 2
    )
    assert run_cli("approx", "--function", "rosenbrock2", "--point", "1,2").returncode == 2


def test_approx_rejects_non_finite_f0():
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "cb", "--f0", "nan"
    )
    assert res.returncode == 2
    assert "f0" in res.stderr and "NaN or infinite entries" not in res.stderr


def test_approx_rejects_a_scale_whose_squares_underflow():
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "cb", "--h", "1e-170"
    )
    assert res.returncode == 2
    assert "too small: its squares underflow" in res.stderr


def test_approx_rejects_a_scale_whose_squares_overflow(capsys):
    from cshd import cli

    argv = ["approx", "--function", "expprod3", "--point", "3,2,1", "--set", "cb", "--h", "1e300"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: direction column 0 is too large: its squares overflow\n"


def test_a_scale_whose_products_overflow_exits_2_with_no_warning(tmp_path, capsys):
    from cshd import cli

    path = tmp_path / "big.txt"
    path.write_text("2 3\n1 0 1e10\n0 1 -1\n")
    base = ["--function", "rosenbrock2", "--point", "0.9,0.81", "--set", f"custom:{path}"]
    for argv in (["sweep", *base, "--h-grid", "1e300:1e298:0.1"], ["approx", *base, "--h", "1e300"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scale h=1e+300 is too large: the scaled directions overflow\n"


@pytest.mark.parametrize("command", [["approx"], ["sweep", "--h-grid", "1e-1:1e-3:0.1"]],
                         ids=["approx", "sweep"])
def test_a_non_finite_point_with_a_bound_is_named_as_the_point(command, capsys):
    from cshd import cli

    argv = [*command, "--function", "rosenbrock2", "--point", "nan,1", "--set", "cb"]
    assert cli.main([*argv, "--with-bound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x0 contains NaN or infinite entries\n"


def test_an_exp_overflow_prints_one_error_line_and_no_warning(tmp_path):
    # A subprocess keeps Python's default warning filters, so a leaked numpy
    # RuntimeWarning would reach stderr ahead of the error line.
    path = tmp_path / "ill.txt"
    path.write_text("3 4\n1 2 3 4\n1 2 3 4.0000001\n0 1 0 1\n")
    base = ["--function", "expprod3", "--point", "3,2,1"]
    cases = ((["limit-study", *base, "--set", f"custom:{path}"], "non-finite value inf at x0 + s4"),
             (["approx", *base, "--set", "cb", "--h", "7", "--with-bound"],
              "Lipschitz constant must be finite and nonnegative, got inf"))
    for argv, message in cases:
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {message}")
        assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")


@pytest.mark.parametrize("h", ["-1", "0", "nan", "inf"])
def test_bad_h_gets_the_library_scale_message(h, tmp_path, capsys):
    from cshd import cli

    path = tmp_path / "dirs.txt"
    path.write_text("2 3\n1 0 -1\n0 1 -1\n")
    for set_arg in ("cb", "rmpb", f"custom:{path}"):
        argv = ["approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", set_arg]
        assert cli.main([*argv, "--h", h]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scale h must be positive and finite, got {float(h)}\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("with_bound", [False, True], ids=["plain", "with-bound"])
@pytest.mark.parametrize("set_name", ["cb", "cmpb"])  # lonely, not lonely
def test_approx_prints_the_results_report(set_name, with_bound, fmt, capsys):
    from cshd import cli

    argv = ["approx", "--function", "rosenbrock2", "--point", "1.1,1.21001", "--set", set_name,
            "--h", "1e-2", "--format", fmt] + ["--with-bound"] * with_bound
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    result = experiments.run_approx(get("rosenbrock2"), np.array([1.1, 1.21001]),
                                    build_set(SetKind(set_name), 2, 1e-2), h=1e-2,
                                    with_bound=with_bound)
    assert result.report.render(fmt) == out
    assert ("bound_total=" in out) == with_bound
    assert ("bound_corollary_total=" in out) == (with_bound and set_name == "cb")


def test_exit_code_bound_inapplicable(tmp_path):
    path = tmp_path / "rankdef.txt"
    path.write_text("2 2\n1 -1\n1 1\n")
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81",
        "--set", f"custom:{path}", "--h", "0.1", "--with-bound",
    )
    assert res.returncode == 3
    assert "full row rank" in res.stderr


def test_custom_set_without_bound_is_fine(tmp_path):
    path = tmp_path / "dirs.txt"
    path.write_text("2 3\n1 0 -1\n0 1 -1\n")
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81",
        "--set", f"custom:{path}", "--h", "1e-3",
    )
    assert res.returncode == 0
    row = ExperimentReport.from_csv(res.stdout).rows[0]
    assert row.set == "custom"
    assert row.delta_s == pytest.approx(1e-3 * np.sqrt(2.0), rel=1e-12)


def test_sweep_csv_and_determinism():
    args = [
        "sweep", "--function", "expprod3", "--point", "3,2,1", "--set", "cb",
        "--h-grid", "1e-1:1e-4:0.1",
    ]
    res1 = run_cli(*args)
    res2 = run_cli(*args)
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout  # byte-identical
    rep = ExperimentReport.from_csv(res1.stdout)
    assert len(rep.rows) == 4
    assert [r.h for r in rep.rows] == sorted((r.h for r in rep.rows), reverse=True)
    assert float(rep.summary()["fitted_order"]) == pytest.approx(2.0, abs=0.1)


def test_limit_study_summary():
    res = run_cli(
        "limit-study", "--function", "rosenbrock2", "--point", "1.1,1.21001", "--set", "rb"
    )
    assert res.returncode == 0
    summary = ExperimentReport.from_csv(res.stdout).summary()
    assert float(summary["plateau_rer"]) == pytest.approx(3.14e-1, rel=0.05)
    assert summary["nonmonotone"] in ("true", "false")


def test_reproduce_cli():
    res = run_cli("reproduce", "table1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].split(",")[0] == "target"
    assert len(lines) == 9  # header + 8 checks
    assert all(line.endswith("pass") for line in lines[1:])


def test_markdown_format():
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "cb",
        "--h", "1e-3", "--format", "md",
    )
    assert res.returncode == 0
    assert res.stdout.startswith("| function |")


def test_out_file(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli(
        "approx", "--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "cb",
        "--h", "1e-3", "--out", str(out),
    )
    assert res.returncode == 0 and res.stdout == ""
    assert ExperimentReport.from_csv(out.read_text()).rows[0].function == "rosenbrock2"


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "function = rosenbrock2\npoint = 1.1,1.21001\nset = cb  # coordinate basis\nh = 1e-3\n"
    )
    res = run_cli("approx", "--config", str(cfg))
    assert res.returncode == 0
    row = ExperimentReport.from_csv(res.stdout).rows[0]
    assert row.function == "rosenbrock2" and row.h == pytest.approx(1e-3)
    # explicit flags win over the config file
    res2 = run_cli("approx", "--config", str(cfg), "--h", "1e-2")
    assert ExperimentReport.from_csv(res2.stdout).rows[0].h == pytest.approx(1e-2)
    cfg_md = tmp_path / "md.cfg"
    cfg_md.write_text("function = rosenbrock2\npoint = 0.9,0.81\nset = cb\nformat = md\n")
    res3 = run_cli("approx", "--config", str(cfg_md), "--format", "csv")
    assert res3.stdout.startswith("function,point")  # explicit csv wins
    res4 = run_cli("approx", "--config", str(cfg_md))
    assert res4.stdout.startswith("| function |")  # config default applies


def test_config_custom_path_is_relative_to_the_config_file(tmp_path, monkeypatch, capsys):
    from cshd import cli

    study = tmp_path / "study"
    study.mkdir()
    (study / "dirs.txt").write_text("2 3\n1 0 -1\n0 1 -1\n")
    base = "function = rosenbrock2\npoint = 0.9,0.81\nh = 1e-3\n"
    (study / "rel.cfg").write_text(base + "set = custom:dirs.txt\n")
    (study / "abs.cfg").write_text(base + f"set = custom:{study / 'dirs.txt'}\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "dirs.txt").write_text("2 2\n1 0\n0 1\n")
    monkeypatch.chdir(elsewhere)

    def run(*argv):
        code = cli.main(["approx", *argv])
        out = capsys.readouterr().out
        return code, ExperimentReport.from_csv(out).rows[0] if code == 0 else None

    for cfg in ("rel.cfg", "abs.cfg"):
        code, row = run("--config", str(study / cfg))
        assert code == 0 and row.set == "custom" and row.evals == 7
    # --set on the command line still reads from the cwd
    code, row = run("--config", str(study / "rel.cfg"), "--set", "custom:dirs.txt")
    assert code == 0 and row.evals == 5
    # a relative path in the config does not fall back to the cwd
    (study / "dirs.txt").unlink()
    assert run("--config", str(study / "rel.cfg"))[0] == 2


def test_parse_h_grid():
    hs = experiments.parse_h_grid("1e-1:1e-4:0.1")
    assert np.allclose(hs, [1e-1, 1e-2, 1e-3, 1e-4], rtol=1e-12)
    with pytest.raises(ParameterError):
        experiments.parse_h_grid("1e-4:1e-1:0.1")
    with pytest.raises(ParameterError):
        experiments.parse_h_grid("1e-1:1e-4:1.5")
    with pytest.raises(ParameterError):
        experiments.parse_h_grid("1e-1:1e-4")
    with pytest.raises(ParameterError):
        experiments.parse_h_grid("a:b:c")


def test_run_reproduce_unknown_target():
    with pytest.raises(ParameterError):
        experiments.run_reproduce("table9")


def test_reproduce_failure_exit_code(monkeypatch, capsys):
    from cshd import cli
    from cshd.experiments import ReproCheck, ReproduceResult

    failing = ReproduceResult(
        [ReproCheck("table1", "f", "1,2", "cb", "0.001", "rer_diag", 1.0, "2", "rel<=5%", "fail")]
    )
    monkeypatch.setattr(cli.experiments, "run_reproduce", lambda target: failing)
    assert cli.main(["reproduce", "table1"]) == 4
    assert "fail" in capsys.readouterr().out


def test_run_sweep_validates_grid():
    func = get("rosenbrock2")
    with pytest.raises(ParameterError):
        experiments.run_sweep(func, np.array([1.0, 1.0]), SetKind.CB, [0.1, 0.1])
    with pytest.raises(ParameterError):
        experiments.run_sweep(func, np.array([1.0, 1.0, 1.0]), SetKind.CB, [0.1, 0.01])


def test_run_limit_study_rejects_duplicate_h():
    func = get("rosenbrock2")
    hs = [1e-2, 1e-2, 5e-3, 1e-3, 1e-4]
    with pytest.raises(ParameterError, match="duplicate"):
        experiments.run_limit_study(func, np.array([1.0, 1.0]), SetKind.CB, hs=hs)


def test_run_limit_study_needs_plateau_points():
    func = get("rosenbrock2")
    with pytest.raises(ParameterError):
        experiments.run_limit_study(func, np.array([1.0, 1.0]), SetKind.CB, hs=[1.0, 0.5, 0.25])


def test_config_with_bound_accepts_only_booleans(tmp_path, capsys):
    from cshd import cli

    base = "function = rosenbrock2\npoint = 0.9,0.81\nset = cb\nh = 1e-2\n"
    cfg = tmp_path / "study.cfg"
    for value, bounded in (("TRUE", True), ("on", True), ("1", True), ("Yes", True),
                           ("false", False), ("OFF", False), ("0", False), ("no", False)):
        cfg.write_text(base + f"with_bound = {value}\n")
        assert cli.main(["approx", "--config", str(cfg)]) == 0
        summary = ExperimentReport.from_csv(capsys.readouterr().out).summary()
        assert ("bound_total" in summary) is bounded
    for value in ("ture", "2", ""):
        cfg.write_text(base + f"with_bound = {value}\n")
        assert cli.main(["approx", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "with_bound must be one of" in captured.err
        assert repr(value) in captured.err


@pytest.mark.parametrize("command,grid", [("approx", "--h=1e-2"), ("sweep", "--h-grid=1e-1:1e-3:0.1")])
def test_no_with_bound_overrides_a_true_config_value(command, grid, tmp_path, capsys):
    from cshd import cli

    cfg = tmp_path / "study.cfg"
    cfg.write_text("function = rosenbrock2\npoint = 0.9,0.81\nset = cb\nwith_bound = yes\n")
    outputs = {}
    for flags in ((), ("--no-with-bound",)):
        assert cli.main([command, "--config", str(cfg), grid, *flags]) == 0
        outputs[flags] = ExperimentReport.from_csv(capsys.readouterr().out)
    assert all(r.bound_total is not None for r in outputs[()].rows)
    assert all(r.bound_total is None and r.bound_cross is None
               for r in outputs[("--no-with-bound",)].rows)
    assert "bound_total" not in outputs[("--no-with-bound",)].summary()


def test_config_keys_must_apply_to_the_subcommand(tmp_path, capsys):
    from cshd import cli

    base = "function = rosenbrock2\npoint = 0.9,0.81\nset = cb\n"
    cfg = tmp_path / "study.cfg"
    for command, line in (("limit-study", "h = abc"), ("limit-study", "with_bound = ture"),
                          ("limit-study", "with_bound = true"), ("sweep", "f0 = 1.0"),
                          ("approx", "h_grid = 1e-1:1e-3:0.1")):
        cfg.write_text(base + line + "\n")
        assert cli.main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        key = line.split(" = ")[0]
        assert captured.out == ""
        assert f"key {key!r} does not apply to {command}" in captured.err
    cfg.write_text(base)
    assert cli.main(["limit-study", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command", ["approx", "sweep", "limit-study"])
def test_config_key_naming_no_option_is_rejected_with_its_line(command, tmp_path, capsys):
    from cshd import cli

    # The subcommand's name and --config are namespace attributes, not
    # options a file can set; an unknown key gets the same message.
    base = "function = rosenbrock2\npoint = 0.9,0.81\nset = cb\n"
    cfg = tmp_path / "study.cfg"
    for line in ("command = x", "config = y", "foo = 1", "help = 1"):
        cfg.write_text(base + line + "\n")
        assert cli.main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        key = line.split(" = ")[0]
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: line 4: key {key!r} does not apply to {command}\n"
    # The first line that names no option is the one reported.
    cfg.write_text(base + "h = 1\nfoo = 2\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 4: key 'h' does not apply to sweep\n"


def test_config_rejects_a_duplicate_key(tmp_path, capsys):
    from cshd import cli

    base = "function = rosenbrock2\npoint = 0.9,0.81\nset = cb\n"
    cfg = tmp_path / "study.cfg"
    for lines, key, second in (("h = 1e-3\n# note\nh = 0.5\n", "h", 6),
                               ("h = 1e-3\nh = 1e-3\n", "h", 5),
                               ("format = md\nformat = csv\n", "format", 5)):
        cfg.write_text(base + lines)
        assert cli.main(["approx", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {second}: duplicate key {key!r}, already set on line 4" in captured.err
    cfg.write_text(base + "h_grid = 1e-1:1e-3:0.1\nh-grid = 1e-1:1e-4:0.1\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert "line 5: duplicate key 'h_grid', already set on line 4" in capsys.readouterr().err


# Each case: subcommand, config lines, the same values as command-line flags,
# and one overriding flag per config key.  A relative custom:PATH in the
# config is read from the config's directory, so its flag form names
# study/dirs.txt.
_WORDS_TRUE = ("1", "true", "yes", "on", "TRUE", "On")
_WORDS_FALSE = ("0", "false", "no", "off", "NO")
_APPROX = "function = rosenbrock2\npoint = -0.9,0.81\nset = cmpb\nh = 1e-2\nf0 = 0.5\n"
_APPROX_FLAGS = ("--function", "rosenbrock2", "--point=-0.9,0.81", "--set", "cmpb",
                 "--h", "1e-2", "--f0", "0.5")
_APPROX_OVERRIDES = {"function": ("--function", "quartic2"), "point": ("--point", "1.1,1.21001"),
                     "set": ("--set", "rb"), "h": ("--h", "3e-3"), "f0": ("--f0", "2.5"),
                     "with_bound": ("--with-bound",)}
_CONFIG_CASES = [
    *[("approx", _APPROX + f"with_bound = {w}\n", (*_APPROX_FLAGS, "--with-bound"),
       {**_APPROX_OVERRIDES, "with_bound": ("--no-with-bound",)})
      for w in _WORDS_TRUE],
    *[("approx", _APPROX + f"with_bound = {w}\n", _APPROX_FLAGS, _APPROX_OVERRIDES)
      for w in _WORDS_FALSE],
    ("approx", "function = rosenbrock2\npoint = 0.9,0.81\nh = 1e-3\nset = custom:dirs.txt\n",
     ("--function", "rosenbrock2", "--point", "0.9,0.81", "--set", "custom:study/dirs.txt",
      "--h", "1e-3"),
     {"set": ("--set", "custom:other.txt"), "h": ("--h", "1e-1")}),
    ("sweep", "function = rosenbrock2\npoint = 1.1,1.21001\nset = cb\nh-grid = 1e-1:1e-4:0.1\n"
              "format = md\nwith_bound = false\n",
     ("--function", "rosenbrock2", "--point", "1.1,1.21001", "--set", "cb",
      "--h-grid", "1e-1:1e-4:0.1", "--format", "md"),
     {"function": ("--function", "quartic2"), "point": ("--point=-0.9,0.81",),
      "set": ("--set", "rmpb"), "h_grid": ("--h-grid", "2e-1:1e-3:0.2"),
      "format": ("--format", "csv"), "with_bound": ("--with-bound",)}),
    ("sweep", "function = expprod3\npoint = 3,2,1\nset = rb\nh_grid = 1e-1:1e-3:0.1\n"
              "with_bound = yes\n",
     ("--function", "expprod3", "--point", "3,2,1", "--set", "rb",
      "--h-grid", "1e-1:1e-3:0.1", "--with-bound"),
     {"format": ("--format", "md"), "with_bound": ("--no-with-bound",)}),
    ("limit-study", "function = rosenbrock2\npoint = 1.1,1.21001\nset = rmpb\n",
     ("--function", "rosenbrock2", "--point", "1.1,1.21001", "--set", "rmpb"),
     {"function": ("--function", "quartic2"), "point": ("--point", "0.9,0.81"),
      "set": ("--set", "cb"), "h_grid": ("--h-grid", "1e-1:1e-6:0.5"),
      "format": ("--format", "md")}),
]


@pytest.mark.parametrize("command,config,flags,overrides", _CONFIG_CASES, ids=[
    f"{c[0]}-{c[1].splitlines()[-1].replace(' ', '')}" for c in _CONFIG_CASES])
def test_config_run_is_the_same_as_the_equivalent_flags(
        command, config, flags, overrides, tmp_path, monkeypatch, capsys):
    from cshd import cli

    study = tmp_path / "study"
    study.mkdir()
    (study / "dirs.txt").write_text("2 3\n1 0 -1\n0 1 -1\n")
    (tmp_path / "other.txt").write_text("2 2\n1 0\n0 1\n")
    cfg = study / "run.cfg"
    cfg.write_text(config)
    monkeypatch.chdir(tmp_path)

    def stdout(*argv):
        assert cli.main([command, *argv]) == 0
        return capsys.readouterr().out

    by_config = stdout("--config", str(cfg))
    assert by_config == stdout(*flags)
    for key, flag in overrides.items():
        overridden = stdout("--config", str(cfg), *flag)
        assert overridden == stdout(*flags, *flag), key
        assert overridden != by_config, key  # the explicit flag took effect


@pytest.mark.parametrize("line,flag", [
    ("h = abc", "--h"), ("h = ", "--h"), ("f0 = x", "--f0"), ("f0 =", "--f0"),
    ("format = xml", "--format"), ("format = CSV", "--format"),
])
def test_malformed_config_value_gets_the_flags_own_error(line, flag, tmp_path, capsys):
    from cshd import cli

    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"function = rosenbrock2\npoint = 0.9,0.81\nset = cb\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid" in captured.err
