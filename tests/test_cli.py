import subprocess
import sys

import numpy as np
import pytest

from cshd import experiments
from cshd.exceptions import ParameterError
from cshd.registry import get
from cshd.report import ExperimentReport
from cshd.sets import SetKind


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
    assert row.set_name == "custom"
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
        assert code == 0 and row.set_name == "custom" and row.evals == 7
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
