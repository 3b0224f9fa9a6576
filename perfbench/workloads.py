"""Seeded inputs, ops and correctness checks of the three workloads.

Every workload hands out its ops in rounds.  A round has a fixed
composition (which calls, on which functions and sets, over how many grid
points) and the seed draws everything else: points, scales, grids, variants
and the order.  A run always ends on a round boundary, so ``evals_per_op``
repeats exactly from run to run and from seed to seed.

An op is one timed call into the library (or one ``cshd.cli`` process).  Its
``check`` runs after the clock stops: it raises ``OpFailure`` on a wrong
result and otherwise returns ``(evals or None, text)``, where ``text`` is the
output that must repeat byte for byte whenever ``key`` repeats.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cshd import cli, experiments, registry, report, sets
from cshd.registry import RegistryFunction
from cshd.sets import SetKind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PAPER_SETS = (SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB)
PAPER_POINTS = {
    "rosenbrock2": (experiments.POINT_X1, experiments.POINT_X2),
    "expprod3": (experiments.POINT_E41,),
}
SWEEP_POINTS = 48       # grid-studies sweep length
CLI_SWEEP_POINTS = 24   # cli sweep length
CLI_VARIANTS = 3        # seeded variants per cli template; repeats test determinism
HIGHDIM_N = 200

# The two Table 2 records per rmpb point whose references lie below what
# double precision reaches; they may report ``skip``, nothing else may.
ALLOWED_SKIPS = {("table2", "rmpb", "limit_rer"), ("table2", "rmpb", "inf_rer")}


class OpFailure(Exception):
    """An op returned a wrong, non-finite or inconsistent result."""


@dataclass(frozen=True)
class CountedFunction(RegistryFunction):
    """A RegistryFunction that keeps the Objectives it hands out, so the
    benchmark can read ``Objective.evals`` after ``run_*`` created them."""

    issued: list = field(default_factory=list, compare=False, repr=False)

    def objective(self):
        obj = super().objective()
        self.issued.append(obj)
        return obj


def counted(func: RegistryFunction) -> CountedFunction:
    return CountedFunction(func.name, func.dim, func.fn, func.gradient, func.hessian, func.lipschitz_d3)


@dataclass
class Op:
    label: str
    key: tuple | None
    run: Callable[[], object]
    check: Callable[[object], tuple]


def set_size(n: int, kind: SetKind) -> int:
    """Number of directions k of a built-in set (or a custom n x (n+1) one)."""
    return n if kind in (SetKind.CB, SetKind.RB) else n + 1


def _finite(label: str, *values) -> None:
    for v in values:
        try:
            ok = v is not None and math.isfinite(float(v))
        except ValueError:
            ok = False
        if not ok:
            raise OpFailure(f"{label}: non-finite or missing value {v!r}")


def _expect(label: str, what: str, got, want) -> None:
    if got != want:
        raise OpFailure(f"{label}: {what} is {got!r}, expected {want!r}")


def _near_point(rng: np.random.Generator, name: str) -> np.ndarray:
    """A paper point (one time in three) or a seeded point 2% away from one."""
    choices = PAPER_POINTS[name]
    base = choices[int(rng.integers(len(choices)))]
    if rng.random() < 1.0 / 3.0:
        return base.copy()
    return base * (1.0 + 0.02 * rng.standard_normal(base.size))


# ---------------------------------------------------------------------------
# Reproduce gate (in-process cshd.cli.main) and its checks


def _capture_main(argv: list[str]):
    """Run ``cshd.cli.main`` in this process; stderr is not captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), ""


def check_reproduce(label: str, code: int, text: str) -> None:
    _expect(label, "exit code", code, 0)
    records = list(csv.reader(io.StringIO(text)))
    _expect(label, "header", records[0] if records else None, experiments.REPRO_HEADER)
    if len(records) < 2:
        raise OpFailure(f"{label}: no checks reported")
    for rec in records[1:]:
        target, _, _, set_name, _, quantity, computed, _, _, status = rec
        if status == "fail":
            raise OpFailure(f"{label}: check failed: {rec}")
        if status == "skip" and (target, set_name, quantity) not in ALLOWED_SKIPS:
            raise OpFailure(f"{label}: unexpected skip: {rec}")
        if status not in ("pass", "skip", "info"):
            raise OpFailure(f"{label}: unknown status: {rec}")
        _finite(label, computed)


def reproduce_gate() -> list[Op]:
    """The four reproduction targets, one op each, through ``cli.main``."""
    ops = []
    for target in experiments.REPRO_TARGETS:
        label = f"reproduce {target}"

        def check(out, label=label):
            code, text, _ = out
            check_reproduce(label, code, text)
            return None, text

        ops.append(Op(label, ("reproduce", target),
                      lambda target=target: _capture_main(["reproduce", target]), check))
    return ops


# ---------------------------------------------------------------------------
# grid-studies


class GridStudies:
    """run_limit_study on the default grid and run_sweep(with_bound=True) on
    a seeded geometric grid, for rosenbrock2 and expprod3 over the four
    paper sets.  A round is those 16 ops in seeded order."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.functions = [counted(registry.get(name)) for name in PAPER_POINTS]

    def round(self) -> list[Op]:
        ops = []
        for func in self.functions:
            for kind in PAPER_SETS:
                ops.append(self._limit(func, kind, _near_point(self.rng, func.name)))
                start = 10.0 ** self.rng.uniform(-1.3, 0.0)
                factor = self.rng.uniform(0.7, 0.85)
                hs = start * factor ** np.arange(SWEEP_POINTS)
                ops.append(self._sweep(func, kind, _near_point(self.rng, func.name), hs))
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def gate(self) -> list[Op]:
        return reproduce_gate()

    def _limit(self, func, kind, point) -> Op:
        label = f"limit-study {func.name} {kind.value}"

        def run():
            func.issued.clear()
            study = experiments.run_limit_study(func, point, kind)
            return study, study.report.render("csv")

        def check(out):
            study, text = out
            grid = experiments.DEFAULT_LIMIT_GRID.size
            evals = self._check_rows(label, func, kind, study.report.rows, grid, bound=False)
            _finite(label, study.plateau, study.grid_inf, study.grid_inf_h)
            return evals, text

        return Op(label, ("limit", func.name, point.tobytes(), kind.value), run, check)

    def _sweep(self, func, kind, point, hs) -> Op:
        label = f"sweep {func.name} {kind.value}"

        def run():
            func.issued.clear()
            sweep = experiments.run_sweep(func, point, kind, hs, with_bound=True)
            return sweep, sweep.report.render("csv")

        def check(out):
            sweep, text = out
            evals = self._check_rows(label, func, kind, sweep.report.rows, hs.size, bound=True)
            _finite(label, sweep.best_h, sweep.best_metric)
            if sweep.fitted_order is not None:
                _finite(label, sweep.fitted_order)
            return evals, text

        return Op(label, ("sweep", func.name, point.tobytes(), kind.value, hs.tobytes()), run, check)

    @staticmethod
    def _check_rows(label, func, kind, rows, grid: int, bound: bool) -> int:
        k = set_size(func.dim, kind)
        evals = sum(obj.evals for obj in func.issued)
        _expect(label, "Objective.evals", evals, 2 * k * grid + 1)
        _expect(label, "row count", len(rows), grid)
        for row in rows:
            _expect(label, "row evals", row.evals, 2 * k)
            _finite(label, row.h, row.delta_s, row.rer_diag, row.abs_err_diag, row.rer_grad)
            if bound:
                _finite(label, row.bound_total, row.bound_cross)
        return evals


# ---------------------------------------------------------------------------
# highdim


def polynomial(rng: np.random.Generator, n: int) -> CountedFunction:
    """f(x) = x'Ax/2 + b'x + sum_i c_i x_i^4 with a seeded symmetric coupling A.

    The third derivative is diagonal, T_iii = 24 c_i x_i, so 24 max(c) is the
    exact Lipschitz constant of the third derivative (Frobenius norm).
    """
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    A = 0.5 * (B + B.T)
    b = rng.standard_normal(n)
    c = rng.uniform(0.5, 1.5, n)
    lip = 24.0 * float(c.max())

    def fn(x):
        x2 = x * x
        return float(0.5 * (x @ (A @ x)) + b @ x + c @ (x2 * x2))

    def gradient(x):
        return A @ x + b + 4.0 * c * x**3

    def hessian(x):
        return A + np.diag(12.0 * c * x * x)

    return CountedFunction(f"poly{n}", n, fn, gradient, hessian, lambda x0, delta: lip)


class HighDim:
    """A fresh n=200 set per op (cb, rb, cmpb, rmpb or a Gaussian custom
    n x (n+1) matrix) at a log-uniform h in [1e-4, 1e-1], then
    run_approx(with_bound=True) at a fresh point.  A round is the five kinds
    in seeded order."""

    KINDS = (*PAPER_SETS, SetKind.CUSTOM)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.func = polynomial(self.rng, HIGHDIM_N)
        self.functions = [self.func]

    def round(self) -> list[Op]:
        return [self._approx(self.KINDS[i]) for i in self.rng.permutation(len(self.KINDS))]

    def gate(self) -> list[Op]:
        return reproduce_gate()

    def _approx(self, kind: SetKind) -> Op:
        n, func = HIGHDIM_N, self.func
        h = 10.0 ** self.rng.uniform(-4.0, -1.0)
        x = self.rng.standard_normal(n)
        matrix = h * self.rng.standard_normal((n, n + 1)) if kind is SetKind.CUSTOM else None
        label = f"approx {func.name} {kind.value} h={h:.3g}"

        def run():
            if matrix is None:
                S = sets.build_set(kind, n, h)
            else:
                S = sets.SampleDirections(matrix, SetKind.CUSTOM)
            result = experiments.run_approx(func, x, S, h=h, with_bound=True)
            return result, report.ExperimentReport([result.row]).render("csv")

        def check(out):
            result, text = out
            want = 2 * set_size(n, kind) + 1
            _expect(label, "Objective.evals", result.objective.evals, want)
            _expect(label, "row evals", result.row.evals, want)
            if not (np.isfinite(result.gradient.value).all() and np.isfinite(result.diag.value).all()):
                raise OpFailure(f"{label}: non-finite estimate")
            row, bound = result.row, result.bound
            _finite(label, row.delta_s, row.rer_diag, row.abs_err_diag, row.rer_grad,
                    bound.total, bound.cross_term, bound.pinv_norm)
            return want, text

        return Op(label, None, run, check)


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliCommand:
    argv: tuple
    fmt: str              # csv, md or repro
    rows: int             # expected report rows
    row_evals: int        # expected evals column of every row
    bound: bool           # bound columns filled
    out: Path | None = None


class Cli:
    """One ``python -m cshd.cli`` process per op.  A round is one command
    per template below, each drawn among CLI_VARIANTS seeded variants, in
    seeded order.  With ``in_process`` the same commands run through
    ``cshd.cli.main`` in this process (the traced run)."""

    # (command, function, set); sets are fixed per template so that every
    # round costs the same number of evaluations.
    TEMPLATES = (
        ("reproduce", None, None),
        ("approx", "rosenbrock2", "cmpb"),
        ("approx", "expprod3", "rmpb"),
        ("sweep", "expprod3", "cb"),
        ("sweep-md", "rosenbrock2", "rb"),
        ("limit-study", "rosenbrock2", "rmpb"),
        ("limit-study", "expprod3", "cmpb"),
        ("config", "rosenbrock2", "cb"),
    )

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.in_process = in_process
        self.functions = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.variants = [
            [self._command(t, i, v) for v in range(CLI_VARIANTS)]
            for i, t in enumerate(self.TEMPLATES)
        ]

    def gate(self) -> list[Op]:
        return []

    def round(self) -> list[Op]:
        picks = [vs[int(self.rng.integers(len(vs)))] for vs in self.variants]
        return [self._op(picks[i]) for i in self.rng.permutation(len(picks))]

    def _command(self, template, index: int, variant: int) -> CliCommand:
        command, fname, set_name = template
        if command == "reproduce":
            return CliCommand(("reproduce", "table1"), "repro", 0, 0, False)
        rng = self.rng
        func = registry.get(fname)
        k = set_size(func.dim, SetKind(set_name))
        point = ",".join(repr(float(v)) for v in _near_point(rng, fname))
        base = ("--function", fname, "--point", point, "--set", set_name)
        if command == "approx":
            h = repr(float(10.0 ** rng.uniform(-4.0, -1.0)))
            return CliCommand(("approx", *base, "--h", h, "--with-bound"), "csv", 1, 2 * k + 1, True)
        if command == "limit-study":
            rows = experiments.DEFAULT_LIMIT_GRID.size
            return CliCommand(("limit-study", *base), "csv", rows, 2 * k, False)
        # A geometric grid of exactly CLI_SWEEP_POINTS points: STOP sits half
        # a step (in log scale) below the last point.
        start = float(10.0 ** rng.uniform(-1.3, 0.0))
        factor = float(rng.uniform(0.6, 0.8))
        stop = start * factor ** (CLI_SWEEP_POINTS - 1) * math.sqrt(factor)
        grid = f"{start!r}:{stop!r}:{factor!r}"
        if command == "sweep":
            return CliCommand(("sweep", *base, "--h-grid", grid), "csv", CLI_SWEEP_POINTS, 2 * k, False)
        if command == "sweep-md":
            out = self.workdir / f"sweep-{index}-{variant}.md"
            argv = ("sweep", *base, "--h-grid", grid, "--format", "md", "--out", str(out))
            return CliCommand(argv, "md", CLI_SWEEP_POINTS, 2 * k, False, out)
        config = self.workdir / f"sweep-{index}-{variant}.cfg"
        config.write_text(
            f"# sweep driven by --config\nfunction = {fname}\npoint = {point}\n"
            f"set = {set_name}\nh_grid = {grid}\nwith_bound = true\n"
        )
        return CliCommand(("sweep", "--config", str(config)), "csv", CLI_SWEEP_POINTS, 2 * k, True)

    def _op(self, cmd: CliCommand) -> Op:
        label = "cshd " + " ".join(cmd.argv[:1] + cmd.argv[1:3])
        if self.in_process:
            def run():
                return _capture_main(list(cmd.argv))
        else:
            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "cshd.cli", *cmd.argv], cwd=self.workdir,
                    env=self.env, capture_output=True, text=True, timeout=60,
                )
                return proc.returncode, proc.stdout, proc.stderr

        def check(out):
            code, stdout, stderr = out
            if code != 0:
                raise OpFailure(f"{label}: exit code {code}: {stderr.strip()}")
            if cmd.fmt == "repro":
                check_reproduce(label, code, stdout)
                return None, stdout
            text = stdout
            if cmd.out is not None:
                _expect(label, "stdout", stdout, "")
                text = cmd.out.read_text()
                cmd.out.unlink()
            return check_report(label, cmd, text), text

        return Op(label, cmd.argv, run, check)


def check_report(label: str, cmd: CliCommand, text: str) -> int:
    """Validate a rendered report (csv or md); return its evals column sum."""
    lines = text.splitlines()
    if cmd.fmt == "csv":
        records = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
        comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    else:
        table = [[c.strip() for c in ln.strip().strip("|").split("|")] for ln in lines if ln.startswith("|")]
        records = table[:1] + table[2:]
        comments = [ln[2:].strip() for ln in lines if ln.startswith("- ")]
    _expect(label, "header", records[0] if records else None, report.CSV_HEADER)
    rows = records[1:]
    _expect(label, "row count", len(rows), cmd.rows)
    for rec in rows:
        _expect(label, "field count", len(rec), len(report.CSV_HEADER))
        _finite(label, *rec[3:8])
        if cmd.bound:
            _finite(label, *rec[8:10])
        else:
            _expect(label, "bound columns", rec[8:10], ["", ""])
        _expect(label, "row evals", int(rec[10]), cmd.row_evals)
    for comment in comments:
        key, _, value = comment.partition("=")
        if value not in ("", "true", "false"):
            _finite(f"{label}: {key}", *value.split(","))
    return cmd.row_evals * cmd.rows


IN_PROCESS = {"grid-studies": GridStudies, "highdim": HighDim}
