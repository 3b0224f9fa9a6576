"""Experiment drivers behind the CLI: single approximations, h sweeps,
small-h limit studies, and reproduction of the bundled reference
experiments with their expected values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .analysis import BoundBreakdown, convergence_order, cross_term_sum, plan_error_bound
from .calculus import (
    DiagHessianEstimate,
    EvaluatedStencil,
    GradientEstimate,
    Objective,
    StencilPlan,
    evaluate_stencils,
)
from .exceptions import ParameterError
from .linalg import _EPS
from .registry import RegistryFunction, get as get_function
from .report import (ExperimentReport, ReportRow, as_record, fmt_float, fmt_point, render_table,
                     summary_lines)
from .sets import SampleDirections, SetKind, build_set

__all__ = [
    "ApproxResult",
    "SweepResult",
    "LimitStudyResult",
    "ReproCheck",
    "ReproduceResult",
    "REPRO_TARGETS",
    "DEFAULT_LIMIT_GRID",
    "build_scaled_set",
    "parse_h_grid",
    "run_approx",
    "run_sweep",
    "run_limit_study",
    "run_reproduce",
]

# Exponents 10^0.5 .. 10^-6 in steps of 1/16: wide enough to catch interior
# minima near h ~ 1.5 and deep enough to expose the round-off branch.
DEFAULT_LIMIT_GRID = 10.0 ** np.arange(0.5, -6.0 - 1e-12, -0.0625)

# Window over which the small-h limit of the relative error is estimated as
# a median: low enough that the h^2 truncation term is negligible, high
# enough that round-off has not taken over (double precision).
PLATEAU_WINDOW = (1e-4, 1e-2)

# The non-monotonicity flag: the grid minimum sits strictly inside the grid
# and the error at the smallest h exceeds the minimum by at least this factor.
NONMONOTONE_FACTOR = 1.1


def build_scaled_set(directions: SetKind | SampleDirections, n: int, h: float) -> SampleDirections:
    """A named set built in R^n at scale h, or the given set scaled by h."""
    if isinstance(directions, SampleDirections):
        return directions.scaled(h) if h != 1.0 else directions
    return build_set(directions, n, h)


def parse_h_grid(spec: str) -> np.ndarray:
    """Parse a geometric grid spec ``START:STOP:FACTOR`` into descending hs."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"h-grid must look like START:STOP:FACTOR, got {spec!r}")
    try:
        start, stop, factor = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"h-grid values must be numeric, got {spec!r}") from exc
    if not (start > stop > 0):
        raise ParameterError(f"h-grid needs START > STOP > 0, got {spec!r}")
    if not (0 < factor < 1):
        raise ParameterError(f"h-grid FACTOR must lie in (0, 1), got {spec!r}")
    hs = [start]
    while hs[-1] * factor >= stop * (1.0 - 1e-12):
        hs.append(hs[-1] * factor)
        if len(hs) > 100_000:
            raise ParameterError(f"h-grid {spec!r} produces too many points")
    return np.array(hs)


@dataclass(frozen=True)
class ApproxResult:
    gradient: GradientEstimate
    diag: DiagHessianEstimate
    f0: float
    row: ReportRow
    bound: BoundBreakdown | None = None
    objective: object = None  # the counting Objective that was evaluated

    @property
    def report(self) -> ExperimentReport:
        """The row, with the estimates g and d, f0, the rank flag and any
        bound fields as summary lines; built on each read."""
        b = self.bound
        bound = {} if b is None else {f"bound_{k}": v for k, v in vars(b).items() if v is not None}
        return ExperimentReport([self.row], summary_lines(
            g=fmt_point(self.gradient.value), d=fmt_point(self.diag.value), f0=self.f0,
            w_rank_deficient=self.diag.w_rank_deficient, **bound))


def _checked_point(func: RegistryFunction, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (func.dim,):
        raise ParameterError(f"{func.name} expects a point in R^{func.dim}, got {point.shape}")
    # min and max are finite exactly when every entry is; no temporary array.
    if not (math.isfinite(point.min()) and math.isfinite(point.max())):
        raise ParameterError("x0 contains NaN or infinite entries")
    return point


class _Study(NamedTuple):
    """The rows of one study and the arrays they were built from, one
    entry per h: ``g`` and ``d`` are ``(m, n)``, and ``metrics`` is the
    relative diagonal error, or the absolute one when ||diag(H)|| = 0."""

    rows: list[ReportRow]
    g: np.ndarray
    d: np.ndarray
    radii: np.ndarray
    abs_errs: np.ndarray
    metrics: np.ndarray
    diag_norm: float
    stencil: EvaluatedStencil
    bounds: list[BoundBreakdown | None]
    w_rank_deficient: bool
    objective: Objective


def _study(func: RegistryFunction, point: np.ndarray, directions: SetKind | SampleDirections,
           hs: np.ndarray, with_bound: bool, known_f0: float | None = None) -> _Study:
    """Evaluate the stencils over ``hs[j] * unit`` as one array, f(x0)
    included unless known, and build one row per h.

    Everything that depends on the point or the unit-scale set and not on h
    is computed once: the set's :class:`StencilPlan`, the analytic gradient
    and diagonal with their norms and, with a bound, the scale-invariant
    cross term.  Each row counts its 2k evaluations, and none counts f(x0).
    """
    obj = func.objective()
    label = fmt_point(point)
    unit = build_scaled_set(directions, func.dim, 1.0)
    plan = StencilPlan(unit)
    truth_grad = func.gradient(point)
    hess = func.hessian(point)
    truth_diag = np.diag(hess).copy()
    cross = 2.0 * cross_term_sum(unit, hess) if with_bound else None
    del hess  # the n x n Hessian is not kept while the stencil is evaluated
    # Every h gets its own validated set, before any evaluation; its radius
    # is the row's delta_s.
    radii = np.array([build_scaled_set(unit, func.dim, h).radius for h in hs.tolist()])
    stencil = evaluate_stencils(obj, point, unit, hs, known_f0=known_f0)
    g, d = plan.scaled_estimates(stencil.delta_c, stencil.eps, hs)
    bounds = [None] * hs.size
    if cross is not None:
        if func.lipschitz_d3 is None:
            raise ParameterError(f"no certified third-derivative Lipschitz bound for {func.name}")
        lips = [float(func.lipschitz_d3(point, r)) for r in radii.tolist()]
        bounds = [plan_error_bound(plan, r, lip, cross) for r, lip in zip(radii.tolist(), lips)]
    abs_errs = np.linalg.norm(d - truth_diag, axis=1)
    diag_norm = float(np.linalg.norm(truth_diag))
    metrics = abs_errs / diag_norm if diag_norm > 0.0 else abs_errs
    rer_diag = metrics.tolist() if diag_norm > 0.0 else [None] * hs.size
    grad_norm = float(np.linalg.norm(truth_grad))
    err_grad = np.linalg.norm(g - truth_grad, axis=1).tolist()
    rows = [
        ReportRow(
            function=func.name,
            point=label,
            set=unit.kind.value,
            h=h,
            delta_s=r,
            rer_diag=rer,
            abs_err_diag=a,
            rer_grad=e / grad_norm if grad_norm > 0.0 else None,
            bound_total=b.total if b else None,
            bound_cross=b.cross_term if b else None,
            evals=2 * unit.k,
        )
        for h, r, rer, a, e, b in zip(hs.tolist(), radii.tolist(), rer_diag, abs_errs.tolist(),
                                      err_grad, bounds)
    ]
    return _Study(rows, g, d, radii, abs_errs, metrics, diag_norm, stencil, bounds,
                  plan.w_rank_deficient, obj)


def run_approx(
    func: RegistryFunction,
    point,
    S: SampleDirections,
    h: float = 1.0,
    with_bound: bool = False,
    known_f0: float | None = None,
) -> ApproxResult:
    """One gradient + Hessian-diagonal approximation over S, with errors
    against the analytic truth and (optionally) the error-bound breakdown.
    ``h`` only labels the row: S is used as given."""
    point = _checked_point(func, point)
    study = _study(func, point, S, np.ones(1), with_bound, known_f0)
    diag = DiagHessianEstimate(study.d[0], study.w_rank_deficient)
    row = replace(study.rows[0], h=h, evals=study.stencil.evals_used)
    return ApproxResult(GradientEstimate(study.g[0]), diag, study.stencil.f0, row, study.bounds[0],
                        study.objective)


def _descending_grid(hs) -> np.ndarray:
    hs = np.sort(np.asarray(hs, dtype=float))[::-1]
    if hs.size < 1 or np.any(hs <= 0):
        raise ParameterError("the h grid must contain positive values")
    if np.any(hs[1:] == hs[:-1]):
        raise ParameterError("the h grid contains duplicate values")
    return hs


def _middle(values: np.ndarray) -> float:
    """The median, bit for bit as ``np.median`` gives it, taken from
    ``np.sort`` because ``np.median`` imports ``numpy.ma``."""
    v = np.sort(values)
    mid = v.size // 2
    return float(v[mid] if v.size % 2 else (v[mid - 1] + v[mid]) / 2)


@dataclass(frozen=True)
class SweepResult:
    report: ExperimentReport
    fitted_order: float | None
    best_h: float
    best_metric: float


def run_sweep(func: RegistryFunction, point, directions: SetKind | SampleDirections, hs,
              with_bound: bool = False) -> SweepResult:
    """Approximate over a descending h grid, fit the convergence order on the
    truncation-dominated rows, and locate the grid minimum of the error.

    ``directions`` is a named set, built in R^n, or a set scaled by each h."""
    point = _checked_point(func, point)
    hs = _descending_grid(hs)
    study = _study(func, point, directions, hs, with_bound)

    # Keep rows whose error is credibly truncation (above the round-off
    # floor eps*|f0| / delta^2 and above noise relative to the truth).
    floor = 100.0 * _EPS * np.maximum(abs(study.stencil.f0) / study.radii**2, study.diag_norm)
    kept = study.abs_errs > floor
    fitted = convergence_order(hs[kept], study.abs_errs[kept]) if kept.sum() >= 3 else None

    best = int(np.argmin(study.metrics))
    report = ExperimentReport(study.rows, summary_lines(
        fitted_order=fitted, best_h=hs[best], best_rer=study.metrics[best]))
    return SweepResult(report, fitted, float(hs[best]), float(study.metrics[best]))


@dataclass(frozen=True)
class LimitStudyResult:
    report: ExperimentReport
    plateau: float
    grid_inf: float
    grid_inf_h: float
    nonmonotone: bool


def run_limit_study(func: RegistryFunction, point, directions: SetKind | SampleDirections,
                    hs=None) -> LimitStudyResult:
    """Estimate the small-h limit of the relative error as the median over
    the plateau window, report the grid infimum, and flag non-monotone
    behavior (error growing again as h shrinks past the grid minimum).
    ``directions`` is taken as in :func:`run_sweep`."""
    point = _checked_point(func, point)
    hs = DEFAULT_LIMIT_GRID if hs is None else _descending_grid(hs)
    study = _study(func, point, directions, hs, with_bound=False)
    metrics = study.metrics

    lo, hi = PLATEAU_WINDOW
    window = (hs >= lo * (1.0 - 1e-9)) & (hs <= hi * (1.0 + 1e-9))
    if int(window.sum()) < 3:
        raise ParameterError(
            f"h grid has fewer than 3 points in the plateau window [{lo:g}, {hi:g}]"
        )
    plateau = _middle(metrics[window])

    best = int(np.argmin(metrics))
    nonmonotone = bool(best < hs.size - 1 and metrics[-1] >= NONMONOTONE_FACTOR * metrics[best])
    report = ExperimentReport(study.rows, summary_lines(
        plateau_rer=plateau, inf_rer=metrics[best], inf_h=hs[best], nonmonotone=nonmonotone))
    return LimitStudyResult(report, plateau, float(metrics[best]), float(hs[best]), nonmonotone)


# ---------------------------------------------------------------------------
# Reference reproductions


@dataclass(frozen=True)
class ReproCheck:
    """One record of a reproduce table; the field names are its CSV header."""

    target: str
    function: str
    point: str
    set: str
    h: str
    quantity: str
    computed: float
    reference: str
    tolerance: str
    status: str


REPRO_HEADER = [f.name for f in fields(ReproCheck)]

POINT_X1 = np.array([1.1, 1.1**2 + 1e-5])
POINT_X2 = np.array([0.9, 0.81])
POINT_E41 = np.array([3.0, 2.0, 1.0])

# Tolerance policies with their argument, applied by :func:`_judge`.
_REL5, _REL10 = ("rel", 0.05), ("rel", 0.10)
_FACTOR3 = ("factor", 3.0)  # round-off-dominated entries match within a factor
_VANISHES = ("below", 1e-5)  # "vanishing limit" acceptance level for lonely sets
_FP64 = ("skip", None)  # exact-arithmetic values beyond double precision
_FLAG, _INFO = ("flag", None), ("info", None)


# REPRO_SPEC lists each target's studies in report order.  A study is
# (function, point, kind, h, checks): run_approx over build_set(kind, n, h),
# or run_limit_study on the default grid when h is None.  A check is
# (quantity, reference, policy); a float reference is judged and printed
# with fmt_float, a string one is printed as given.
def _approx(function, point, kind, h, reference, policy=_REL5) -> tuple:
    return function, point, kind, h, (("rer_diag", reference, policy),)


def _limit(function, point, kind, *checks) -> tuple:
    return function, point, kind, None, checks


_ROSEN, _EXPPROD = "rosenbrock2", "expprod3"
_CB, _RB, _CMPB, _RMPB = SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB
_TABLE3_H = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
# Example 4.1 is the rmpb limit study of expprod3; Table 3 checks only its limit.
_E41_STUDY = (_EXPPROD, POINT_E41, _RMPB, None)
_E41_LIMIT = ("limit_rer", 1.33e-1, _REL5)

REPRO_SPEC: dict[str, list[tuple]] = {
    "table1": [
        _approx(_ROSEN, POINT_X1, _CB, 1e-3, 2.02e-7),
        _approx(_ROSEN, POINT_X1, _RB, 1e-3, 3.14e-1),
        _approx(_ROSEN, POINT_X1, _CMPB, 1e-3, 4.19e-1),
        _approx(_ROSEN, POINT_X1, _RMPB, 1e-3, 1.78e-7),
        _approx(_ROSEN, POINT_X2, _CB, 1e-6, 1.18e-9, _FACTOR3),
        _approx(_ROSEN, POINT_X2, _RB, 1e-6, 3.74e-1),
        _approx(_ROSEN, POINT_X2, _CMPB, 1e-6, 4.99e-1),
        _approx(_ROSEN, POINT_X2, _RMPB, 1e-6, 3.39e-9, _FACTOR3),
    ],
    "table2": [
        _limit(_ROSEN, POINT_X1, _CB, ("limit_rer", 0.0, _VANISHES), ("inf_rer", 0.0, _VANISHES)),
        _limit(_ROSEN, POINT_X1, _RB, ("limit_rer", 3.14e-1, _REL5), ("inf_rer", 3.14e-1, _REL5)),
        _limit(_ROSEN, POINT_X1, _CMPB, ("limit_rer", 4.19e-1, _REL5),
               ("inf_rer", 2.96e-1, _REL5)),
        # The limit diverges; the error grows again below the grid minimum.
        _limit(_ROSEN, POINT_X1, _RMPB, ("limit_rer", "divergent", _FP64),
               ("inf_rer", "5.71e-10", _FP64), ("nonmonotone", 1.0, _FLAG)),
        _limit(_ROSEN, POINT_X2, _CB, ("limit_rer", 0.0, _VANISHES), ("inf_rer", 0.0, _VANISHES)),
        _limit(_ROSEN, POINT_X2, _RB, ("limit_rer", 3.74e-1, _REL5), ("inf_rer", 3.74e-1, _REL5)),
        _limit(_ROSEN, POINT_X2, _CMPB, ("limit_rer", 5.00e-1, _REL5),
               ("inf_rer", 3.53e-1, _REL5)),
        _limit(_ROSEN, POINT_X2, _RMPB, ("limit_rer", "4.65e-10", _FP64),
               ("inf_rer", "4.65e-10", _FP64)),
    ],
    "table3": [
        *(_approx(_EXPPROD, POINT_E41, _RMPB, h, ref, _REL10)
          for h, ref in zip(_TABLE3_H, (5.93e1, 1.31e-1, 1.33e-1, 1.33e-1, 1.33e-1))),
        (*_E41_STUDY, (_E41_LIMIT,)),
        *(_approx(_EXPPROD, POINT_E41, _CB, h, ref, _REL10)
          for h, ref in zip(_TABLE3_H, (9.79e0, 2.93e-2, 2.90e-4, 2.90e-6, 2.95e-8))),
        _limit(_EXPPROD, POINT_E41, _CB, ("limit_rer", 0.0, _VANISHES)),
    ],
    "example41": [
        (*_E41_STUDY, (_E41_LIMIT, ("min_rer", 1.30e-1, _REL5), ("argmin_h", "0.0883", _INFO))),
    ],
}
REPRO_TARGETS = tuple(REPRO_SPEC)

# The computed value behind each quantity, from an ApproxResult or a
# LimitStudyResult.
_QUANTITIES = {
    "rer_diag": lambda r: r.row.rer_diag,
    "limit_rer": lambda r: r.plateau,
    "inf_rer": lambda r: r.grid_inf,
    "min_rer": lambda r: r.grid_inf,
    "argmin_h": lambda r: r.grid_inf_h,
    "nonmonotone": lambda r: float(r.nonmonotone),
}


def _judge(computed: float, reference, policy) -> tuple[str, str]:
    """The tolerance text and the status of one check."""
    name, arg = policy
    if name == "rel":
        tolerance, ok = f"rel<={arg:.0%}", abs(computed - reference) <= arg * abs(reference)
    elif name == "factor":
        tolerance, ok = f"factor<={arg:g}", reference / arg <= computed <= reference * arg
    elif name == "below":
        tolerance, ok = f"<{arg:g}", computed < arg
    elif name == "flag":
        tolerance, ok = "flag", computed == reference
    elif name == "skip":
        return "not reproducible in fp64", "skip"
    else:
        return "info", "info"
    return tolerance, "pass" if ok else "fail"


@dataclass
class ReproduceResult:
    checks: list[ReproCheck] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def render(self, fmt: str = "csv") -> str:
        return render_table(REPRO_HEADER, map(as_record, self.checks), (), fmt)


def run_reproduce(target: str) -> ReproduceResult:
    """Re-run one of the bundled reference experiments (its studies in
    :data:`REPRO_SPEC`) and judge each computed value against its reference
    under the check's tolerance policy."""
    if target not in REPRO_SPEC:
        known = ", ".join(REPRO_TARGETS)
        raise ParameterError(f"unknown reproduction target {target!r}; expected one of {known}")
    checks = []
    for function, point, kind, h, spec_checks in REPRO_SPEC[target]:
        func = get_function(function)
        if h is None:
            result, h_text = run_limit_study(func, point, kind), ""
        else:
            S = build_set(kind, func.dim, h)
            result, h_text = run_approx(func, point, S, h=h), fmt_float(h)
        for quantity, reference, policy in spec_checks:
            computed = _QUANTITIES[quantity](result)
            ref = fmt_float(reference) if isinstance(reference, float) else reference
            checks.append(ReproCheck(target, func.name, fmt_point(point), kind.value, h_text,
                                     quantity, computed, ref, *_judge(computed, reference, policy)))
    return ReproduceResult(checks)
