"""Experiment drivers behind the CLI: single approximations, h sweeps,
small-h limit studies, and reproduction of the bundled reference
experiments with their expected values.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .analysis import BoundBreakdown, convergence_order, cross_term_sum, plan_error_bound
from .calculus import (
    DiagHessianEstimate,
    EvaluatedStencil,
    GradientEstimate,
    StencilPlan,
    evaluate_stencils,
)
from .exceptions import ParameterError
from .linalg import _EPS
from .registry import RegistryFunction, get as get_function
from .report import ExperimentReport, ReportRow, fmt_float, fmt_point, render_table
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


def build_scaled_set(
    kind: SetKind, n: int, h: float, custom: SampleDirections | None = None
) -> SampleDirections:
    """A named set built at scale h, or the custom matrix scaled by h."""
    if kind is SetKind.CUSTOM:
        if custom is None:
            raise ParameterError("a custom direction matrix is required for kind=custom")
        return custom.scaled(h) if h != 1.0 else custom
    return build_set(kind, n, h)


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
    stencil: EvaluatedStencil
    row: ReportRow
    bound: BoundBreakdown | None = None
    objective: object = None  # the counting Objective that was evaluated


def _certified_lipschitz(func: RegistryFunction, point: np.ndarray, radius: float) -> float:
    if func.lipschitz_d3 is None:
        raise ParameterError(f"no certified third-derivative Lipschitz bound for {func.name}")
    return float(func.lipschitz_d3(point, radius))


def _checked_point(func: RegistryFunction, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (func.dim,):
        raise ParameterError(f"{func.name} expects a point in R^{func.dim}, got {point.shape}")
    return point


class _RowBuilder:
    """Report rows at one point over one direction set at any scales.

    Everything that depends on the point or the unit-scale set and not on h
    is computed once here: the set's :class:`StencilPlan`, the analytic
    gradient and diagonal with their norms and, with a bound, the
    scale-invariant cross term.
    """

    def __init__(self, func: RegistryFunction, point: np.ndarray, set_name: str,
                 unit: SampleDirections, with_bound: bool):
        self.func = func
        self.point = point
        self.label = fmt_point(point)
        self.set_name = set_name
        self.plan = StencilPlan(unit)
        self.truth_grad = func.gradient(point)
        self.truth_diag = func.diag_hessian(point)
        self.grad_norm = float(np.linalg.norm(self.truth_grad))
        self.diag_norm = float(np.linalg.norm(self.truth_diag))
        self.cross = 2.0 * cross_term_sum(unit, func.hessian(point)) if with_bound else None

    def rows(self, obj, hs, radii: list[float], known_f0: float | None):
        """Evaluate the stencils over ``hs[j] * unit`` as one array and build
        one row per h; ``radii[j]`` is the radius of that scaled set.

        Returns the rows, the ``(m, n)`` gradient and diagonal estimates, the
        evaluated stencils and the bounds (``None`` without a bound).  Each
        row counts its 2k evaluations; the first also counts f(x0) when it
        was evaluated here.
        """
        stencil = evaluate_stencils(obj, self.point, self.plan.directions, hs, known_f0=known_f0)
        g, d = self.plan.scaled_estimates(stencil.delta_c, stencil.eps, hs)
        bounds = [None] * len(radii)
        if self.cross is not None:
            lips = [_certified_lipschitz(self.func, self.point, r) for r in radii]
            bounds = [plan_error_bound(self.plan, r, lip, self.cross) for r, lip in zip(radii, lips)]
        abs_diag = np.linalg.norm(d - self.truth_diag, axis=1).tolist()
        err_grad = np.linalg.norm(g - self.truth_grad, axis=1).tolist()
        evals = [2 * self.plan.directions.k] * len(radii)
        evals[0] += int(known_f0 is None)
        rows = [
            ReportRow(
                function=self.func.name,
                point=self.label,
                set_name=self.set_name,
                h=h,
                delta_s=r,
                rer_diag=a / self.diag_norm if self.diag_norm > 0.0 else None,
                abs_err_diag=a,
                rer_grad=e / self.grad_norm if self.grad_norm > 0.0 else None,
                bound_total=b.total if b else None,
                bound_cross=b.cross_term if b else None,
                evals=ev,
            )
            for h, r, a, e, b, ev in zip(np.asarray(hs, dtype=float).tolist(), radii,
                                         abs_diag, err_grad, bounds, evals)
        ]
        return rows, g, d, stencil, bounds


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
    obj = func.objective()
    builder = _RowBuilder(func, point, S.kind.value, S, with_bound)
    rows, g, d, stencil, bounds = builder.rows(obj, [1.0], [S.radius], known_f0)
    grad = GradientEstimate(g[0], S, point)
    diag = DiagHessianEstimate(d[0], S, point, w_rank_deficient=builder.plan.w_rank_deficient)
    return ApproxResult(grad, diag, stencil.single(), replace(rows[0], h=h), bounds[0], obj)


def _grid_rows(
    func: RegistryFunction,
    point: np.ndarray,
    kind: SetKind,
    hs: np.ndarray,
    custom: SampleDirections | None,
    with_bound: bool,
):
    """Rows for a descending-h grid over one factored unit-scale set: f(x0)
    once, then every stencil point of every h as one array."""
    unit = build_scaled_set(kind, func.dim, 1.0, custom)
    builder = _RowBuilder(func, point, kind.value, unit, with_bound)
    obj = func.objective()
    f0 = obj(point)
    # Every h gets its own validated set; its radius is the row's delta_s.
    radii = [unit.scaled(h).radius for h in hs.tolist()]
    rows = builder.rows(obj, hs, radii, f0)[0]
    return rows, np.array([r.abs_err_diag for r in rows]), f0, builder.diag_norm


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


def _metric(row: ReportRow) -> float:
    """Relative error when defined, absolute error otherwise."""
    return row.rer_diag if row.rer_diag is not None else row.abs_err_diag


@dataclass(frozen=True)
class SweepResult:
    report: ExperimentReport
    fitted_order: float | None
    best_h: float
    best_metric: float


def run_sweep(
    func: RegistryFunction,
    point,
    kind: SetKind,
    hs,
    custom: SampleDirections | None = None,
    with_bound: bool = False,
) -> SweepResult:
    """Approximate over a descending h grid, fit the convergence order on the
    truncation-dominated rows, and locate the grid minimum of the error."""
    point = _checked_point(func, point)
    hs = _descending_grid(hs)
    rows, abs_errs, f0, truth_norm = _grid_rows(func, point, kind, hs, custom, with_bound)

    # Keep rows whose error is credibly truncation (above the round-off
    # floor eps*|f0| / delta^2 and above noise relative to the truth).
    deltas = np.array([r.delta_s for r in rows])
    floor = 100.0 * _EPS * np.maximum(abs(f0) / deltas**2, truth_norm)
    kept = abs_errs > floor
    fitted = None
    if int(kept.sum()) >= 3:
        fitted = convergence_order(hs[kept], abs_errs[kept])

    metrics = np.array([_metric(r) for r in rows])
    best = int(np.argmin(metrics))
    comments = []
    if fitted is not None:
        comments.append(f"fitted_order={fmt_float(fitted)}")
    else:
        comments.append("fitted_order=")
    comments.append(f"best_h={fmt_float(hs[best])}")
    comments.append(f"best_rer={fmt_float(metrics[best])}")
    report = ExperimentReport(rows, comments).sort()
    return SweepResult(report, fitted, float(hs[best]), float(metrics[best]))


@dataclass(frozen=True)
class LimitStudyResult:
    report: ExperimentReport
    plateau: float
    grid_inf: float
    grid_inf_h: float
    nonmonotone: bool


def run_limit_study(
    func: RegistryFunction,
    point,
    kind: SetKind,
    hs=None,
    custom: SampleDirections | None = None,
) -> LimitStudyResult:
    """Estimate the small-h limit of the relative error as the median over
    the plateau window, report the grid infimum, and flag non-monotone
    behavior (error growing again as h shrinks past the grid minimum)."""
    point = _checked_point(func, point)
    hs = DEFAULT_LIMIT_GRID if hs is None else _descending_grid(hs)
    rows, _, _, _ = _grid_rows(func, point, kind, hs, custom, with_bound=False)
    metrics = np.array([_metric(r) for r in rows])

    lo, hi = PLATEAU_WINDOW
    window = (hs >= lo * (1.0 - 1e-9)) & (hs <= hi * (1.0 + 1e-9))
    if int(window.sum()) < 3:
        raise ParameterError(
            f"h grid has fewer than 3 points in the plateau window [{lo:g}, {hi:g}]"
        )
    plateau = _middle(metrics[window])

    best = int(np.argmin(metrics))
    nonmonotone = best < len(rows) - 1 and metrics[-1] >= NONMONOTONE_FACTOR * metrics[best]
    comments = [
        f"plateau_rer={fmt_float(plateau)}",
        f"inf_rer={fmt_float(metrics[best])}",
        f"inf_h={fmt_float(hs[best])}",
        f"nonmonotone={'true' if nonmonotone else 'false'}",
    ]
    report = ExperimentReport(rows, comments).sort()
    return LimitStudyResult(report, plateau, float(metrics[best]), float(hs[best]), bool(nonmonotone))


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

    def as_record(self) -> list[str]:
        """The fields as strings, ``computed`` with :func:`fmt_float`."""
        return [fmt_float(v) if isinstance(v, float) else v for v in astuple(self)]


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
        return render_table(REPRO_HEADER, (c.as_record() for c in self.checks), (), fmt)


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
