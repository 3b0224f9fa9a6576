"""Derivative-free estimates of gradients and Hessian diagonals over
centered sample sets, with an error bound and an experiment CLI.

The gradient estimate (generalized centered simplex gradient) and the
Hessian-diagonal estimate (centered simplex Hessian diagonal) are exact
linear-algebra formulas over the centered stencil x0 +- s_i: with
S = [s_1 ... s_k] and W = S .* S,

    g = pinv(S^T) @ delta_c,    d = pinv(W^T) @ eps.

The accompanying error bound shows why lonely direction matrices (one
nonzero per column) give an O(radius^2) accurate diagonal while sets with
off-axis columns generally do not.
"""

from .analysis import (
    BoundBreakdown,
    absolute_error,
    convergence_order,
    cross_term_sum,
    error_bound,
    fd_diag_hessian,
    fd_gradient,
    fd_hessian,
    fd_third_tensor,
    lipschitz_oracle,
    plan_error_bound,
    relative_error,
)
from .calculus import (
    DiagHessianEstimate,
    EvaluatedStencil,
    GradientEstimate,
    Objective,
    StencilPlan,
    centered_gradient,
    centered_hessian_diagonal,
    diag_model_eval,
    evaluate_stencil,
    evaluate_stencils,
)
from .exceptions import (
    BoundInapplicableError,
    DimensionError,
    ParameterError,
    StencilError,
)
from .linalg import pseudoinverse
from .registry import REGISTRY, RegistryFunction
from .registry import get as get_function
from .report import CSV_HEADER, ExperimentReport, ReportRow
from .sets import SampleDirections, SetKind, build_set, load_directions, regular_basis

__version__ = "0.1.0"

__all__ = [
    "BoundBreakdown",
    "BoundInapplicableError",
    "CSV_HEADER",
    "DiagHessianEstimate",
    "DimensionError",
    "EvaluatedStencil",
    "ExperimentReport",
    "GradientEstimate",
    "Objective",
    "ParameterError",
    "REGISTRY",
    "RegistryFunction",
    "ReportRow",
    "SampleDirections",
    "SetKind",
    "StencilError",
    "StencilPlan",
    "absolute_error",
    "build_set",
    "centered_gradient",
    "centered_hessian_diagonal",
    "convergence_order",
    "cross_term_sum",
    "diag_model_eval",
    "error_bound",
    "evaluate_stencil",
    "evaluate_stencils",
    "fd_diag_hessian",
    "fd_gradient",
    "fd_hessian",
    "fd_third_tensor",
    "get_function",
    "lipschitz_oracle",
    "load_directions",
    "plan_error_bound",
    "pseudoinverse",
    "regular_basis",
    "relative_error",
]
