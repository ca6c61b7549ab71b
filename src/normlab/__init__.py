"""Numerical laboratory for normality of holomorphic functions in C^n:
expression kernels, Levi-form and Kobayashi metrics, and rescaling runs."""

from .domains import (
    Ball,
    Domain,
    Polydisc,
    boundary_distance_batch,
)
from .errors import (
    BranchError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    ExprSyntaxError,
    NormlabError,
    PoleError,
)
from .expr import (
    HoloExpr,
    affine_pullback,
    evaluate_batch,
    parse,
    to_source,
)
from .metrics import (
    NormalityEstimate,
    SamplingPlan,
    kobayashi_batch,
    levi_form_fd,
    log1p_sq_field,
    normality_scan,
    sharp_batch,
    sharp_fd,
)
from .rescaling import (
    ConvergenceReport,
    ExplicitScale,
    RescalingRun,
    SequenceSpec,
    SharpProfile,
    ZalcmanScale,
    convergence_report,
    limit_sharp_check,
    rescaling_run,
)
from .sampling import ball_grid, scan_rays, sphere_directions

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BranchError",
    "ConfigError",
    "ConvergenceReport",
    "DimensionMismatchError",
    "Domain",
    "DomainError",
    "EvaluationError",
    "ExplicitScale",
    "ExprSyntaxError",
    "HoloExpr",
    "NormalityEstimate",
    "NormlabError",
    "PoleError",
    "Polydisc",
    "RescalingRun",
    "SamplingPlan",
    "SequenceSpec",
    "SharpProfile",
    "ZalcmanScale",
    "affine_pullback",
    "ball_grid",
    "boundary_distance_batch",
    "convergence_report",
    "evaluate_batch",
    "kobayashi_batch",
    "levi_form_fd",
    "limit_sharp_check",
    "log1p_sq_field",
    "normality_scan",
    "parse",
    "rescaling_run",
    "scan_rays",
    "sharp_batch",
    "sharp_fd",
    "sphere_directions",
    "to_source",
]
