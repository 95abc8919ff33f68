"""Toolkit for production functions and the geometry of their graphs.

Every function family is evaluated as F(h_1(x_1) + ... + h_n(x_n)) by one
batched kernel, whose exact first and second derivatives come from
closed-form per-axis h', h'' and the outer F', F''.  On top of them sit the
pairwise substitution elasticity, the graph-hypersurface curvature
quantities, structural classification of quasi-sum functions, and sampled
verification of the curvature theorems.  The ``prodgeo`` command
line exposes the same operations on JSON function documents.
"""

__version__ = "0.7.0"

from .errors import DomainError, HypothesisError, SpecError
from .autodiff import (
    Jet2, evaluate_jet, finite_difference_oracle,
)
from .families import (
    FunctionExpr, QuasiSumSpec, ScalarFn,
    as_quasi_sum, build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, default_box, expr_from_dict, expr_to_dict,
    hessian_det_quasisum, homogeneity_degree, validate_box,
)
from .elasticity import (
    ElasticityReport, HicksValue,
    ces_residual, detect_ces, hicks_elasticity, pairwise_elasticities,
    quasisum_separated_residual,
)
from .geometry import (
    GraphGeometry, flatness_residual, gauss_kronecker, graph_geometry,
    graph_point,
)
from .classify import (
    ClassificationResult, TheoremReport,
    acms_outer_ode_residual, classify_quasi_sum,
    cobb_douglas_outer_ode_residual,
    verify_theorem_11, verify_theorem_41, verify_theorem_42,
)

__all__ = [
    "__version__",
    "DomainError", "HypothesisError", "SpecError",
    "Jet2", "evaluate_jet", "finite_difference_oracle",
    "FunctionExpr", "QuasiSumSpec", "ScalarFn",
    "as_quasi_sum", "build_acms", "build_cobb_douglas", "build_quasi_sum",
    "build_ratio", "default_box", "expr_from_dict",
    "expr_to_dict", "hessian_det_quasisum", "homogeneity_degree",
    "validate_box",
    "ElasticityReport", "HicksValue", "ces_residual", "detect_ces",
    "hicks_elasticity", "pairwise_elasticities",
    "quasisum_separated_residual",
    "GraphGeometry", "flatness_residual", "gauss_kronecker",
    "graph_geometry", "graph_point",
    "ClassificationResult", "TheoremReport", "acms_outer_ode_residual",
    "classify_quasi_sum", "cobb_douglas_outer_ode_residual",
    "verify_theorem_11", "verify_theorem_41", "verify_theorem_42",
]
