"""Toolkit for production functions and the geometry of their graphs.

Every function family is evaluated as F(h_1(x_1) + ... + h_n(x_n)) by one
batched kernel, whose exact first and second derivatives come from
closed-form per-axis h', h'' and the outer F', F''.  On top of them sit the
pairwise substitution elasticity, the graph-hypersurface curvature
quantities, structural classification of quasi-sum functions, and sampled
verification of the curvature theorems.  The ``prodgeo`` command
line exposes the same operations on JSON function documents.
"""

__version__ = "0.18.0"

import importlib

# The home of each name of __all__, imported from there on first use.
_EXPORTS = {
    "errors": ("DomainError", "HypothesisError", "SpecError"),
    "autodiff": ("Jet2", "finite_difference_oracle"),
    "families": (
        "FunctionExpr", "QuasiSumSpec", "ScalarFn", "as_quasi_sum", "build_acms",
        "build_cobb_douglas", "build_quasi_sum", "build_ratio", "default_box",
        "expr_from_dict", "validate_box"),
    "elasticity": ("detect_ces",), "geometry": ("graph_geometry",),
    "classify": ("classify_quasi_sum", "verify_theorem_11",
                 "verify_theorem_41", "verify_theorem_42"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = [
    "__version__",
    "DomainError", "HypothesisError", "SpecError",
    "Jet2", "finite_difference_oracle",
    "FunctionExpr", "QuasiSumSpec", "ScalarFn",
    "as_quasi_sum", "build_acms", "build_cobb_douglas", "build_quasi_sum",
    "build_ratio", "default_box", "expr_from_dict", "validate_box",
    "detect_ces", "graph_geometry", "classify_quasi_sum",
    "verify_theorem_11", "verify_theorem_41", "verify_theorem_42",
]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
