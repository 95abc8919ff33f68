"""Differential geometry of the production hypersurface.

The graph of f over the positive orthant, {(x, f(x))}, is a hypersurface in
(n+1)-space.  With W = sqrt(1 + |grad f|^2) its induced metric, unit normal,
and second fundamental form are

    g   = I + grad f (grad f)^T          (det g = W^2)
    xi  = (-grad f, 1) / W
    h   = Hess f / W

The shape operator is S = g^{-1} h, the principal curvatures are the
eigenvalues of the pencil (h, g), and the Gauss-Kronecker curvature is

    G = det(Hess f) / W^(n+2),

formed one factor of W at a time, since W^(n+2) can overflow while G is
representable.  A surface quantity that is not finite raises DomainError.

Because G decays like W^(n+2) along rays it is a poor zero test on its own;
``gauss_kronecker_scaled`` divides |det Hess f| by the Frobenius norm of the
Hessian raised to n, which is invariant under rescaling the Hessian and stays
O(1) unless the determinant genuinely collapses.

Intrinsic flatness is measured through the Gauss equation: the curvature
tensor components are h_ik h_jl - h_il h_jk, and ``flatness_residual`` is
their largest magnitude normalized by 1 + |h|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .families import FunctionExpr, index_pairs

__all__ = ["GraphGeometry", "graph_point", "graph_geometry",
           "surface_curvatures", "gauss_kronecker", "flatness_residual"]


@dataclass(frozen=True, eq=False)
class GraphGeometry:
    """All pointwise surface quantities of the graph of f at one point."""

    point: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    area_factor: float
    unit_normal: np.ndarray
    metric: np.ndarray
    second_fundamental_form: np.ndarray
    shape_operator: np.ndarray
    principal_curvatures: np.ndarray
    gauss_kronecker: float
    gauss_kronecker_scaled: float
    riemann_max: float
    flatness_residual: float

    @property
    def n(self) -> int:
        return self.point.shape[0]

    def as_dict(self) -> dict:
        """JSON-ready rendering with arrays as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist()
                for f in fields(self)}


@np.errstate(all="ignore")
def surface_curvatures(gradient: np.ndarray, hessian: np.ndarray) -> dict:
    """Scalar curvatures for (N, n) gradients and (N, n, n) Hessians, as
    (N,) arrays keyed like GraphGeometry fields.  ``riemann_max`` is the
    largest |h_ik h_jl - h_il h_jk| over i<j, k<l: the largest 2x2 minor of
    the second fundamental form, from the Gauss equation."""
    n = gradient.shape[-1]
    w_sq = 1.0 + np.einsum("pi,pi->p", gradient, gradient)
    w = np.sqrt(w_sq)
    det_hess = np.linalg.det(hessian)
    hess_norm = np.sqrt(np.einsum("pij,pij->p", hessian, hessian))
    # det / W^(n+2) and |det| / |Hess|^n one factor at a time: the powers
    # overflow long before the quotients do.
    gk, scaled = det_hess / w_sq, np.abs(det_hess)
    norm = np.where(hess_norm == 0.0, 1.0, hess_norm)
    for _ in range(n):
        gk, scaled = gk / w, scaled / norm
    second = hessian / w[:, np.newaxis, np.newaxis]
    i, j = index_pairs(n)
    # P^2 minors per point (P = n(n-1)/2): blocks keep temporaries ~0.5 MB.
    block = max(1, 2 ** 16 // len(i) ** 2)
    rmax = np.empty(len(second))
    for start in range(0, len(second), block):
        rows_i = second[start:start + block, i, :]
        rows_j = second[start:start + block, j, :]
        minors = (rows_i[:, :, i] * rows_j[:, :, j]
                  - rows_i[:, :, j] * rows_j[:, :, i])
        rmax[start:start + block] = np.abs(minors).max(axis=(1, 2))
    out = {
        "area_factor": w,
        "gauss_kronecker": gk,
        "gauss_kronecker_scaled": scaled,
        "riemann_max": rmax,
        "flatness_residual": rmax / (1.0 + (hess_norm / w) ** 2),
    }
    if not all(np.isfinite(v).all() for v in (det_hess, hess_norm, *out.values())):
        raise DomainError("surface quantity is not finite "
                          "(floating-point overflow)")
    return out


def graph_point(expr: FunctionExpr, point) -> np.ndarray:
    """The point (x, f(x)) on the hypersurface."""
    x = expr._check_point(point)
    return np.append(x, expr.value(x))


def graph_geometry(expr: FunctionExpr, point) -> GraphGeometry:
    """Every surface quantity of the graph of ``expr`` at ``point``.  With
    p = grad f, g = I + p p^T has the closed-form inverse
    I - p p^T / W^2 (Sherman-Morrison) and inverse square root
    I - p p^T / (W (W + 1)), so the shape operator needs no solve and the
    principal curvatures are the eigenvalues of g^(-1/2) h g^(-1/2)."""
    x = expr._check_point(point)
    jet = expr.jet(x)
    grad, hess = jet.gradient, jet.hessian
    scalars = {k: float(v[0]) for k, v in surface_curvatures(
        grad[np.newaxis], hess[np.newaxis]).items()}
    w = scalars["area_factor"]
    second = hess / w
    pp = np.outer(grad, grad)
    root = np.eye(expr.n) - pp / (w * (w + 1.0))
    return GraphGeometry(
        point=x.copy(),
        value=jet.value,
        gradient=grad,
        hessian=hess,
        unit_normal=np.append(-grad, 1.0) / w,
        metric=np.eye(expr.n) + pp,
        second_fundamental_form=second,
        shape_operator=second - np.outer(grad, grad @ second) / (w * w),
        principal_curvatures=np.linalg.eigvalsh(root @ second @ root),
        **scalars,
    )


def gauss_kronecker(expr: FunctionExpr, point) -> float:
    """det(Hess f) / W^(n+2) at ``point``."""
    return graph_geometry(expr, point).gauss_kronecker


def flatness_residual(expr: FunctionExpr, point) -> float:
    """Scale-normalized largest curvature component at ``point``."""
    return graph_geometry(expr, point).flatness_residual
