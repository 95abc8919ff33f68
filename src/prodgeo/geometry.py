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

Every document family has Hess f = diag(D) + c u u^T, with the kernel's
factors D = F' h'', c = F'' and u = h'.  det Hess f is the sum of the terms
T_0 = prod D_i and T_j = c u_j^2 prod_{i != j} D_i, and ``det_cancellation``
= |sum T| / sum |T| is rounding-sized exactly when they cancel, however much
the entries F' h_i'' + F'' h_i'^2 cancel first.  The curvature tensor
components (Gauss equation) are the 2x2 minors of h, whose largest magnitude
over 1 + |h|^2 is ``flatness_residual``; for diag(D) + c u u^T they have
closed forms.  Custom composites have no factors: their determinant and
minors come from the assembled Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .families import (
    FunctionExpr, PointTable, hessian_det_terms, hessian_factors, index_pairs,
)

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
def surface_curvatures(table: PointTable) -> dict:
    """Scalar curvatures at the rows of ``table``, as (N,) arrays keyed like
    GraphGeometry fields, plus ``det_cancellation`` (0 where every term is
    0) from the Hessian factors (D, c, u) of the table's per-axis record; a
    table without factors (custom) uses the assembled Hessian and gives no
    ``det_cancellation``."""
    gradient, hessian = table.gradient, table.hessian
    w_sq = 1.0 + np.einsum("pi,pi->p", gradient, gradient)
    w = np.sqrt(w_sq)
    hess_norm = np.sqrt(np.einsum("pij,pij->p", hessian, hessian))
    wide = ~np.isfinite(hess_norm)
    if wide.any():
        # Entries past about 1e154 overflow their squares: those rows again,
        # in exact units of the power of two nearest their largest |H_ij|.
        k = np.frexp(np.abs(hessian[wide]).max(axis=(1, 2)))[1]
        unit = np.ldexp(hessian[wide], -k[:, np.newaxis, np.newaxis])
        hess_norm[wide] = np.ldexp(
            np.sqrt(np.einsum("pij,pij->p", unit, unit)), k)
    out = {"area_factor": w}
    if table.factors is None:
        det_hess = np.linalg.det(hessian)
        second = hessian / w[:, np.newaxis, np.newaxis]
        i, j = index_pairs(gradient.shape[-1])
        rows_i, rows_j = second[:, i, :], second[:, j, :]
        rmax = np.abs(rows_i[:, :, i] * rows_j[:, :, j]
                      - rows_i[:, :, j] * rows_j[:, :, i]).max(axis=(1, 2))
    else:
        diag, c, u = hessian_factors(table.factors)
        terms = hessian_det_terms(diag, c, u)
        det_hess, size = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        out["det_cancellation"] = np.abs(det_hess) / np.where(size, size, 1.0)
        rmax = _riemann_max(diag / w[:, np.newaxis], c / w, u)
    # det / W^(n+2) and |det| / |Hess|^n one factor at a time: the powers
    # overflow long before the quotients do.
    gk, scaled = det_hess / w_sq, np.abs(det_hess)
    norm = np.where(hess_norm == 0.0, 1.0, hess_norm)
    for _ in range(gradient.shape[-1]):
        gk, scaled = gk / w, scaled / norm
    out.update(gauss_kronecker=gk, gauss_kronecker_scaled=scaled,
               riemann_max=rmax,
               flatness_residual=rmax / (1.0 + (hess_norm / w) ** 2))
    if not all(np.isfinite(v).all() for v in (det_hess, hess_norm, *out.values())):
        raise DomainError("surface quantity is not finite "
                          "(floating-point overflow)")
    return out


def _riemann_max(diag, c, u) -> np.ndarray:
    """Largest |2x2 minor| of diag(D) + c u u^T per row: D_i D_j +
    c (D_i u_j^2 + D_j u_i^2) for a pair (i, j) with itself, +-D_s c u_a u_b
    for two pairs sharing only s, and 0 for disjoint pairs."""
    lo, hi = index_pairs(u.shape[1])
    rmax = np.abs(c[:, np.newaxis] * (diag[:, lo] * (u * u)[:, hi]
                                      + diag[:, hi] * (u * u)[:, lo])
                  + diag[:, lo] * diag[:, hi]).max(axis=1)
    if u.shape[1] > 2:
        # The largest |u_a u_b| with a, b != s is the product of the two
        # largest |u| other than |u_s|, read from the three largest, t.
        a = np.abs(u)
        t = np.sort(a, axis=1)[:, :-4:-1]
        others = np.where(a == t[:, :1], t[:, 1:2] * t[:, 2:], np.where(
            a == t[:, 1:2], t[:, :1] * t[:, 2:], t[:, :1] * t[:, 1:2]))
        rmax = np.maximum(rmax, (np.abs(diag * c[:, np.newaxis])
                                 * others).max(axis=1))
    return rmax


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
    row = expr._row(point)
    scalars = {k: float(v[0]) for k, v in surface_curvatures(row).items()
               if k != "det_cancellation"}
    w, grad, hess = scalars["area_factor"], row.gradient[0], row.hessian[0]
    second = hess / w
    pp = np.outer(grad, grad)
    root = np.eye(expr.n) - pp / (w * (w + 1.0))
    return GraphGeometry(
        point=row.points[0].copy(), value=row.value[0], gradient=grad,
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
    return float(surface_curvatures(expr._row(point))["gauss_kronecker"][0])


def flatness_residual(expr: FunctionExpr, point) -> float:
    """Scale-normalized largest curvature component at ``point``."""
    return float(surface_curvatures(expr._row(point))["flatness_residual"][0])
