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
over 1 + |h|^2 is ``flatness_residual``; the scaled G is |det Hess| /
(W |h|)^n.  For h = diag(D / W) + (c / W) u u^T the minors and the norm |h|
have closed forms, so only the one-point report assembles the Hessian.
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
    0), from the Hessian factors (D, c, u) of the table's per-axis record."""
    w_sq = 1.0 + np.einsum("pi,pi->p", table.gradient, table.gradient)
    w = np.sqrt(w_sq)
    diag, c, u = hessian_factors(table.factors)
    terms = hessian_det_terms(diag, c, u)
    det_hess, size = terms.sum(axis=1), np.abs(terms).sum(axis=1)
    out = {"area_factor": w,
           "det_cancellation": np.abs(det_hess) / np.where(size, size, 1.0)}
    # h = Hess / W = diag(D / W) + (c / W) u u^T.
    diag, c = diag / w[:, np.newaxis], c / w
    rmax, h_sq = _riemann_max(diag, c, u), _norm_sq(diag, c, u)
    # det / W^(n+2) and |det| / (W |h|)^n one factor at a time: the powers
    # overflow long before the quotients do.
    gk, scaled = det_hess / w_sq, np.abs(det_hess)
    norm = np.sqrt(np.where(h_sq == 0.0, 1.0, h_sq))
    for _ in range(u.shape[1]):
        gk, scaled = gk / w, scaled / w / norm
    out.update(gauss_kronecker=gk, gauss_kronecker_scaled=scaled,
               riemann_max=rmax, flatness_residual=rmax / (1.0 + h_sq))
    if not all(np.isfinite(v).all() for v in (det_hess, h_sq, *out.values())):
        raise DomainError("surface quantity is not finite "
                          "(floating-point overflow)")
    return out


def _norm_sq(diag, c, u) -> np.ndarray:
    """|diag(D) + c u u^T|^2 per row: sum_i (D_i + c u_i^2)^2 + 2 sum_{i<j}
    (c u_i^2)(c u_j^2), the latter from prefix sums of one-signed terms."""
    a = c[:, np.newaxis] * (u * u)
    before = np.cumsum(a[:, :-1], axis=1)
    return (((diag + a) ** 2).sum(axis=1)
            + 2.0 * (a[:, 1:] * before).sum(axis=1))


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
    hess = row.hessian[0]  # first, so an entry's overflow reads as in eval
    scalars = {k: float(v[0]) for k, v in surface_curvatures(row).items()
               if k != "det_cancellation"}
    w, grad = scalars["area_factor"], row.gradient[0]
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
