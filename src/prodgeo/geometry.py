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
T_0 = prod D_i and T_j = c u_j^2 prod_{i != j} D_i, formed here alone, and
``det_cancellation`` = |sum T| / sum |T| is rounding-sized exactly when they
cancel, however much the entries F' h_i'' + F'' h_i'^2 cancel first.  The
curvature tensor components (Gauss equation) are the 2x2 minors of h, whose
largest magnitude over 1 + |h|^2 is ``flatness_residual``; the scaled G is
|det Hess| / (W |h|)^n.  For h = diag(D / W) + (c / W) u u^T the minors and
the norm |h| have closed forms, so only the one-point report assembles the
Hessian.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .families import FunctionExpr, PointTable, index_pairs

_NOT_FINITE = "surface quantity is not finite (floating-point overflow)"

__all__ = ["graph_geometry", "hessian_det_terms", "surface_curvatures"]


@np.errstate(all="ignore")
def surface_curvatures(table: PointTable) -> dict:
    """Scalar curvatures at the rows of ``table``, as (N,) arrays keyed like
    the fields of ``graph_geometry``, plus ``det_cancellation`` (0 where
    every det term is 0), from the per-axis record's Hessian factors.  The
    det terms are formed from D_i and c u_i^2 times 2^-e_i, e_i the exponent
    of D_i rounded down to even: each term is 2^-(sum e_i) times its value,
    with its bits where that is normal, and in range where the value is not;
    det Hess is their sum times 2^(sum e_i).  c u_i^2 is scaled once formed,
    so a tiny D_i cannot overflow u_i^2 2^-e_i where c is 0 or small; where
    c u_i^2 overflows, so does |h|^2."""
    f1, c, d1, d2 = table.factors
    # D and u as (n, N) columns: each step over the inputs runs on N rows.
    diag, u = np.multiply(d2.T, f1, order="C"), d1.T.copy()
    scale = np.frexp(diag)[1] & -2
    terms = hessian_det_terms(np.ldexp(diag, -scale),
                              np.ldexp(c * (u * u), -scale))
    det_scaled, size = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    det_hess = np.ldexp(det_scaled, scale.sum(axis=0))
    w_sq = 1.0 + np.einsum("pi,pi->p", table.gradient, table.gradient)
    w = np.sqrt(w_sq)
    # h = Hess / W = diag(D / W) + (c / W) u u^T.
    diag /= w
    c = c / w
    rmax, h_sq = _riemann_max(diag, c, u), _norm_sq(diag, c, u)
    # det / W^(n+2) and |det| / (W |h|)^n one factor at a time: the powers
    # overflow long before the quotients do.
    gk, scaled = det_hess / w_sq, np.abs(det_hess)
    norm = np.sqrt(np.where(h_sq == 0.0, 1.0, h_sq))
    for _ in range(len(u)):
        gk, scaled = gk / w, scaled / w / norm
    out = {"area_factor": w, "gauss_kronecker": gk,
           "gauss_kronecker_scaled": scaled, "riemann_max": rmax,
           "flatness_residual": rmax / (1.0 + h_sq),
           "det_cancellation": np.abs(det_scaled) / np.where(size, size, 1.0)}
    if not all(np.isfinite(v).all() for v in (det_hess, h_sq, *out.values())):
        raise DomainError(_NOT_FINITE)
    return out


def hessian_det_terms(diag, rank_one) -> np.ndarray:
    """The (n+1, N) terms of det(diag(D) + c u u^T) = sum T per column, from
    D and ``rank_one`` = c u_i^2: T_0 = prod D_i and T_j = c u_j^2 prod_{i !=
    j} D_i, by running prefix and suffix products (no division)."""
    n = len(diag)
    before, after = np.ones_like(diag), np.ones_like(diag)
    for j in range(1, n):
        np.multiply(before[j - 1], diag[j - 1], out=before[j])
        np.multiply(after[n - j], diag[n - j], out=after[n - 1 - j])
    return np.vstack([before[-1] * diag[-1], rank_one * (before * after)])


def _norm_sq(diag, c, u) -> np.ndarray:
    """|diag(D) + c u u^T|^2 per column: sum_i (D_i + c u_i^2)^2 + 2 sum_{i<j}
    (c u_i^2)(c u_j^2), the latter from running sums of one-signed terms."""
    a = c * (u * u)
    cross, before = 0.0, a[0]
    for j in range(1, len(a)):
        cross, before = cross + a[j] * before, before + a[j]
    return ((diag + a) ** 2).sum(axis=0) + 2.0 * cross


def _riemann_max(diag, c, u) -> np.ndarray:
    """Largest |2x2 minor| of diag(D) + c u u^T per column: D_i D_j +
    c (D_i u_j^2 + D_j u_i^2) for a pair (i, j) with itself, +-D_s c u_a u_b
    for two pairs sharing only s, and 0 for disjoint pairs."""
    lo, hi = index_pairs(len(u))
    square = u * u
    rmax = np.abs(c * (diag[lo] * square[hi] + diag[hi] * square[lo])
                  + diag[lo] * diag[hi]).max(axis=0)
    if len(u) > 2:
        # The largest |u_a u_b| with a, b != s is t1 t2 of the three largest
        # |u|, t1 >= t2 >= t3, but t2 t3 where |u_s| = t1 and t1 t3 where
        # |u_s| = t2; rounding is monotone, so each group of s needs only its
        # largest |D_s c|.  From 256 columns on, a running top three (5 NumPy
        # calls a row) is cheaper than the sort; both select values of |u|.
        a = np.abs(u)
        if a.shape[1] < 256:
            t1, t2, t3 = np.sort(a, axis=0)[:-4:-1]
        else:
            t1, (t2, t3, low) = a[0].copy(), np.zeros((3, a.shape[1]))
            for v in a[1:]:
                np.maximum(t3, np.minimum(t2, v, out=low), out=t3)
                np.maximum(t2, np.minimum(t1, v, out=low), out=t2)
                np.maximum(t1, v, out=t1)
        size = np.abs(diag * c)
        rmax = np.maximum.reduce([
            rmax, (size * (a == t1)).max(axis=0) * (t2 * t3),
            (size * (a == t2)).max(axis=0) * (t1 * t3),
            (size * (a < t2)).max(axis=0) * (t1 * t2)])
    return rmax


@np.errstate(all="ignore")
def graph_geometry(expr: FunctionExpr, point) -> dict:
    """Every surface quantity of the graph of ``expr`` at ``point``, floats
    and nested lists keyed by name, or DomainError where one is not finite.
    With p = grad f and q = p / W, g = I + p p^T has the inverse I - q q^T
    (Sherman-Morrison) and inverse square root I - q q^T W / (W + 1), so the
    shape operator needs no solve and the principal curvatures are the
    eigenvalues of g^(-1/2) h g^(-1/2); |q| < 1 keeps them finite where
    p p^T overflows."""
    row = expr.derivatives([point])
    hess = row.hessian[0]  # first, so an entry's overflow reads as in eval
    scalars = {k: float(v[0]) for k, v in surface_curvatures(row).items()
               if k != "det_cancellation"}
    w, grad = scalars["area_factor"], row.gradient[0]
    q, second = grad / w, hess / w
    root = np.eye(expr.n) - np.outer(q, q) * (w / (w + 1.0))
    # Every other reported value is bounded by one already checked finite.
    shape = second - np.outer(q, q @ second)
    curvatures = np.linalg.eigvalsh(root @ second @ root)
    if not (np.isfinite(shape).all() and np.isfinite(curvatures).all()):
        raise DomainError(_NOT_FINITE)
    arrays = {"point": row.points[0], "gradient": grad, "hessian": hess,
              "unit_normal": np.append(-grad, 1.0) / w,
              "metric": np.eye(expr.n) + np.outer(grad, grad),
              "second_fundamental_form": second, "shape_operator": shape,
              "principal_curvatures": curvatures}
    return {"value": float(row.value[0]), **scalars,
            **{key: value.tolist() for key, value in arrays.items()}}

