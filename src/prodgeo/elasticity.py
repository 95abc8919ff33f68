"""Pairwise substitution elasticity and constant-elasticity detection.

For a twice-differentiable f with nonvanishing marginal products the Hicks
elasticity of substitution between inputs i and j is

    H_ij = (1/(x_i f_i) + 1/(x_j f_j))
           / (-f_ii/f_i**2 + 2 f_ij/(f_i f_j) - f_jj/f_j**2)

where subscripts denote partial derivatives.  For every document family,
f = F(h_1(x_1) + ... + h_n(x_n)) and f_k = F' h_k', so the F'' parts cancel:

    H_ij = (A_i + A_j) / (B_i + B_j),  A_k = 1/(x_k h_k'),  B_k = -h_k''/h_k'^2

from the kernel's per-axis record.
Numerator and denominator can vanish independently, so the result is
finite, infinite (inf: vanishing denominator), or degenerate (nan: both
vanish and the ratio carries no information), tagged so in reports.
Vanishing is judged against the summed magnitude of the terms, with an
exact-zero escape so that functions whose second derivatives are
identically zero are classified without reference to a scale.

The two-input ratio family F(x2/x1) is the reason the degenerate tag exists:
both numerator and denominator vanish identically for it, so the constant-
elasticity identity holds for every sigma at once and no sigma value is
reported.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SpecError
from .families import FunctionExpr, PointTable, index_pairs, validate_box
from .sampling import box_center, check_points, log_uniform
from . import tolerances

FINITE = "finite"
INFINITE = "infinite"
DEGENERATE = "degenerate"

REGULAR_CES = "RegularCES"
DEGENERATE_CES = "DegenerateCES"
NOT_CES = "NotCES"

__all__ = [
    "hicks_values", "tagged_pairs", "ces_residuals", "point_table",
    "detect_ces", "detect_ces_on", "FINITE", "INFINITE", "DEGENERATE",
    "REGULAR_CES", "DEGENERATE_CES", "NOT_CES",
]


def _pair_sums(table: PointTable, i, j):
    """H_ij's numerator A_i + A_j and denominator B_i + B_j at the rows of
    ``table``, each followed by the sum of its terms' sizes, under the
    caller's np.errstate.  A = 1/(x h') and B = -(h''/h')/h' are formed once
    per axis; dividing twice keeps h'^2 from overflowing."""
    if not (table.gradient[..., i].all() and table.gradient[..., j].all()):
        raise DomainError(
            "elasticity undefined where a marginal product vanishes")
    x, (_, _, d1, d2) = table.points, table.factors
    a, b = 1.0 / (x * d1), -(d2 / d1) / d1
    return [t[..., i] + t[..., j] for t in (a, np.abs(a), b, np.abs(b))]


def hicks_values(table: PointTable, i, j) -> np.ndarray:
    """H_ij (inf if infinite, nan if degenerate) at the rows of ``table``,
    for index arrays or ints i != j, in either order: the same bits."""
    eps = tolerances.DEGENERACY_EPS
    with np.errstate(all="ignore"):
        num, num_size, den, den_size = _pair_sums(table, i, j)
        # |sum| <= eps * sum(|terms|) also holds when the sum is exactly 0.
        num_small = np.abs(num) <= eps * num_size
        den_small = np.abs(den) <= eps * den_size
        return np.where(den_small, np.where(num_small, math.nan, math.inf),
                        num / den)


def tagged_pairs(i, j, values) -> dict:
    """The report map {"i,j": {"kind", "value"}}, keys 1-based, of the Hicks
    ``values`` of the zero-based pairs (i[k], j[k]): inf is infinite and nan
    degenerate, and neither carries a value."""
    out = {}
    for a, b, value in zip(i.tolist(), j.tolist(), values.tolist()):
        kind = (FINITE if math.isfinite(value)
                else DEGENERATE if math.isnan(value) else INFINITE)
        out[f"{a + 1},{b + 1}"] = {
            "kind": kind, "value": value if kind == FINITE else None}
    return out


def ces_residuals(table: PointTable, sigma: float, i, j) -> np.ndarray:
    """Signed defect of the constant-elasticity identity H_ij = sigma at the
    rows of ``table``, for index arrays or ints i != j in either order.
    With H = (A_i + A_j) / (B_i + B_j), it is B_i + B_j - (A_i + A_j) /
    sigma over the sum of its terms' sizes (0 where every term is 0), the
    measure the degeneracy tags apply to H's sums, and it never divides by
    B_i + B_j.  For the two-input ratio family both sums vanish identically:
    the defect is rounding noise for every sigma at once."""
    sigma = float(sigma)
    if sigma == 0.0 or not math.isfinite(sigma):
        raise SpecError("sigma must be finite and nonzero")
    with np.errstate(all="ignore"):
        num, num_size, den, den_size = _pair_sums(table, i, j)
        size = den_size + num_size / abs(sigma)
        out = (den - num / sigma) / np.where(size, size, 1.0)
    if not np.isfinite(out).all():
        raise DomainError("elasticity identity overflows at a sample point")
    return out


def point_table(expr: FunctionExpr, box, samples: int,
                seed: int) -> PointTable:
    """The center of ``box`` (default [0.5, 2]^n) and ``samples``
    log-uniform points, evaluated."""
    box = validate_box(box, expr.n)
    if samples < 2:
        raise SpecError("detection needs at least two sample points")
    check_points(samples + 1)
    return expr.derivatives(
        np.vstack([box_center(box), log_uniform(box, samples, seed)]))


def detect_ces(expr: FunctionExpr, box=None, samples: int = 32,
               seed: int = 0) -> dict:
    """Decide whether ``expr`` has constant pairwise elasticity on ``box``.

    The box center plus ``samples`` log-uniform points are evaluated, every
    input pair at every point (see detect_ces_on).
    """
    return detect_ces_on(point_table(expr, box, samples, seed))


def detect_ces_on(table: PointTable) -> dict:
    """Constant-elasticity report from every input pair at every row: the
    ``verdict``, ``sigma_estimate`` (the reference sigma of a RegularCES
    verdict, else None), ``max_deviation`` from it, the tagged
    ``center_pair_values`` of the first row, ``n_points`` and the
    ``finite_pairs``, ``infinite_pairs`` and ``degenerate_pairs`` counts.

    The reference sigma is the center value of the first input pair; if
    that pair is not finite there, the first finite nonzero value over the
    sample points (scan order: row by row, pairs in row order) takes its
    place.

    * RegularCES: a reference exists, no pair is infinite anywhere, and every
      finite value agrees with the reference to within the constancy
      tolerance.  Degenerate pairs are allowed; they carry no value to check.
    * DegenerateCES: every pair at every point is degenerate.
    * NotCES: anything else.  A linear function lands here (its denominator
      vanishes while its numerator does not), as does any mixed quasi-sum.
    """
    lo, hi = index_pairs(table.points.shape[1])
    values = hicks_values(table, lo, hi)
    finite = np.isfinite(values)
    scan = np.concatenate([values[0, :1], values[1:].ravel()])
    usable = scan[np.isfinite(scan) & (scan != 0.0)]
    sigma_hat = float(usable[0]) if usable.size else None

    n_finite = int(np.count_nonzero(finite))
    degenerate = int(np.count_nonzero(np.isnan(values)))
    infinite = values.size - n_finite - degenerate
    max_dev = 0.0
    if sigma_hat is not None:
        max_dev = float(np.max(np.abs(values[finite] - sigma_hat)
                               / max(1.0, abs(sigma_hat))))

    if degenerate > 0 and n_finite == 0 and infinite == 0:
        verdict = DEGENERATE_CES
    elif (sigma_hat is not None and infinite == 0
          and max_dev <= tolerances.CES_CONSTANCY_RTOL):
        verdict = REGULAR_CES
    else:
        verdict = NOT_CES
    return {"verdict": verdict,
            "sigma_estimate": sigma_hat if verdict == REGULAR_CES else None,
            "max_deviation": max_dev,
            "center_pair_values": tagged_pairs(lo, hi, values[0]),
            "n_points": len(values), "finite_pairs": n_finite,
            "infinite_pairs": infinite, "degenerate_pairs": degenerate}
