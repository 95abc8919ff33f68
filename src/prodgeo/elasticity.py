"""Pairwise substitution elasticity and constant-elasticity detection.

For a twice-differentiable f with nonvanishing marginal products the Hicks
elasticity of substitution between inputs i and j is

    H_ij = (1/(x_i f_i) + 1/(x_j f_j))
           / (-f_ii/f_i**2 + 2 f_ij/(f_i f_j) - f_jj/f_j**2)

where subscripts denote partial derivatives.  For every document family,
f = F(h_1(x_1) + ... + h_n(x_n)) and f_k = F' h_k', so the F'' parts cancel:

    H_ij = (A_i + A_j) / (B_i + B_j),  A_k = 1/(x_k h_k'),  B_k = -h_k''/h_k'^2

from the kernel's per-axis record.
Numerator and denominator can vanish independently, so the result is a
tagged value: finite, infinite (vanishing denominator), or degenerate (both
vanish and the ratio carries no information).  Vanishing is judged against
the summed magnitude of the terms, with an exact-zero escape so that
functions whose second derivatives are identically zero are classified
without reference to a scale.

The two-input ratio family F(x2/x1) is the reason the degenerate tag exists:
both numerator and denominator vanish identically for it, so the constant-
elasticity identity holds for every sigma at once and no sigma value is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecError
from .families import (
    FunctionExpr, PointTable, QuasiSumSpec, index_pairs, validate_box,
)
from .sampling import box_center, log_uniform
from . import tolerances

FINITE = "finite"
INFINITE = "infinite"
DEGENERATE = "degenerate"

REGULAR_CES = "RegularCES"
DEGENERATE_CES = "DegenerateCES"
NOT_CES = "NotCES"

__all__ = [
    "HicksValue", "ElasticityReport", "hicks_elasticity", "hicks_values",
    "pairwise_elasticities", "ces_residuals", "ces_residual",
    "quasisum_separated_residual", "PointRecords", "point_table",
    "detect_ces", "detect_ces_on",
    "FINITE", "INFINITE", "DEGENERATE",
    "REGULAR_CES", "DEGENERATE_CES", "NOT_CES",
]


@dataclass(frozen=True)
class HicksValue:
    """Pairwise elasticity tagged with its degeneracy status."""

    kind: str
    value: float | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def as_float(self) -> float:
        """Numeric rendering: inf for infinite, nan for degenerate."""
        if self.kind == FINITE:
            return self.value
        return math.inf if self.kind == INFINITE else math.nan


def _pair_indices(n: int, i: int, j: int) -> tuple[int, int]:
    for k in (i, j):
        if not isinstance(k, int) or not 0 <= k < n:
            raise SpecError(f"input index {k!r} out of range for {n} inputs")
    if i == j:
        raise SpecError("elasticity needs two distinct inputs")
    return (i, j) if i < j else (j, i)


def _axis_terms(x, d1, d2):
    """A = 1/(x h') and B = -(h''/h')/h' per axis, for h' = d1 and h'' = d2
    at x; dividing twice keeps h'^2 from overflowing."""
    return 1.0 / (x * d1), -(d2 / d1) / d1


def _pair_sums(table: PointTable, lo, hi):
    """H_lo,hi's numerator A_lo + A_hi and denominator B_lo + B_hi at the
    rows of ``table``, each followed by the sum of its terms' sizes, under
    the caller's np.errstate."""
    if not (table.gradient[..., lo].all() and table.gradient[..., hi].all()):
        raise DomainError(
            "elasticity undefined where a marginal product vanishes")
    x, (_, _, d1, d2) = table.points, table.factors
    al, bl = _axis_terms(x[..., lo], d1[..., lo], d2[..., lo])
    ah, bh = _axis_terms(x[..., hi], d1[..., hi], d2[..., hi])
    return al + ah, np.abs(al) + np.abs(ah), bl + bh, np.abs(bl) + np.abs(bh)


def hicks_values(table: PointTable, lo, hi) -> np.ndarray:
    """H_lo,hi (inf if infinite, nan if degenerate) at the rows of
    ``table``, for index arrays or ints lo < hi."""
    eps = tolerances.DEGENERACY_EPS
    with np.errstate(all="ignore"):
        num, num_size, den, den_size = _pair_sums(table, lo, hi)
        # |sum| <= eps * sum(|terms|) also holds when the sum is exactly 0.
        num_small = np.abs(num) <= eps * num_size
        den_small = np.abs(den) <= eps * den_size
        return np.where(den_small, np.where(num_small, math.nan, math.inf),
                        num / den)


def _tagged(value: float) -> HicksValue:
    if math.isfinite(value):
        return HicksValue(FINITE, value)
    return HicksValue(DEGENERATE if math.isnan(value) else INFINITE)


def hicks_elasticity(expr: FunctionExpr, point, i: int, j: int) -> HicksValue:
    """H_ij of ``expr`` at ``point`` for the (zero-based) input pair."""
    lo, hi = _pair_indices(expr.n, i, j)
    return _tagged(float(hicks_values(expr._row(point), lo, hi)[0]))


def pairwise_elasticities(expr: FunctionExpr, point):
    """[(i, j, HicksValue)] over all pairs i < j, from a one-row table."""
    lo, hi = index_pairs(expr.n)
    values = hicks_values(expr._row(point), lo, hi)[0]
    return [(int(i), int(j), _tagged(v))
            for i, j, v in zip(lo, hi, values.tolist())]


def ces_residuals(table: PointTable, sigma: float, lo, hi) -> np.ndarray:
    """Signed defect of the constant-elasticity identity H_lo,hi = sigma at
    the rows of ``table``, for index arrays or ints lo < hi.  With H =
    (A_lo + A_hi) / (B_lo + B_hi), it is B_lo + B_hi - (A_lo + A_hi) / sigma
    over the sum of its terms' sizes (0 where every term is 0), the measure
    the degeneracy tags apply to H's sums, and it never divides by B_lo +
    B_hi.  For the two-input ratio family both sums vanish identically: the
    defect is rounding noise for every sigma at once."""
    sigma = float(sigma)
    if sigma == 0.0 or not math.isfinite(sigma):
        raise SpecError("sigma must be finite and nonzero")
    with np.errstate(all="ignore"):
        num, num_size, den, den_size = _pair_sums(table, lo, hi)
        size = den_size + num_size / abs(sigma)
        out = (den - num / sigma) / np.where(size, size, 1.0)
    if not np.isfinite(out).all():
        raise DomainError("elasticity identity overflows at a sample point")
    return out


def ces_residual(expr: FunctionExpr, point, sigma: float,
                 i: int, j: int) -> float:
    """ces_residuals at one point and pair, from a one-row table."""
    lo, hi = _pair_indices(expr.n, i, j)
    return float(ces_residuals(expr._row(point), sigma, lo, hi)[0])


def quasisum_separated_residual(spec: QuasiSumSpec, point, sigma: float,
                                i: int, j: int) -> float:
    """Signed defect of the separated constant-elasticity condition.

    For f = F(sum h_k) the outer function drops out of H_ij and the identity
    H_ij = sigma splits into per-input terms

        s_k = A_k - sigma B_k = 1/(x_k h_k') + sigma * h_k''/h_k'**2

    with H_ij = sigma exactly when s_i + s_j = 0.  Returns s_i + s_j, from
    the inners' h' and h'' alone: F is never evaluated.
    """
    sigma = float(sigma)
    if sigma == 0.0 or not math.isfinite(sigma):
        raise SpecError("sigma must be finite and nonzero")
    lo, hi = _pair_indices(spec.n, i, j)
    x = np.array([float(point[lo]), float(point[hi])])
    if (x <= 0.0).any():
        raise DomainError("point must be strictly positive")
    _, d1, d2 = np.array([spec.inner[k].derivatives(xk)
                          for k, xk in zip((lo, hi), x)]).T
    if not d1.all():
        raise DomainError(
            "separated residual undefined where an inner derivative vanishes")
    a, b = _axis_terms(x, d1, d2)
    return float((a[0] + a[1]) - sigma * (b[0] + b[1]))


@dataclass(frozen=True)
class ElasticityReport:
    """Outcome of sampling the pairwise elasticity over a box.

    ``pair_values`` holds the tagged elasticities at the box center, keyed by
    the zero-based pair.  ``sigma_estimate`` is the anchor value the constancy
    check ran against, absent when no pair was ever finite.
    """

    verdict: str
    sigma_estimate: float | None
    max_deviation: float
    pair_values: dict
    n_points: int
    finite_pairs: int
    infinite_pairs: int
    degenerate_pairs: int

    def as_dict(self) -> dict:
        pairs = {f"{i + 1},{j + 1}": {"kind": h.kind, "value": h.value}
                 for (i, j), h in sorted(self.pair_values.items())}
        return {
            "verdict": self.verdict,
            "sigma_estimate": self.sigma_estimate,
            "max_deviation": self.max_deviation,
            "center_pair_values": pairs,
            "n_points": self.n_points,
            "finite_pairs": self.finite_pairs,
            "infinite_pairs": self.infinite_pairs,
            "degenerate_pairs": self.degenerate_pairs,
        }


@dataclass(frozen=True, eq=False)
class PointRecords:
    """Per-point records as one (N, k) float64 array: ``fields`` holds the
    sorted keys and widths (0 for a float, m for a list of m floats) of the
    columns of ``data``; ``len`` and ``[i]`` (so iteration too) give dicts."""

    fields: tuple
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> dict:
        row, out, k = self.data[i].tolist(), {}, 0
        for name, width in self.fields:
            out[name] = row[k:k + width] if width else row[k]
            k += width or 1
        return out


def point_table(expr: FunctionExpr, box, samples: int,
                seed: int) -> PointTable:
    """The center of ``box`` (default [0.5, 2]^n) and ``samples``
    log-uniform points, evaluated."""
    box = validate_box(box, expr.n)
    if samples < 2:
        raise SpecError("detection needs at least two sample points")
    return expr.derivatives(
        np.vstack([box_center(box), log_uniform(box, samples, seed)]))


def detect_ces(expr: FunctionExpr, box=None, samples: int = 32,
               seed: int = 0) -> ElasticityReport:
    """Decide whether ``expr`` has constant pairwise elasticity on ``box``.

    The box center plus ``samples`` log-uniform points are evaluated, every
    input pair at every point (see detect_ces_on).
    """
    return detect_ces_on(point_table(expr, box, samples, seed))


def detect_ces_on(table: PointTable) -> ElasticityReport:
    """Constant-elasticity verdict from every input pair at every row.

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
    center = {(int(i), int(j)): _tagged(v)
              for i, j, v in zip(lo, hi, values[0].tolist())}
    return ElasticityReport(verdict,
                            sigma_hat if verdict == REGULAR_CES else None,
                            max_dev, center, len(values), n_finite,
                            infinite, degenerate)
