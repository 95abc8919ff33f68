"""Constructive classification of quasi-sum functions and theorem checks.

A quasi-sum F(h_1(x_1)+...+h_n(x_n)) with constant pairwise elasticity sigma
falls into one of three structural cases, decided here from the closed-form
inner functions alone, never from the sampled elasticity:

* two inputs with opposite log inners (degenerate elasticity) -> RatioTwoInput
* every other all-log set of inners (sigma = 1)               -> HomotheticCobbDouglas
* every inner a power c_i x^p up to shift, a common p != 1    -> HomotheticACMS,
  sigma = 1/(1-p)

Anything else is NotCES, as is a matched form whose constant-elasticity
identity fails on the sampled box by more than ``CES_RESIDUAL_TOL``.  The
elasticity detection is reported next to the case, and Theorem 1.1 compares
the two.

The theorem checkers compare two independently computed sides of a
biconditional on a sampled box: a curvature side (the cancellation of the
terms of det Hess f, or of its 2x2 minors, the curvature tensor, for the
flatness theorem; one pair of thresholds) and a structure side (membership
in the linearly homogeneous families), which both theorems share.  Its
diagnostic ``outer_ode`` reads the kernel's F' and F'' at the kernel's inner
sum u: alpha F'' = F' for the log-aggregator (Cobb-Douglas) family, which
needs no u, and F' = (sigma - 1) u F'' for the power-aggregator (ACMS).
Each check reports both one-sided implications and a full per-point
residual table; a verdict is never adjusted to match the expected outcome,
so a genuine disagreement between the two sides surfaces as Inconsistent
with the data needed to inspect it.
"""

from __future__ import annotations

import math

import numpy as np

from .elasticity import (
    DEGENERATE_CES, NOT_CES, REGULAR_CES,
    ces_residuals, detect_ces_on, point_table,
)
from .errors import DomainError, HypothesisError, SpecError
from .families import (
    FORM_EXP, FORM_LOG, FORM_POWER,
    FunctionExpr, PointRecords, PointTable, QuasiSumSpec,
    as_quasi_sum, build_quasi_sum, euler_quotients, index_pairs,
)
from .geometry import surface_curvatures
from . import tolerances

HOMOTHETIC_ACMS = "HomotheticACMS"
HOMOTHETIC_COBB_DOUGLAS = "HomotheticCobbDouglas"
RATIO_TWO_INPUT = "RatioTwoInput"

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
DEGENERATE_HYPOTHESIS = "DegenerateHypothesis"

THEOREM_CLASSIFICATION = "T11"
THEOREM_GAUSS_KRONECKER = "T41"
THEOREM_FLATNESS = "T42"

# The degenerate two-input case satisfies the elasticity identity for every
# sigma, so its separation constant is only defined relative to a reference
# value; 2 is the convention used throughout.
SIGMA_REFERENCE_DEGENERATE = 2.0

__all__ = [
    "classify_quasi_sum", "verify_theorem_11", "verify_theorem_41",
    "verify_theorem_42",
    "HOMOTHETIC_ACMS", "HOMOTHETIC_COBB_DOUGLAS", "RATIO_TWO_INPUT",
    "NOT_CES", "CONSISTENT", "INCONSISTENT", "DEGENERATE_HYPOTHESIS",
    "SIGMA_REFERENCE_DEGENERATE",
]


def classify_quasi_sum(spec, box=None, samples: int = 64,
                       seed: int = 0) -> dict:
    """Decide the structural case of a quasi-sum on ``box``.

    Accepts a QuasiSumSpec, or any FunctionExpr that has a quasi-sum form,
    classified on the expression's own point table (as verify 1.1 does).
    The report gives the ``case``, the fitted ``sigma``,
    ``fitted_inner_parameters`` and ``separation_constant_k`` (None where
    the case has none), the ``detection`` report made on the same table,
    and ``residuals``: ``ces``, the largest cancellation of the elasticity
    identity at the fitted sigma (at the reference sigma for the degenerate
    case) over the box center and ``samples`` log-uniform points, inf where
    no normal form was fitted.
    """
    if isinstance(spec, FunctionExpr):
        expr, spec = spec, as_quasi_sum(spec)
    elif isinstance(spec, QuasiSumSpec):
        expr = build_quasi_sum(spec, box)
    else:
        raise SpecError("classification needs a QuasiSumSpec")
    table = point_table(expr, box, samples, seed)
    detection = detect_ces_on(table)  # first: its refusals take precedence
    fit, ces = _normal_form(spec), math.inf
    if fit is not None:
        *_, sigma_ref = fit
        lo, hi = index_pairs(spec.n)
        ces = float(np.max(np.abs(ces_residuals(table, sigma_ref, lo, hi))))
        if ces > tolerances.CES_RESIDUAL_TOL:
            fit = None
    case, sigma, fitted, k = fit[:4] if fit else (NOT_CES, None, None, None)
    return {"case": case, "sigma": sigma, "fitted_inner_parameters": fitted,
            "separation_constant_k": k, "residuals": {"ces": ces},
            "detection": detection}


def _normal_form(spec: QuasiSumSpec):
    """The normal form the inner functions take, if any: (case, sigma,
    fitted inner parameters, separation constant, sigma of the elasticity
    identity)."""
    coeffs = [h.coefficient for h in spec.inner]
    if all(h.form == FORM_LOG for h in spec.inner):
        if spec.n == 2 and abs(sum(coeffs)) <= (
                tolerances.PARAMETER_MATCH_TOL * max(map(abs, coeffs))):
            # Two opposite log inners: everywhere-degenerate elasticity.
            k = -(SIGMA_REFERENCE_DEGENERATE - 1.0) / coeffs[0]
            return (RATIO_TWO_INPUT, None, coeffs, k,
                    SIGMA_REFERENCE_DEGENERATE)
        return HOMOTHETIC_COBB_DOUGLAS, 1.0, coeffs, None, 1.0
    # Otherwise every inner must be a power of inner[0]'s exponent p != 1.
    p = spec.inner[0].exponent
    if p in (None, 1.0) or any(
            h.form != FORM_POWER or abs(h.exponent - p)
            > tolerances.PARAMETER_MATCH_TOL * max(1.0, abs(p))
            for h in spec.inner):
        return None
    sigma = 1.0 / (1.0 - p)
    return HOMOTHETIC_ACMS, sigma, coeffs, None, sigma


# -- outer-function differential consistency ---------------------------------


def _relative_defect(a, b):
    """|a - b| / max(|a|, |b|) per element, and 0 where both vanish (under
    the caller's np.errstate)."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.where(scale == 0.0, 0.0, np.abs(a - b) / scale)


# -- theorem verification -----------------------------------------------------


def _theorem_report(theorem: str, hypothesis: bool | None,
                    conclusion: bool, hypothesis_check: dict,
                    conclusion_check: dict, per_point) -> dict:
    """The report of a biconditional from its two sides.  An undecided
    hypothesis (None: the sampled residuals land between the vanishing and
    clearly-nonzero thresholds) reads DegenerateHypothesis rather than a
    guess, and neither implication is judged.  ``per_point`` is
    PointRecords of one record per sampled point (the point, G, scaled G
    and flatness residual), rendered as ``per_point_data``; Theorem 1.1
    keeps ``()``."""
    if hypothesis is None:
        verdict = DEGENERATE_HYPOTHESIS
        forward = reverse = None
    else:
        verdict = CONSISTENT if hypothesis == conclusion else INCONSISTENT
        forward = (not hypothesis) or conclusion
        reverse = (not conclusion) or hypothesis
    return {
        "theorem": theorem,
        "verdict": verdict,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": conclusion,
        "forward_implication_ok": forward,
        "reverse_implication_ok": reverse,
        "hypothesis_check": hypothesis_check,
        "conclusion_check": conclusion_check,
        "per_point_data": per_point,
    }


@np.errstate(all="ignore")
def _structure_side(expr: FunctionExpr,
                    table: PointTable) -> tuple[bool, dict]:
    """(matches, conclusion check) of the curvature theorems: whether
    ``expr`` is, up to an additive output constant, a linearly homogeneous
    member of either family, by exact (1e-12) parameter tests, a quasi-sum's
    case being its normal form (only classify and Theorem 1.1 apply the CES
    residual gate); the shift-free Euler gap; and, for a member of either
    family at any degree, the largest defect of its outer ODE, with
    sigma - 1 = p / (1 - p) for inner exponent p.  The Euler gap reads
    the outer function without its additive constant, at the table's u."""
    p = expr.params
    matches, family, outer = False, None, None
    alpha = power = None  # alpha, or the inner exponent p, of the outer ODE
    if expr.family == "acms":
        gap = abs(p["d"] - 1.0)
        matches, family, record = (gap <= tolerances.PARAMETER_MATCH_TOL,
                                   "acms", {"degree_gap": gap})
        if p["rho"] != 1.0:
            power = p["rho"]
    elif expr.family == "cobb_douglas":
        alpha = math.fsum(p["alpha"])
        gap = abs(alpha - 1.0)
        matches, family, record = (gap <= tolerances.PARAMETER_MATCH_TOL,
                                   "cobb_douglas", {"exponent_sum_gap": gap})
    elif expr.family == "ratio":
        outer = p["outer"]
        record = {"note": "ratio family is homogeneous of degree zero"}
    else:
        spec = p["spec"]
        outer = spec.outer
        fit = _normal_form(spec)
        case = fit[0] if fit else NOT_CES
        record = {"classification_case": case, "outer_form": spec.outer.form}
        if case == HOMOTHETIC_ACMS:
            exponent = spec.inner[0].exponent
            shift_sum = math.fsum(h.shift for h in spec.inner)
            shift_scale = max(1.0, max(abs(h.shift) for h in spec.inner))
            record["inner_shift_sum"] = shift_sum
            matches = (spec.outer.form == FORM_POWER
                       and abs(spec.outer.exponent * exponent - 1.0)
                       <= tolerances.PARAMETER_MATCH_TOL
                       and abs(shift_sum)
                       <= tolerances.PARAMETER_MATCH_TOL * shift_scale)
            if spec.outer.form == FORM_POWER:
                record["degree_product"] = spec.outer.exponent * exponent
            family = "acms"
            power = exponent
        elif case == HOMOTHETIC_COBB_DOUGLAS:
            alpha = math.fsum(h.coefficient for h in spec.inner)
            record["coefficient_sum"] = alpha
            matches = (spec.outer.form == FORM_EXP
                       and abs(alpha - 1.0) <= tolerances.PARAMETER_MATCH_TOL
                       * max(1.0, abs(alpha)))
            family = "cobb_douglas"

    bare = table
    if outer is not None and outer.shift != 0.0:
        bare = table.replace(value=outer.replace(shift=0.0).derivatives(
            table.u)[0])
    try:
        record["euler_degree_gap"] = float(np.max(np.abs(
            euler_quotients(bare) - 1.0)))
    except DomainError:
        record["euler_degree_gap"] = math.inf
    check = {"family_matches": matches, "family": family, **record}
    if alpha is None and power is None:
        return matches, check

    # One power of two per row brings |F'|, |F''| below 1, so the products
    # stay in range; the defect is scale-free, and the scaling exact.
    f1, f2 = table.factors[:2]
    unit = np.frexp(np.maximum(np.abs(f1), np.abs(f2)))[1]
    f1, f2 = np.ldexp(f1, -unit), np.ldexp(f2, -unit)
    if alpha is not None:
        form, defect = "log_aggregator", _relative_defect(alpha * f2, f1)
    else:
        form, defect = "power_aggregator", _relative_defect(
            f1, power / (1.0 - power) * (table.u * f2))
    worst = float(np.max(defect))
    if not math.isfinite(worst):
        raise DomainError("outer-function residual is not finite")
    check["outer_ode"] = {"form": form, "max_residual": worst}
    return matches, check


def _minor_cancellation(table: PointTable, det_cancellation) -> np.ndarray:
    """Theorem 4.2's statistic per row.  det Hess is the one minor for n = 2;
    for n >= 3 two pairs sharing only s have the single, uncancellable term
    +-D_s c u_a u_b (u != 0, as detection refuses a zero marginal product),
    so it is 1 unless every minor is 0: no D_i != 0, or one and c = 0, with
    D_i != 0 read from h_i'' itself, so an underflowed D_i is not flat."""
    f2, d2 = table.factors[1], table.factors[3]
    return det_cancellation if d2.shape[1] == 2 else np.where(
        (d2 != 0).sum(1) > (f2 == 0), 1.0, 0.0)


def _verify_curvature_theorem(theorem: str, expr: FunctionExpr, box,
                              samples: int, seed: int) -> dict:
    if not isinstance(expr, FunctionExpr):
        raise SpecError("verification needs a FunctionExpr")
    table = point_table(expr, box, samples, seed)
    detection = detect_ces_on(table)
    if detection["verdict"] == NOT_CES:
        raise HypothesisError(
            "constant-elasticity hypothesis fails on this box (NotCES)")

    surface = surface_curvatures(table)
    keys = ("flatness_residual", "gauss_kronecker", "gauss_kronecker_scaled")
    rows = PointRecords(tuple((key, 0) for key in keys) + (("point", expr.n),),
                        np.column_stack([*map(surface.get, keys), table.points]))

    statistic, values = "det_cancellation", surface["det_cancellation"]
    if theorem == THEOREM_FLATNESS:
        statistic, values = "minor_cancellation", _minor_cancellation(
            table, values)
    worst = float(np.max(values))
    hypothesis = (True if worst <= tolerances.VANISHING_CURVATURE_TOL
                  else False if worst > tolerances.CLEAR_CURVATURE_TOL
                  else None)
    matches, conclusion_check = _structure_side(expr, table)
    hypothesis_check = {
        "ces_verdict": detection["verdict"],
        "sigma_estimate": detection["sigma_estimate"],
        "max_" + statistic: worst,
        "vanishing_tolerance": tolerances.VANISHING_CURVATURE_TOL,
        "clearly_nonzero_tolerance": tolerances.CLEAR_CURVATURE_TOL,
    }
    return _theorem_report(theorem, hypothesis, matches, hypothesis_check,
                           conclusion_check, rows)


def verify_theorem_41(expr: FunctionExpr, box=None, samples: int = 64,
                      seed: int = 0) -> dict:
    """Vanishing Gauss-Kronecker curvature vs degree-one family membership."""
    return _verify_curvature_theorem(THEOREM_GAUSS_KRONECKER, expr, box,
                                     samples, seed)


def verify_theorem_42(expr: FunctionExpr, box=None, samples: int = 64,
                      seed: int = 0) -> dict:
    """Intrinsic flatness of the graph vs degree-one family membership."""
    return _verify_curvature_theorem(THEOREM_FLATNESS, expr, box,
                                     samples, seed)


def verify_theorem_11(expr, box=None, samples: int = 64,
                      seed: int = 0) -> dict:
    """Constant-elasticity detection vs structural classification.

    A quasi-sum has a constant (or everywhere-degenerate) pairwise elasticity
    exactly when it classifies into one of the three structural cases; both
    sides false is as consistent as both sides true.  Unlike the curvature
    checks this accepts NotCES inputs, since they are half of the statement.
    """
    classification = classify_quasi_sum(expr, box, samples, seed)
    # The detection is reported once, here, with its verdict as ces_verdict.
    detection = classification.pop("detection")
    hypothesis = detection["verdict"] in (REGULAR_CES, DEGENERATE_CES)
    detection["ces_verdict"] = detection.pop("verdict")
    conclusion = classification["case"] != NOT_CES
    conclusion_check = {"family_matches": conclusion,
                        "classification": classification}
    return _theorem_report(THEOREM_CLASSIFICATION, hypothesis, conclusion,
                           detection, conclusion_check, ())
