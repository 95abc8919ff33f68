"""Constructive classification of quasi-sum functions and theorem checks.

A quasi-sum F(h_1(x_1)+...+h_n(x_n)) with constant pairwise elasticity sigma
falls into one of three structural cases, decided here from the closed-form
inner functions rather than by curve fitting:

* every inner is a power c_i x^((sigma-1)/sigma) up to shift  -> HomotheticACMS
* every inner is a log (sigma = 1)                            -> HomotheticCobbDouglas
* two inputs with opposite log inners (degenerate elasticity) -> RatioTwoInput

Anything else is NotCES.  The verdict is gated twice: the sampled elasticity
must actually be constant (or degenerate), and the matched structure must
reproduce the inner derivatives and the constant-elasticity identity
within the configured residual tolerances.

The theorem checkers compare two independently computed sides of a
biconditional on a sampled box: a curvature side (the cancellation of the
terms of det Hess f for the determinant theorem, normalized Riemann
components for the flatness theorem) and a structure side (membership in
the linearly homogeneous families).  Each check reports both one-sided
implications and a full per-point residual table; a verdict is never
adjusted to match the expected outcome, so a genuine disagreement between
the two sides surfaces as Inconsistent with the data needed to inspect it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import (
    DEGENERATE_CES, NOT_CES, REGULAR_CES,
    ElasticityReport, PointRecords, ces_residuals, detect_ces_on,
    point_table,
)
from .errors import DomainError, HypothesisError, SpecError
from .families import (
    FORM_AFFINE, FORM_EXP, FORM_LOG, FORM_POWER,
    FunctionExpr, PointTable, QuasiSumSpec, ScalarFn,
    as_quasi_sum, build_quasi_sum, euler_quotients, index_pairs,
    normalize_outer_shift,
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
    "ClassificationResult", "TheoremReport", "classify_quasi_sum",
    "verify_theorem_11", "verify_theorem_41", "verify_theorem_42",
    "acms_outer_ode_residual", "cobb_douglas_outer_ode_residual",
    "HOMOTHETIC_ACMS", "HOMOTHETIC_COBB_DOUGLAS", "RATIO_TWO_INPUT",
    "NOT_CES", "CONSISTENT", "INCONSISTENT", "DEGENERATE_HYPOTHESIS",
    "SIGMA_REFERENCE_DEGENERATE",
]


@dataclass(frozen=True)
class ClassificationResult:
    """Structural case of a quasi-sum, with the fit that justified it."""

    case: str
    sigma: float | None
    fitted_inner_parameters: tuple | None
    separation_constant_k: float | None
    ces_residual: float
    structure_residual: float
    detection: ElasticityReport

    def as_dict(self) -> dict:
        fitted = self.fitted_inner_parameters
        return {
            "case": self.case,
            "sigma": self.sigma,
            "fitted_inner_parameters": None if fitted is None else list(fitted),
            "separation_constant_k": self.separation_constant_k,
            "residuals": {"ces": self.ces_residual,
                          "structure": self.structure_residual},
            "detection": self.detection.as_dict(),
        }


def _not_ces(detection: ElasticityReport,
             ces: float = math.inf,
             structure: float = math.inf) -> ClassificationResult:
    return ClassificationResult(NOT_CES, None, None, None, ces, structure,
                                detection)


def classify_quasi_sum(spec, box=None, samples: int = 64,
                       seed: int = 0) -> ClassificationResult:
    """Decide the structural case of a quasi-sum on ``box``.

    Accepts a QuasiSumSpec, or any FunctionExpr that has a quasi-sum form,
    classified on the expression's own point table (as verify 1.1 does).
    The returned residuals are maxima over ``samples`` log-uniform points:
    ``ces`` for the cancellation of the elasticity identity at the fitted sigma
    (at the reference sigma for the degenerate case), ``structure`` for the
    deviation of each inner derivative from the fitted normal form.
    """
    if isinstance(spec, FunctionExpr):
        expr, spec = spec, as_quasi_sum(spec)
    elif isinstance(spec, QuasiSumSpec):
        expr = build_quasi_sum(spec, box)
    else:
        raise SpecError("classification needs a QuasiSumSpec")
    table = point_table(expr, box, samples, seed)
    return _classify(spec, table, detect_ces_on(table))


def _classify(spec: QuasiSumSpec, table: PointTable,
              detection: ElasticityReport) -> ClassificationResult:
    """The case of ``spec`` from a point table of its quasi-sum and the
    detection made on it; residuals skip the table's box-center row."""
    fit = _normal_form(spec, detection)
    if fit is None:
        return _not_ces(detection)
    case, sigma, fitted, k, sigma_ref, fitted_d1 = fit
    samples = table[1:]
    structure = float(np.max(np.abs(
        samples.factors[2] / fitted_d1(samples.points) - 1.0)))
    lo, hi = index_pairs(spec.n)
    ces = float(np.max(np.abs(ces_residuals(samples, sigma_ref, lo, hi))))
    if (structure > tolerances.STRUCTURE_RESIDUAL_TOL
            or ces > tolerances.CES_RESIDUAL_TOL):
        return _not_ces(detection, ces, structure)
    return ClassificationResult(case, sigma, fitted, k, ces, structure,
                                detection)


def _normal_form(spec: QuasiSumSpec, detection: ElasticityReport):
    """The normal form the detection points to, if the inners match it:
    (case, sigma, fitted inner parameters, separation constant, sigma of
    the elasticity identity, fitted h'(x) at an (N, n) point array)."""
    logs = all(h.form == FORM_LOG for h in spec.inner)
    if detection.verdict == DEGENERATE_CES:
        # Everywhere-degenerate elasticity: two opposite log inners.
        if spec.n != 2 or not logs:
            return None
        betas = tuple(h.coefficient for h in spec.inner)
        if abs(sum(betas)) > tolerances.DEGREE_ONE_TOL * max(map(abs, betas)):
            return None
        k = -(SIGMA_REFERENCE_DEGENERATE - 1.0) / betas[0]
        return (RATIO_TWO_INPUT, None, betas, k, SIGMA_REFERENCE_DEGENERATE,
                lambda x: np.array(betas) / x)
    if detection.verdict != REGULAR_CES:
        return None
    sigma_hat = detection.sigma_estimate
    if abs(sigma_hat - 1.0) <= tolerances.SIGMA_ONE_TIE_TOL:
        # sigma = 1: the inners must all be logarithms.
        if not logs:
            return None
        alphas = tuple(h.coefficient for h in spec.inner)
        return (HOMOTHETIC_COBB_DOUGLAS, 1.0, alphas, None, 1.0,
                lambda x: np.array(alphas) / x)
    # sigma != 1: the inners must share the exponent (sigma-1)/sigma.
    p_star = (sigma_hat - 1.0) / sigma_hat
    tol = tolerances.EXPONENT_MATCH_TOL * max(1.0, abs(p_star))
    if any(h.form != FORM_POWER or abs(h.exponent - p_star) > tol
           for h in spec.inner):
        return None
    p = spec.inner[0].exponent
    if p == 1.0:
        return None
    sigma = 1.0 / (1.0 - p)
    coeffs = tuple(h.coefficient for h in spec.inner)
    return (HOMOTHETIC_ACMS, sigma, coeffs, None, sigma,
            lambda x: np.array(coeffs) * p * x ** (p - 1.0))


# -- outer-function differential consistency ---------------------------------


def _relative_defect(a, b):
    """|a - b| / max(|a|, |b|), and 0 where both vanish; floats or arrays."""
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):
        return np.where(scale == 0.0, 0.0, np.abs(a - b) / scale)[()]


def acms_outer_ode_residual(outer: ScalarFn, sigma: float, u):
    """Relative defect of F'(u) = (sigma-1) u F''(u) at an argument u (a
    float, or an array of them).

    Zero exactly for F(u) = c u^(sigma/(sigma-1)) + s, the outer functions
    that make a power quasi-sum homogeneous of degree one.
    """
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma in (0.0, 1.0):
        raise SpecError("sigma must be finite and neither 0 nor 1")
    _, d1, d2 = outer.derivatives(u)
    return _relative_defect(d1, (sigma - 1.0) * u * d2)


def cobb_douglas_outer_ode_residual(outer: ScalarFn, alpha: float, u):
    """Relative defect of (alpha-1) F'(u) + alpha u F''(u) = 0.

    Here u is the product-form argument (a float or an array); zero exactly
    for F(u) = c u^(1/alpha) + s.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise SpecError("alpha must be finite and nonzero")
    _, d1, d2 = outer.derivatives(u)
    return _relative_defect((alpha - 1.0) * d1, -(alpha * u * d2))


def _cobb_douglas_log_ode_residual(outer: ScalarFn, alpha: float, v):
    """The same condition with the argument in log coordinates.

    Substituting u = e^v turns (alpha-1)F' + alphauF'' = 0 into
    alpha P''(v) = P'(v) for P(v) = F(e^v); zero exactly for exp outers
    with alpha = 1.
    """
    _, d1, d2 = outer.derivatives(v)
    return _relative_defect(alpha * d2, d1)


# -- theorem verification -----------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of a verified biconditional, with the per-point evidence.

    ``hypothesis_holds`` is None when the sampled residuals land between the
    vanishing and clearly-nonzero thresholds; the verdict is then
    DegenerateHypothesis rather than a guess.  ``per_point`` is PointRecords
    of one record per sampled point (the point, G, scaled G and flatness
    residual), rendered as ``per_point_data``; Theorem 1.1 keeps ``()``.
    """

    theorem: str
    verdict: str
    hypothesis_holds: bool | None
    conclusion_holds: bool
    hypothesis_check: dict
    conclusion_check: dict
    per_point: PointRecords | tuple

    def as_dict(self) -> dict:
        if self.hypothesis_holds is None:
            forward = reverse = None
        else:
            forward = (not self.hypothesis_holds) or self.conclusion_holds
            reverse = (not self.conclusion_holds) or self.hypothesis_holds
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion_holds": self.conclusion_holds,
            "forward_implication_ok": forward,
            "reverse_implication_ok": reverse,
            "hypothesis_check": self.hypothesis_check,
            "conclusion_check": self.conclusion_check,
            "per_point_data": self.per_point,
        }


def _family_degree_one(expr: FunctionExpr, table: PointTable,
                       detection: ElasticityReport):
    """Structure side of the curvature theorems.

    Returns (matches, family label, record, classification-or-None): whether
    ``expr`` is, up to an additive output constant, a linearly homogeneous
    member of the power-aggregator or log-aggregator family.  Parameter tests
    are exact (1e-12), never sampled; a quasi-sum is classified on ``table``.
    """
    if expr.family == "acms":
        gap = abs(expr.params["d"] - 1.0)
        return (gap <= tolerances.DEGREE_ONE_TOL, "acms",
                {"degree_gap": gap}, None)
    if expr.family == "cobb_douglas":
        gap = abs(math.fsum(expr.params["alpha"]) - 1.0)
        return (gap <= tolerances.DEGREE_ONE_TOL, "cobb_douglas",
                {"exponent_sum_gap": gap}, None)
    if expr.family == "ratio":
        return (False, None,
                {"note": "ratio family is homogeneous of degree zero"}, None)

    spec = expr.params["spec"]
    cls = _classify(spec, table, detection)
    record: dict = {"classification_case": cls.case,
                    "outer_form": spec.outer.form}
    if cls.case == HOMOTHETIC_ACMS:
        p = spec.inner[0].exponent
        shift_sum = math.fsum(h.shift for h in spec.inner)
        shift_scale = max(1.0, max(abs(h.shift) for h in spec.inner))
        record["inner_shift_sum"] = shift_sum
        matches = (spec.outer.form == FORM_POWER
                   and abs(spec.outer.exponent * p - 1.0)
                   <= tolerances.DEGREE_ONE_TOL
                   and abs(shift_sum)
                   <= tolerances.DEGREE_ONE_TOL * shift_scale)
        if spec.outer.form == FORM_POWER:
            record["degree_product"] = spec.outer.exponent * p
        return matches, "acms", record, cls
    if cls.case == HOMOTHETIC_COBB_DOUGLAS:
        beta_sum = math.fsum(h.coefficient for h in spec.inner)
        record["coefficient_sum"] = beta_sum
        matches = (spec.outer.form == FORM_EXP
                   and abs(beta_sum - 1.0)
                   <= tolerances.DEGREE_ONE_TOL * max(1.0, abs(beta_sum)))
        return matches, "cobb_douglas", record, cls
    return False, None, record, cls


def _outer_ode_diagnostic(expr: FunctionExpr, x: np.ndarray, cls):
    """(form, worst outer-function differential residual) over the (N, n)
    points, or (None, None) when no outer form applies."""
    p = expr.params
    if expr.family == "acms" and p["rho"] != 1.0:
        outer = ScalarFn(FORM_POWER, p["gamma"], exponent=p["d"] / p["rho"])
        u = (np.array(p["weights"]) * x ** p["rho"]).sum(axis=1)
        return "power_aggregator", float(np.max(acms_outer_ode_residual(
            outer, 1.0 / (1.0 - p["rho"]), u)))
    if expr.family == "cobb_douglas":
        u = np.prod(x ** np.array(p["alpha"]), axis=1)
        return "log_aggregator", float(np.max(cobb_douglas_outer_ode_residual(
            ScalarFn(FORM_AFFINE, p["gamma"]), math.fsum(p["alpha"]), u)))
    if expr.family != "quasi_sum" or cls is None:
        return None, None
    spec = p["spec"]
    u = sum(h.derivatives(x[:, k])[0] for k, h in enumerate(spec.inner))
    if cls.case == HOMOTHETIC_ACMS:
        return "power_aggregator", float(np.max(acms_outer_ode_residual(
            spec.outer, cls.sigma, u)))
    if cls.case == HOMOTHETIC_COBB_DOUGLAS:
        alpha = math.fsum(h.coefficient for h in spec.inner)
        return "log_aggregator", float(np.max(
            _cobb_douglas_log_ode_residual(spec.outer, alpha, u)))
    return None, None


def _verify_curvature_theorem(theorem: str, expr: FunctionExpr, box,
                              samples: int, seed: int) -> TheoremReport:
    if not isinstance(expr, FunctionExpr):
        raise SpecError("verification needs a FunctionExpr")
    # Detection refuses custom composites, which have no per-axis record.
    table = point_table(expr, box, samples, seed)
    detection = detect_ces_on(table)
    if detection.verdict == NOT_CES:
        raise HypothesisError(
            "constant-elasticity hypothesis fails on this box (NotCES)")

    surface = surface_curvatures(table)
    keys = ("flatness_residual", "gauss_kronecker", "gauss_kronecker_scaled")
    rows = PointRecords(tuple((key, 0) for key in keys) + (("point", expr.n),),
                        np.column_stack([*map(surface.get, keys), table.points]))

    statistic, vanish_tol, clear_tol = (
        ("det_cancellation", tolerances.VANISHING_CURVATURE_TOL,
         tolerances.CLEAR_CURVATURE_TOL) if theorem == THEOREM_GAUSS_KRONECKER
        else ("flatness_residual", tolerances.FLATNESS_VERDICT_TOL,
              tolerances.CLEAR_NONFLAT_TOL))
    worst = float(np.max(surface[statistic]))
    hypothesis = (True if worst <= vanish_tol
                  else False if worst > clear_tol else None)

    matches, family, record, cls = _family_degree_one(expr, table, detection)

    bare = normalize_outer_shift(expr)
    try:
        degree_gap = float(np.max(np.abs(euler_quotients(
            table if bare is expr else bare.derivatives(table.points)) - 1.0)))
    except DomainError:
        degree_gap = math.inf
    record["euler_degree_gap"] = degree_gap

    conclusion_check = {"family_matches": matches, "family": family}
    conclusion_check.update(record)
    if theorem == THEOREM_GAUSS_KRONECKER:
        ode_label, ode_worst = _outer_ode_diagnostic(expr, table.points, cls)
        if ode_label is not None:
            conclusion_check["outer_ode"] = {"form": ode_label,
                                             "max_residual": ode_worst}

    hypothesis_check = {
        "ces_verdict": detection.verdict,
        "sigma_estimate": detection.sigma_estimate,
        "max_" + statistic: worst,
        "vanishing_tolerance": vanish_tol,
        "clearly_nonzero_tolerance": clear_tol,
    }

    if hypothesis is None:
        verdict = DEGENERATE_HYPOTHESIS
    elif hypothesis == matches:
        verdict = CONSISTENT
    else:
        verdict = INCONSISTENT
    return TheoremReport(theorem, verdict, hypothesis, matches,
                         hypothesis_check, conclusion_check, rows)


def verify_theorem_41(expr: FunctionExpr, box=None, samples: int = 64,
                      seed: int = 0) -> TheoremReport:
    """Vanishing Gauss-Kronecker curvature vs degree-one family membership."""
    return _verify_curvature_theorem(THEOREM_GAUSS_KRONECKER, expr, box,
                                     samples, seed)


def verify_theorem_42(expr: FunctionExpr, box=None, samples: int = 64,
                      seed: int = 0) -> TheoremReport:
    """Intrinsic flatness of the graph vs degree-one family membership."""
    return _verify_curvature_theorem(THEOREM_FLATNESS, expr, box,
                                     samples, seed)


def verify_theorem_11(expr, box=None, samples: int = 64,
                      seed: int = 0) -> TheoremReport:
    """Constant-elasticity detection vs structural classification.

    A quasi-sum has a constant (or everywhere-degenerate) pairwise elasticity
    exactly when it classifies into one of the three structural cases; both
    sides false is as consistent as both sides true.  Unlike the curvature
    checks this accepts NotCES inputs, since they are half of the statement.
    """
    cls = classify_quasi_sum(expr, box, samples, seed)
    hypothesis = cls.detection.verdict in (REGULAR_CES, DEGENERATE_CES)
    conclusion = cls.case != NOT_CES
    verdict = CONSISTENT if hypothesis == conclusion else INCONSISTENT
    # The detection is reported once, here, with its verdict as ces_verdict.
    hypothesis_check = cls.detection.as_dict()
    hypothesis_check["ces_verdict"] = hypothesis_check.pop("verdict")
    classification = cls.as_dict()
    del classification["detection"]
    conclusion_check = {"family_matches": conclusion,
                        "classification": classification}
    return TheoremReport(THEOREM_CLASSIFICATION, verdict, hypothesis,
                         conclusion, hypothesis_check, conclusion_check, ())
