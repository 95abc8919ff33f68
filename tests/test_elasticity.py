"""Pairwise substitution elasticities and the CES detector."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from prodgeo import (
    DomainError, QuasiSumSpec, ScalarFn, SpecError,
    build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, ces_residual, detect_ces, hicks_elasticity,
    pairwise_elasticities, quasisum_separated_residual,
)
from prodgeo import tolerances
from prodgeo.elasticity import ces_residuals, hicks_values
from prodgeo.families import index_pairs
import gates
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_point, random_points,
    random_quasi_sum_expr, random_ratio_expr,
)


def acms_sigma(rho: float) -> float:
    return 1.0 / (1.0 - rho)


# -- hand values ----------------------------------------------------------------


def test_hicks_hand_values():
    sqrt_sum = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    h = hicks_elasticity(sqrt_sum, [1.0, 1.0], 0, 1)
    assert h.kind == "finite" and h.value == pytest.approx(2.0, rel=1e-12)

    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    assert hicks_elasticity(cd, [2.0, 8.0], 0, 1).value == \
        pytest.approx(1.0, rel=1e-12)

    linear = build_acms(1.0, (1.0, 1.0), 1.0, 1.0)
    flat = hicks_elasticity(linear, [1.0, 1.0], 0, 1)
    assert flat.kind == "infinite" and math.isinf(flat.as_float())

    ratio = build_ratio(ScalarFn("affine", 1.0))
    degenerate = hicks_elasticity(ratio, [1.0, 1.0], 0, 1)
    assert degenerate.kind == "degenerate"
    assert math.isnan(degenerate.as_float())


def test_hicks_matches_the_aggregator_exponent():
    rng = make_rng(301)
    for rho in (-1.0, 0.5, 2.0):
        expr = random_acms(rng, 3, rho=rho)
        for x in random_points(rng, 3, 25):
            for i, j, h in pairwise_elasticities(expr, x):
                assert h.kind == "finite"
                assert h.value == pytest.approx(acms_sigma(rho), rel=1e-9)


def test_pair_argument_validation():
    expr = build_cobb_douglas(1.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        hicks_elasticity(expr, [1.0, 1.0], 0, 0)
    with pytest.raises(SpecError):
        hicks_elasticity(expr, [1.0, 1.0], 0, 2)
    with pytest.raises(SpecError):
        hicks_elasticity(expr, [1.0, 1.0], 0.0, 1)
    with pytest.raises(SpecError):
        hicks_elasticity(expr, [1.0, 1.0], -1, 1)


def test_vanishing_marginal_product_is_rejected():
    # exp(-x1 - x2) at (400, 400): F' underflows to 0, so every f_i = F' h_i'
    # vanishes, while the separated residual never evaluates F.
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("affine", -1.0),
                               ScalarFn("affine", -1.0)))
    expr = build_quasi_sum(spec)
    with pytest.raises(DomainError, match="a marginal product vanishes"):
        hicks_elasticity(expr, [400.0, 400.0], 0, 1)
    with pytest.raises(DomainError, match="a marginal product vanishes"):
        ces_residual(expr, [400.0, 400.0], 2.0, 0, 1)
    assert quasisum_separated_residual(spec, [400.0, 400.0], 2.0, 0, 1) \
        == -0.005


# -- invariances ------------------------------------------------------------------


def test_pair_order_gives_bitwise_equal_values():
    rng = make_rng(302)
    exprs = [random_acms(rng, 4), random_cobb_douglas(rng, 4),
             random_quasi_sum_expr(rng, 3), random_ratio_expr(rng)]
    for expr in exprs:
        for x in random_points(rng, expr.n, 10):
            for i in range(expr.n):
                for j in range(i + 1, expr.n):
                    a = hicks_elasticity(expr, x, i, j)
                    b = hicks_elasticity(expr, x, j, i)
                    assert a.kind == b.kind
                    if a.kind == "finite":
                        assert a.value == b.value  # identical bits, not approx


def test_elasticity_is_scale_free_on_homogeneous_functions():
    rng = make_rng(303)
    for expr in (random_acms(rng, 3, d=1.4, rho=0.5),
                 random_cobb_douglas(rng, 3)):
        x = random_point(rng, 3)
        base = hicks_elasticity(expr, x, 0, 2).value
        for t in (0.5, 2.0, 10.0):
            scaled = hicks_elasticity(expr, t * x, 0, 2).value
            assert abs(scaled - base) <= \
                gates.SCALE_INVARIANCE_TOL * max(1.0, abs(base))


def test_hicks_values_and_ces_residuals_ignore_the_output_scale():
    # H and the normalised residual are invariant under f -> k f; for k a
    # power of two the results are the same bits, even where the products
    # of derivatives would leave the float range.  The scaled table scales
    # the record's F' and F'' with the gradient.
    rng = make_rng(305)
    for expr in (random_acms(rng, 4), random_cobb_douglas(rng, 3),
                 random_quasi_sum_expr(rng, 3), random_ratio_expr(rng)):
        x = random_points(rng, expr.n, 50)
        table = expr.derivatives(x)
        lo, hi = index_pairs(expr.n)
        base_h = hicks_values(table, lo, hi)
        base_r = ces_residuals(table, 2.0, lo, hi)
        for k in (2.0 ** -900, 2.0 ** -500, 2.0 ** 500, 2.0 ** 900):
            f1, f2, d1, d2 = table.factors
            scaled = dataclasses.replace(table, gradient=k * table.gradient,
                                         factors=(k * f1, k * f2, d1, d2))
            np.testing.assert_array_equal(
                hicks_values(scaled, lo, hi), base_h, strict=True)
            np.testing.assert_array_equal(
                ces_residuals(scaled, 2.0, lo, hi), base_r, strict=True)


# -- the constant-elasticity identity ---------------------------------------------


def test_residual_vanishes_at_the_true_sigma():
    expr = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    rng = make_rng(304)
    for x in random_points(rng, 2, 20):
        assert abs(ces_residual(expr, x, 2.0, 0, 1)) <= 1e-12


def test_residual_flags_the_wrong_sigma():
    expr = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    assert abs(ces_residual(expr, [1.0, 2.0], 3.0, 0, 1)) > 1e-3


def test_residual_ignores_sigma_on_a_ratio():
    expr = build_ratio(ScalarFn("affine", 1.0))
    for sigma in (-2.0, 1.0, 3.0):
        assert abs(ces_residual(expr, [1.3, 0.8], sigma, 0, 1)) <= 1e-12


def test_residual_sigma_validation():
    expr = build_cobb_douglas(1.0, (0.5, 0.5))
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(SpecError):
            ces_residual(expr, [1.0, 1.0], bad, 0, 1)


def test_detected_value_is_a_root_of_the_identity():
    rng = make_rng(305)
    cases = [(random_acms(rng, 2, rho=rho), acms_sigma(rho))
             for rho in (-1.0, 0.5, 2.0)]
    cases.append((random_cobb_douglas(rng, 2), 1.0))
    for expr, sigma_true in cases:
        for x in random_points(rng, 2, 3):
            reported = hicks_elasticity(expr, x, 0, 1).value
            lo = sorted((0.5 * sigma_true, 1.5 * sigma_true))
            root = brentq(lambda s: ces_residual(expr, x, s, 0, 1),
                          lo[0], lo[1], xtol=1e-13, rtol=1e-14)
            assert abs(root - reported) <= \
                gates.SIGMA_ROOT_MATCH_TOL * max(1.0, abs(reported))


# -- separated one-input residuals -------------------------------------------------


def test_separated_residual_hand_values():
    root = ScalarFn("power", 2.0, exponent=0.5)
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0), inner=(root, root))
    rng = make_rng(306)
    for x in random_points(rng, 2, 10):
        assert abs(quasisum_separated_residual(spec, x, 2.0, 0, 1)) <= 1e-12

    logs = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", 0.7), ScalarFn("log", 1.3)))
    for x in random_points(rng, 2, 10):
        assert abs(quasisum_separated_residual(logs, x, 1.0, 0, 1)) <= 1e-12

    mixed = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                         inner=(ScalarFn("power", 1.0, exponent=2.0),
                                ScalarFn("log", 1.0)))
    assert quasisum_separated_residual(mixed, [1.0, 1.0], 1.0, 0, 1) == \
        pytest.approx(1.0, rel=1e-12)


def test_separated_residual_guards():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("log", 1.0), ScalarFn("log", 1.0)))
    with pytest.raises(DomainError):
        quasisum_separated_residual(spec, [1.0, -1.0], 2.0, 0, 1)
    with pytest.raises(SpecError):
        quasisum_separated_residual(spec, [1.0, 1.0], 0.0, 0, 1)


@pytest.mark.parametrize("point, error, message", [
    ([1.0, 1.0], SpecError, "point has shape"),
    ([1.0, 1.0, 1.0, 5.0], SpecError, "point has shape"),
    ([math.nan, 1.0, 1.0], DomainError, "finite and strictly positive"),
    ([math.inf, 1.0, 1.0], DomainError, "finite and strictly positive"),
    ([1.0, 0.0, 1.0], DomainError, "finite and strictly positive")])
def test_separated_residual_checks_the_whole_point(point, error, message):
    # The whole point is checked, as in every one-point function, not only
    # the coordinates of the pair (0, 2).
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("log", 1.0),) * 3)
    with pytest.raises(error, match=message):
        quasisum_separated_residual(spec, point, 2.0, 0, 2)


# -- box-level detection ------------------------------------------------------------


def test_detect_regular_families():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    report = detect_ces(cd)
    assert report.verdict == "RegularCES"
    assert report.sigma_estimate == pytest.approx(1.0, rel=1e-9)
    assert report.infinite_pairs == 0
    assert report.max_deviation <= tolerances.CES_CONSTANCY_RTOL

    acms = build_acms(1.3, (2.0, 0.7, 1.1), -1.0, 1.6)
    report = detect_ces(acms, samples=16, seed=3)
    assert report.verdict == "RegularCES"
    assert report.sigma_estimate == pytest.approx(0.5, rel=1e-9)


def test_detect_degenerate_ratio():
    report = detect_ces(build_ratio(ScalarFn("affine", 1.0)))
    assert report.verdict == "DegenerateCES"
    assert report.sigma_estimate is None
    assert report.finite_pairs == 0
    assert report.degenerate_pairs == report.n_points


def test_detect_rejects_a_varying_elasticity():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("log", 1.0)))
    report = detect_ces(build_quasi_sum(spec))
    assert report.verdict == "NotCES"
    assert report.max_deviation > tolerances.CES_CONSTANCY_RTOL


def test_detect_sample_budget_validation():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        detect_ces(cd, samples=1)


def test_report_serialization_uses_one_based_pairs():
    report = detect_ces(build_cobb_douglas(1.0, (0.4, 0.3, 0.3)))
    doc = report.as_dict()
    assert set(doc["center_pair_values"]) == {"1,2", "1,3", "2,3"}
    assert doc["verdict"] == "RegularCES"
    for key in ("sigma_estimate", "max_deviation", "n_points",
                "finite_pairs", "infinite_pairs", "degenerate_pairs"):
        assert key in doc


def test_regular_verdict_certifies_the_identity_everywhere():
    rng = make_rng(307)
    expr = random_acms(rng, 3, rho=0.5)
    report = detect_ces(expr)
    assert report.verdict == "RegularCES"
    sigma = report.sigma_estimate
    for x in random_points(rng, 3, 10):
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(ces_residual(expr, x, sigma, i, j)) <= \
                    tolerances.CES_RESIDUAL_TOL
