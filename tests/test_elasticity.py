"""Pairwise substitution elasticities and the CES detector."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from prodgeo import (
    DomainError, QuasiSumSpec, ScalarFn, SpecError,
    build_acms, build_cobb_douglas, build_quasi_sum, build_ratio, detect_ces,
)
from prodgeo import tolerances
from prodgeo.elasticity import ces_residuals, hicks_values, tagged_pairs
from prodgeo.families import index_pairs
import gates
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_point, random_points,
    random_quasi_sum_expr, random_ratio_expr,
)


def acms_sigma(rho: float) -> float:
    return 1.0 / (1.0 - rho)


def hicks_at(expr, x, i, j) -> float:
    """H_ij at ``x`` from a one-row table (inf infinite, nan degenerate)."""
    return float(hicks_values(expr.derivatives([x]), i, j)[0])


# -- hand values ----------------------------------------------------------------


def test_hicks_hand_values():
    sqrt_sum = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    h = hicks_at(sqrt_sum, [1.0, 1.0], 0, 1)
    assert h == pytest.approx(2.0, rel=1e-12)

    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    assert hicks_at(cd, [2.0, 8.0], 0, 1) == pytest.approx(1.0, rel=1e-12)

    linear = build_acms(1.0, (1.0, 1.0), 1.0, 1.0)
    flat = hicks_at(linear, [1.0, 1.0], 0, 1)
    assert flat == math.inf

    ratio = build_ratio(ScalarFn("affine", 1.0))
    degenerate = hicks_at(ratio, [1.0, 1.0], 0, 1)
    assert math.isnan(degenerate)

    assert tagged_pairs(np.array([0, 1, 0]), np.array([1, 0, 2]),
                        np.array([h, flat, degenerate])) == {
        "1,2": {"kind": "finite", "value": h},
        "2,1": {"kind": "infinite", "value": None},
        "1,3": {"kind": "degenerate", "value": None}}


def test_hicks_matches_the_aggregator_exponent():
    rng = make_rng(301)
    for rho in (-1.0, 0.5, 2.0):
        expr = random_acms(rng, 3, rho=rho)
        values = hicks_values(expr.derivatives(random_points(rng, 3, 25)),
                              *index_pairs(3))
        np.testing.assert_allclose(values, acms_sigma(rho), rtol=1e-9)


def test_vanishing_marginal_product_is_rejected():
    # exp(-x1 - x2) at (400, 400): F' underflows to 0, so every f_i = F' h_i'
    # vanishes.
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("affine", -1.0),
                               ScalarFn("affine", -1.0)))
    table = build_quasi_sum(spec).derivatives([[400.0, 400.0]])
    with pytest.raises(DomainError, match="a marginal product vanishes"):
        hicks_values(table, 0, 1)
    with pytest.raises(DomainError, match="a marginal product vanishes"):
        ces_residuals(table, 2.0, 0, 1)


# -- invariances ------------------------------------------------------------------


def test_pair_order_gives_bitwise_equal_values():
    # A pair is read as given: (j, i) adds the same two terms as (i, j), and
    # IEEE addition commutes.  A linear ACMS has infinite pairs only, a ratio
    # degenerate ones, and a log of two affine inners and a power one mixes
    # infinite and finite pairs.
    rng = make_rng(302)
    spec = QuasiSumSpec(outer=ScalarFn("log", 1.0),
                        inner=(ScalarFn("affine", 1.0), ScalarFn("affine", 2.0),
                               ScalarFn("power", 1.0, exponent=0.5)))
    exprs = [random_acms(rng, 4), random_cobb_douglas(rng, 4),
             random_quasi_sum_expr(rng, 3), random_ratio_expr(rng),
             build_acms(1.0, (1.0, 2.0, 0.5), 1.0, 1.0),
             build_quasi_sum(spec)]
    values = []
    for expr in exprs:
        table = expr.derivatives(random_points(rng, expr.n, 10))
        for i, j in zip(*index_pairs(expr.n)):
            values.append(hicks_values(table, i, j))
            # Identical bits, not approx; nan (degenerate) matches nan.
            np.testing.assert_array_equal(values[-1],
                                          hicks_values(table, j, i),
                                          strict=True)
            np.testing.assert_array_equal(ces_residuals(table, 2.0, i, j),
                                          ces_residuals(table, 2.0, j, i),
                                          strict=True)
    values = np.concatenate(values)
    assert np.isinf(values).any() and np.isnan(values).any()
    assert np.isfinite(values).any()


def test_elasticity_is_scale_free_on_homogeneous_functions():
    rng = make_rng(303)
    for expr in (random_acms(rng, 3, d=1.4, rho=0.5),
                 random_cobb_douglas(rng, 3)):
        x = random_point(rng, 3)
        base = hicks_at(expr, x, 0, 2)
        for t in (0.5, 2.0, 10.0):
            scaled = hicks_at(expr, t * x, 0, 2)
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
            scaled = table.replace(gradient=k * table.gradient,
                                   factors=(k * f1, k * f2, d1, d2))
            np.testing.assert_array_equal(
                hicks_values(scaled, lo, hi), base_h, strict=True)
            np.testing.assert_array_equal(
                ces_residuals(scaled, 2.0, lo, hi), base_r, strict=True)


# -- the constant-elasticity identity ---------------------------------------------


def test_residual_vanishes_at_the_true_sigma():
    expr = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    rng = make_rng(304)
    table = expr.derivatives(random_points(rng, 2, 20))
    assert np.max(np.abs(ces_residuals(table, 2.0, 0, 1))) <= 1e-12


def test_residual_flags_the_wrong_sigma():
    expr = build_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    assert abs(ces_residuals(expr.derivatives([[1.0, 2.0]]), 3.0, 0, 1)[0]) \
        > 1e-3


def test_residual_ignores_sigma_on_a_ratio():
    expr = build_ratio(ScalarFn("affine", 1.0))
    table = expr.derivatives([[1.3, 0.8]])
    for sigma in (-2.0, 1.0, 3.0):
        assert abs(ces_residuals(table, sigma, 0, 1)[0]) <= 1e-12


def test_residual_sigma_validation():
    expr = build_cobb_douglas(1.0, (0.5, 0.5))
    table = expr.derivatives([[1.0, 1.0]])
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(SpecError):
            ces_residuals(table, bad, 0, 1)


def test_detected_value_is_a_root_of_the_identity():
    rng = make_rng(305)
    cases = [(random_acms(rng, 2, rho=rho), acms_sigma(rho))
             for rho in (-1.0, 0.5, 2.0)]
    cases.append((random_cobb_douglas(rng, 2), 1.0))
    for expr, sigma_true in cases:
        for x in random_points(rng, 2, 3):
            table = expr.derivatives([x])
            reported = hicks_values(table, 0, 1)[0]
            lo = sorted((0.5 * sigma_true, 1.5 * sigma_true))
            root = brentq(lambda s: ces_residuals(table, s, 0, 1)[0],
                          lo[0], lo[1], xtol=1e-13, rtol=1e-14)
            assert abs(root - reported) <= \
                gates.SIGMA_ROOT_MATCH_TOL * max(1.0, abs(reported))


# -- the identity from the per-input terms ----------------------------------------
#
# For f = F(sum h_k) the outer function drops out of H_ij: the identity
# H_ij = sigma is s_i + s_j = 0 with s_k = A_k - sigma B_k, and ces_residuals
# is that sum over the size of its terms, read from the inners' h', h''.


def test_separated_residual_hand_values():
    root = ScalarFn("power", 2.0, exponent=0.5)
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0), inner=(root, root))
    rng = make_rng(306)
    table = build_quasi_sum(spec).derivatives(random_points(rng, 2, 10))
    assert np.max(np.abs(ces_residuals(table, 2.0, 0, 1))) <= 1e-12

    logs = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", 0.7), ScalarFn("log", 1.3)))
    table = build_quasi_sum(logs).derivatives(random_points(rng, 2, 10))
    assert np.max(np.abs(ces_residuals(table, 1.0, 0, 1))) <= 1e-12

    # x^2 and log x at (1, 1): A = (1/2, 1) and B = (-1/2, 1), so at sigma 1
    # s_1 + s_2 = 3/2 - 1/2 = 1 over a term size of 3.
    mixed = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                         inner=(ScalarFn("power", 1.0, exponent=2.0),
                                ScalarFn("log", 1.0)))
    table = build_quasi_sum(mixed).derivatives([[1.0, 1.0]])
    assert ces_residuals(table, 1.0, 0, 1)[0] == \
        pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_separated_residual_guards():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("log", 1.0), ScalarFn("log", 1.0)))
    expr = build_quasi_sum(spec)
    with pytest.raises(DomainError):
        ces_residuals(expr.derivatives([[1.0, -1.0]]), 2.0, 0, 1)
    with pytest.raises(SpecError):
        ces_residuals(expr.derivatives([[1.0, 1.0]]), 0.0, 0, 1)


@pytest.mark.parametrize("point, error, message", [
    ([1.0, 1.0], SpecError, "point has shape"),
    ([1.0, 1.0, 1.0, 5.0], SpecError, "point has shape"),
    ([math.nan, 1.0, 1.0], DomainError, "finite and strictly positive"),
    ([math.inf, 1.0, 1.0], DomainError, "finite and strictly positive"),
    ([1.0, 0.0, 1.0], DomainError, "finite and strictly positive")])
def test_separated_residual_checks_the_whole_point(point, error, message):
    # The table checks the whole point, not only the coordinates of the
    # pair (0, 2).
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("log", 1.0),) * 3)
    with pytest.raises(error, match=message):
        ces_residuals(build_quasi_sum(spec).derivatives([point]), 2.0, 0, 2)


# -- box-level detection ------------------------------------------------------------


def test_detect_regular_families():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    report = detect_ces(cd)
    assert report["verdict"] == "RegularCES"
    assert report["sigma_estimate"] == pytest.approx(1.0, rel=1e-9)
    assert report["infinite_pairs"] == 0
    assert report["max_deviation"] <= tolerances.CES_CONSTANCY_RTOL

    acms = build_acms(1.3, (2.0, 0.7, 1.1), -1.0, 1.6)
    report = detect_ces(acms, samples=16, seed=3)
    assert report["verdict"] == "RegularCES"
    assert report["sigma_estimate"] == pytest.approx(0.5, rel=1e-9)


def test_detect_degenerate_ratio():
    report = detect_ces(build_ratio(ScalarFn("affine", 1.0)))
    assert report["verdict"] == "DegenerateCES"
    assert report["sigma_estimate"] is None
    assert report["finite_pairs"] == 0
    assert report["degenerate_pairs"] == report["n_points"]


def test_detect_rejects_a_varying_elasticity():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("log", 1.0)))
    report = detect_ces(build_quasi_sum(spec))
    assert report["verdict"] == "NotCES"
    assert report["max_deviation"] > tolerances.CES_CONSTANCY_RTOL


def test_detect_sample_budget_validation():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        detect_ces(cd, samples=1)


def test_report_serialization_uses_one_based_pairs():
    report = detect_ces(build_cobb_douglas(1.0, (0.4, 0.3, 0.3)))
    assert set(report["center_pair_values"]) == {"1,2", "1,3", "2,3"}
    assert report["verdict"] == "RegularCES"
    assert set(report) == {
        "verdict", "sigma_estimate", "max_deviation", "center_pair_values",
        "n_points", "finite_pairs", "infinite_pairs", "degenerate_pairs"}


def test_regular_verdict_certifies_the_identity_everywhere():
    rng = make_rng(307)
    expr = random_acms(rng, 3, rho=0.5)
    report = detect_ces(expr)
    assert report["verdict"] == "RegularCES"
    table = expr.derivatives(random_points(rng, 3, 10))
    residuals = ces_residuals(table, report["sigma_estimate"], *index_pairs(3))
    assert np.max(np.abs(residuals)) <= tolerances.CES_RESIDUAL_TOL
