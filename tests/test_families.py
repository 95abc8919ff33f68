"""Family builders, document round-trips, and the closed-form determinant."""

import math
import warnings

import numpy as np
import pytest

from prodgeo import (
    DomainError, FunctionExpr, QuasiSumSpec, ScalarFn, SpecError,
    as_quasi_sum, build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, default_box, evaluate_jet, expr_from_dict, expr_to_dict,
    hessian_det_quasisum, homogeneity_degree, validate_box,
)
from prodgeo.families import normalize_outer_shift
import gates
from conftest import (
    log_uniform_scalar, make_rng, random_acms, random_cobb_douglas,
    random_log_spec, random_mixed_spec, random_point, random_points,
    random_power_spec, random_ratio_spec,
)


# -- scalar functions ---------------------------------------------------------


def test_scalar_fn_closed_forms():
    f = ScalarFn("power", 3.0, exponent=2.0, shift=1.0)
    assert f.derivatives(2.0) == (13.0, 12.0, 6.0)
    g = ScalarFn("log", 2.0, shift=-1.0)
    assert g.derivatives(4.0) == (2.0 * math.log(4.0) - 1.0, 0.5, -0.125)
    h = ScalarFn("affine", -2.0, shift=3.0)
    assert h.derivatives(5.0) == (-7.0, -2.0, 0.0)


def test_scalar_fn_validation():
    with pytest.raises(SpecError):
        ScalarFn("power", 1.0, exponent=0.0)
    with pytest.raises(SpecError):
        ScalarFn("power", 1.0)
    with pytest.raises(SpecError):
        ScalarFn("log", 0.0)
    with pytest.raises(SpecError):
        ScalarFn("log", 1.0, exponent=2.0)
    with pytest.raises(SpecError):
        ScalarFn("cubic", 1.0)
    with pytest.raises(SpecError):
        ScalarFn("affine", 1.0, shift=math.nan)


def test_scalar_fn_domain_guards():
    with pytest.raises(DomainError):
        ScalarFn("power", 1.0, exponent=0.5).derivatives(-1.0)
    with pytest.raises(DomainError):
        ScalarFn("power", 1.0, exponent=1.0).derivatives(0.0)
    with pytest.raises(DomainError):
        ScalarFn("log", 1.0).derivatives(0.0)
    # Integer exponents >= 2 extend through zero.
    assert ScalarFn("power", 1.0, exponent=3.0).derivatives(0.0) == \
        (0.0, 0.0, 0.0)


def test_scalar_fn_direction():
    assert ScalarFn("power", 2.0, exponent=0.5).increasing_on_positive()
    assert ScalarFn("power", -2.0, exponent=-1.0).increasing_on_positive()
    assert not ScalarFn("power", 1.0, exponent=-1.0).increasing_on_positive()
    assert not ScalarFn("affine", -1.0).increasing_on_positive()


# -- builder values -----------------------------------------------------------


def test_product_family_values():
    assert build_cobb_douglas(1.0, (0.5, 0.5)).value([4.0, 9.0]) == \
        pytest.approx(6.0, rel=1e-15)
    assert build_cobb_douglas(2.0, (1.0, 1.0, 1.0)).value([1.0, 2.0, 3.0]) == \
        pytest.approx(12.0, rel=1e-15)


def test_aggregator_family_values():
    assert build_acms(1.0, (1.0, 1.0), 0.5, 1.0).value([1.0, 1.0]) == \
        pytest.approx(4.0, rel=1e-15)
    assert build_acms(1.0, (1.0, 1.0), 2.0, 2.0).value([3.0, 4.0]) == \
        pytest.approx(25.0, rel=1e-15)


def test_quasi_sum_values():
    spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=2.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    assert build_quasi_sum(spec).value([1.0, 1.0]) == pytest.approx(4.0)
    log_spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                            inner=(ScalarFn("log", 0.5),
                                   ScalarFn("log", 0.5)))
    assert build_quasi_sum(log_spec, box=((0.5, 9.0),) * 2).value(
        [4.0, 9.0]) == pytest.approx(6.0, rel=1e-15)


def test_ratio_values():
    assert build_ratio(ScalarFn("affine", 1.0)).value([2.0, 6.0]) == \
        pytest.approx(3.0, rel=1e-15)
    assert build_ratio(ScalarFn("power", 1.0, exponent=2.0)).value(
        [1.0, 3.0]) == pytest.approx(9.0, rel=1e-15)


def test_builder_rejections():
    with pytest.raises(SpecError):
        build_cobb_douglas(1.0, (0.5, 0.0))
    with pytest.raises(SpecError):
        build_cobb_douglas(0.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        build_cobb_douglas(1.0, (0.5,))
    with pytest.raises(SpecError):
        build_acms(1.0, (1.0, 1.0), 0.0, 1.0)
    with pytest.raises(SpecError):
        build_acms(1.0, (1.0, 1.0), 0.5, 0.0)
    with pytest.raises(SpecError):
        build_acms(1.0, (1.0, 0.0), 0.5, 1.0)
    with pytest.raises(SpecError):
        build_acms(1.0, (-1.0, 1.0), 0.5, 1.0)  # (-1)**0.5 is not real
    with pytest.raises(SpecError):
        build_ratio(ScalarFn("affine", -1.0))
    with pytest.raises(SpecError):
        build_ratio(ScalarFn("power", 1.0, exponent=-1.0))


@pytest.mark.parametrize("family", ["foo", "custom", "Ratio", None, ["acms"]])
def test_unknown_families_are_rejected_at_construction(family):
    with pytest.raises(SpecError, match="unknown family"):
        FunctionExpr(family, 2, {})


def test_monotonicity_check_catches_bad_outers():
    # Log inners of mixed direction keep each inner monotone, but the inner
    # sum crosses zero on the box, where these outers stop increasing.
    crossing = (ScalarFn("log", 1.0), ScalarFn("log", 1.0))
    # The first sample of the inner-sum range is u = 2 log 0.5.
    first = repr(2.0 * math.log(0.5))
    for exponent in (-1.0, 2.0):
        spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=exponent),
                            inner=crossing)
        with pytest.raises(SpecError, match=f"increasing .* at u={first}$"):
            build_quasi_sum(spec)
    with pytest.raises(SpecError, match=f"outer undefined .* at u={first}$"):
        build_quasi_sum(QuasiSumSpec(outer=ScalarFn("log", 1.0),
                                     inner=crossing))


def test_monotone_inners_are_accepted_in_both_directions():
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", -1.5),
                               ScalarFn("power", 2.0, exponent=0.5)))
    expr = build_quasi_sum(spec)
    x = [1.3, 0.9]
    assert expr.value(x) == pytest.approx(
        math.exp(-1.5 * math.log(1.3) + 2.0 * math.sqrt(0.9)), rel=1e-15)


# -- document round-trips -------------------------------------------------------


def test_document_round_trip_preserves_values():
    rng = make_rng(201)
    exprs = [
        random_cobb_douglas(rng, 3),
        random_acms(rng, 2),
        build_quasi_sum(random_power_spec(rng, 3)),
        build_ratio(ScalarFn("exp", 2.0)),
    ]
    for expr in exprs:
        back = expr_from_dict(expr_to_dict(expr))
        for _ in range(5):
            x = random_point(rng, expr.n)
            assert back.value(x) == pytest.approx(expr.value(x), rel=1e-15)


def test_document_key_checking_is_strict():
    with pytest.raises(SpecError):
        expr_from_dict({"type": "cobb_douglas", "gamma": 1.0,
                        "alpha": [0.5, 0.5], "rho": 1.0})
    with pytest.raises(SpecError):
        expr_from_dict({"type": "cobb_douglas", "gamma": 1.0})
    with pytest.raises(SpecError):
        expr_from_dict({"type": "translog"})
    with pytest.raises(SpecError):
        expr_from_dict([1, 2, 3])
    with pytest.raises(SpecError):
        expr_from_dict({"type": "quasi_sum", "outer": {"form": "exp",
                        "coefficient": 1.0}, "inner": "nope"})
    with pytest.raises(SpecError):
        ScalarFn.from_dict({"form": "log", "coefficient": 1.0, "slope": 2.0})


# -- homogeneity ----------------------------------------------------------------


def test_euler_quotient_hand_cases():
    monomial = build_cobb_douglas(1.0, (2.0, 1.0))
    assert homogeneity_degree(monomial, [3.0, 5.0]) == pytest.approx(3.0)
    ratio = build_ratio(ScalarFn("affine", 1.0))
    assert homogeneity_degree(ratio, [2.0, 7.0]) == pytest.approx(0.0, abs=1e-15)


def test_degree_is_constant_across_samples():
    rng = make_rng(202)
    acms = random_acms(rng, 3, d=1.7)
    cd = random_cobb_douglas(rng, 3)
    alpha_sum = math.fsum(cd.params["alpha"])
    for x in random_points(rng, 3, 100):
        assert abs(homogeneity_degree(acms, x) - 1.7) <= \
            gates.HOMOGENEITY_ATOL
        assert abs(homogeneity_degree(cd, x) - alpha_sum) <= \
            gates.HOMOGENEITY_ATOL


def test_scaling_matches_the_degree():
    rng = make_rng(203)
    for expr, d in ((random_acms(rng, 2, d=0.8), 0.8),
                    (random_cobb_douglas(rng, 4, degree=2.0), 2.0)):
        x = random_point(rng, expr.n)
        base = expr.value(x)
        for t in (0.5, 2.0, 10.0):
            assert expr.value(t * x) == pytest.approx(
                t ** d * base, rel=1e-10)


def test_degree_one_hessian_annihilates_the_point():
    rng = make_rng(204)
    for expr in (random_acms(rng, 3, d=1.0), random_cobb_douglas(rng, 4, degree=1.0),
                 build_quasi_sum(random_power_spec(rng, 2, degree_one=True))):
        for x in random_points(rng, expr.n, 20):
            hess = evaluate_jet(expr, x).hessian
            bound = gates.EULER_RADIAL_TOL * \
                np.linalg.norm(hess) * np.linalg.norm(x)
            assert np.linalg.norm(hess @ x) <= bound


# -- closed-form Hessian determinant -------------------------------------------


def test_determinant_hand_instance():
    spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=2.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    assert hessian_det_quasisum(spec, [1.0, 1.0]) == pytest.approx(
        192.0, abs=1e-9)


def test_determinant_vanishes_for_degree_one_products():
    rng = make_rng(205)
    spec = random_log_spec(rng, 3, degree_one=True)
    for x in random_points(rng, 3, 10):
        det = hessian_det_quasisum(spec, x)
        jet = evaluate_jet(build_quasi_sum(spec), x)
        scale = float(np.max(np.abs(jet.hessian))) ** 3
        assert abs(det) <= 1e-12 * scale


def test_determinant_is_exactly_zero_with_an_affine_certificate():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 2.0),
                        inner=(ScalarFn("affine", 1.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    assert hessian_det_quasisum(spec, [1.5, 0.7]) == 0.0


def test_determinant_matches_the_jet_hessian():
    rng = make_rng(206)
    for k in range(20):
        n = 2 + k % 3
        maker = (random_power_spec, random_log_spec,
                 random_mixed_spec, random_ratio_spec)[k % 4]
        spec = maker(rng) if maker is random_ratio_spec else maker(rng, n)
        x = random_point(rng, spec.n)
        closed = hessian_det_quasisum(spec, x)
        direct = float(np.linalg.det(
            evaluate_jet(build_quasi_sum(spec), x).hessian))
        assert abs(closed - direct) <= \
            gates.HESSIAN_DET_RTOL * max(abs(closed), abs(direct), 1e-12)


def test_determinant_input_checks():
    spec = random_power_spec(make_rng(207), 2)
    with pytest.raises(SpecError):
        hessian_det_quasisum(spec, [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        hessian_det_quasisum(spec, [1.0, -1.0])


EXP_OF_SUM = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                          inner=(ScalarFn("affine", 1.0),) * 2)


@pytest.mark.parametrize("expr, point", [
    (build_quasi_sum(EXP_OF_SUM), [400.0, 400.0]),
    (build_cobb_douglas(1.0, (300.0, 300.0)), [10.0, 10.0]),
    (build_acms(1.0, (1.0, 1.0), 2.0, 1.0), [1e160, 1e160]),
    (build_acms(1.0, (1.0, 1.0), 0.5, 1e300), [4.0, 4.0]),
    (build_acms(1.0, (1.0, 1.0), -2.0, 1.0), [1e-160, 1.0]),
], ids=["exp-of-sum", "cobb-douglas", "acms-inner", "acms-degree",
        "acms-negative-rho"])
def test_float_paths_refuse_what_the_kernel_refuses(expr, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            expr.derivatives([point])
        with pytest.raises(DomainError):
            expr.value(point)
        if expr.family == "quasi_sum":
            with pytest.raises(DomainError):
                hessian_det_quasisum(expr.params["spec"], point)


EXP_DIFFERENCE = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                              inner=(ScalarFn("exp", 1.0),
                                     ScalarFn("exp", -1.0)))


@pytest.mark.parametrize("call", [
    lambda: build_acms(1.0, (1.0, 1.0), 2.0, 1.0).value((1e154, 1e154)),
    lambda: build_quasi_sum(EXP_DIFFERENCE).value((800.0, 800.0)),
    lambda: EXP_DIFFERENCE.inner_sum((800.0, 800.0)),
    lambda: hessian_det_quasisum(EXP_DIFFERENCE, (800.0, 800.0)),
], ids=["acms-finite-terms", "value-inf-minus-inf", "inner-sum",
        "hessian-det"])
def test_exact_sums_past_the_float_range_are_domain_errors(call):
    # Finite terms whose sum overflows, and inf + -inf, are where math.fsum
    # itself raises (OverflowError, ValueError) instead of returning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


# -- quasi-sum rewrites ----------------------------------------------------------


def test_families_rewrite_to_quasi_sums():
    rng = make_rng(208)
    cd = random_cobb_douglas(rng, 3)
    acms = random_acms(rng, 2, d=1.5, rho=0.5)
    ratio_affine = build_ratio(ScalarFn("affine", 2.0, shift=1.0))
    for expr in (cd, acms, ratio_affine):
        rewritten = build_quasi_sum(as_quasi_sum(expr))
        for _ in range(5):
            x = random_point(rng, expr.n)
            assert rewritten.value(x) == pytest.approx(expr.value(x),
                                                       rel=1e-12)


def test_rewrites_that_do_not_exist():
    with pytest.raises(SpecError):
        as_quasi_sum(build_acms(1.0, (1.0, 1.0), -1.0, 2.0))  # d/rho < 0
    with pytest.raises(SpecError):
        as_quasi_sum(build_ratio(ScalarFn("exp", 1.0)))


def test_outer_shift_normalization():
    spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=2.0, shift=5.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    expr = build_quasi_sum(spec)
    bare = normalize_outer_shift(expr)
    x = [1.2, 0.8]
    assert bare.value(x) == pytest.approx(expr.value(x) - 5.0, rel=1e-15)
    ratio = build_ratio(ScalarFn("affine", 1.0, shift=-2.0))
    assert normalize_outer_shift(ratio).value([1.0, 3.0]) == pytest.approx(3.0)


# -- boxes ----------------------------------------------------------------------


def test_box_validation():
    assert validate_box([(0.5, 2.0), [1.0, 4.0]]) == ((0.5, 2.0), (1.0, 4.0))
    assert default_box(3) == ((0.5, 2.0),) * 3
    with pytest.raises(SpecError):
        validate_box([(0.0, 1.0)])
    with pytest.raises(SpecError):
        validate_box([(2.0, 1.0)])
    with pytest.raises(SpecError):
        validate_box([(0.5, math.inf)])
    with pytest.raises(SpecError):
        validate_box([(0.5, 2.0)], n=2)
