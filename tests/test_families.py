"""Family builders, document parsing, and the factored determinant."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from prodgeo import (
    DomainError, FunctionExpr, QuasiSumSpec, ScalarFn, SpecError,
    as_quasi_sum, build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, default_box, expr_from_dict, validate_box,
)
from prodgeo.families import PointRecords, euler_quotients
import gates
from conftest import (
    factored_det, make_rng, random_acms, random_cobb_douglas,
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


def test_records_are_immutable_and_copied_through_their_constructors():
    h = ScalarFn("power", 2.0, exponent=0.5)
    spec = QuasiSumSpec(ScalarFn("exp", 1.0), [h, h.replace(shift=1.0)])
    expr = build_quasi_sum(spec)
    table = expr.derivatives([[1.0, 2.0]])
    rows = PointRecords((("x", 0),), np.zeros((1, 1)))
    for record in (h, spec, expr, table, rows):
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot change .*{name}"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot change .*{name}"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None  # no __dict__
        with pytest.raises(TypeError):
            record.replace(extra=None)
    # ScalarFn and QuasiSumSpec are values; the other records identities.
    assert h == ScalarFn("power", 2, exponent=0.5) != ScalarFn("power", 2.0,
                                                               exponent=1.5)
    assert hash(h) == hash(ScalarFn("power", 2, exponent=0.5))
    assert spec.inner == (h, ScalarFn("power", 2.0, exponent=0.5, shift=1.0))
    for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec)),
                   spec.replace()):
        assert copied == spec and copied is not spec
        assert hash(copied) == hash(spec)
    assert spec.replace(inner=[h, h]) == QuasiSumSpec(spec.outer, (h, h))
    for record in (expr, table, rows):
        assert record.replace() != record and record == record
    assert table.replace(u=None).u is None
    # A copy is checked as a new record.
    with pytest.raises(SpecError, match="coefficient"):
        h.replace(coefficient=0.0)
    with pytest.raises(SpecError, match="at least two"):
        spec.replace(inner=[h])
    with pytest.raises(SpecError, match="unknown family"):
        expr.replace(family="cubic")


def test_scalar_fn_domain_guards():
    with pytest.raises(DomainError):
        ScalarFn("power", 1.0, exponent=0.5).derivatives(-1.0)
    with pytest.raises(DomainError):
        ScalarFn("power", 1.0, exponent=-1.0).derivatives(0.0)
    with pytest.raises(DomainError):
        ScalarFn("log", 1.0).derivatives(0.0)
    # Integer exponents >= 1 extend through zero.
    assert ScalarFn("power", 1.0, exponent=1.0).derivatives(0.0) == \
        (0.0, 1.0, 0.0)
    assert ScalarFn("power", 1.0, exponent=3.0).derivatives(0.0) == \
        (0.0, 0.0, 0.0)


def test_the_second_derivative_of_u_to_the_one_is_a_signed_zero():
    # c*1*0 times u**-1, which overflows to inf at a subnormal u, was a nan
    # there; it keeps its bits wherever it was finite.
    x = np.array([1e-320, -1e-320, 5e-324, 1e-300, 0.5, -3.0, 1e300,
                  math.inf, -math.inf])
    for c in (2.5, -2.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, slope, curve = ScalarFn("power", c,
                                           exponent=1.0).derivatives(x)
        assert (slope == c).all() and (curve == 0.0).all()
        with np.errstate(all="ignore"):
            before = c * 1.0 * 0.0 * x ** -1.0
        finite = np.isfinite(before)
        assert finite.sum() == 6
        assert np.array_equal(curve[finite].view(np.int64),
                              before[finite].view(np.int64))
        assert np.array_equal(np.signbit(curve), np.signbit(c * x))


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
    # a = (-1, 1) at rho = 1 gives weights (-1, 1): the sum is x2 - x1.
    with pytest.raises(DomainError, match="aggregator sum must stay positive"):
        build_acms(1.0, (-1.0, 1.0), 1.0, 1.0).value([2.0, 1.0])


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
    log = ScalarFn("log", 1.0)
    with pytest.raises(SpecError, match="inner components must be ScalarFn"):
        QuasiSumSpec(outer=log, inner=(log, "log"))
    with pytest.raises(SpecError, match="outer must be a ScalarFn"):
        QuasiSumSpec(outer="exp", inner=(log, log))
    with pytest.raises(SpecError, match="outer must be a ScalarFn"):
        build_ratio("affine")


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


# -- document parsing ---------------------------------------------------------


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
    assert euler_quotients(monomial.derivatives([[3.0, 5.0]]))[0] == \
        pytest.approx(3.0)
    ratio = build_ratio(ScalarFn("affine", 1.0))
    assert euler_quotients(ratio.derivatives([[2.0, 7.0]]))[0] == \
        pytest.approx(0.0, abs=1e-15)


def test_degree_is_constant_across_samples():
    rng = make_rng(202)
    acms = random_acms(rng, 3, d=1.7)
    cd = random_cobb_douglas(rng, 3)
    alpha_sum = math.fsum(cd.params["alpha"])
    points = random_points(rng, 3, 100)
    assert np.max(np.abs(euler_quotients(acms.derivatives(points)) - 1.7)) \
        <= gates.HOMOGENEITY_ATOL
    assert np.max(np.abs(euler_quotients(cd.derivatives(points))
                         - alpha_sum)) <= gates.HOMOGENEITY_ATOL


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
            hess = expr.derivatives([x]).hessian[0]
            bound = gates.EULER_RADIAL_TOL * \
                np.linalg.norm(hess) * np.linalg.norm(x)
            assert np.linalg.norm(hess @ x) <= bound


# -- factored Hessian determinant -------------------------------------------


def test_determinant_hand_instance():
    spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=2.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    assert factored_det(build_quasi_sum(spec), [1.0, 1.0]) == \
        pytest.approx(192.0, abs=1e-9)


def test_determinant_vanishes_for_degree_one_products():
    rng = make_rng(205)
    expr = build_quasi_sum(random_log_spec(rng, 3, degree_one=True))
    for x in random_points(rng, 3, 10):
        det = factored_det(expr, x)
        scale = float(np.max(np.abs(expr.derivatives([x]).hessian[0]))) ** 3
        assert abs(det) <= 1e-12 * scale


def test_determinant_is_exactly_zero_with_an_affine_certificate():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 2.0),
                        inner=(ScalarFn("affine", 1.0),
                               ScalarFn("power", 1.0, exponent=2.0)))
    assert factored_det(build_quasi_sum(spec), [1.5, 0.7]) == 0.0


def test_determinant_matches_the_jet_hessian():
    rng = make_rng(206)
    for k in range(20):
        n = 2 + k % 3
        maker = (random_power_spec, random_log_spec,
                 random_mixed_spec, random_ratio_spec)[k % 4]
        spec = maker(rng) if maker is random_ratio_spec else maker(rng, n)
        x = random_point(rng, spec.n)
        expr = build_quasi_sum(spec)
        closed = factored_det(expr, x)
        direct = float(np.linalg.det(expr.derivatives([x]).hessian[0]))
        assert abs(closed - direct) <= \
            gates.HESSIAN_DET_RTOL * max(abs(closed), abs(direct), 1e-12)


def test_determinant_input_checks():
    expr = build_quasi_sum(random_power_spec(make_rng(207), 2))
    with pytest.raises(SpecError):
        factored_det(expr, [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        factored_det(expr, [1.0, -1.0])


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


EXP_DIFFERENCE = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                              inner=(ScalarFn("exp", 1.0),
                                     ScalarFn("exp", -1.0)))


@pytest.mark.parametrize("call", [
    lambda: build_acms(1.0, (1.0, 1.0), 2.0, 1.0).value((1e154, 1e154)),
    lambda: build_quasi_sum(EXP_DIFFERENCE).value((800.0, 800.0)),
    lambda: EXP_DIFFERENCE.inner_sum((800.0, 800.0)),
    lambda: factored_det(build_quasi_sum(EXP_DIFFERENCE), (800.0, 800.0)),
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
