"""Structural classification and the three verified equivalences."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from prodgeo import (
    DomainError, HypothesisError, QuasiSumSpec, ScalarFn, SpecError,
    acms_outer_ode_residual, build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, classify_quasi_sum, cobb_douglas_outer_ode_residual,
    default_box,
    verify_theorem_11, verify_theorem_41, verify_theorem_42,
)
from prodgeo import tolerances
from prodgeo.elasticity import PointRecords, point_table
from prodgeo.geometry import surface_curvatures
import gates
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_log_spec,
    random_mixed_spec, random_point, random_power_spec, random_ratio_spec,
    random_sigma,
)


def power_spec(outer_exp, coeffs, inner_exp, shifts=None):
    shifts = shifts or [0.0] * len(coeffs)
    return QuasiSumSpec(
        outer=ScalarFn("power", 1.0, exponent=outer_exp),
        inner=tuple(ScalarFn("power", c, exponent=inner_exp, shift=s)
                    for c, s in zip(coeffs, shifts)))


# -- the four structural cases ----------------------------------------------------


def test_power_aggregator_case():
    result = classify_quasi_sum(power_spec(2.0, [2.0, 3.0], 0.5))
    assert result.case == "HomotheticACMS"
    assert result.sigma == pytest.approx(2.0, rel=1e-9)
    assert result.fitted_inner_parameters == pytest.approx((2.0, 3.0),
                                                           rel=1e-9)
    assert result.separation_constant_k is None
    assert result.ces_residual <= tolerances.CES_RESIDUAL_TOL
    assert result.structure_residual <= tolerances.STRUCTURE_RESIDUAL_TOL


def test_log_product_case():
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", 0.5), ScalarFn("log", 0.5)))
    result = classify_quasi_sum(spec)
    assert result.case == "HomotheticCobbDouglas"
    assert result.sigma == 1.0
    assert result.fitted_inner_parameters == pytest.approx((0.5, 0.5))
    assert result.structure_residual <= tolerances.STRUCTURE_RESIDUAL_TOL


def test_ratio_case():
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", -1.0), ScalarFn("log", 1.0)))
    result = classify_quasi_sum(spec)
    assert result.case == "RatioTwoInput"
    assert result.sigma is None
    assert result.separation_constant_k == pytest.approx(1.0, rel=1e-9)
    assert result.fitted_inner_parameters == pytest.approx((-1.0, 1.0))


def test_unclassifiable_case():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("log", 1.0)))
    result = classify_quasi_sum(spec)
    assert result.case == "NotCES"
    assert result.sigma is None
    assert math.isinf(result.ces_residual)
    assert math.isinf(result.structure_residual)
    doc = result.as_dict()
    assert doc["detection"]["verdict"] == "NotCES"


def test_classify_accepts_expressions_with_a_quasi_sum_form():
    expr = build_acms(1.2, (2.0, 0.8), 0.5, 1.0)
    result = classify_quasi_sum(expr)
    assert result.case == "HomotheticACMS"
    assert result.sigma == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(SpecError):
        classify_quasi_sum(build_ratio(ScalarFn("exp", 1.0)))
    with pytest.raises(SpecError):
        classify_quasi_sum("not a spec")


def test_classification_ignores_presentation():
    rng = make_rng(501)
    spec = random_power_spec(rng, 3)
    base = classify_quasi_sum(spec)
    assert base.case == "HomotheticACMS"

    shifted = QuasiSumSpec(
        outer=replace(spec.outer, coefficient=3.0 * spec.outer.coefficient),
        inner=tuple(replace(h, shift=h.shift + 0.4) for h in spec.inner))
    again = classify_quasi_sum(shifted)
    assert again.case == base.case
    assert again.sigma == pytest.approx(base.sigma, rel=1e-9)
    assert again.fitted_inner_parameters == pytest.approx(
        base.fitted_inner_parameters, rel=1e-9)


def test_fitted_aggregator_is_constant_on_level_sets():
    rng = make_rng(502)
    spec = random_power_spec(rng, 3, shifts=True)
    expr = build_quasi_sum(spec)
    result = classify_quasi_sum(spec)
    assert result.case == "HomotheticACMS"
    p = (result.sigma - 1.0) / result.sigma
    coeffs = result.fitted_inner_parameters

    def aggregator(x):
        return math.fsum(c * xi ** p for c, xi in zip(coeffs, x))

    center = np.full(3, 1.25)
    for _ in range(10):
        x = random_point(rng, 3)
        t = brentq(lambda s: expr.value(s * center) - expr.value(x),
                   0.25, 4.0, xtol=1e-13, rtol=1e-15)
        assert aggregator(t * center) == pytest.approx(
            aggregator(x), rel=gates.LEVELSET_ROUNDTRIP_RTOL)


def test_ratio_classification_is_ray_invariant():
    rng = make_rng(503)
    spec = random_ratio_spec(rng)
    expr = build_quasi_sum(spec)
    assert classify_quasi_sum(spec).case == "RatioTwoInput"
    for _ in range(10):
        x = random_point(rng, 2)
        base = expr.value(x)
        for t in (0.5, 2.0):
            assert abs(expr.value(t * x) - base) <= \
                gates.RAY_INVARIANCE_TOL * max(1.0, abs(base))


# -- outer ODE residuals ------------------------------------------------------------


def test_power_outer_solves_its_ode():
    rng = make_rng(504)
    grid = np.geomspace(0.1, 5.0, 17)
    for sigma in (2.0, 3.0, 0.5, -1.0, random_sigma(rng)):
        outer = ScalarFn("power", 1.7, exponent=sigma / (sigma - 1.0))
        for u in grid:
            assert acms_outer_ode_residual(outer, sigma, float(u)) <= \
                gates.ODE_MATCH_TOL


def test_perturbed_exponent_fails_the_ode():
    for sigma in (2.0, 3.0):
        outer = ScalarFn("power", 1.0, exponent=sigma / (sigma - 1.0) + 0.5)
        assert acms_outer_ode_residual(outer, sigma, 1.3) > \
            gates.ODE_MISMATCH_MIN


def test_product_outer_solves_its_ode():
    grid = np.geomspace(0.2, 4.0, 9)
    for alpha in (0.25, 0.5, 2.0):
        outer = ScalarFn("power", 1.4, exponent=1.0 / alpha, shift=0.7)
        for u in grid:
            assert cobb_douglas_outer_ode_residual(outer, alpha, float(u)) <= \
                gates.ODE_MATCH_TOL


def test_ode_parameter_validation():
    outer = ScalarFn("power", 1.0, exponent=2.0)
    with pytest.raises(SpecError):
        acms_outer_ode_residual(outer, 0.0, 1.0)
    with pytest.raises(SpecError):
        acms_outer_ode_residual(outer, 1.0, 1.0)
    with pytest.raises(SpecError):
        cobb_douglas_outer_ode_residual(outer, 0.0, 1.0)


# -- curvature equivalence ------------------------------------------------------------


def test_curvature_verdict_on_degree_one_aggregators():
    report = verify_theorem_41(build_acms(1.0, (1.0, 2.0, 0.5), 0.5, 1.0))
    assert report.theorem == "T41"
    assert report.verdict == "Consistent"
    assert report.hypothesis_holds is True
    assert report.conclusion_holds is True
    ode = report.conclusion_check["outer_ode"]
    assert ode["max_residual"] <= gates.ODE_MATCH_TOL
    assert report.conclusion_check["euler_degree_gap"] <= \
        tolerances.DEGREE_ONE_TOL * 100
    assert len(report.per_point) == 65


@pytest.mark.parametrize("verify", [verify_theorem_41, verify_theorem_42])
def test_per_point_records_give_one_dict_per_point(verify):
    expr = build_acms(1.0, (1.0, 2.0, 0.5), -0.5, 1.0)
    box = default_box(3)
    table = point_table(expr, box, 24, 7)
    surface = surface_curvatures(table)
    want = [{"point": x, "gauss_kronecker": g, "gauss_kronecker_scaled": gs,
             "flatness_residual": r}
            for x, g, gs, r in zip(table.points.tolist(),
                                   surface["gauss_kronecker"].tolist(),
                                   surface["gauss_kronecker_scaled"].tolist(),
                                   surface["flatness_residual"].tolist())]
    report = verify(expr, box, samples=24, seed=7)
    rows = report.as_dict()["per_point_data"]
    assert rows is report.per_point and isinstance(rows, PointRecords)
    assert rows.data.dtype == np.float64 and rows.data.shape == (25, 6)
    assert len(rows) == 25
    assert list(rows) == want
    assert [rows[k] for k in range(-25, 25)] == want + want
    for row in rows:
        assert type(row["point"]) is list
        assert all(type(v) is float for v in [*row["point"], *(
            row[key] for key in ("gauss_kronecker", "gauss_kronecker_scaled",
                                 "flatness_residual"))])


def test_curvature_verdict_on_scaled_power_outers():
    flat = verify_theorem_41(build_quasi_sum(power_spec(2.0, [1.0, 1.0], 0.5)))
    assert flat.verdict == "Consistent" and flat.hypothesis_holds is True

    cubed = verify_theorem_41(
        build_quasi_sum(power_spec(3.0, [1.0, 1.0], 0.5)))
    assert cubed.verdict == "Consistent"
    assert cubed.hypothesis_holds is False
    assert cubed.conclusion_holds is False


def test_curvature_verdict_on_products():
    report = verify_theorem_41(build_cobb_douglas(1.0, (0.5, 0.25, 0.25)))
    assert report.verdict == "Consistent"
    assert report.hypothesis_holds is True and report.conclusion_holds is True


def test_curvature_theorem_holds_across_the_generators():
    rng = make_rng(505)
    cases = []
    for n in (2, 3, 4):
        cases.append(random_acms(rng, n, d=1.0))
        cases.append(random_acms(rng, n, clear_rho=True))
        cases.append(random_cobb_douglas(rng, n, degree=1.0))
        cases.append(random_cobb_douglas(rng, n))
        cases.append(build_quasi_sum(random_power_spec(rng, n,
                                                       degree_one=True)))
        cases.append(build_quasi_sum(random_power_spec(rng, n)))
        cases.append(build_quasi_sum(random_log_spec(rng, n,
                                                     degree_one=True)))
        cases.append(build_quasi_sum(random_log_spec(rng, n)))
    cases.append(build_quasi_sum(random_ratio_spec(rng)))
    for expr in cases:
        report = verify_theorem_41(expr, samples=24, seed=7)
        assert report.verdict == "Consistent", (expr.family, expr.params)


def test_curvature_precondition_failures():
    varying = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                           inner=(ScalarFn("power", 1.0, exponent=2.0),
                                  ScalarFn("log", 1.0)))
    with pytest.raises(HypothesisError):
        verify_theorem_41(build_quasi_sum(varying))
    with pytest.raises(SpecError):
        verify_theorem_41("not an expression")


# -- flatness equivalence --------------------------------------------------------------


def test_flatness_verdict_on_two_input_members():
    report = verify_theorem_42(build_cobb_douglas(1.0, (0.5, 0.5)))
    assert report.theorem == "T42"
    assert report.verdict == "Consistent"
    assert report.hypothesis_holds is True and report.conclusion_holds is True

    ratio = verify_theorem_42(build_ratio(ScalarFn("affine", 1.0)))
    assert ratio.verdict == "Consistent"
    assert ratio.hypothesis_holds is False
    assert ratio.conclusion_holds is False


def test_flatness_fails_for_three_input_members():
    report = verify_theorem_42(build_cobb_douglas(1.0, (1 / 3, 1 / 3, 1 / 3)))
    assert report.verdict == "Inconsistent"
    assert report.hypothesis_holds is False
    assert report.conclusion_holds is True
    assert len(report.per_point) > 0
    doc = report.as_dict()
    assert doc["forward_implication_ok"] is True
    assert doc["reverse_implication_ok"] is False
    assert doc["per_point_data"][0]["flatness_residual"] > \
        gates.CLEAR_NONFLAT_TOL

    acms = verify_theorem_42(build_acms(1.0, (1.0, 1.0, 1.0), 0.5, 1.0))
    assert acms.verdict == "Inconsistent"


# -- detection vs classification ----------------------------------------------------------


def test_classification_equivalence_across_the_generators():
    rng = make_rng(506)
    specs = [random_power_spec(rng, 2), random_power_spec(rng, 3,
                                                          degree_one=True),
             random_log_spec(rng, 4), random_log_spec(rng, 2,
                                                      degree_one=True),
             random_ratio_spec(rng),
             random_mixed_spec(rng, 2), random_mixed_spec(rng, 3)]
    for spec in specs:
        report = verify_theorem_11(spec, samples=24)
        assert report.theorem == "T11"
        assert report.verdict == "Consistent"
        assert report.per_point == ()
        doc = report.as_dict()
        assert doc["forward_implication_ok"] is True
        assert doc["reverse_implication_ok"] is True


def test_classification_equivalence_accepts_expressions():
    report = verify_theorem_11(build_acms(1.0, (1.0, 1.0), 0.5, 1.0))
    assert report.verdict == "Consistent"
    assert report.hypothesis_holds is True and report.conclusion_holds is True
    assert report.conclusion_check["classification"]["case"] == \
        "HomotheticACMS"
