"""Structural classification and the three verified equivalences."""

import json
import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from prodgeo import (
    HypothesisError, QuasiSumSpec, ScalarFn, SpecError, build_acms,
    build_cobb_douglas, build_quasi_sum, build_ratio,
    classify_quasi_sum, default_box, expr_from_dict,
    verify_theorem_11, verify_theorem_41, verify_theorem_42,
)
from prodgeo import tolerances
from prodgeo.cli import run
from prodgeo.elasticity import point_table
from prodgeo.families import PointRecords
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
    assert result["case"] == "HomotheticACMS"
    assert result["sigma"] == pytest.approx(2.0, rel=1e-9)
    assert result["fitted_inner_parameters"] == pytest.approx((2.0, 3.0),
                                                           rel=1e-9)
    assert result["separation_constant_k"] is None
    assert result["residuals"]["ces"] <= tolerances.CES_RESIDUAL_TOL


def test_log_product_case():
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", 0.5), ScalarFn("log", 0.5)))
    result = classify_quasi_sum(spec)
    assert result["case"] == "HomotheticCobbDouglas"
    assert result["sigma"] == 1.0
    assert result["fitted_inner_parameters"] == pytest.approx((0.5, 0.5))
    assert result["residuals"]["ces"] <= tolerances.CES_RESIDUAL_TOL


def test_ratio_case():
    spec = QuasiSumSpec(outer=ScalarFn("exp", 1.0),
                        inner=(ScalarFn("log", -1.0), ScalarFn("log", 1.0)))
    result = classify_quasi_sum(spec)
    assert result["case"] == "RatioTwoInput"
    assert result["sigma"] is None
    assert result["separation_constant_k"] == pytest.approx(1.0, rel=1e-9)
    assert result["fitted_inner_parameters"] == pytest.approx((-1.0, 1.0))


def test_unclassifiable_case():
    spec = QuasiSumSpec(outer=ScalarFn("affine", 1.0),
                        inner=(ScalarFn("power", 1.0, exponent=2.0),
                               ScalarFn("log", 1.0)))
    result = classify_quasi_sum(spec)
    assert result["case"] == "NotCES"
    assert result["sigma"] is None
    assert math.isinf(result["residuals"]["ces"])
    assert result["detection"]["verdict"] == "NotCES"


def test_classify_accepts_expressions_with_a_quasi_sum_form():
    expr = build_acms(1.2, (2.0, 0.8), 0.5, 1.0)
    result = classify_quasi_sum(expr)
    assert result["case"] == "HomotheticACMS"
    assert result["sigma"] == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(SpecError):
        classify_quasi_sum(build_ratio(ScalarFn("exp", 1.0)))
    with pytest.raises(SpecError):
        classify_quasi_sum("not a spec")


def test_classification_ignores_presentation():
    rng = make_rng(501)
    spec = random_power_spec(rng, 3)
    base = classify_quasi_sum(spec)
    assert base["case"] == "HomotheticACMS"

    shifted = QuasiSumSpec(
        outer=spec.outer.replace(coefficient=3.0 * spec.outer.coefficient),
        inner=tuple(h.replace(shift=h.shift + 0.4) for h in spec.inner))
    again = classify_quasi_sum(shifted)
    assert again["case"] == base["case"]
    assert again["sigma"] == pytest.approx(base["sigma"], rel=1e-9)
    assert again["fitted_inner_parameters"] == pytest.approx(
        base["fitted_inner_parameters"], rel=1e-9)


def test_fitted_aggregator_is_constant_on_level_sets():
    rng = make_rng(502)
    spec = random_power_spec(rng, 3, shifts=True)
    expr = build_quasi_sum(spec)
    result = classify_quasi_sum(spec)
    assert result["case"] == "HomotheticACMS"
    p = (result["sigma"] - 1.0) / result["sigma"]
    coeffs = result["fitted_inner_parameters"]

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
    assert classify_quasi_sum(spec)["case"] == "RatioTwoInput"
    for _ in range(10):
        x = random_point(rng, 2)
        base = expr.value(x)
        for t in (0.5, 2.0):
            assert abs(expr.value(t * x) - base) <= \
                gates.RAY_INVARIANCE_TOL * max(1.0, abs(base))


# -- outer ODE residuals ------------------------------------------------------------


def outer_ode_residual(spec, box=None) -> float:
    """``outer_ode.max_residual`` of the Theorem 4.1 report of a quasi-sum."""
    report = verify_theorem_41(build_quasi_sum(spec, box), box, samples=16)
    return report["conclusion_check"]["outer_ode"]["max_residual"]


def test_power_outer_solves_its_ode():
    # F(u) = c u^(sigma/(sigma-1)), increasing by the sign of c, over power
    # inners of exponent (sigma-1)/sigma: F' = (sigma-1) u F''.
    rng = make_rng(504)
    box = ((0.1, 5.0),) * 2
    for sigma in (2.0, 3.0, 0.5, -1.0, random_sigma(rng)):
        q = sigma / (sigma - 1.0)
        spec = QuasiSumSpec(
            outer=ScalarFn("power", math.copysign(1.7, q), exponent=q),
            inner=(ScalarFn("power", 1.0, exponent=1.0 / q),) * 2)
        assert outer_ode_residual(spec, box) <= gates.ODE_MATCH_TOL


def test_perturbed_exponent_fails_the_ode():
    for sigma in (2.0, 3.0):
        q = sigma / (sigma - 1.0)
        assert outer_ode_residual(power_spec(q + 0.5, [1.0, 1.0], 1.0 / q)) \
            > gates.ODE_MISMATCH_MIN


def test_product_outer_solves_its_ode():
    # F(u) = c u^(1/alpha) + s of the product u = x1^a1 x2^a2, a1 + a2 =
    # alpha, is c e^v + s of the log sum v with coefficients a_k / alpha,
    # whose F' = F'' satisfies the log-aggregator ODE 1 * F'' = F'.
    for alpha in (0.25, 0.5, 2.0):
        a = (0.4 * alpha, 0.6 * alpha)
        spec = QuasiSumSpec(
            outer=ScalarFn("exp", 1.4, shift=0.7),
            inner=tuple(ScalarFn("log", ak / alpha) for ak in a))
        assert outer_ode_residual(spec, ((0.2, 4.0),) * 2) <= \
            gates.ODE_MATCH_TOL


# -- curvature equivalence ------------------------------------------------------------


def test_curvature_verdict_on_degree_one_aggregators():
    report = verify_theorem_41(build_acms(1.0, (1.0, 2.0, 0.5), 0.5, 1.0))
    assert report["theorem"] == "T41"
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["conclusion_holds"] is True
    ode = report["conclusion_check"]["outer_ode"]
    assert ode["max_residual"] <= gates.ODE_MATCH_TOL
    assert report["conclusion_check"]["euler_degree_gap"] <= \
        tolerances.PARAMETER_MATCH_TOL * 100
    assert len(report["per_point_data"]) == 65


def test_curvature_verdict_where_the_det_terms_underflow():
    # Degree one, so G = 0.  Unscaled, the five det terms of the deciding
    # row were 8.85e-313, -0, -8.85e-313, -0 and -0, whose statistic read 1.
    report = verify_theorem_41(build_acms(1.0, [1.0] * 4, -40.0, 1.0),
                               [(0.01, 100.0)] * 4, samples=100)
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_check"]["max_det_cancellation"] < 1e-15


def test_curvature_verdict_on_extreme_aggregators_and_their_twins():
    # Degree one (G = 0) and degree 1.05 (G != 0), with rho down to -30 and
    # weights and box axes over decades, so that products of the D_i leave
    # the float range.  Unscaled, 13 of these 150 documents read
    # Inconsistent and 2 DegenerateHypothesis, and 8 twins Inconsistent, as
    # their terms were 0 at every sample (at all but one in one twin).
    rng = random.Random(15)
    for _ in range(150):
        n, rho = rng.randint(3, 6), rng.uniform(-30.0, -0.01)
        a = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(n)]
        box = [(lo, lo * 10.0 ** rng.uniform(0.01, 3.0)) for lo in
               [10.0 ** rng.uniform(-3.0, 1.0) for _ in range(n)]]
        for d in (1.0, 1.05):
            report = verify_theorem_41(build_acms(1.0, a, rho, d), box)
            assert report["verdict"] == "Consistent", (a, rho, d, box)


# The degree-1.05 twin of an extreme aggregator, whose G is subnormal at
# row 30 of its 64-sample table.  Up to 0.17.0 `curvature` and `scan` summed
# the unscaled det terms, and `curvature` read -1.3734177485e-313 there
# against verify's -1.37341774846e-313; the exact value from the same float
# factors is -1.37341774843165e-313.
SUBNORMAL_G_TWIN = (
    {"type": "acms", "gamma": 1.0,
     "a": [8.78954672515372, 0.04285987489764305, 88.17750508845845,
           0.011682145655974396],
     "rho": -29.65047573317369, "d": 1.05},
    [(3.295832048925885, 17.567641780113984),
     (0.5313768837968936, 5.575131966081497),
     (2.6876303080475266, 360.47121099993535),
     (9.983088856692282, 70.50244482191292)], 64, 0)


@pytest.mark.parametrize("verify", [verify_theorem_41, verify_theorem_42])
def test_per_point_records_give_one_dict_per_point(verify, tmp_path):
    doc, twin_box, twin_samples, twin_seed = SUBNORMAL_G_TWIN
    twin = expr_from_dict(doc)
    for expr, box, samples, seed in [
            (build_acms(1.0, (1.0, 2.0, 0.5), -0.5, 1.0), default_box(3), 24,
             7), (twin, twin_box, twin_samples, twin_seed)]:
        table = point_table(expr, box, samples, seed)
        surface = surface_curvatures(table)
        want = [{"point": x, "gauss_kronecker": g,
                 "gauss_kronecker_scaled": gs, "flatness_residual": r}
                for x, g, gs, r in zip(
                    table.points.tolist(), surface["gauss_kronecker"].tolist(),
                    surface["gauss_kronecker_scaled"].tolist(),
                    surface["flatness_residual"].tolist())]
        report = verify(expr, box, samples=samples, seed=seed)
        rows = report["per_point_data"]
        size = samples + 1
        assert isinstance(rows, PointRecords)
        assert rows.data.dtype == np.float64
        assert rows.data.shape == (size, expr.n + 3)
        assert len(rows) == size
        assert list(rows) == want
        assert [rows[k] for k in range(-size, size)] == want + want
        # G bit for bit, so that -0.0 and 0.0 count as different.
        got = np.array([row["gauss_kronecker"] for row in rows])
        assert np.array_equal(got.view(np.int64),
                              surface["gauss_kronecker"].view(np.int64))
        for row in rows:
            assert type(row["point"]) is list
            assert all(type(v) is float for v in [*row["point"], *(
                row[key] for key in ("gauss_kronecker",
                                     "gauss_kronecker_scaled",
                                     "flatness_residual"))])
    # The twin, last: `curvature` prints verify's G at row 30, where it is
    # subnormal.
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(doc))
    point = rows[30]["point"]
    status, text = run(["curvature", "--fn", str(path),
                        "--at", ",".join(map(repr, point))])
    assert status == 0
    printed = np.float64(json.loads(text)["report"]["gauss_kronecker"])
    assert printed.view(np.int64) == got[30].view(np.int64), (printed, got[30])
    assert -1e-312 < printed < 0.0


def test_curvature_verdict_on_scaled_power_outers():
    flat = verify_theorem_41(build_quasi_sum(power_spec(2.0, [1.0, 1.0], 0.5)))
    assert flat["verdict"] == "Consistent" and flat["hypothesis_holds"] is True

    cubed = verify_theorem_41(
        build_quasi_sum(power_spec(3.0, [1.0, 1.0], 0.5)))
    assert cubed["verdict"] == "Consistent"
    assert cubed["hypothesis_holds"] is False
    assert cubed["conclusion_holds"] is False


def test_curvature_verdict_on_products():
    report = verify_theorem_41(build_cobb_douglas(1.0, (0.5, 0.25, 0.25)))
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["conclusion_holds"] is True


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
        assert report["verdict"] == "Consistent", (expr.family, expr.params)


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
    assert report["theorem"] == "T42"
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["conclusion_holds"] is True

    ratio = verify_theorem_42(build_ratio(ScalarFn("affine", 1.0)))
    assert ratio["verdict"] == "Consistent"
    assert ratio["hypothesis_holds"] is False
    assert ratio["conclusion_holds"] is False


def test_flatness_fails_for_three_input_members():
    report = verify_theorem_42(build_cobb_douglas(1.0, (1 / 3, 1 / 3, 1 / 3)))
    assert report["verdict"] == "Inconsistent"
    assert report["hypothesis_holds"] is False
    assert report["conclusion_holds"] is True
    assert len(report["per_point_data"]) > 0
    assert report["forward_implication_ok"] is True
    assert report["reverse_implication_ok"] is False
    assert report["per_point_data"][0]["flatness_residual"] > \
        gates.CLEAR_NONFLAT_TOL

    acms = verify_theorem_42(build_acms(1.0, (1.0, 1.0, 1.0), 0.5, 1.0))
    assert acms["verdict"] == "Inconsistent"


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
        assert report["theorem"] == "T11"
        assert report["verdict"] == "Consistent"
        assert report["per_point_data"] == ()
        assert report["forward_implication_ok"] is True
        assert report["reverse_implication_ok"] is True


def test_classification_equivalence_accepts_expressions():
    report = verify_theorem_11(build_acms(1.0, (1.0, 1.0), 0.5, 1.0))
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["conclusion_holds"] is True
    assert report["conclusion_check"]["classification"]["case"] == \
        "HomotheticACMS"
