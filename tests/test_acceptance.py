"""End-to-end acceptance criteria.

Each test certifies one numbered criterion; the hook in conftest prints a
PASS/FAIL line per criterion in the terminal summary.  Criteria 1 through 5
build shared instance suites (cached, so execution order does not matter);
criterion 7 re-checks the geometric determinant identities at every point
those suites evaluated.
"""

import json
import math
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

from prodgeo import (
    QuasiSumSpec, ScalarFn,
    build_acms, build_cobb_douglas, build_quasi_sum, build_ratio,
    classify_quasi_sum, default_box, finite_difference_oracle,
    graph_geometry, verify_theorem_41, verify_theorem_42,
)
from prodgeo import tolerances
from prodgeo.elasticity import ces_residuals, hicks_values
from prodgeo.families import index_pairs
from prodgeo.sampling import log_uniform
import gates
from conftest import (
    factored_det, log_uniform_scalar, make_rng, random_acms,
    random_cobb_douglas, random_log_spec, random_mixed_spec, random_point,
    random_power_spec,
    random_quasi_sum_expr, random_ratio_expr, random_ratio_spec,
    random_sigma,
)


def positive_cobb_douglas(rng, n, degree):
    alpha = np.array([log_uniform_scalar(rng, 0.3, 2.0) for _ in range(n)])
    alpha *= degree / alpha.sum()
    return build_cobb_douglas(log_uniform_scalar(rng, 0.5, 2.0),
                              tuple(float(a) for a in alpha))


# Criterion 7 closes the metric determinant against W**2 to 1e-12 relative
# at every point the suites touch.  The metric I + grad grad^T has condition
# number W**2, so once the gradient norm climbs past roughly 100 the float64
# representation of the matrix itself drifts by more than that tolerance and
# the comparison would measure rounding, not the formulas.  Every suite
# therefore draws its instances and points from the moderate-slope regime.
GRADIENT_NORM_CAP = 60.0


def slope_within_cap(expr, points) -> bool:
    return all(
        float(np.linalg.norm(expr.derivatives([x]).gradient[0]))
        <= GRADIENT_NORM_CAP
        for x in points)


def moderate_case(rng, draw, build=lambda instance: instance):
    """Draw an instance plus a box point from the moderate-slope regime.

    Instances whose gradient exceeds the cap everywhere on the box (an exp
    outer over a steep inner sum manages that) are redrawn entirely.
    """
    for _ in range(100):
        instance = draw()
        expr = build(instance)
        for _ in range(50):
            x = random_point(rng, expr.n)
            if slope_within_cap(expr, (x,)):
                return instance, x
    raise AssertionError("no moderately sloped instance found")


def draw_moderate(draw, points):
    """Redraw an instance until its slope over ``points`` stays capped."""
    for _ in range(500):
        expr = draw()
        if slope_within_cap(expr, points):
            return expr
    raise AssertionError("no moderately sloped instance found")


def capped_log_uniform(expr, count, seed):
    """``count`` log-uniform box points from the moderate-slope regime."""
    batch = log_uniform(default_box(expr.n), 4 * count, seed)
    keep = [x for x in batch if slope_within_cap(expr, (x,))]
    assert len(keep) >= count
    return tuple(keep[:count])


# -- shared suites ---------------------------------------------------------------


@lru_cache(maxsize=None)
def differentiation_suite():
    """(expr, point) per instance: 50 from each builder, n cycling 2..4."""
    rng = make_rng(9001)
    cases = []
    for k in range(50):
        cases.append(moderate_case(
            rng, lambda: random_cobb_douglas(rng, 2 + k % 3)))
    for k in range(50):
        cases.append(moderate_case(
            rng, lambda: random_acms(rng, 2 + k % 3)))
    for k in range(50):
        cases.append(moderate_case(
            rng, lambda: random_quasi_sum_expr(rng, 2 + k % 3)))
    for _ in range(50):
        cases.append(moderate_case(rng, lambda: random_ratio_expr(rng)))
    return tuple(cases)


@lru_cache(maxsize=None)
def determinant_suite():
    """(spec, point) pairs covering every quasi-sum shape."""
    rng = make_rng(9002)

    def spec_for(k):
        if k % 4 == 3:
            return random_ratio_spec(rng)
        if k % 4 == 2:
            return random_mixed_spec(rng, 2 + k % 3)
        if k % 4 == 1:
            return random_log_spec(rng, 2 + k % 3)
        return random_power_spec(rng, 2 + k % 3)

    return tuple(
        moderate_case(rng, lambda: spec_for(k), build=build_quasi_sum)
        for k in range(100))


@lru_cache(maxsize=None)
def elasticity_suite():
    """(expr, expected elasticity, 100 sample points) per family member."""
    rng = make_rng(9003)
    cases = []
    for rho in (-1.0, 0.5, 2.0):
        for n in (2, 3, 4):
            points = log_uniform(default_box(n), 100, seed=50 + n)
            expr = draw_moderate(lambda: random_acms(rng, n, rho=rho),
                                 points)
            cases.append((expr, 1.0 / (1.0 - rho), points))
    for n in (2, 3, 4):
        points = log_uniform(default_box(n), 100, seed=60 + n)
        expr = draw_moderate(lambda: random_cobb_douglas(rng, n), points)
        cases.append((expr, 1.0, points))
    return tuple(cases)


@lru_cache(maxsize=None)
def ratio_suite():
    """Two-input ratio members under each outer shape, with 100 points."""
    outers = (ScalarFn("affine", 1.0),
              ScalarFn("power", 1.0, exponent=2.0),
              ScalarFn("exp", 1.0))
    return tuple(
        (expr, capped_log_uniform(expr, 100, seed=77))
        for expr in (build_ratio(outer) for outer in outers))


@lru_cache(maxsize=None)
def curvature_suite():
    """(expr, 100 points, should_be_flat) for degree-1 and degree-2 members."""
    rng = make_rng(9005)
    cases = []
    for n in (2, 3, 4):
        points = log_uniform(default_box(n), 100, seed=80 + n)
        cases.append((draw_moderate(lambda: random_acms(rng, n, d=1.0),
                                    points), points, True))
        cases.append((draw_moderate(
            lambda: random_cobb_douglas(rng, n, degree=1.0), points), points,
            True))
    # Degree-2 members must show clearly nonzero scaled curvature, and the
    # scaling divides by W**(n+3).  Keep |d/rho| small so the outer power
    # d/rho neither inflates the area factor (crushing |G| under the
    # detection line) nor flattens the aggregate toward affine.
    rhos = (-1.0, 2.0, -1.6)
    for idx, n in enumerate((2, 3, 4)):
        points = log_uniform(default_box(n), 100, seed=90 + n)
        cases.append((draw_moderate(
            lambda: random_acms(rng, n, d=2.0, rho=rhos[idx]), points),
            points, False))
        cases.append((draw_moderate(
            lambda: positive_cobb_douglas(rng, n, 2.0), points), points,
            False))
    return tuple(cases)


@lru_cache(maxsize=None)
def all_geometry_evaluations():
    """Every (expr, point) pair the numeric suites above touch."""
    evaluations = list(differentiation_suite())
    for spec, x in determinant_suite():
        evaluations.append((build_quasi_sum(spec), x))
    for expr, _, points in elasticity_suite():
        evaluations.extend((expr, x) for x in points)
    for expr, points in ratio_suite():
        evaluations.extend((expr, x) for x in points)
    for expr, points, _ in curvature_suite():
        evaluations.extend((expr, x) for x in points)
    return tuple(evaluations)


# -- criteria --------------------------------------------------------------------


def test_criterion_01():
    """Kernel rows agree with the finite-difference oracle on every
    builder."""
    for expr, x in differentiation_suite():
        row = expr.derivatives([x])
        gradient, hessian = row.gradient[0], row.hessian[0]
        fd = finite_difference_oracle(expr, x)
        grad_gap = float(np.max(np.abs(gradient - fd.gradient)))
        grad_scale = max(1.0, float(np.max(np.abs(gradient))))
        assert grad_gap <= gates.GRADIENT_FD_RTOL * grad_scale
        hess_gap = float(np.max(np.abs(hessian - fd.hessian)))
        hess_scale = max(1.0, float(np.max(np.abs(hessian))))
        assert hess_gap <= gates.HESSIAN_FD_SCALED_TOL * hess_scale


def test_criterion_02():
    """The factored quasi-sum determinant matches the assembled Hessian."""
    square = ScalarFn("power", 1.0, exponent=2.0)
    hand = build_quasi_sum(QuasiSumSpec(outer=square, inner=(square, square)))
    assert abs(factored_det(hand, [1.0, 1.0]) - 192.0) <= 1e-9

    for spec, x in determinant_suite():
        expr = build_quasi_sum(spec)
        closed = factored_det(expr, x)
        direct = float(np.linalg.det(expr.derivatives([x]).hessian[0]))
        assert abs(closed - direct) <= \
            gates.HESSIAN_DET_RTOL * max(abs(closed), abs(direct))


def test_criterion_03():
    """Aggregators report the constant elasticity their exponent dictates."""
    for expr, expected, points in elasticity_suite():
        values = hicks_values(expr.derivatives(points),
                              *index_pairs(expr.n))
        assert np.isfinite(values).all()
        assert np.max(np.abs(values - expected)) <= 1e-8


def test_criterion_04():
    """Ratio members are degenerate everywhere and blind to sigma."""
    for expr, points in ratio_suite():
        table = expr.derivatives(points)
        assert np.isnan(hicks_values(table, 0, 1)).all()
        for sigma in (-2.0, 1.0, 3.0):
            assert np.max(np.abs(ces_residuals(table, sigma, 0, 1))) <= 1e-12


def test_criterion_05():
    """Scaled curvature vanishes at degree one and not at degree two."""
    for expr, points, should_be_flat in curvature_suite():
        if should_be_flat:
            for x in points:
                geo = graph_geometry(expr, x)
                assert geo["gauss_kronecker_scaled"] <= \
                    tolerances.VANISHING_CURVATURE_TOL
        else:
            clear = sum(
                abs(graph_geometry(expr, x)["gauss_kronecker"]) >
                tolerances.CLEAR_CURVATURE_TOL
                for x in points)
            assert clear >= 95


def _outer_ode_residual(expr) -> float:
    """``outer_ode.max_residual`` of a Theorem 4.1 report on the default
    box."""
    report = verify_theorem_41(expr, samples=16)
    return report["conclusion_check"]["outer_ode"]["max_residual"]


def test_criterion_06():
    """Outer ODE residuals separate exact solutions from perturbed ones."""
    rng = make_rng(9006)
    sigmas = [2.0, 3.0, 0.5, -1.0] + [random_sigma(rng) for _ in range(6)]
    for sigma in sigmas:
        rho = (sigma - 1.0) / sigma
        a = [log_uniform_scalar(rng, 0.3, 3.0) for _ in range(3)]
        assert _outer_ode_residual(build_acms(1.0, a, rho, 1.0)) <= \
            gates.ODE_MATCH_TOL
        assert _outer_ode_residual(build_acms(1.0, a, rho, 1.5)) > \
            gates.ODE_MISMATCH_MIN
        # The power quasi-sum under outer exponent q = 1 / rho and q + 0.5,
        # each outer increasing by the sign of its coefficient.
        inner = tuple(ScalarFn("power", c, exponent=rho) for c in a)
        for q, exact in ((1.0 / rho, True), (1.0 / rho + 0.5, False)):
            outer = ScalarFn("power", math.copysign(
                log_uniform_scalar(rng, 0.3, 3.0), q), exponent=q)
            residual = _outer_ode_residual(
                build_quasi_sum(QuasiSumSpec(outer=outer, inner=inner)))
            if exact:
                assert residual <= gates.ODE_MATCH_TOL
            else:
                assert residual > gates.ODE_MISMATCH_MIN
    for n in (2, 3, 4):
        assert _outer_ode_residual(positive_cobb_douglas(rng, n, 1.0)) <= \
            gates.ODE_MATCH_TOL
        assert _outer_ode_residual(positive_cobb_douglas(rng, n, 1.2)) > \
            gates.ODE_MISMATCH_MIN


def test_criterion_07():
    """Metric and shape determinants close at every suite evaluation."""
    for expr, x in all_geometry_evaluations():
        geo = graph_geometry(expr, x)
        w_sq = geo["area_factor"] ** 2
        assert abs(np.linalg.det(geo["metric"]) - w_sq) <= \
            gates.METRIC_DET_RTOL * w_sq
        det_shape = float(np.linalg.det(geo["shape_operator"]))
        floor = (float(np.linalg.norm(geo["hessian"])) / geo["area_factor"]) \
            ** expr.n
        assert abs(det_shape - geo["gauss_kronecker"]) <= \
            gates.SHAPE_DET_RTOL * max(abs(det_shape),
                                       abs(geo["gauss_kronecker"]), floor)


def test_criterion_08():
    """Two-input flatness and the closed-form ratio curvature."""
    for expr, points, should_be_flat in curvature_suite():
        if should_be_flat and expr.n == 2:
            for x in points:
                assert graph_geometry(expr, x)["flatness_residual"] <= 1e-10

    for expr, points in ratio_suite():
        outer = expr.params["outer"]
        for x in points[:20]:
            geo = graph_geometry(expr, x)
            d1 = outer.derivatives(float(x[1] / x[0]))[1]
            predicted = -d1 * d1 / (float(x[0]) ** 4 * geo["area_factor"] ** 4)
            assert abs(geo["gauss_kronecker"] - predicted) <= \
                1e-10 * abs(predicted)

    identity_ratio = build_ratio(ScalarFn("affine", 1.0))
    g = graph_geometry(identity_ratio, [1.0, 1.0])["gauss_kronecker"]
    assert g == pytest.approx(-1.0 / 9.0, rel=1e-10)


def test_criterion_09():
    """The equal-share three-input product has the known curvature tensor."""
    cd = build_cobb_douglas(1.0, (1 / 3, 1 / 3, 1 / 3))
    geo = graph_geometry(cd, [1.0, 1.0, 1.0])
    assert abs(geo["riemann_max"] - 1.0 / 36.0) <= 1e-10
    assert geo["flatness_residual"] == pytest.approx(1.0 / 42.0, rel=1e-10)
    report = verify_theorem_42(cd)
    assert report["verdict"] == "Inconsistent"
    assert len(report["per_point_data"]) > 0


def test_criterion_10():
    """Classification returns the constructing case, with no mistakes."""
    rng = make_rng(9010)
    expected = []
    for k in range(50):
        expected.append((random_power_spec(rng, 2 + k % 3),
                         "HomotheticACMS"))
    for k in range(50):
        expected.append((random_log_spec(rng, 2 + k % 3),
                         "HomotheticCobbDouglas"))
    for _ in range(50):
        expected.append((random_ratio_spec(rng), "RatioTwoInput"))
    for k in range(50):
        expected.append((random_mixed_spec(rng, 2 + k % 3), "NotCES"))

    mistakes = []
    for spec, want in expected:
        got = classify_quasi_sum(spec)["case"]
        if got != want:
            mistakes.append((want, got, spec))
    assert mistakes == []


def test_criterion_11(tmp_path):
    """Reports are byte-identical across runs and scan parallelism."""
    qs_doc = tmp_path / "qs.json"
    qs_doc.write_text(json.dumps({
        "type": "quasi_sum",
        "outer": {"form": "power", "coefficient": 1.0, "exponent": 2.0},
        "inner": [{"form": "power", "coefficient": 2.0, "exponent": 0.5},
                  {"form": "power", "coefficient": 3.0, "exponent": 0.5}],
    }))
    acms_doc = tmp_path / "acms.json"
    acms_doc.write_text(json.dumps({
        "type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
        "rho": 0.5, "d": 1.0,
    }))

    def capture(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "prodgeo", *args],
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    classify_runs = {capture("classify", "--fn", str(qs_doc),
                             "--samples", "32") for _ in range(3)}
    assert len(classify_runs) == 1

    verify_runs = {capture("verify", "--fn", str(acms_doc),
                           "--theorem", "4.1", "--samples", "16")
                   for _ in range(3)}
    assert len(verify_runs) == 1

    scan_serial = capture("scan", "--fn", str(acms_doc), "--samples", "49",
                          "--out", "csv", "--jobs", "1")
    scan_parallel = capture("scan", "--fn", str(acms_doc), "--samples", "49",
                            "--out", "csv", "--jobs", "4")
    assert scan_serial == scan_parallel
