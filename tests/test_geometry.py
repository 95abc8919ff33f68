"""Surface quantities of the graph hypersurface."""

import math

import numpy as np
import pytest

from prodgeo import (
    DomainError, ScalarFn, SpecError,
    build_acms, build_cobb_douglas, build_quasi_sum, build_ratio,
    flatness_residual, gauss_kronecker, graph_geometry, graph_point,
)
from prodgeo import tolerances
import gates
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_point, random_points,
    random_log_spec, random_power_spec, random_quasi_sum_expr,
    random_ratio_expr,
)


def test_graph_point_lifts_the_value():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    assert np.allclose(graph_point(cd, [4.0, 9.0]), [4.0, 9.0, 6.0])
    linear = build_acms(1.0, (1.0, 1.0), 1.0, 1.0)
    assert np.allclose(graph_point(linear, [1.0, 2.0]), [1.0, 2.0, 3.0])
    ratio = build_ratio(ScalarFn("affine", 1.0))
    assert np.allclose(graph_point(ratio, [2.0, 6.0]), [2.0, 6.0, 3.0])


def test_curvature_hand_values():
    sqrt_cd = build_cobb_douglas(1.0, (0.5, 0.5))
    geo = graph_geometry(sqrt_cd, [2.0, 8.0])
    assert abs(geo.gauss_kronecker) <= 1e-12
    assert geo.gauss_kronecker_scaled <= tolerances.VANISHING_CURVATURE_TOL

    product = build_cobb_douglas(1.0, (1.0, 1.0))
    assert gauss_kronecker(product, [1.0, 1.0]) == \
        pytest.approx(-1.0 / 9.0, rel=1e-12)

    ratio = build_ratio(ScalarFn("affine", 1.0))
    assert gauss_kronecker(ratio, [1.0, 1.0]) == \
        pytest.approx(-1.0 / 9.0, rel=1e-12)

    linear = build_acms(1.0, (1.0, 1.0), 1.0, 1.0)
    assert gauss_kronecker(linear, [1.5, 0.7]) == 0.0


def test_minimal_surface_structure_of_the_root_product():
    geo = graph_geometry(build_cobb_douglas(1.0, (0.5, 0.5)), [1.0, 1.0])
    kappas = np.sort(np.abs(geo.principal_curvatures))
    assert kappas[0] <= 1e-12
    assert kappas[1] > 1e-3
    assert abs(np.linalg.det(geo.shape_operator)) <= 1e-12


def test_saddle_structure_of_the_ratio():
    geo = graph_geometry(build_ratio(ScalarFn("affine", 1.0)), [1.0, 1.0])
    assert np.linalg.det(geo.shape_operator) == pytest.approx(-1.0 / 9.0,
                                                              rel=1e-9)
    lo, hi = np.sort(geo.principal_curvatures)
    assert lo < 0.0 < hi


def _sample_exprs(rng):
    return [
        random_cobb_douglas(rng, 2),
        random_cobb_douglas(rng, 4),
        random_acms(rng, 3, clear_rho=True),
        random_quasi_sum_expr(rng, 3),
        random_ratio_expr(rng),
        build_acms(1.0, (1.0, 1.0), 1.0, 1.0),
    ]


def test_metric_and_shape_determinants():
    rng = make_rng(401)
    for expr in _sample_exprs(rng):
        for x in random_points(rng, expr.n, 10):
            geo = graph_geometry(expr, x)
            w = geo.area_factor
            assert abs(np.linalg.det(geo.metric) - w * w) <= \
                gates.METRIC_DET_RTOL * w * w
            det_shape = float(np.linalg.det(geo.shape_operator))
            floor = (float(np.linalg.norm(geo.hessian)) / w) ** expr.n
            bound = gates.SHAPE_DET_RTOL * max(
                abs(det_shape), abs(geo.gauss_kronecker), floor)
            assert abs(det_shape - geo.gauss_kronecker) <= bound
            kappa_product = float(np.prod(geo.principal_curvatures))
            assert abs(kappa_product - geo.gauss_kronecker) <= \
                gates.SHAPE_DET_RTOL * max(
                    abs(kappa_product), abs(geo.gauss_kronecker), floor)


def test_unit_normal_is_orthonormal_to_the_tangent_frame():
    rng = make_rng(402)
    for expr in _sample_exprs(rng):
        x = random_point(rng, expr.n)
        geo = graph_geometry(expr, x)
        assert abs(np.linalg.norm(geo.unit_normal) - 1.0) <= \
            gates.UNIT_NORM_TOL
        for i in range(expr.n):
            tangent = np.zeros(expr.n + 1)
            tangent[i] = 1.0
            tangent[-1] = geo.gradient[i]
            assert abs(float(geo.unit_normal @ tangent)) <= \
                gates.NORMAL_ORTHOGONALITY_TOL * \
                np.linalg.norm(tangent)


def test_two_input_degree_one_graphs_are_flat():
    rng = make_rng(403)
    for expr in (random_cobb_douglas(rng, 2, degree=1.0),
                 random_acms(rng, 2, d=1.0, clear_rho=True),
                 build_acms(1.0, (1.0, 1.0), 1.0, 1.0)):
        for x in random_points(rng, 2, 15):
            assert flatness_residual(expr, x) <= 1e-10


def test_flatness_vanishes_exactly_when_the_form_has_rank_one():
    rng = make_rng(404)
    exprs = [
        random_cobb_douglas(rng, 2, degree=1.0),
        random_acms(rng, 2, d=1.0, clear_rho=True),
        build_acms(1.0, (1.0, 1.0, 1.0), 1.0, 1.0),
        random_cobb_douglas(rng, 3, degree=1.0),
        random_acms(rng, 3, d=2.0, clear_rho=True),
        random_ratio_expr(rng),
        build_cobb_douglas(1.0, (1.0, 1.0)),
    ]
    seen_flat = 0
    seen_curved = 0
    for expr in exprs:
        for x in random_points(rng, expr.n, 5):
            geo = graph_geometry(expr, x)
            flat = geo.flatness_residual <= tolerances.FLATNESS_VERDICT_TOL
            s = np.linalg.svd(geo.second_fundamental_form,
                              compute_uv=False)
            rank_le_one = s[1] <= 1e-9 * max(1.0, s[0])
            assert flat == rank_le_one
            seen_flat += flat
            seen_curved += not flat
    assert seen_flat and seen_curved


def test_three_input_equal_share_curvature_component():
    cd = build_cobb_douglas(1.0, (1 / 3, 1 / 3, 1 / 3))
    geo = graph_geometry(cd, [1.0, 1.0, 1.0])
    assert abs(geo.riemann_max - 1.0 / 36.0) <= 1e-10
    assert geo.flatness_residual == pytest.approx(1.0 / 42.0, rel=1e-10)


def test_geometry_report_serializes():
    geo = graph_geometry(build_cobb_douglas(1.0, (0.5, 0.5)), [2.0, 8.0])
    doc = geo.as_dict()
    assert doc["value"] == pytest.approx(4.0)
    assert len(doc["unit_normal"]) == 3
    assert isinstance(doc["hessian"][0], list)
    assert geo.n == 2


def test_geometry_point_checks():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        graph_geometry(cd, [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        graph_geometry(cd, [1.0, -1.0])
