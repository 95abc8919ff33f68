"""Surface quantities of the graph hypersurface."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from prodgeo import (
    DomainError, ScalarFn, SpecError,
    as_quasi_sum, build_acms, build_cobb_douglas, build_quasi_sum,
    build_ratio, flatness_residual, gauss_kronecker, graph_geometry,
    graph_point, hessian_det_quasisum,
)
from prodgeo import tolerances
from prodgeo.cli import RunConfig, run
from prodgeo.families import hessian_det_terms, hessian_factors
from prodgeo.geometry import surface_curvatures
import gates
from jets import assembled_curvatures
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_point, random_points,
    random_log_spec, random_mixed_spec, random_power_spec,
    random_quasi_sum_expr, random_ratio_expr, random_ratio_spec, random_rho,
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
            flat = geo.flatness_residual <= gates.FLATNESS_VERDICT_TOL
            minors = surface_curvatures(expr.derivatives([x]))[
                "minor_cancellation"][0]
            s = np.linalg.svd(geo.second_fundamental_form,
                              compute_uv=False)
            rank_le_one = s[1] <= 1e-9 * max(1.0, s[0])
            assert flat == rank_le_one
            assert (minors <= tolerances.VANISHING_CURVATURE_TOL) == \
                rank_le_one, (expr.family, x, minors)
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


# -- the factored Hessian: det Hess and the minors of diag(D) + c u u^T --------

UNIT = Fraction(1, 2 ** 53)  # unit roundoff of float64
# Kernel factors against the quasi-sum rewrite's ScalarFn derivatives: the
# same closed forms with their rounding steps in another order, so the terms
# they give differ by a few roundings of the terms' sizes.
FACTOR_REWRITE_RTOL = 1e-12
# Factored against the assembled Hessian's LU determinant and minors:
# both err by O(n) roundings of the entries' sizes.
GENERIC_PATH_RTOL = 1e-12


def _gamma(k):
    """gamma_k = k u / (1 - k u): (1 + d_1)...(1 + d_k) with |d_i| <= u lies
    within 1 +- gamma_k."""
    return k * UNIT / (1 - k * UNIT)


def _factored_documents(rng):
    """Random documents of every family that has a quasi-sum rewrite."""
    exprs = [build_ratio(ScalarFn("affine", 1.5, shift=0.5)),
             build_ratio(ScalarFn("log", 2.0))]
    for n in range(2, 7):
        rho = random_rho(rng)
        exprs += [random_cobb_douglas(rng, n),
                  random_cobb_douglas(rng, n, degree=1.0),
                  random_acms(rng, n, rho=rho, d=math.copysign(1.3, rho)),
                  random_acms(rng, n, rho=rho, d=math.copysign(1.0, rho)),
                  build_quasi_sum(random_power_spec(rng, n)),
                  build_quasi_sum(random_power_spec(rng, n, degree_one=True)),
                  build_quasi_sum(random_log_spec(rng, n)),
                  build_quasi_sum(random_mixed_spec(rng, n))]
    return exprs + [build_quasi_sum(random_ratio_spec(rng))]


def _terms(diag, c, slope):
    """T_0 .. T_n of det(diag(D) + c u u^T) in exact rationals."""
    out = [math.prod(diag)]
    for j in range(len(diag)):
        out.append(c * slope[j] ** 2
                   * math.prod(d for i, d in enumerate(diag) if i != j))
    return out


def _rewrite_factors(spec, x):
    """(F' h_i'', F'', h_i') in rationals from the floats the rewrite's
    ScalarFn.derivatives give at x and at the inner sum."""
    inner = [h.derivatives(float(xi)) for h, xi in zip(spec.inner, x)]
    _, f1, f2 = spec.outer.derivatives(spec.inner_sum(x))
    return ([Fraction(float(f1)) * Fraction(float(d2)) for _, _, d2 in inner],
            Fraction(float(f2)), [Fraction(float(d1)) for _, d1, _ in inner])


def test_factored_determinant_agrees_with_an_exact_evaluation_of_the_rewrite():
    # T (exact, from the rewrite) and T^ (exact, from the kernel's float
    # factors) differ by sum |T^_j - T_j|, at most FACTOR_REWRITE_RTOL sum |T|.
    # Forming each T^_j in floats takes at most 2n + 2 roundings and summing
    # n + 1 terms at most n more, so the computed det and sum |T| are within
    # E = sum |T^_j - T_j| + gamma_(3n+2) sum |T^| of sum T and S = sum |T|,
    # and the statistic |sum T| / S (at most 1) within 2 E / (S - E) plus
    # the rounding of its quotient.
    rng = make_rng(411)
    exprs = _factored_documents(rng)
    checked = 0
    for expr in exprs:
        spec = as_quasi_sum(expr)
        for x in random_points(rng, expr.n, 8):
            want = _terms(*_rewrite_factors(spec, x))
            table = expr.derivatives([x])
            factors = hessian_factors(table.factors)
            diag, c, slope = (np.atleast_1d(f[0]).tolist() for f in factors)
            got = _terms([Fraction(v) for v in diag], Fraction(c[0]),
                         [Fraction(v) for v in slope])
            size = sum(map(abs, want))
            apart = sum(abs(g - w) for g, w in zip(got, want))
            assert apart <= FACTOR_REWRITE_RTOL * size, (expr.family, x)
            bound = apart + _gamma(3 * expr.n + 2) * sum(map(abs, got))
            det = hessian_det_terms(*factors).sum(axis=1)[0]
            assert abs(Fraction(float(det)) - sum(want)) <= bound
            if expr.family == "quasi_sum":
                assert hessian_det_quasisum(spec, x) == det
            surface = surface_curvatures(table)
            stat = Fraction(float(surface["det_cancellation"][0]))
            assert abs(stat - abs(sum(want)) / size) <= \
                2 * bound / (size - bound) + UNIT
            checked += 1
    assert checked == 8 * len(exprs)


def _assembled_norm(hessian):
    """|Hess| per row by einsum; where sum H_ij^2 overflows, in exact units of
    the power of two of the row's largest |H_ij|.  Also returns that mask."""
    norm = np.sqrt(np.einsum("pij,pij->p", hessian, hessian))
    wide = ~np.isfinite(norm)
    k = np.frexp(np.abs(hessian[wide]).max(axis=(1, 2)))[1]
    unit = np.ldexp(hessian[wide], -k[:, np.newaxis, np.newaxis])
    norm[wide] = np.ldexp(np.sqrt(np.einsum("pij,pij->p", unit, unit)), k)
    return norm, wide


@np.errstate(all="ignore")
def test_closed_forms_agree_with_the_assembled_hessian():
    # The determinant, minors and Frobenius norm of the same Hessians,
    # assembled: det against the Hadamard bound prod_i |H_i|, the largest
    # minor of h = Hess / W against max |h_ij|^2, and |h|^2 (read from the
    # flatness residual and the scaled G) against the assembled |Hess| / W.
    rng = make_rng(412)
    exprs = _factored_documents(rng) + [random_ratio_expr(rng)
                                        for _ in range(6)]
    exprs += [random_acms(rng, n, rho=-1.5, d=0.8) for n in range(2, 7)]
    cases = [(expr, random_points(rng, expr.n, 40)) for expr in exprs]
    # On [1e-100, 1e100]^2, sum H_ij^2 of the root product overflows.
    wide_cd = build_cobb_douglas(1.0, (0.5, 0.5))
    cases.append((wide_cd, 10.0 ** rng.uniform(-100.0, 100.0, (40, 2))))
    for expr, points in cases:
        n = expr.n
        table = expr.derivatives(points)
        hessian = table.hessian
        factored = surface_curvatures(table)
        generic = assembled_curvatures(table.gradient, hessian)
        w = generic["area_factor"]
        assert np.array_equal(factored["area_factor"], w)
        if expr is not wide_cd:
            # (LU and the powers of W overflow on the wide rows.)
            rows = np.prod(np.linalg.norm(hessian, axis=2), axis=1)
            assert np.all(np.abs(factored["gauss_kronecker"]
                                 - generic["gauss_kronecker"])
                          * w ** (n + 2) <= GENERIC_PATH_RTOL * rows)
            entry = np.max(np.abs(hessian), axis=(1, 2)) / w
            assert np.all(np.abs(factored["riemann_max"]
                                 - generic["riemann_max"])
                          <= GENERIC_PATH_RTOL * entry ** 2)
        norm, wide = _assembled_norm(hessian)
        assert wide.any() == (expr is wide_cd)
        # Every entry of h is within gamma_3 of m_ij, the entry of
        # (|diag(D)| + |c| |u| |u|^T) / W, on either path (one more rounding
        # for D / W).  The factored |h|^2 adds 2n + 6 roundings of the sum
        # of the m_ij^2 = M^2; the assembled one n^2 for its squares and sum
        # and 5 for the square root, the division by W and the square.  So
        # the two differ by at most E = gamma_(n^2 + 2n + 24) M^2.
        diag, c, u = hessian_factors(table.factors)
        sizes = (np.abs(c) / w)[:, np.newaxis, np.newaxis] * np.abs(
            u[:, :, np.newaxis] * u[:, np.newaxis, :])
        sizes.reshape(len(w), -1)[:, ::n + 1] += np.abs(diag) / w[:, np.newaxis]
        bound = float(_gamma(n * n + 2 * n + 24)) * np.einsum(
            "pij,pij->p", sizes, sizes)
        h_sq = (norm / w) ** 2
        assert np.isfinite(bound).all() and np.isfinite(h_sq).all()
        # rmax / (1 + |h|^2), each side within 1 +- gamma_2 of its quotient.
        flat = factored["riemann_max"] / (1.0 + h_sq)
        rel = bound / np.maximum(1.0, 1.0 + h_sq - bound)
        assert np.all(np.abs(factored["flatness_residual"] - flat)
                      <= flat * ((1.0 + rel) * (1.0 + float(_gamma(4))) - 1.0))
        # |det| / |Hess|^n one factor at a time: |h_f| / |h_a| lies within
        # (1 -+ E / |h_a|^2)^(1/2), and the 2n + 1 divisions and square
        # roots on either side add gamma_(5n + 4).
        det = np.abs(hessian_det_terms(diag, c, u).sum(axis=1))
        scaled = det
        for _ in range(n):
            scaled = scaled / np.where(norm == 0.0, 1.0, norm)
        ratio = bound / np.where(h_sq == 0.0, 1.0, h_sq)
        slack = np.where(ratio < 1.0, (1.0 - ratio) ** (-n / 2.0)
                         * (1.0 + float(_gamma(5 * n + 4))) - 1.0, np.inf)
        assert np.all(np.abs(factored["gauss_kronecker_scaled"] - scaled)
                      <= scaled * slack)


def test_one_point_slices_match_the_batched_surface():
    rng = make_rng(413)
    for expr in _factored_documents(rng)[::3]:
        points = random_points(rng, expr.n, 4)
        surface = surface_curvatures(expr.derivatives(points))
        for k, x in enumerate(points):
            geo = graph_geometry(expr, x)
            for key in ("gauss_kronecker", "gauss_kronecker_scaled",
                        "riemann_max", "flatness_residual"):
                assert getattr(geo, key) == surface[key][k]
            assert gauss_kronecker(expr, x) == surface["gauss_kronecker"][k]
            assert flatness_residual(expr, x) == \
                surface["flatness_residual"][k]


GUARD_DOCS = {
    "cobb_douglas": {"type": "cobb_douglas", "gamma": 1.2,
                     "alpha": [0.3, 0.3, 0.4]},
    "acms": {"type": "acms", "gamma": 1.0, "a": [1.0, 2.0, 0.5],
             "rho": -2.5, "d": 1.0},
    "quasi_sum": {"type": "quasi_sum",
                  "outer": {"form": "power", "coefficient": 1.0,
                            "exponent": 2.0},
                  "inner": [{"form": "power", "coefficient": 2.0,
                             "exponent": 0.5},
                            {"form": "power", "coefficient": 3.0,
                             "exponent": 0.5}]},
    "ratio": {"type": "ratio", "outer": {"form": "affine",
                                         "coefficient": 1.0}},
}


class _GenericDeterminant(Exception):
    pass


@pytest.mark.parametrize("name", sorted(GUARD_DOCS))
def test_document_families_never_take_the_generic_determinant(
        tmp_path, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise _GenericDeterminant

    monkeypatch.setattr(np.linalg, "det", refuse)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(GUARD_DOCS[name]))
    n = 2 if name in ("quasi_sum", "ratio") else 3
    for config in (dict(command="scan", samples=64),
                   dict(command="curvature", at=(1.2,) * n),
                   dict(command="verify", theorem="4.1"),
                   dict(command="verify", theorem="4.2")):
        status, text = run(RunConfig(fn_path=str(path), **config))
        assert status == 0, (config, text)
