"""The batched derivative kernel, the batched surface quantities, and the
scan command built on them."""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from prodgeo import (
    DomainError, QuasiSumSpec, ScalarFn, SpecError,
    build_acms, build_cobb_douglas, build_quasi_sum, build_ratio,
    expr_from_dict, finite_difference_oracle, graph_geometry,
    hicks_elasticity,
)
from prodgeo import tolerances
from prodgeo.cli import RunConfig, _float_text, run
from conftest import (
    jet_oracle, make_rng, random_acms, random_cobb_douglas, random_log_spec,
    random_mixed_spec, random_points, random_power_spec, random_ratio_spec,
)

# Kernel and oracle differ only in the order of their rounding steps.
ORACLE_RTOL = 1e-12


def _form_specs(n):
    """Every scalar form as an inner and as an outer, on the default box."""
    inner = (ScalarFn("power", 1.0, exponent=0.5, shift=1.0),
             ScalarFn("log", 1.0, shift=2.0),
             ScalarFn("exp", 0.5),
             ScalarFn("affine", 2.0))
    inner = tuple(inner[k % 4] for k in range(n))
    outers = (ScalarFn("power", 0.7, exponent=1.5),
              ScalarFn("log", 2.0),
              ScalarFn("exp", 0.1),
              ScalarFn("affine", 3.0, shift=-1.0))
    return [QuasiSumSpec(outer=outer, inner=inner) for outer in outers]


def _kernel_cases():
    rng = make_rng(901)
    cases = []
    for n in range(2, 7):
        cases.append(random_cobb_douglas(rng, n))
        cases.append(random_acms(rng, n))
        # d / rho < 0: a decreasing power outer over power inners.
        cases.append(build_acms(1.3, np.linspace(0.5, 2.0, n), -1.5, 0.8))
        cases.append(build_acms(0.9, np.linspace(0.5, 2.0, n), 0.5, -1.2))
        cases.append(build_quasi_sum(random_power_spec(rng, n)))
        cases.append(build_quasi_sum(random_log_spec(rng, n)))
        cases.append(build_quasi_sum(random_mixed_spec(rng, n)))
        cases.extend(build_quasi_sum(spec) for spec in _form_specs(n))
    cases.append(build_quasi_sum(random_ratio_spec(rng)))
    for outer in (ScalarFn("affine", 1.5, shift=0.5), ScalarFn("log", 2.0),
                  ScalarFn("power", 1.2, exponent=0.7), ScalarFn("exp", 0.4)):
        cases.append(build_ratio(outer))
    return cases


def test_kernel_matches_the_jet_oracle_and_finite_differences():
    rng = make_rng(902)
    for expr in _kernel_cases():
        points = random_points(rng, expr.n, 6)
        value, gradient, hessian = expr.derivatives(points)
        assert value.shape == (6,)
        assert gradient.shape == (6, expr.n)
        assert hessian.shape == (6, expr.n, expr.n)
        assert np.array_equal(hessian, hessian.swapaxes(-1, -2))
        for k, x in enumerate(points):
            assert value[k] == pytest.approx(expr.value(x), rel=ORACLE_RTOL)
            oracle = jet_oracle(expr, x)
            assert value[k] == pytest.approx(oracle.value, rel=ORACLE_RTOL)
            scale = max(1.0, float(np.max(np.abs(oracle.gradient))))
            assert np.max(np.abs(gradient[k] - oracle.gradient)) <= \
                ORACLE_RTOL * scale
            scale = max(1.0, float(np.max(np.abs(oracle.hessian))))
            assert np.max(np.abs(hessian[k] - oracle.hessian)) <= \
                ORACLE_RTOL * scale

            fd = finite_difference_oracle(expr, x)
            scale = max(1.0, float(np.max(np.abs(gradient[k]))))
            assert np.max(np.abs(gradient[k] - fd.gradient)) <= \
                tolerances.GRADIENT_FD_RTOL * scale
            scale = max(1.0, float(np.max(np.abs(hessian[k]))))
            assert np.max(np.abs(hessian[k] - fd.hessian)) <= \
                tolerances.HESSIAN_FD_SCALED_TOL * scale

            jet = expr.jet(x)
            assert jet.value == value[k]
            assert np.array_equal(jet.gradient, gradient[k])
            assert np.array_equal(jet.hessian, hessian[k])


def test_kernel_input_checks():
    cd = build_cobb_douglas(1.0, (0.5, 0.5))
    with pytest.raises(SpecError):
        cd.derivatives(np.ones((3, 3)))
    with pytest.raises(SpecError):
        cd.derivatives(np.ones(2))
    with pytest.raises(DomainError):
        cd.derivatives([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="aggregator sum"):
        build_acms(1.0, (-1.0, 1.0), 1.0, 1.0).derivatives([[2.0, 1.0]])
    # The outer power needs a positive inner sum; this one goes negative.
    spec = QuasiSumSpec(outer=ScalarFn("power", 1.0, exponent=0.5),
                        inner=(ScalarFn("log", 1.0), ScalarFn("log", 1.0)))
    expr = build_quasi_sum(spec, box=((2.0, 3.0), (2.0, 3.0)))
    with pytest.raises(DomainError, match="needs a positive argument"):
        expr.derivatives([[2.0, 2.0], [0.5, 0.5]])


def test_scalar_fn_derivatives_on_arrays_match_floats():
    xs = np.array([0.3, 1.0, 2.5])
    for fn in (ScalarFn("power", 1.5, exponent=-0.7, shift=0.2),
               ScalarFn("log", -2.0, shift=1.0), ScalarFn("exp", 0.3),
               ScalarFn("affine", 4.0, shift=-1.0)):
        batch = fn.derivatives(xs)
        for k, x in enumerate(xs):
            for got, want in zip(batch, fn.derivatives(float(x))):
                assert got[k] == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        ScalarFn("log", 1.0).derivatives(np.array([1.0, 0.0]))


# -- scan rows against the point API ------------------------------------------

SCAN_DOCS = (
    {"type": "cobb_douglas", "gamma": 1.2, "alpha": [0.3, 0.5, 0.4]},
    {"type": "acms", "gamma": 1.0, "a": [1.0, 2.0, 0.5, 1.5],
     "rho": -0.5, "d": 1.0},
    {"type": "quasi_sum", "outer": {"form": "power", "coefficient": 1.0,
                                    "exponent": 1.5},
     "inner": [{"form": "power", "coefficient": 1.0, "exponent": 0.5},
               {"form": "power", "coefficient": 2.0, "exponent": 0.5},
               {"form": "log", "coefficient": 1.0, "shift": 2.0}]},
    {"type": "ratio", "outer": {"form": "log", "coefficient": 1.0}},
)


def _cell(v):
    return {"inf": np.inf, "nan": np.nan}.get(v, v)


def _close(got, want):
    if np.isnan(want) or np.isinf(want):
        return np.isnan(got) if np.isnan(want) else got == want
    return abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("doc", SCAN_DOCS, ids=lambda d: d["type"])
def test_scan_rows_match_the_point_api(tmp_path, doc):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    status, text = run(RunConfig("scan", str(path), samples=64))
    assert status == 0
    report = json.loads(text)["report"]
    status, text = run(RunConfig("scan", str(path), samples=64, out="csv"))
    assert status == 0
    csv_rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    expr = expr_from_dict(doc)
    n = expr.n
    for row, csv_row in zip(report["rows"], csv_rows, strict=True):
        cells = [_cell(v) for v in row["cells"]]
        assert csv_row == ",".join(map(_float_text, cells))
        x = cells[:n]
        geo = graph_geometry(expr, x)
        h = hicks_elasticity(expr, x, 0, 1).as_float()
        want = [geo.value, geo.area_factor, geo.gauss_kronecker,
                geo.flatness_residual, h]
        for got, expected in zip(cells[n:], want):
            assert _close(got, expected), (x, got, expected)


def test_principal_curvatures_solve_the_generalized_eigenproblem():
    rng = make_rng(903)
    for expr in _kernel_cases():
        for x in random_points(rng, expr.n, 3):
            geo = graph_geometry(expr, x)
            pencil = scipy.linalg.eigh(geo.second_fundamental_form,
                                       geo.metric, eigvals_only=True)
            # The pencil's rounding error grows with the condition number
            # of the metric, W^2.
            scale = geo.area_factor ** 2 * max(1.0, np.max(np.abs(pencil)))
            assert np.max(np.abs(geo.principal_curvatures - pencil)) <= \
                1e-15 * scale


# -- exit contract on overflow --------------------------------------------------

OVERFLOW_CD = {"type": "cobb_douglas", "gamma": 1.0, "alpha": [300.0, 300.0]}
OVERFLOW_ACMS = {"type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
                 "rho": 0.5, "d": 1e308}


@pytest.mark.parametrize("doc, config", [
    (OVERFLOW_CD, dict(command="eval", at=(10.0, 10.0))),
    (OVERFLOW_CD, dict(command="curvature", at=(10.0, 10.0))),
    (OVERFLOW_CD, dict(command="scan", box=((5.0, 10.0), (5.0, 10.0)),
                       samples=4)),
    (OVERFLOW_ACMS, dict(command="eval", at=(1.0, 1.0))),
], ids=["eval", "curvature", "scan", "degree"])
def test_overflow_is_a_domain_failure(tmp_path, doc, config):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    for out in ("json", "csv"):
        status, text = run(RunConfig(fn_path=str(path), out=out, **config))
        assert status == 2
        assert "\n" not in text
        assert json.loads(text)["error"]["type"] == "DomainError"


def test_importing_the_package_does_not_load_scipy():
    code = "import prodgeo, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
