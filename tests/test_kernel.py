"""The batched derivative kernel, the batched surface quantities, and the
commands built on them: scan, and the sampled-box commands (verify, classify,
elasticity --box), which evaluate their box once in a point table."""

import collections
import itertools
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from prodgeo import (
    DomainError, FunctionExpr, HypothesisError, QuasiSumSpec, ScalarFn,
    SpecError, as_quasi_sum, build_acms, build_cobb_douglas,
    build_quasi_sum, build_ratio, classify_quasi_sum, default_box,
    expr_from_dict, finite_difference_oracle, graph_geometry,
    verify_theorem_11, verify_theorem_41, verify_theorem_42,
)
from prodgeo import elasticity, tolerances
from prodgeo.cli import _leaf, run
from prodgeo.classify import _minor_cancellation
from prodgeo.elasticity import ces_residuals, hicks_values
from prodgeo.families import PointTable, euler_quotients, index_pairs
from prodgeo.geometry import surface_curvatures
from prodgeo.sampling import box_center, log_uniform
import gates
from conftest import (
    jet_oracle, make_rng, random_acms, random_cobb_douglas, random_log_spec,
    random_mixed_spec, random_points, random_power_spec, random_ratio_expr,
    random_ratio_spec, shift_free,
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
        table = expr.derivatives(points)
        value, gradient, hessian = table.value, table.gradient, table.hessian
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
                gates.GRADIENT_FD_RTOL * scale
            scale = max(1.0, float(np.max(np.abs(hessian[k]))))
            assert np.max(np.abs(hessian[k] - fd.hessian)) <= \
                gates.HESSIAN_FD_SCALED_TOL * scale

            row = expr.derivatives([x])
            assert row.value[0] == value[k]
            assert np.array_equal(row.gradient[0], gradient[k])
            assert np.array_equal(row.hessian[0], hessian[k])


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
    status, text = run(["scan", "--fn", str(path), "--samples", "64"])
    assert status == 0
    report = json.loads(text)["report"]
    status, text = run(["scan", "--fn", str(path), "--samples", "64",
                        "--out", "csv"])
    assert status == 0
    csv_rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    expr = expr_from_dict(doc)
    n = expr.n
    for row, csv_row in zip(report["rows"], csv_rows, strict=True):
        cells = [_cell(v) for v in row["cells"]]
        assert csv_row == ",".join(map(_leaf, cells))
        x = cells[:n]
        geo = graph_geometry(expr, x)
        h = hicks_values(expr.derivatives([x]), 0, 1)[0]
        want = [geo["value"], geo["area_factor"], geo["gauss_kronecker"],
                geo["flatness_residual"], h]
        for got, expected in zip(cells[n:], want):
            assert _close(got, expected), (x, got, expected)


def test_principal_curvatures_solve_the_generalized_eigenproblem():
    rng = make_rng(903)
    for expr in _kernel_cases():
        for x in random_points(rng, expr.n, 3):
            geo = graph_geometry(expr, x)
            pencil = scipy.linalg.eigh(geo["second_fundamental_form"],
                                       geo["metric"], eigvals_only=True)
            # The pencil's rounding error grows with the condition number
            # of the metric, W^2.
            scale = geo["area_factor"] ** 2 * max(1.0, np.max(np.abs(pencil)))
            assert np.max(np.abs(geo["principal_curvatures"] - pencil)) <= \
                1e-15 * scale


# -- exit contract on overflow --------------------------------------------------

OVERFLOW_CD = {"type": "cobb_douglas", "gamma": 1.0, "alpha": [300.0, 300.0]}
OVERFLOW_ACMS = {"type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
                 "rho": 0.5, "d": 1e308}


@pytest.mark.parametrize("doc, argv", [
    (OVERFLOW_CD, ["eval", "--at", "10.0,10.0"]),
    (OVERFLOW_CD, ["curvature", "--at", "10.0,10.0"]),
    (OVERFLOW_CD, ["scan", "--box", "5.0:10.0,5.0:10.0", "--samples", "4"]),
    (OVERFLOW_ACMS, ["eval", "--at", "1.0,1.0"]),
], ids=["eval", "curvature", "scan", "degree"])
def test_overflow_is_a_domain_failure(tmp_path, doc, argv):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    for out in ("json", "csv"):
        status, text = run([*argv, "--fn", str(path), "--out", out])
        assert status == 2
        assert "\n" not in text
        assert json.loads(text)["error"]["type"] == "DomainError"


def test_extreme_but_finite_curvature_is_not_a_false_zero(tmp_path):
    # W^4 overflows here although G itself is about -1e-202.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(
        {"type": "cobb_douglas", "gamma": 1, "alpha": [50, 50]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, text = run(["curvature", "--fn", str(path),
                            "--at", "10.0,10.0"])
    assert status == 0
    report = json.loads(text)["report"]
    det = np.linalg.det(np.array(report["hessian"]))
    log_g = math.log(abs(det)) - 4.0 * math.log(report["area_factor"])
    assert report["gauss_kronecker"] != 0.0
    assert report["gauss_kronecker"] == pytest.approx(
        math.copysign(math.exp(log_g), det), rel=1e-12)
    # With a third input det Hess itself overflows: a domain failure.
    path.write_text(json.dumps(
        {"type": "cobb_douglas", "gamma": 1, "alpha": [50, 50, 50]}))
    status, text = run(["curvature", "--fn", str(path),
                        "--at", "10.0,10.0,10.0"])
    assert status == 2
    assert json.loads(text)["error"]["type"] == "DomainError"


def test_importing_the_package_does_not_load_scipy():
    code = "import prodgeo, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_the_command_line_module_does_not_load_argparse():
    code = "import prodgeo.cli, sys; assert 'argparse' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


# -- one point table per sampled box -------------------------------------------

COUNT_DOCS = {
    "acms": {"type": "acms", "gamma": 1.0, "a": [1.0, 2.0, 0.5],
             "rho": 0.5, "d": 1.0},
    "cobb_douglas": {"type": "cobb_douglas", "gamma": 1.2,
                     "alpha": [0.3, 0.3, 0.4]},
    "quasi_sum": {"type": "quasi_sum",
                  "outer": {"form": "power", "coefficient": 1.0,
                            "exponent": 2.0},
                  "inner": [{"form": "power", "coefficient": 2.0,
                             "exponent": 0.5},
                            {"form": "power", "coefficient": 3.0,
                             "exponent": 0.5}]},
    "quasi_sum_shifted": {"type": "quasi_sum",
                          "outer": {"form": "power", "coefficient": 1.0,
                                    "exponent": 2.0, "shift": 1e12},
                          "inner": [{"form": "power", "coefficient": 0.5,
                                     "exponent": 0.5}] * 2},
    "ratio": {"type": "ratio", "outer": {"form": "log", "coefficient": 1.0}},
    "ratio_shifted": {"type": "ratio", "outer": {"form": "log",
                                                 "coefficient": 1.0,
                                                 "shift": 2.0}},
}


@pytest.mark.parametrize("name", sorted(COUNT_DOCS))
def test_a_sampled_box_is_evaluated_once(tmp_path, monkeypatch, name):
    calls = collections.Counter()
    kernel, pair_sums = FunctionExpr._kernel, elasticity._pair_sums

    def counted(self, x):
        calls["_kernel"] += 1
        return kernel(self, x)

    def counted_sums(*args):
        calls["_pair_sums"] += 1
        return pair_sums(*args)

    monkeypatch.setattr(FunctionExpr, "_kernel", counted)
    monkeypatch.setattr(elasticity, "_pair_sums", counted_sums)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(COUNT_DOCS[name]))
    # verify 1.1 classifies the quasi-sum rewrite of a Cobb-Douglas, ACMS or
    # ratio document on the document's own point table.  Detection forms
    # every pair's Hicks sums once; only classify and verify 1.1 form them
    # again, for the CES residual gate, while the curvature theorems read a
    # quasi-sum's case from its normal form.
    for argv, sums in ((["verify", "--theorem", "4.1"], 1),
                       (["verify", "--theorem", "4.2"], 1), (["classify"], 2),
                       (["elasticity"], 1),
                       (["verify", "--theorem", "1.1"], 2)):
        calls.clear()
        status, _ = run([*argv, "--fn", str(path), "--samples", "200"])
        assert status == 0
        assert calls == {"_kernel": 1, "_pair_sums": sums}, argv


def test_a_shifted_quasi_sum_evaluates_its_shift_free_copy_once(monkeypatch):
    # The Euler gap reads the outer function with its shift set to 0 at the
    # table's inner sum, in the one kernel pass.  At shift 1e12, f - shift
    # would keep about five digits of the shift-free value u^2 ~ 25 (a gap
    # of 4e-6).
    calls = collections.Counter()
    kernel = FunctionExpr._kernel

    def counted(self, x):
        calls[self.params["spec"].outer.shift] += 1
        return kernel(self, x)

    monkeypatch.setattr(FunctionExpr, "_kernel", counted)
    for shift in (3.0, 1e12):
        spec = QuasiSumSpec(
            outer=ScalarFn("power", 1.0, exponent=2.0, shift=shift),
            inner=(ScalarFn("power", 2.0, exponent=0.5),
                   ScalarFn("power", 3.0, exponent=0.5)))
        calls.clear()
        report = verify_theorem_41(build_quasi_sum(spec), samples=50)
        assert calls == {shift: 1}
        assert report["conclusion_check"]["euler_degree_gap"] <= 1e-12


@pytest.mark.parametrize("name", sorted(COUNT_DOCS))
def test_document_commands_read_tables_not_jets(tmp_path, monkeypatch, name):
    # Every command reads kernel tables; a point command the one-row table
    # of its point.
    rows = []
    kernel = FunctionExpr._kernel

    def counted(self, x):
        rows.append(len(x))
        return kernel(self, x)

    monkeypatch.setattr(FunctionExpr, "_kernel", counted)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(COUNT_DOCS[name]))
    at = ["--at", ",".join(["1.5"] * expr_from_dict(COUNT_DOCS[name]).n)]
    for argv in (["eval", *at], ["elasticity", *at], ["curvature", *at],
                 ["scan"], ["classify"], ["verify", "--theorem", "1.1"],
                 ["verify", "--theorem", "4.1"],
                 ["verify", "--theorem", "4.2"]):
        rows.clear()
        status, text = run([*argv, "--fn", str(path), "--samples", "16"])
        assert status == 0, (argv, text)
        if "--at" in argv:
            assert rows == [1], (argv, rows)


@pytest.mark.parametrize("name", sorted(COUNT_DOCS))
def test_batched_commands_never_assemble_the_hessian(tmp_path, monkeypatch,
                                                     name):
    hessian = PointTable.hessian.fget

    def one_row_only(table):
        assert len(table.value) == 1, f"Hessian of {len(table.value)} rows"
        return hessian(table)

    monkeypatch.setattr(PointTable, "hessian", property(one_row_only))
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(COUNT_DOCS[name]))
    for argv in (["scan"], ["elasticity"], ["classify"],
                 ["verify", "--theorem", "1.1"], ["verify", "--theorem", "4.1"],
                 ["verify", "--theorem", "4.2"]):
        status, text = run([*argv, "--fn", str(path), "--samples", "16"])
        assert status == 0, (argv, text)


# The sampled-box commands rebuilt the way they ran before the point table:
# point by point, each point a one-row table.

NORMALISED = {"max_deviation", "ces", "gauss_kronecker_scaled",
              "flatness_residual", "max_det_cancellation",
              "max_minor_cancellation", "euler_degree_gap", "max_residual"}


UNIT = Fraction(1, 2 ** 53)  # unit roundoff of float64
# NumPy's pow taken as 4 ulp (eight roundings of u): a margin over the
# 1.1 ulp measured for integer exponents on x86-64 with AVX-512.
POW_ROUNDINGS = 8


def _gamma(k):
    """gamma_k = k u / (1 - k u): k roundings, each a factor (1 + d)^(+-1)
    with |d| <= u, lie within 1 +- gamma_k."""
    return k * UNIT / (1 - k * UNIT)


def _exact_axis_terms(x, d1, d2):
    """A = 1/(x h') and B = -h''/h'^2 of one axis, in exact rationals."""
    return 1 / (x * d1), -d2 / (d1 * d1)


def _exact_inner(h, x):
    """h' and h'' of a log, affine or integer-power ScalarFn at the rational
    x, exactly, with the roundings of the float h' and h'' the kernel forms
    (Cobb-Douglas's alpha/x and -(alpha/x)/x count as the log's)."""
    c = Fraction(h.coefficient)
    if h.form == "log":
        return c / x, -c / (x * x), 1, 2
    if h.form == "affine":
        return c, Fraction(0), 0, 0
    p = int(h.exponent)
    return (c * p * x ** (p - 1), c * p * (p - 1) * x ** (p - 2),
            2 + POW_ROUNDINGS, 3 + POW_ROUNDINGS)


def _check_hicks(h, a, b, gamma_num, gamma_den):
    """The float H (one cell) against the exact (a_lo + a_hi) / (b_lo +
    b_hi), when the float sums are within gamma_num sum |a| and gamma_den
    sum |b| =: e_n, e_d of the exact ones.  Then num_f / den_f is within
    (e_n + |H| e_d) / (|den| - e_d) of H, and its rounding adds u |H_f| /
    (1 - u).  A tagged (non-finite) H must have a vanishing exact
    denominator by the same rule.  True when a finite value was checked."""
    num, den = sum(a), sum(b)
    e_n = gamma_num * sum(map(abs, a))
    e_d = gamma_den * sum(map(abs, b))
    if not math.isfinite(h):
        assert abs(den) <= tolerances.DEGENERACY_EPS * (1 + gamma_den) \
            * sum(map(abs, b)) + e_d
        return False
    assert abs(den) > e_d
    exact = num / den
    got = Fraction(h)
    assert abs(got - exact) <= (e_n + abs(exact) * e_d) / (abs(den) - e_d) \
        + UNIT * abs(got) / (1 - UNIT), (h, float(exact))
    return True


def _exact_documents():
    """Documents whose h' and h'' have exact rational forms: Cobb-Douglas
    and quasi-sums with log, affine or integer-power inners."""
    rng = make_rng(364)
    exprs = [random_cobb_douglas(rng, n) for n in range(2, 6)]
    exprs += [build_quasi_sum(random_log_spec(rng, n)) for n in range(2, 6)]
    exprs += [build_quasi_sum(random_ratio_spec(rng)) for _ in range(3)]
    exprs += [build_quasi_sum(QuasiSumSpec(outer=outer, inner=inner))
              for outer, inner in (
        (ScalarFn("power", 0.8, exponent=0.5),
         (ScalarFn("power", 1.3, exponent=2.0),
          ScalarFn("power", 0.7, exponent=3.0), ScalarFn("affine", 2.0))),
        (ScalarFn("exp", 0.6),
         (ScalarFn("log", 0.8), ScalarFn("affine", 1.5),
          ScalarFn("power", -2.0, exponent=-1.0),
          ScalarFn("power", -0.5, exponent=-2.0))),
        (ScalarFn("affine", 1.2, shift=0.3),
         (ScalarFn("power", 1.1, exponent=1.0),
          ScalarFn("power", 0.4, exponent=4.0))))]
    return exprs


def test_ces_residuals_are_the_exact_cancellation_of_the_hicks_terms():
    # A_k = 1/(x_k h_k') and B_k = -h_k''/h_k'^2 in exact rationals from the
    # table's float x, h' and h''.  The float A and B take two roundings
    # each.  With t = (B_lo, B_hi, -A_lo/sigma, -A_hi/sigma) the residual is
    # sum t / sum |t|; each t_k passes through at most three more roundings
    # in the numerator and in the size, so both are within GAMMA_5 sum |t| of
    # their exact values, their quotient within 2 GAMMA_5 / (1 - GAMMA_5),
    # and the last division adds one rounding.  H's sums of two float terms
    # are within GAMMA_3 of the sizes of their exact terms.
    gamma_5 = _gamma(5)
    bound = 2 * gamma_5 / (1 - gamma_5) * (1 + UNIT) + UNIT
    rng = make_rng(363)
    exprs = _kernel_cases() + [build_cobb_douglas(1.0, (0.5, 0.5)),
                               build_acms(1.0, (1.3, 0.7), 1.0 - 1e-9, 2.0)]
    wide = log_uniform(((1e-150, 1e150),) * 2, 4, 1)
    checked = finite = 0
    for expr in exprs:
        points = random_points(rng, expr.n, 4)
        if expr.n == 2 and expr.family == "cobb_douglas":
            points = np.vstack([points, wide])
        table = expr.derivatives(points)
        lo, hi = index_pairs(expr.n)
        _, _, d1, d2 = table.factors
        terms = [[_exact_axis_terms(*map(Fraction, (x, s, c)))
                  for x, s, c in zip(*row)]
                 for row in zip(points.tolist(), d1.tolist(), d2.tolist())]
        hicks = hicks_values(table, lo, hi).tolist()
        for p, row in enumerate(hicks):
            for q, h in enumerate(row):
                (a_lo, b_lo), (a_hi, b_hi) = terms[p][lo[q]], terms[p][hi[q]]
                finite += _check_hicks(h, (a_lo, a_hi), (b_lo, b_hi),
                                       _gamma(3), _gamma(3))
        # sigma = 1 and 2 are the identities of the Cobb-Douglas and
        # rho = 0.5 ACMS cases, which cancel; the ratio cases cancel always.
        for sigma in (0.4, 1.0, 2.0, -3.0, 1e3):
            got = ces_residuals(table, sigma, lo, hi).tolist()
            for p, row in enumerate(got):
                for q, r in enumerate(row):
                    (a_lo, b_lo), (a_hi, b_hi) = (terms[p][lo[q]],
                                                  terms[p][hi[q]])
                    t = (b_lo, b_hi, -a_lo / Fraction(sigma),
                         -a_hi / Fraction(sigma))
                    size = sum(map(abs, t))
                    want = sum(t) / size if size else 0
                    assert abs(Fraction(r) - want) <= bound, \
                        (expr.family, sigma, r, float(want))
                    checked += 1
    assert checked >= 2000 and finite >= 300


def test_hicks_values_match_the_exact_derivatives_of_the_parameters():
    # H against A and B formed from the exact h' and h'' of the document's
    # float parameters at the float points.  With h' and h'' rounded k1 and
    # k2 times (_exact_inner), the float A = 1/(x h') takes k1 + 2 roundings
    # and B = -(h''/h')/h' takes k2 + 2 k1 + 2; the sums one more each.
    rng = make_rng(365)
    finite = 0
    for expr in _exact_documents():
        inner = as_quasi_sum(expr).inner
        points = random_points(rng, expr.n, 6)
        hicks = hicks_values(expr.derivatives(points), *index_pairs(expr.n))
        for x, row in zip(points.tolist(), hicks.tolist()):
            axes = []
            for h, xk in zip(inner, map(Fraction, x)):
                d1, d2, k1, k2 = _exact_inner(h, xk)
                axes.append((*_exact_axis_terms(xk, d1, d2), k1, k2))
            for (i, j), value in zip(zip(*index_pairs(expr.n)), row):
                (a_i, b_i, k1_i, k2_i), (a_j, b_j, k1_j, k2_j) = \
                    axes[i], axes[j]
                k1, k2 = max(k1_i, k1_j), max(k2_i, k2_j)
                finite += _check_hicks(value, (a_i, a_j), (b_i, b_j),
                                       _gamma(k1 + 3), _gamma(k2 + 2 * k1 + 3))
    assert finite >= 200


def _assert_same(got, want, key=""):
    """Equal structure, strings and counts; normalised residuals within
    1e-12 absolute, every other float within 1e-13 relative."""
    if isinstance(want, dict):
        assert set(got) == set(want), key
        for k in want:
            _assert_same(got[k], want[k], k)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_same(g, w, key)
    elif isinstance(want, float):
        assert isinstance(got, float), (key, got)
        if not math.isfinite(want):
            assert got == want, key
        elif key in NORMALISED:
            assert abs(got - want) <= 1e-12, (key, got, want)
        else:
            assert abs(got - want) <= 1e-13 * abs(want), (key, got, want)
    else:
        assert got == want and type(got) is type(want), (key, got, want)


def _tag(h: float) -> dict:
    if math.isfinite(h):
        return {"kind": "finite", "value": h}
    return {"kind": "degenerate" if math.isnan(h) else "infinite",
            "value": None}


def _reference_detection(expr, points) -> dict:
    lo, hi = index_pairs(expr.n)
    rows = [hicks_values(expr.derivatives([x]), lo, hi)[0].tolist()
            for x in points]
    values = [h for row in rows for h in row]
    first = rows[0][0]
    if math.isfinite(first) and first != 0.0:
        sigma = first
    else:
        sigma = next((h for row in rows[1:] for h in row
                      if math.isfinite(h) and h != 0.0), None)
    finite = sum(map(math.isfinite, values))
    degenerate = sum(map(math.isnan, values))
    infinite = len(values) - finite - degenerate
    max_dev = max((abs(h - sigma) / max(1.0, abs(sigma))
                   for h in values if math.isfinite(h) and sigma is not None),
                  default=0.0)
    if degenerate and not finite and not infinite:
        verdict = "DegenerateCES"
    elif (sigma is not None and not infinite
          and max_dev <= tolerances.CES_CONSTANCY_RTOL):
        verdict = "RegularCES"
    else:
        verdict = "NotCES"
    return {"verdict": verdict,
            "sigma_estimate": sigma if verdict == "RegularCES" else None,
            "max_deviation": max_dev,
            "center_pair_values": {f"{i + 1},{j + 1}": _tag(h)
                                   for i, j, h in zip(lo, hi, rows[0])},
            "n_points": len(points), "finite_pairs": finite,
            "infinite_pairs": infinite, "degenerate_pairs": degenerate}


def _reference_fit(spec):
    coeffs = tuple(h.coefficient for h in spec.inner)
    if all(h.form == "log" for h in spec.inner):
        if spec.n == 2 and abs(coeffs[0] + coeffs[1]) <= \
                tolerances.PARAMETER_MATCH_TOL * max(map(abs, coeffs)):
            return ("RatioTwoInput", None, coeffs, -1.0 / coeffs[0], 2.0)
        return ("HomotheticCobbDouglas", 1.0, coeffs, None, 1.0)
    p = spec.inner[0].exponent
    if p in (None, 1.0) or any(
            h.form != "power" or abs(h.exponent - p)
            > tolerances.PARAMETER_MATCH_TOL * max(1.0, abs(p))
            for h in spec.inner):
        return None
    sigma = 1.0 / (1.0 - p)
    return ("HomotheticACMS", sigma, coeffs, None, sigma)


def _reference_classification(spec, box, samples, seed) -> dict:
    expr = build_quasi_sum(spec, box)
    points = [box_center(box), *log_uniform(box, samples, seed)]
    detection = _reference_detection(expr, points)
    fit = _reference_fit(spec)
    out = {"case": "NotCES", "sigma": None, "fitted_inner_parameters": None,
           "separation_constant_k": None, "residuals": {"ces": math.inf},
           "detection": detection}
    if fit is None:
        return out
    case, sigma, fitted, k, sigma_ref = fit
    ces = max(abs(ces_residuals(expr.derivatives([x]), sigma_ref, i, j)[0])
              for x in points
              for i, j in itertools.combinations(range(spec.n), 2))
    out["residuals"] = {"ces": ces}
    if ces <= tolerances.CES_RESIDUAL_TOL:
        out.update(case=case, sigma=sigma, fitted_inner_parameters=list(fitted),
                   separation_constant_k=k)
    return out


def _reference_outer_ode(expr, points, case):
    p = expr.params
    if expr.family == "acms" and p["rho"] != 1.0:
        outer = ScalarFn("power", p["gamma"], exponent=p["d"] / p["rho"])
        return max(_power_form_defect(
            outer, 1.0 / (1.0 - p["rho"]),
            math.fsum(w * xi ** p["rho"] for w, xi in zip(p["weights"], x)))
            for x in points)
    if expr.family == "cobb_douglas":
        # gamma e^v in log coordinates: P' = P'' = f.
        alpha = math.fsum(p["alpha"])
        return max(_log_form_defect(alpha, f, f)
                   for f in map(expr.value, points))
    spec = p.get("spec")
    if case == "HomotheticACMS":
        sigma = 1.0 / (1.0 - spec.inner[0].exponent)
        return max(_power_form_defect(spec.outer, sigma, spec.inner_sum(x))
                   for x in points)
    if case == "HomotheticCobbDouglas":
        # alpha P'' = P' for P(v) = F(e^v), at v = the inner sum.
        alpha = math.fsum(h.coefficient for h in spec.inner)
        return max(_log_form_defect(
            alpha, *spec.outer.derivatives(spec.inner_sum(x))[1:])
            for x in points)
    return None


def _log_form_defect(alpha, d1, d2):
    """Relative defect of alpha P'' = P' from P' and P''."""
    return abs(alpha * d2 - d1) / max(abs(alpha * d2), abs(d1))


def _power_form_defect(outer, sigma, u):
    """Relative defect of F'(u) = (sigma - 1) u F''(u) at the argument u, 0
    where both sides vanish; zero exactly for F(u) = c u^(sigma/(sigma-1))
    + s."""
    _, d1, d2 = outer.derivatives(u)
    rhs = (sigma - 1.0) * u * d2
    scale = max(abs(d1), abs(rhs))
    return 0.0 if scale == 0.0 else float(abs(d1 - rhs) / scale)


def _point_cancellation(expr, x, statistic):
    """``det_cancellation`` or ``minor_cancellation`` at one point, from a
    one-row call."""
    table = expr.derivatives([x])
    value = surface_curvatures(table)["det_cancellation"]
    if statistic == "minor_cancellation":
        value = _minor_cancellation(table, value)
    return float(value[0])


def _check_curvature_report(verify, theorem, expr, box, samples, seed):
    points = [box_center(box), *log_uniform(box, samples, seed)]
    detection = _reference_detection(expr, points)
    if detection["verdict"] == "NotCES":
        with pytest.raises(HypothesisError):
            verify(expr, box, samples=samples, seed=seed)
        return None
    report = verify(expr, box, samples=samples, seed=seed)
    geometries = [graph_geometry(expr, x) for x in points]
    _assert_same(report["per_point_data"], [
        {"point": [float(v) for v in x],
         "gauss_kronecker": g["gauss_kronecker"],
         "gauss_kronecker_scaled": g["gauss_kronecker_scaled"],
         "flatness_residual": g["flatness_residual"]}
        for x, g in zip(points, geometries)])
    vanish, clear = (tolerances.VANISHING_CURVATURE_TOL,
                     tolerances.CLEAR_CURVATURE_TOL)
    statistic = "det_cancellation" if theorem == "4.1" \
        else "minor_cancellation"
    residual = "max_" + statistic
    worst = max(_point_cancellation(expr, x, statistic) for x in points)
    hypothesis = True if worst <= vanish else (False if worst > clear
                                               else None)
    check = report["hypothesis_check"]
    assert check["ces_verdict"] == detection["verdict"]
    _assert_same(check["sigma_estimate"], detection["sigma_estimate"])
    _assert_same(check[residual], worst, residual)
    assert report["hypothesis_holds"] is hypothesis
    matches = report["conclusion_holds"]
    assert report["verdict"] == ("DegenerateHypothesis" if hypothesis is None
                                 else "Consistent" if hypothesis == matches
                                 else "Inconsistent")

    conclusion = report["conclusion_check"]
    case = None
    if expr.family == "quasi_sum":
        case = _reference_classification(as_quasi_sum(expr), box, samples,
                                         seed)["case"]
        assert conclusion["classification_case"] == case
    bare = shift_free(expr)
    try:
        gap = max(abs(euler_quotients(bare.derivatives([x]))[0] - 1.0)
                  for x in points)
    except DomainError:
        gap = math.inf
    _assert_same(conclusion["euler_degree_gap"], gap, "euler_degree_gap")
    ode = _reference_outer_ode(expr, points, case)
    if ode is None:
        assert "outer_ode" not in conclusion
    else:
        _assert_same(conclusion["outer_ode"]["max_residual"], ode,
                     "max_residual")
    return report["verdict"]


def _box_cases():
    rng = make_rng(906)
    cases = []
    for n in range(2, 6):
        cases += [
            random_cobb_douglas(rng, n), random_cobb_douglas(rng, n, 1.0),
            random_acms(rng, n), random_acms(rng, n, d=1.0, clear_rho=True),
            build_quasi_sum(random_power_spec(rng, n, degree_one=True)),
            build_quasi_sum(random_power_spec(rng, n, shifts=True)),
            build_quasi_sum(random_log_spec(rng, n, degree_one=True)),
            build_quasi_sum(random_log_spec(rng, n)),
            build_quasi_sum(random_mixed_spec(rng, n))]
    cases += [build_quasi_sum(random_ratio_spec(rng))]
    cases += [random_ratio_expr(rng) for _ in range(3)]
    # Two linear inners: H_12 is infinite at the box center, so detection
    # takes its reference sigma from the first finite pair of the samples.
    cases.append(build_quasi_sum(QuasiSumSpec(
        outer=ScalarFn("exp", 0.5),
        inner=(ScalarFn("affine", 1.0), ScalarFn("affine", 2.0),
               ScalarFn("power", 1.0, exponent=0.5)))))
    return cases


def test_point_table_reports_match_the_point_by_point_api():
    samples = 24
    seen = collections.Counter()
    for k, expr in enumerate(_box_cases()):
        box, seed = default_box(expr.n), k
        for theorem, verify in (("4.1", verify_theorem_41),
                                ("4.2", verify_theorem_42)):
            seen[theorem, _check_curvature_report(
                verify, theorem, expr, box, samples, seed)] += 1
        try:
            spec = as_quasi_sum(expr)
        except SpecError:
            with pytest.raises(SpecError):
                classify_quasi_sum(expr, box, samples=samples, seed=seed)
            with pytest.raises(SpecError):
                verify_theorem_11(expr, box, samples=samples, seed=seed)
            continue
        want = _reference_classification(spec, box, samples, seed)
        _assert_same(classify_quasi_sum(expr, box, samples=samples,
                                        seed=seed), want)
        seen[want["case"]] += 1
        report = verify_theorem_11(expr, box, samples=samples, seed=seed)
        points = [box_center(box), *log_uniform(box, samples, seed)]
        detection = _reference_detection(expr, points)
        # verify 1.1 reports the detection once, in its hypothesis check.
        _assert_same(report["conclusion_check"]["classification"],
                     {k: v for k, v in want.items() if k != "detection"})
        _assert_same(report["hypothesis_check"], {
            key: value for key, value in detection.items()
            if key != "verdict"} | {"ces_verdict": detection["verdict"]})
        hypothesis = detection["verdict"] != "NotCES"
        assert report["hypothesis_holds"] is hypothesis
        assert report["verdict"] == ("Consistent"
                                     if hypothesis == (want["case"] != "NotCES")
                                     else "Inconsistent")
    # Every case and both curvature verdicts are exercised.
    for key in ("HomotheticACMS", "HomotheticCobbDouglas", "RatioTwoInput",
                "NotCES", ("4.1", "Consistent"), ("4.1", None),
                ("4.2", "Consistent"), ("4.2", "Inconsistent")):
        assert seen[key] > 0, (key, seen)
