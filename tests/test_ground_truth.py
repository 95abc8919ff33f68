"""Theorems 4.1, 4.2 and 1.1 across the paper's parameter space, and ACMS
with rho near 1.

Every linearly homogeneous ACMS, Cobb-Douglas or power quasi-sum has a
graph of vanishing Gauss-Kronecker curvature, so ``verify --theorem 4.1``
must read "G vanishes" and "degree-one family" together (``Consistent``
with ``hypothesis_holds`` true).  Its twin of another degree (d in
{0.6, 1.5}, or shares scaled by 0.7 or 1.4) must read neither
(``Consistent`` with ``hypothesis_holds`` false).  ``verify --theorem 4.2``
must read the same with two inputs; with three or more no graph is flat,
so the degree-one document is ``Inconsistent`` and its twin ``Consistent``,
both with ``hypothesis_holds`` false.  The documents reach far
past the well-conditioned ranges of ``conftest``: rho in [-8, -2], ACMS and
inner coefficients over six decades, Cobb-Douglas shares down to 1e-7, and
boxes up to [0.01, 100]^n, where the entries F' h_i'' + F'' h_i'^2 of the
Hessian cancel to a few digits.  Both reports carry the same outer-ODE
residual, which must equal its closed form to within 8 eps.

On the same documents ``verify --theorem 1.1`` must read a constant
elasticity and the structural case that built the document: Cobb-Douglas
is ``HomotheticCobbDouglas`` and the power quasi-sum ``HomotheticACMS``,
whatever the degree.  ACMS with rho < 0 and d > 0 has d/rho < 0, so it has
no increasing quasi-sum form and Theorem 1.1 does not apply to it.

ACMS with rho = 1 - 10^[-12, -3] has sigma = 1/(1 - rho) up to 1e12, and
its F'' parts dominate the Hessian.  Elasticity, classification and both
theorem checks must still read a constant elasticity equal to that sigma.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from prodgeo import (
    QuasiSumSpec, ScalarFn, SpecError, build_acms, build_cobb_douglas,
    build_quasi_sum, classify_quasi_sum, detect_ces, verify_theorem_11,
    verify_theorem_41, verify_theorem_42,
)
from prodgeo.cli import run
from conftest import log_uniform_scalar, make_rng

TWIN_DEGREES = (0.6, 1.5)
TWIN_SHARE_SCALES = (0.7, 1.4)


def _box(rng, n):
    """Per axis lo in [0.01, 1] and hi in [max(2 lo, 1), 100], log-uniform;
    one box in four is the whole [0.01, 100]^n."""
    if rng.random() < 0.25:
        return ((0.01, 100.0),) * n
    out = []
    for _ in range(n):
        lo = log_uniform_scalar(rng, 0.01, 1.0)
        out.append((lo, log_uniform_scalar(rng, max(2.0 * lo, 1.0), 100.0)))
    return tuple(out)


def _acms_pair(rng, n, box):
    gamma = log_uniform_scalar(rng, 0.3, 3.0)
    a = [log_uniform_scalar(rng, 1e-3, 1e3) for _ in range(n)]
    rho = float(rng.uniform(-8.0, -2.0))
    return (build_acms(gamma, a, rho, 1.0),
            build_acms(gamma, a, rho, float(rng.choice(TWIN_DEGREES))))


def _cobb_douglas_pair(rng, n, box):
    gamma = log_uniform_scalar(rng, 0.3, 3.0)
    raw = np.array([log_uniform_scalar(rng, 1e-7, 1.0) for _ in range(n)])
    alpha = raw / raw.sum()
    return (build_cobb_douglas(gamma, alpha),
            build_cobb_douglas(gamma, alpha * rng.choice(TWIN_SHARE_SCALES)))


def _power_pair(rng, n, box):
    coefficient = log_uniform_scalar(rng, 0.3, 3.0)
    inner = tuple(ScalarFn("power", log_uniform_scalar(rng, 1e-3, 1e3),
                           exponent=3.0) for _ in range(n))

    def build(degree):
        outer = ScalarFn("power", coefficient, exponent=degree / 3.0)
        return build_quasi_sum(QuasiSumSpec(outer=outer, inner=inner), box)
    return build(1.0), build(float(rng.choice(TWIN_DEGREES)))


def _cases(count=400):
    rng = make_rng(4101)
    for k in range(count):
        for maker in (_acms_pair, _cobb_douglas_pair, _power_pair):
            n = 2 + k % 5
            box = _box(rng, n)
            yield (maker.__name__, k, box, *maker(rng, n, box))


# |max_residual - exact| of ``outer_ode``: its ratios are formed with a
# few roundings, and the largest distance seen is under 3 ulps.
OUTER_ODE_ATOL = 8 * float(np.finfo(float).eps)


def _exact_outer_ode(expr):
    """The outer-ODE defect of a ``_cases`` document in closed form, the
    same at every point: ACMS F' = (sigma - 1) u F'' with sigma - 1 =
    rho / (1 - rho) and u F'' = (d/rho - 1) F'; Cobb-Douglas alpha P'' = P'
    with P' = P''; the power quasi-sum F' = r F' with r = (sigma - 1)(q - 1)
    for inner exponent 3 (sigma - 1 = -3/2) and outer exponent q."""
    p = expr.params
    if expr.family == "acms":
        rho, d = p["rho"], p["d"]
        return abs(1 - d) / max(abs(1 - rho), abs(d - rho))
    if expr.family == "cobb_douglas":
        alpha = math.fsum(p["alpha"])
        return abs(alpha - 1) / max(alpha, 1)
    r = -1.5 * (p["spec"].outer.exponent - 1)
    return abs(1 - r) / max(1, abs(r))


def _outer_ode_gap(report, expr):
    return abs(report["conclusion_check"]["outer_ode"]["max_residual"]
               - _exact_outer_ode(expr))


def test_degree_one_documents_and_their_twins_across_the_parameter_space():
    wrong = []
    for name, k, box, degree_one, twin in _cases():
        for expr, holds in ((degree_one, True), (twin, False)):
            report = verify_theorem_41(expr, box, samples=64, seed=k)
            if report["verdict"] != "Consistent" or \
                    report["hypothesis_holds"] is not holds or \
                    _outer_ode_gap(report, expr) > OUTER_ODE_ATOL:
                wrong.append((name, k, holds, report["verdict"],
                              report["hypothesis_check"]))
    assert wrong == []


def test_theorem_42_across_the_parameter_space():
    # With two inputs the graph is flat exactly when G vanishes, so 4.2
    # reads as 4.1 does.  With three or more, a pair of index pairs sharing
    # one index has the minor +-D_s c u_a u_b, nonzero for every document
    # here, so neither graph is flat and the degree-one one is Inconsistent.
    wrong = []
    for name, k, box, degree_one, twin in _cases():
        for expr, degree in ((degree_one, True), (twin, False)):
            report = verify_theorem_42(expr, box, samples=64, seed=k)
            want = (("Consistent", degree) if expr.n == 2 else
                    ("Inconsistent" if degree else "Consistent", False))
            if (report["verdict"], report["hypothesis_holds"]) != want or \
                    _outer_ode_gap(report, expr) > OUTER_ODE_ATOL:
                wrong.append((name, k, degree, report["verdict"],
                              report["hypothesis_check"]))
    assert wrong == []


# The case verify 1.1 must classify each generator's documents into.
THEOREM_11_CASES = {"_cobb_douglas_pair": "HomotheticCobbDouglas",
                    "_power_pair": "HomotheticACMS"}


def test_theorem_11_reads_the_constructing_case_across_the_parameter_space():
    wrong = []
    for name, k, box, degree_one, twin in _cases():
        for expr in (degree_one, twin):
            if name not in THEOREM_11_CASES:
                with pytest.raises(SpecError, match="d/rho <= 0"):
                    verify_theorem_11(expr, box, samples=64, seed=k)
                continue
            report = verify_theorem_11(expr, box, samples=64, seed=k)
            case = report["conclusion_check"]["classification"]["case"]
            if (report["verdict"], report["hypothesis_holds"], case) != \
                    ("Consistent", True, THEOREM_11_CASES[name]):
                wrong.append((name, k, report["verdict"], case))
    assert wrong == []


@pytest.mark.parametrize("doc, box", [
    ({"type": "acms", "gamma": 1, "a": [2.756, 0.132], "rho": -5, "d": 1},
     []),
    ({"type": "acms", "gamma": 1, "a": [3.7905, 4.2383], "rho": -5, "d": 1},
     ["--box", "0.01:100.0,0.01:100.0"]),
    ({"type": "cobb_douglas", "gamma": 1, "alpha": [0.9999999, 0.0000001]},
     []),
], ids=["acms-default-box", "acms-wide-box", "cobb-douglas-tiny-share"])
def test_reported_degree_one_cases_read_vanishing_curvature(tmp_path, doc, box):
    # Degree-one documents whose Hessian entries cancel to a few digits:
    # their largest scaled G is 4.1e-8, 0.50 and 8.3e-10, far above
    # VANISHING_CURVATURE_TOL, while the terms of det Hess cancel exactly.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    status, text = run(["verify", "--fn", str(path), "--theorem", "4.1",
                        *box])
    assert status == 0
    report = json.loads(text)["report"]
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["hypothesis_check"]["max_det_cancellation"] <= 1e-15


# -- ACMS with rho near 1 -----------------------------------------------------

NEAR_ONE_DEGREES = (0.6, 1.5, 2.0, 3.0)
UNIT = Fraction(1, 2 ** 53)  # unit roundoff of float64
# For ACMS, B_k = (1 - rho) A_k in exact arithmetic, both from the same float
# h_k' > 0, with 1 - rho exact.  A = 1/(x h') takes two roundings, B four
# (the kernel's (rho - 1) h'/x, then two divisions by h'), each two-term
# sum one more and the quotient one: every finite H, so every reported
# sigma, is within gamma_9 of 1/(1 - rho), and max_deviation within
# 2 gamma_9 / (1 - gamma_9).
SIGMA_NEAR_ONE_RTOL = 9 * UNIT / (1 - 9 * UNIT)


def _sigma_error(value, rho):
    """Relative distance of a reported sigma from the exact 1/(1 - rho), or
    None when no sigma was reported."""
    if value is None:
        return None
    exact = 1 / (1 - Fraction(rho))
    return abs(Fraction(value) - exact) / exact


def _near_one_faults(expr, seed):
    """What elasticity, classify, verify 1.1 and verify 4.1 get wrong on
    an ACMS with rho near 1, at their default samples on the default box."""
    rho, degree_one = expr.params["rho"], expr.params["d"] == 1.0
    faults = []
    detection = detect_ces(expr, seed=seed)
    error = _sigma_error(detection["sigma_estimate"], rho)
    if detection["verdict"] != "RegularCES" or error > SIGMA_NEAR_ONE_RTOL or \
            detection["max_deviation"] > 2 * SIGMA_NEAR_ONE_RTOL / (
                1 - SIGMA_NEAR_ONE_RTOL):
        faults.append(("elasticity", detection["verdict"], error,
                       detection["max_deviation"]))
    cls = classify_quasi_sum(expr, seed=seed)
    errors = [_sigma_error(v, rho)
              for v in (cls["sigma"], cls["detection"]["sigma_estimate"])]
    if cls["case"] != "HomotheticACMS" or None in errors or \
            max(errors) > SIGMA_NEAR_ONE_RTOL:
        faults.append(("classify", cls["case"], errors))
    report = verify_theorem_11(expr, seed=seed)
    if report["verdict"] != "Consistent" or \
            report["hypothesis_check"]["sigma_estimate"] != \
            cls["detection"]["sigma_estimate"]:
        faults.append(("verify 1.1", report["verdict"],
                       report["hypothesis_check"]["sigma_estimate"]))
    report = verify_theorem_41(expr, seed=seed)
    if report["verdict"] != "Consistent" or \
            report["hypothesis_holds"] is not degree_one:
        faults.append(("verify 4.1", report["verdict"],
                       report["hypothesis_check"]["max_det_cancellation"]))
    return faults


def test_acms_with_rho_near_one_keeps_its_elasticity():
    rng = make_rng(1101)
    wrong = []
    for k in range(1000):
        n = 2 + k % 2
        rho = 1.0 - 10.0 ** rng.uniform(-12.0, -3.0)
        d = 1.0 if k % 4 < 2 else float(rng.choice(NEAR_ONE_DEGREES))
        a = [log_uniform_scalar(rng, 0.3, 3.0) for _ in range(n)]
        expr = build_acms(log_uniform_scalar(rng, 0.3, 3.0), a, rho, d)
        faults = _near_one_faults(expr, seed=k)
        if faults:
            wrong.append((k, a, rho, d, faults))
    assert wrong == []


@pytest.mark.parametrize("a, rho, d, command, theorem, samples", [
    ([1.3, 0.7], 1 - 1e-9, 2.0, "elasticity", None, 32),
    ([1.3, 0.7], 1 - 1e-11, 2.0, "elasticity", None, 32),
    ([1.3, 0.7], 1 - 1e-9, 3.0, "classify", None, 64),
    ([1.3, 0.7], 1 - 1e-9, 1.0, "verify", "4.1", 100),
    ([1.3, 0.7, 2.0], 1 - 1e-12, 2.5, "classify", None, 100),
    ([1.3, 0.7, 2.0], 1 - 1e-10, 2.5, "classify", None, 100),
], ids=["elasticity-1e-9", "elasticity-1e-11", "classify-1e-9",
        "verify-4.1-1e-9", "classify-1e-12-n3", "classify-1e-10-n3"])
def test_reported_near_one_cases(tmp_path, a, rho, d, command, theorem,
                                 samples):
    # Reported through the command line: the first two lost digits of
    # sigma or read NotCES with infinite pairs, the classify cases read
    # NotCES, and 4.1 read DegenerateHypothesis (F'' had lost the digits of
    # d/rho - 1).
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"type": "acms", "gamma": 1.0, "a": a,
                                "rho": rho, "d": d}))
    argv = [command, "--fn", str(path), "--samples", str(samples)]
    if command == "elasticity":
        argv += ["--box", ",".join(["0.5:2.0"] * len(a))]
    if theorem is not None:
        argv += ["--theorem", theorem]
    status, text = run(argv)
    assert status == 0, text
    report = json.loads(text)["report"]
    if command == "elasticity":
        assert report["verdict"] == "RegularCES"
        assert _sigma_error(report["sigma_estimate"], rho) <= \
            SIGMA_NEAR_ONE_RTOL
    elif command == "classify":
        assert report["case"] == "HomotheticACMS"
        for sigma in (report["sigma"], report["detection"]["sigma_estimate"]):
            assert _sigma_error(sigma, rho) <= SIGMA_NEAR_ONE_RTOL
    else:
        assert report["verdict"] == "Consistent"
        assert report["hypothesis_holds"] is True
