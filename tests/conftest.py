"""Shared generators and the acceptance summary hook.

Random instances are drawn from numpy Generators with fixed seeds, so every
run sees the same cases.  Parameter ranges are chosen to keep the families
well-conditioned on the canonical box [0.5, 2]^n:

* scale coefficients (gamma, c_i, a_i) are log-uniform in [0.3, 3];
* aggregator exponents rho avoid 0 and 1, where the family degenerates
  (rho = 1 makes the function linear-like and the substitution elasticity
  blows up);
* quasi-sum sigma values keep the inner exponent (sigma-1)/sigma inside
  [0.22, 3.5], away from the log case at sigma = 1;
* "clearly non-degree-one" instances stay at least 0.25 away from degree 1
  so curvature verdicts never sit on a threshold.
"""

from __future__ import annotations

import os
import pathlib
import re

import numpy as np

from prodgeo import (
    FunctionExpr, QuasiSumSpec, ScalarFn,
    build_acms, build_cobb_douglas, build_quasi_sum, build_ratio,
)
from prodgeo.geometry import hessian_det_terms
from jets import lift_variable


def pytest_configure(config):
    # Python processes started by the tests import the checkout under test
    # too: pytest's ``pythonpath`` setting reaches only this sys.path.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))

# -- scalar draws -------------------------------------------------------------


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def log_uniform_scalar(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def signed_magnitude(rng, lo: float, hi: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * log_uniform_scalar(rng, lo, hi)


def random_point(rng, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    return lo * (hi / lo) ** rng.random(n)


def random_points(rng, n: int, count: int) -> np.ndarray:
    return 0.5 * 4.0 ** rng.random((count, n))


# -- direct families ----------------------------------------------------------


def random_cobb_douglas(rng, n: int, degree: float | None = None):
    """Random product form; ``degree`` pins the exponent sum.

    Without a target degree the exponent sum is kept at least 0.25 away
    from 1 (and from 0) so the instance is never borderline homogeneous of
    degree one.
    """
    gamma = log_uniform_scalar(rng, 0.3, 3.0)
    while True:
        raw = np.array([signed_magnitude(rng, 0.2, 2.0) for _ in range(n)])
        total = float(raw.sum())
        if degree is not None:
            if abs(total) < 0.3:
                continue
            alpha = raw * (degree / total)
            if np.any(alpha == 0.0):
                continue
            return build_cobb_douglas(gamma, alpha)
        if abs(total - 1.0) >= 0.25 and abs(total) >= 0.25:
            return build_cobb_douglas(gamma, raw)


def random_rho(rng, clear: bool = False) -> float:
    """Aggregator exponent away from the degenerate values 0 and 1.

    ``clear`` restricts to {-1, 0.5, 2}, where curvature magnitudes are
    comfortably away from every verdict threshold.
    """
    if clear:
        return float(rng.choice([-1.0, 0.5, 2.0]))
    band = rng.integers(3)
    if band == 0:
        return float(rng.uniform(-2.0, -0.3))
    if band == 1:
        return float(rng.uniform(0.3, 0.7))
    return float(rng.uniform(1.5, 2.2))


def random_acms(rng, n: int, d: float | None = None,
                rho: float | None = None, clear_rho: bool = False):
    gamma = log_uniform_scalar(rng, 0.5, 2.0)
    a = [log_uniform_scalar(rng, 0.3, 3.0) for _ in range(n)]
    if rho is None:
        rho = random_rho(rng, clear=clear_rho)
    if d is None:
        d = log_uniform_scalar(rng, 0.4, 2.5)
        if abs(d - 1.0) < 0.25:
            d = 1.0 + (0.3 if d >= 1.0 else -0.3)
    return build_acms(gamma, a, rho, d)


# -- quasi-sum specs ----------------------------------------------------------


def random_sigma(rng) -> float:
    """Elasticity whose inner exponent (sigma-1)/sigma is positive and O(1)."""
    if rng.random() < 0.5:
        return float(rng.uniform(1.3, 5.0))
    return float(rng.uniform(-5.0, -0.4))


def random_power_spec(rng, n: int, degree_one: bool = False,
                      shifts: bool = False) -> QuasiSumSpec:
    """Power inners sharing the exponent (sigma-1)/sigma.

    ``degree_one`` pairs them with the power outer whose exponent is the
    reciprocal, making the composite homogeneous of degree one.  Otherwise
    the outer is a random increasing form whose degree product stays at
    least 0.25 from 1.
    """
    sigma = random_sigma(rng)
    p = (sigma - 1.0) / sigma
    inner = tuple(
        ScalarFn("power", log_uniform_scalar(rng, 0.3, 3.0), exponent=p,
                 shift=float(rng.uniform(-0.5, 0.5)) if shifts else 0.0)
        for _ in range(n))
    if degree_one:
        outer = ScalarFn("power", log_uniform_scalar(rng, 0.3, 3.0),
                         exponent=1.0 / p)
        return QuasiSumSpec(outer=outer, inner=inner)
    kind = rng.integers(3)
    if kind == 1 and p > 1.0:
        # An exp outer over inners steeper than linear makes the third
        # derivative too sharp for the finite-difference cross-checks.
        kind = 0
    if kind == 0:
        while True:
            q = log_uniform_scalar(rng, 0.3, 2.5)
            if abs(q * p - 1.0) >= 0.25:
                break
        outer = ScalarFn("power", log_uniform_scalar(rng, 0.3, 3.0),
                         exponent=q)
    elif kind == 1:
        outer = ScalarFn("exp", log_uniform_scalar(rng, 0.3, 3.0))
    else:
        outer = ScalarFn("affine", log_uniform_scalar(rng, 0.3, 3.0),
                         shift=float(rng.uniform(-1.0, 1.0)))
    return QuasiSumSpec(outer=outer, inner=inner)


def random_log_spec(rng, n: int, degree_one: bool = False) -> QuasiSumSpec:
    """Log inners (the sigma = 1 case) under an exp or increasing affine outer.

    ``degree_one`` uses an exp outer and rescales the coefficients to sum
    to one, i.e. a plain product form of degree one.
    """
    while True:
        raw = np.array([signed_magnitude(rng, 0.2, 2.0) for _ in range(n)])
        total = float(raw.sum())
        if abs(total) >= 0.3 and (degree_one or abs(total - 1.0) >= 0.25):
            break
    if degree_one:
        coeffs = raw / total
        outer = ScalarFn("exp", log_uniform_scalar(rng, 0.3, 3.0))
    else:
        coeffs = raw
        if rng.random() < 0.5:
            outer = ScalarFn("exp", log_uniform_scalar(rng, 0.3, 3.0))
        else:
            outer = ScalarFn("affine", log_uniform_scalar(rng, 0.3, 3.0),
                             shift=float(rng.uniform(-1.0, 1.0)))
    inner = tuple(ScalarFn("log", float(c),
                           shift=float(rng.uniform(-0.5, 0.5)))
                  for c in coeffs)
    return QuasiSumSpec(outer=outer, inner=inner)


def random_ratio_spec(rng) -> QuasiSumSpec:
    """Two log inners with exactly opposite coefficients."""
    beta = signed_magnitude(rng, 0.3, 2.0)
    inner = (ScalarFn("log", beta, shift=float(rng.uniform(-0.5, 0.5))),
             ScalarFn("log", -beta, shift=float(rng.uniform(-0.5, 0.5))))
    if rng.random() < 0.5:
        outer = ScalarFn("exp", log_uniform_scalar(rng, 0.3, 3.0))
    else:
        outer = ScalarFn("affine", log_uniform_scalar(rng, 0.3, 3.0),
                         shift=float(rng.uniform(-1.0, 1.0)))
    return QuasiSumSpec(outer=outer, inner=inner)


def random_mixed_spec(rng, n: int) -> QuasiSumSpec:
    """Inner functions that cannot share one substitution elasticity.

    Three shapes: power inners whose exponents differ by at least 0.3, a
    power/log mix, and an exp inner among powers.  All are built to be
    monotone on the canonical box, with the steep inners' coefficients kept
    small so third derivatives stay inside the finite-difference trust
    region.
    """
    kind = rng.integers(3)
    if kind == 0:
        base = float(rng.uniform(0.3, 0.8))
        exps = [base + 0.4 * k for k in range(n)]
        inner = tuple(
            ScalarFn("power", log_uniform_scalar(rng, 0.3, 1.5), exponent=e)
            for e in exps)
    elif kind == 1:
        inner = (ScalarFn("power", log_uniform_scalar(rng, 0.3, 1.5),
                          exponent=2.0),
                 ScalarFn("log", log_uniform_scalar(rng, 0.3, 3.0)))
        inner += tuple(
            ScalarFn("power", log_uniform_scalar(rng, 0.3, 3.0),
                     exponent=0.5)
            for _ in range(n - 2))
    else:
        inner = (ScalarFn("exp", log_uniform_scalar(rng, 0.3, 0.8)),) + tuple(
            ScalarFn("power", log_uniform_scalar(rng, 0.3, 1.5),
                     exponent=float(rng.uniform(0.4, 0.8)))
            for _ in range(n - 1))
    return QuasiSumSpec(outer=ScalarFn("exp", 1.0), inner=inner)


def random_ratio_expr(rng):
    """Two-input ratio form with a random increasing outer."""
    kind = rng.integers(3)
    if kind == 0:
        outer = ScalarFn("affine", log_uniform_scalar(rng, 0.3, 3.0),
                         shift=float(rng.uniform(-1.0, 1.0)))
    elif kind == 1:
        outer = ScalarFn("power", log_uniform_scalar(rng, 0.3, 3.0),
                         exponent=log_uniform_scalar(rng, 0.4, 2.2))
    else:
        outer = ScalarFn("exp", log_uniform_scalar(rng, 0.3, 3.0))
    return build_ratio(outer)


def random_quasi_sum_expr(rng, n: int):
    """Any valid quasi-sum expression, mixing the spec shapes above."""
    kind = rng.integers(3)
    if kind == 0:
        spec = random_power_spec(rng, n, degree_one=bool(rng.integers(2)))
    elif kind == 1:
        spec = random_log_spec(rng, n, degree_one=bool(rng.integers(2)))
    else:
        spec = random_mixed_spec(rng, n)
    return build_quasi_sum(spec)


def hessian_factors(factors) -> tuple:
    """(D, c, u) = (F' h'', F'', h') of Hess = diag(D) + c u u^T from a
    table's per-axis record (F', F'', h', h''), with D and u as (n, N)
    columns, as ``geometry.hessian_det_terms`` takes D (and c u^2)."""
    f1, f2, d1, d2 = factors
    return d2.T * f1, f2, d1.T


def factored_det(expr, point) -> float:
    """det Hess f at ``point``: the sum of the kernel's determinant terms
    over a one-row table."""
    diag, c, u = hessian_factors(expr.derivatives([point]).factors)
    return float(hessian_det_terms(diag, c * (u * u)).sum(axis=0)[0])


def shift_free(expr):
    """``expr`` with its outer function's additive constant set to 0: the
    function whose Euler quotients a verify report reads as
    ``euler_degree_gap``."""
    if expr.family == "quasi_sum":
        spec = expr.params["spec"]
        bare = QuasiSumSpec(spec.outer.replace(shift=0.0), spec.inner)
        return FunctionExpr("quasi_sum", expr.n, {"spec": bare})
    if expr.family == "ratio":
        return FunctionExpr("ratio", 2, {
            "outer": expr.params["outer"].replace(shift=0.0)})
    return expr


# -- jet-arithmetic oracle -----------------------------------------------------


def scalar_fn_jet(fn: ScalarFn, u):
    """``fn`` applied to the jet ``u`` through jet operations only, so the
    result shares no code with the closed-form table in ScalarFn."""
    c, s = fn.coefficient, fn.shift
    if fn.form == "power":
        return c * u ** fn.exponent + s
    if fn.form == "log":
        return c * u.log() + s
    if fn.form == "exp":
        return c * u.exp() + s
    return c * u + s


def jet_oracle(expr, point):
    """The family's formula evaluated in jet arithmetic at ``point``.

    An independent check on the batched kernel in ``FunctionExpr``: it
    builds every derivative by the chain and product rules instead of the
    quasi-sum assembly.
    """
    x = np.asarray(point, dtype=float)
    xs = [lift_variable(i, x[i], expr.n) for i in range(expr.n)]
    p = expr.params
    if expr.family == "cobb_douglas":
        out = p["gamma"]
        for xi, a in zip(xs, p["alpha"]):
            out = out * xi ** a
        return out
    if expr.family == "acms":
        u = sum(w * xi ** p["rho"] for w, xi in zip(p["weights"], xs))
        return p["gamma"] * u ** (p["d"] / p["rho"])
    if expr.family == "quasi_sum":
        spec = p["spec"]
        u = sum(scalar_fn_jet(h, xi) for h, xi in zip(spec.inner, xs))
        return scalar_fn_jet(spec.outer, u)
    if expr.family == "ratio":
        return scalar_fn_jet(p["outer"], xs[1] * xs[0] ** -1.0)
    raise ValueError(f"no oracle for {expr.family}")


# -- acceptance summary --------------------------------------------------------

CRITERIA = {
    1: "kernel gradients and Hessians match the finite-difference oracle",
    2: "factored quasi-sum Hessian determinant matches the assembled Hessian",
    3: "aggregator and product families report their known elasticities",
    4: "ratio family is degenerate and satisfies the identity for every sigma",
    5: "degree-one families have vanishing curvature, degree-two do not",
    6: "outer-function differential residuals separate match from mismatch",
    7: "shape-operator and metric determinants agree with their closed forms",
    8: "two-input degree-one graphs are flat; ratio curvature matches closed form",
    9: "three-input product form reports the known nonzero curvature component",
    10: "classification returns the constructing case with no misclassifications",
    11: "command line output is byte-identical across runs and worker counts",
}

_ACCEPTANCE_PATTERN = re.compile(r"test_criterion_(\d+)")
_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if match is None:
        return
    num = int(match.group(1))
    if report.failed:
        _acceptance_results[num] = "FAIL"
    elif report.skipped:
        _acceptance_results.setdefault(num, "FAIL")
    elif report.when == "call" and report.passed:
        _acceptance_results.setdefault(num, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_acceptance_results):
        outcome = _acceptance_results[num]
        text = CRITERIA.get(num, "")
        terminalreporter.write_line(f"ACCEPTANCE {num}: {outcome} - {text}")
