"""Theorem 4.1 across the paper's parameter space.

Every linearly homogeneous ACMS, Cobb-Douglas or power quasi-sum has a
graph of vanishing Gauss-Kronecker curvature, so ``verify --theorem 4.1``
must read "G vanishes" and "degree-one family" together (``Consistent``
with ``hypothesis_holds`` true).  Its twin of another degree (d in
{0.6, 1.5}, or shares scaled by 0.7 or 1.4) must read neither
(``Consistent`` with ``hypothesis_holds`` false).  The documents reach far
past the well-conditioned ranges of ``conftest``: rho in [-8, -2], ACMS and
inner coefficients over six decades, Cobb-Douglas shares down to 1e-7, and
boxes up to [0.01, 100]^n, where the entries F' h_i'' + F'' h_i'^2 of the
Hessian cancel to a few digits.
"""

import json

import numpy as np
import pytest

from prodgeo import (
    QuasiSumSpec, ScalarFn, build_acms, build_cobb_douglas, build_quasi_sum,
    verify_theorem_41,
)
from prodgeo.cli import RunConfig, run
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


def test_degree_one_documents_and_their_twins_across_the_parameter_space():
    wrong = []
    for name, k, box, degree_one, twin in _cases():
        for expr, holds in ((degree_one, True), (twin, False)):
            report = verify_theorem_41(expr, box, samples=64, seed=k)
            if report.verdict != "Consistent" or \
                    report.hypothesis_holds is not holds:
                wrong.append((name, k, holds, report.verdict,
                              report.hypothesis_check))
    assert wrong == []


@pytest.mark.parametrize("doc, box", [
    ({"type": "acms", "gamma": 1, "a": [2.756, 0.132], "rho": -5, "d": 1},
     None),
    ({"type": "acms", "gamma": 1, "a": [3.7905, 4.2383], "rho": -5, "d": 1},
     ((0.01, 100.0), (0.01, 100.0))),
    ({"type": "cobb_douglas", "gamma": 1, "alpha": [0.9999999, 0.0000001]},
     None),
], ids=["acms-default-box", "acms-wide-box", "cobb-douglas-tiny-share"])
def test_reported_degree_one_cases_read_vanishing_curvature(tmp_path, doc, box):
    # Degree-one documents whose Hessian entries cancel to a few digits:
    # their largest scaled G is 4.1e-8, 0.50 and 8.3e-10, far above
    # VANISHING_CURVATURE_TOL, while the terms of det Hess cancel exactly.
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    status, text = run(RunConfig("verify", str(path), theorem="4.1", box=box))
    assert status == 0
    report = json.loads(text)["report"]
    assert report["verdict"] == "Consistent"
    assert report["hypothesis_holds"] is True
    assert report["hypothesis_check"]["max_det_cancellation"] <= 1e-15
