"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the workload seed and imports nothing
from ``prodgeo``: documents are plain JSON objects, drawn from the same
parameter ranges as the generators in ``tests/conftest.py``, and each comes
with a ``truth`` record of what the mathematics says about it (elasticity,
classification case, detection verdict).  The checker compares the program's
answers against those records and against the finite-difference oracle.

A workload is one *pass*: a fixed list of requests, each a ``prodgeo``
argument vector plus the number of input points it asks about.  A run repeats
the pass, so per-pass counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("scan-grid", "verify-sweep", "point-queries")

# Slope cap used by the acceptance suite for finite-difference comparisons:
# beyond it the central-difference truncation error exceeds the gates.
GRADIENT_NORM_CAP = 60.0

VERIFY_SAMPLES = 2000
CLASSIFY_SAMPLES = 64
BOX_SAMPLES = 32


# -- scalar draws (ranges as in tests/conftest.py) -----------------------------


def _lu(rng, lo, hi):
    return float(lo * (hi / lo) ** rng.random())


def _signed(rng, lo, hi):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * _lu(rng, lo, hi)


def _scalar(form, coefficient, exponent=None, shift=0.0):
    rec = {"form": form, "coefficient": float(coefficient)}
    if exponent is not None:
        rec["exponent"] = float(exponent)
    if shift:
        rec["shift"] = float(shift)
    return rec


def _random_rho(rng, positive=False, band=None):
    if band is None:
        band = int(rng.integers(1, 3) if positive else rng.integers(3))
    if band == 0:
        return float(rng.uniform(-2.0, -0.3))
    if band == 1:
        return float(rng.uniform(0.3, 0.7))
    return float(rng.uniform(1.5, 2.2))


def _random_sigma(rng):
    if rng.random() < 0.5:
        return float(rng.uniform(1.3, 5.0))
    return float(rng.uniform(-5.0, -0.4))


# -- documents with their truth records ----------------------------------------


def cobb_douglas(rng, n, degree=None):
    gamma = _lu(rng, 0.3, 3.0)
    while True:
        raw = np.array([_signed(rng, 0.2, 2.0) for _ in range(n)])
        total = float(raw.sum())
        if degree is not None:
            if abs(total) < 0.3:
                continue
            alpha = raw * (degree / total)
            break
        if abs(total - 1.0) >= 0.25 and abs(total) >= 0.25:
            alpha = raw
            break
    doc = {"type": "cobb_douglas", "gamma": gamma,
           "alpha": [float(a) for a in alpha]}
    return doc, {"family": "cobb_douglas", "sigma": 1.0,
                 "case": "HomotheticCobbDouglas", "detect": "RegularCES"}


def acms(rng, n, d=None, positive_rho=False, rho_band=None):
    gamma = _lu(rng, 0.5, 2.0)
    a = [_lu(rng, 0.3, 3.0) for _ in range(n)]
    rho = _random_rho(rng, positive_rho, rho_band)
    if d is None:
        d = _lu(rng, 0.4, 2.5)
        if abs(d - 1.0) < 0.25:
            d = 1.0 + (0.3 if d >= 1.0 else -0.3)
    doc = {"type": "acms", "gamma": gamma, "a": a, "rho": rho, "d": float(d)}
    # Without an increasing quasi-sum form (d/rho < 0) classify is a bad
    # request, exit 1.
    case = "HomotheticACMS" if d / rho > 0.0 else None
    return doc, {"family": "acms", "sigma": 1.0 / (1.0 - rho), "rho": rho,
                 "case": case, "detect": "RegularCES"}


def power_quasi_sum(rng, n, degree_one=False, outer_kind=None):
    sigma = _random_sigma(rng)
    p = (sigma - 1.0) / sigma
    inner = [_scalar("power", _lu(rng, 0.3, 3.0), exponent=p)
             for _ in range(n)]
    if degree_one:
        outer = _scalar("power", _lu(rng, 0.3, 3.0), exponent=1.0 / p)
    else:
        kind = int(rng.integers(3)) if outer_kind is None else outer_kind
        if kind == 1 and p > 1.0:
            kind = 0
        if kind == 0:
            while True:
                q = _lu(rng, 0.3, 2.5)
                if abs(q * p - 1.0) >= 0.25:
                    break
            outer = _scalar("power", _lu(rng, 0.3, 3.0), exponent=q)
        elif kind == 1:
            outer = _scalar("exp", _lu(rng, 0.3, 3.0))
        else:
            outer = _scalar("affine", _lu(rng, 0.3, 3.0),
                            shift=float(rng.uniform(-1.0, 1.0)))
    doc = {"type": "quasi_sum", "outer": outer, "inner": inner}
    return doc, {"family": "quasi_sum", "sigma": 1.0 / (1.0 - p),
                 "case": "HomotheticACMS", "detect": "RegularCES"}


def log_quasi_sum(rng, n, degree_one=False):
    while True:
        raw = np.array([_signed(rng, 0.2, 2.0) for _ in range(n)])
        total = float(raw.sum())
        if abs(total) >= 0.3 and (degree_one or abs(total - 1.0) >= 0.25):
            break
    if degree_one:
        coeffs = raw / total
        outer = _scalar("exp", _lu(rng, 0.3, 3.0))
    else:
        coeffs = raw
        if rng.random() < 0.5:
            outer = _scalar("exp", _lu(rng, 0.3, 3.0))
        else:
            outer = _scalar("affine", _lu(rng, 0.3, 3.0),
                            shift=float(rng.uniform(-1.0, 1.0)))
    inner = [_scalar("log", float(c), shift=float(rng.uniform(-0.5, 0.5)))
             for c in coeffs]
    doc = {"type": "quasi_sum", "outer": outer, "inner": inner}
    return doc, {"family": "quasi_sum", "sigma": 1.0,
                 "case": "HomotheticCobbDouglas", "detect": "RegularCES"}


def mixed_quasi_sum(rng, n, kind=None):
    if kind is None:
        kind = int(rng.integers(3))
    if kind == 0:
        base = float(rng.uniform(0.3, 0.8))
        inner = [_scalar("power", _lu(rng, 0.3, 1.5), exponent=base + 0.4 * k)
                 for k in range(n)]
    elif kind == 1:
        inner = [_scalar("power", _lu(rng, 0.3, 1.5), exponent=2.0),
                 _scalar("log", _lu(rng, 0.3, 3.0))]
        inner += [_scalar("power", _lu(rng, 0.3, 3.0), exponent=0.5)
                  for _ in range(n - 2)]
    else:
        inner = [_scalar("exp", _lu(rng, 0.3, 0.8))]
        inner += [_scalar("power", _lu(rng, 0.3, 1.5),
                          exponent=float(rng.uniform(0.4, 0.8)))
                  for _ in range(n - 1)]
    doc = {"type": "quasi_sum", "outer": _scalar("exp", 1.0), "inner": inner}
    return doc, {"family": "quasi_sum", "sigma": None, "case": "NotCES",
                 "detect": "NotCES"}


def ratio(rng, outer_form):
    if outer_form == "affine":
        outer = _scalar("affine", _lu(rng, 0.3, 3.0),
                        shift=float(rng.uniform(-1.0, 1.0)))
    elif outer_form == "log":
        outer = _scalar("log", _lu(rng, 0.3, 3.0),
                        shift=float(rng.uniform(-1.0, 1.0)))
    elif outer_form == "power":
        outer = _scalar("power", _lu(rng, 0.3, 3.0),
                        exponent=_lu(rng, 0.4, 2.2))
    else:
        outer = _scalar("exp", _lu(rng, 0.3, 3.0))
    # Only affine and log outers have a quasi-sum form; the others make
    # classify a bad request.
    case = "RatioTwoInput" if outer_form in ("affine", "log") else None
    return {"type": "ratio", "outer": outer}, {
        "family": "ratio", "sigma": "degenerate", "case": case,
        "detect": "DegenerateCES"}


# -- an evaluator of the documents, independent of prodgeo ---------------------


def scalar_derivatives(rec, x):
    """(value, first, second) of a scalar function record at x."""
    c = rec["coefficient"]
    s = rec.get("shift", 0.0)
    form = rec["form"]
    if form == "power":
        p = rec["exponent"]
        return (c * x ** p + s, c * p * x ** (p - 1.0),
                c * p * (p - 1.0) * x ** (p - 2.0))
    if form == "log":
        return c * math.log(x) + s, c / x, -c / (x * x)
    if form == "exp":
        e = math.exp(x)
        return c * e + s, c * e, c * e
    return c * x + s, c, 0.0


def doc_value(doc, x):
    kind = doc["type"]
    if kind == "cobb_douglas":
        return doc["gamma"] * math.prod(xi ** a for xi, a in zip(x, doc["alpha"]))
    if kind == "acms":
        rho = doc["rho"]
        u = math.fsum((a * xi) ** rho for a, xi in zip(doc["a"], x))
        return doc["gamma"] * u ** (doc["d"] / rho)
    if kind == "quasi_sum":
        u = math.fsum(scalar_derivatives(h, xi)[0]
                      for h, xi in zip(doc["inner"], x))
        return scalar_derivatives(doc["outer"], u)[0]
    return scalar_derivatives(doc["outer"], x[1] / x[0])[0]


def doc_arity(doc):
    if doc["type"] == "ratio":
        return 2
    return len(doc["alpha" if doc["type"] == "cobb_douglas" else
                   "a" if doc["type"] == "acms" else "inner"])


def moderate_slope(doc, x):
    """Central-difference gradient norm stays under GRADIENT_NORM_CAP."""
    total = 0.0
    for i in range(len(x)):
        h = 1e-6 * max(1.0, x[i])
        up = list(x)
        dn = list(x)
        up[i] += h
        dn[i] -= h
        g = (doc_value(doc, up) - doc_value(doc, dn)) / (2.0 * h)
        total += g * g
    return math.sqrt(total) <= GRADIENT_NORM_CAP


def random_point(rng, n):
    return [float(0.5 * 4.0 ** rng.random()) for _ in range(n)]


# -- request plans -------------------------------------------------------------


class Plan:
    """Documents written to ``doc_dir`` plus the request list of one pass."""

    def __init__(self, doc_dir):
        self.doc_dir = doc_dir
        self.requests = []
        self.probes = []
        self._count = 0

    def add_doc(self, doc, name=None, raw=None):
        self._count += 1
        path = os.path.join(self.doc_dir, f"{self._count:03d}-{name or doc['type']}.json")
        with open(path, "w") as fh:
            fh.write(raw if raw is not None else json.dumps(doc))
        return path

    def add(self, argv, points, check):
        self.requests.append({"argv": list(argv), "points": int(points),
                              "check": check})

    def as_dict(self):
        return {"requests": self.requests, "probes": self.probes}


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _box_arg(n):
    return ",".join("0.5:2" for _ in range(n))


def build(workload, seed, doc_dir):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = Plan(doc_dir)
    {"scan-grid": _scan_grid, "verify-sweep": _verify_sweep,
     "point-queries": _point_queries}[workload](rng, plan)
    _contract_probes(plan)
    return plan


def _scan_grid(rng, plan):
    # Grid sizes are exact powers, so the row count is known in advance.
    # The small grids go first: the first request is also the cold-start
    # probe, which should measure start-up rather than the main scan.
    main_doc, main_truth = acms(rng, 4, d=1.0)
    cases = [
        (ratio(rng, "log"), 1024),
        (cobb_douglas(rng, 3), 1000),
        (power_quasi_sum(rng, 4, outer_kind=0), 1296),
        ((main_doc, main_truth), 20736),
    ]
    for (doc, truth), samples in cases:
        path = plan.add_doc(doc)
        plan.add(["scan", "--fn", path, "--samples", str(samples),
                  "--out", "csv", "--jobs", "1"], samples,
                 {"kind": "scan", "doc": doc, "truth": truth,
                  "rows": samples, "degree_one": doc.get("d") == 1.0,
                  "fd_rows": 40, "fd_seed": int(rng.integers(1 << 30))})


# Expected (exit status, verdict or error type) per theorem, from the
# mathematics: degree-one structure makes the Gauss-Kronecker curvature
# vanish, but with three or more inputs the graph is still not flat, so
# theorem 4.2 reports Inconsistent there (as pinned in the acceptance
# tests); the mixed quasi-sum is not CES, so the curvature checks refuse it.
VERIFY_TABLE = {
    "ratio-log": {"1.1": (0, "Consistent"), "4.1": (0, "Consistent"),
                  "4.2": (0, "Consistent")},
    "mixed": {"1.1": (0, "Consistent"), "4.1": (2, "HypothesisError"),
              "4.2": (2, "HypothesisError")},
    "quasi-sum-2-degree-one": {"1.1": (0, "Consistent"),
                               "4.1": (0, "Consistent"),
                               "4.2": (0, "Consistent")},
    "cobb-douglas-3-degree-one": {"1.1": (0, "Consistent"),
                                  "4.1": (0, "Consistent"),
                                  "4.2": (0, "Inconsistent")},
    "acms-4-degree-one": {"1.1": (0, "Consistent"), "4.1": (0, "Consistent"),
                          "4.2": (0, "Inconsistent")},
    "quasi-sum-4": {"1.1": (0, "Consistent"), "4.1": (0, "Consistent"),
                    "4.2": (0, "Consistent")},
}


def _verify_sweep(rng, plan):
    # The document shapes are fixed and only their parameters are seeded, so
    # every seed asks for the same work.  The mixed quasi-sum goes first: its
    # 4.1 request fails fast, which keeps the cold-start probe about start-up.
    docs = {
        "mixed": mixed_quasi_sum(rng, 3, kind=0)[0],
        "ratio-log": ratio(rng, "log")[0],
        "quasi-sum-2-degree-one": power_quasi_sum(rng, 2, degree_one=True)[0],
        "cobb-douglas-3-degree-one": cobb_douglas(rng, 3, degree=1.0)[0],
        "acms-4-degree-one": acms(rng, 4, d=1.0, positive_rho=True)[0],
        "quasi-sum-4": power_quasi_sum(rng, 4, outer_kind=0)[0],
    }
    for name, doc in docs.items():
        path = plan.add_doc(doc, name)
        for theorem in ("4.1", "4.2", "1.1"):
            status, verdict = VERIFY_TABLE[name][theorem]
            plan.add(["verify", "--fn", path, "--theorem", theorem,
                      "--samples", str(VERIFY_SAMPLES)], VERIFY_SAMPLES + 1,
                     {"kind": "verify", "doc": name, "status": status,
                      "expect": verdict, "points": VERIFY_SAMPLES + 1})


def _pool_doc(rng, k):
    """Document k of the point-query pool: families and arities cycle."""
    family = k % 4
    n = 2 + (k // 4) % 5
    shape = (k // 4) % 3
    if family == 0:
        return cobb_douglas(rng, n)
    if family == 1:
        # The band of rho decides whether classify is a bad request
        # (d/rho < 0), so it cycles rather than being drawn.
        return acms(rng, n, rho_band=shape)
    if family == 2:
        if shape == 0:
            return power_quasi_sum(rng, n, degree_one=bool(rng.integers(2)))
        if shape == 1:
            return log_quasi_sum(rng, n, degree_one=bool(rng.integers(2)))
        return mixed_quasi_sum(rng, n)
    return ratio(rng, ("affine", "power", "exp")[shape])


MALFORMED = (
    ("missing-key", json.dumps({"type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
                                "rho": 0.5})),
    ("unknown-type", json.dumps({"type": "leontief", "a": [1.0, 1.0]})),
    ("syntax", '{"type": "cobb_douglas", "gamma": 1.0, "alpha": [0.5, 0.5'),
    ("extra-key", json.dumps({"type": "ratio", "outer": {
        "form": "log", "coefficient": 1.0}, "inner": []})),
    ("unknown-form", json.dumps({"type": "ratio", "outer": {
        "form": "sine", "coefficient": 1.0}})),
    ("not-object", json.dumps([1.0, 2.0])),
)


def _point_queries(rng, plan):
    pool = []
    for k in range(40):
        for _ in range(100):
            doc, truth = _pool_doc(rng, k)
            n = doc_arity(doc)
            points = []
            for _ in range(200):
                x = random_point(rng, n)
                if moderate_slope(doc, x):
                    points.append(x)
                    if len(points) == 9:
                        break
            if len(points) == 9:
                break
        else:
            raise RuntimeError("no moderately sloped document drawn")
        pool.append((doc, truth, plan.add_doc(doc), points))

    requests = []
    for k, (doc, truth, path, points) in enumerate(pool):
        n = len(points[0])
        for j, x in enumerate(points):
            command = ("eval", "elasticity", "curvature")[j % 3]
            requests.append(([command, "--fn", path, "--at", _fmt(x)], 1,
                             {"kind": command, "doc": doc, "truth": truth,
                              "at": x}))
        if (k // 4) % 2 == 0:
            requests.append((["classify", "--fn", path, "--samples",
                              str(CLASSIFY_SAMPLES)], CLASSIFY_SAMPLES + 1,
                             {"kind": "classify", "doc": doc, "truth": truth}))
        else:
            requests.append((["elasticity", "--fn", path, "--box",
                              _box_arg(n), "--samples", str(BOX_SAMPLES)],
                             BOX_SAMPLES + 1,
                             {"kind": "box", "doc": doc, "truth": truth}))

    # Requests whose correct answer is an error record (exit 1).
    for k in range(7):
        doc, _, path, points = pool[(3 * k) % len(pool)]
        x = points[0] + [1.0]
        requests.append((["eval", "--fn", path, "--at", _fmt(x)], 0,
                         {"kind": "error", "status": 1, "error": "SpecError"}))
    for k in range(7):
        doc, _, path, points = pool[(3 * k + 1) % len(pool)]
        x = list(points[1])
        x[k % len(x)] = -x[k % len(x)] if k % 2 else 0.0
        command = "curvature" if k % 2 else "eval"
        requests.append(([command, "--fn", path, "--at", _fmt(x)], 0,
                         {"kind": "error", "status": 1, "error": "SpecError"}))
    for name, raw in MALFORMED:
        path = plan.add_doc(None, f"malformed-{name}", raw=raw)
        requests.append((["eval", "--fn", path, "--at", "1.0,1.0"], 0,
                         {"kind": "error", "status": 1, "error": None}))

    order = rng.permutation(len(requests))
    ordered = [requests[i] for i in order]
    # The first request is the cold-start probe: make it a plain eval.
    first = next(i for i, r in enumerate(ordered) if r[2]["kind"] == "eval")
    ordered.insert(0, ordered.pop(first))
    for argv, points, check in ordered:
        plan.add(argv, points, check)


# ROADMAP item 2: numeric overflow and loosely typed documents.  The README
# exit contract says each must give one JSON error record, exit 2 for
# overflow and exit 1 for a malformed document.  They run on every workload,
# outside the timed loop, and are reported as contract probes.
PROBES = (
    ("overflow-eval", {"type": "cobb_douglas", "gamma": 1.0,
                       "alpha": [300.0, 300.0]},
     ["eval", "--at", "10,10"], 2),
    ("overflow-curvature", {"type": "cobb_douglas", "gamma": 1.0,
                            "alpha": [300.0, 300.0]},
     ["curvature", "--at", "10,10"], 2),
    ("overflow-scan", {"type": "cobb_douglas", "gamma": 1.0,
                       "alpha": [300.0, 300.0]},
     ["scan", "--box", "5:10,5:10", "--samples", "4", "--jobs", "1"], 2),
    ("overflow-degree", {"type": "acms", "gamma": 1.0, "a": [1.0, 1.0],
                         "rho": 0.5, "d": 1e308},
     ["eval", "--at", "1,1"], 2),
    ("scalar-alpha", {"type": "cobb_douglas", "gamma": 1.0, "alpha": 5},
     ["eval", "--at", "1,1"], 1),
    ("null-gamma", {"type": "acms", "gamma": None, "a": [1.0, 1.0],
                    "rho": 0.5, "d": 1.0},
     ["eval", "--at", "1,1"], 1),
    ("bool-coefficient", {"type": "ratio", "outer": {
        "form": "affine", "coefficient": True}},
     ["eval", "--at", "1,1"], 1),
)


def _contract_probes(plan):
    for name, doc, args, status in PROBES:
        path = plan.add_doc(doc, f"probe-{name}")
        argv = [args[0], "--fn", path, *args[1:]]
        plan.probes.append({"name": name, "argv": argv, "status": status})
