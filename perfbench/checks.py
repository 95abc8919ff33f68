"""Output checks against independent oracles, never against stored bytes.

Values are checked against ``FunctionExpr.value`` (the plain-float path that
shares no code with the jets) and against ``workloads.doc_value``, which
evaluates the document itself and shares no code with prodgeo, so a document
built wrongly fails too; derivatives are checked against
``finite_difference_oracle``, elasticities and verdicts against the closed
forms and hand table in ``workloads``.  Gates come from
``prodgeo.tolerances``; the seed values stand in for any a later version
moves out of that module.  Each check returns None or a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

import workloads

SEED_TOLERANCES = {
    "JET_VALUE_ARITHMETIC_RTOL": 1e-14,
    "GRADIENT_FD_RTOL": 1e-6,
    "HESSIAN_FD_SCALED_TOL": 1e-4,
    "CES_CONSTANCY_RTOL": 1e-6,
    "VANISHING_CURVATURE_TOL": 1e-10,
}
# The closed-form ratio curvature is checked to the same relative gap as in
# the acceptance suite (criterion 8).
RATIO_CURVATURE_RTOL = 1e-10
# prodgeo's value and the independent evaluation of the document differ by
# rounding only (under 1e-15 relative on every workload document).
INDEPENDENT_VALUE_RTOL = 1e-12


class Checker:
    def __init__(self):
        from prodgeo import expr_from_dict, finite_difference_oracle
        from prodgeo import tolerances

        self._build = expr_from_dict
        self._fd = finite_difference_oracle
        self.tol = {name: float(getattr(tolerances, name, default))
                    for name, default in SEED_TOLERANCES.items()}
        self._exprs = {}

    def expr(self, doc):
        key = json.dumps(doc, sort_keys=True)
        if key not in self._exprs:
            self._exprs[key] = self._build(doc)
        return self._exprs[key]

    def check(self, spec, status, text):
        kind = spec["kind"]
        if kind == "scan":
            return self._scan(spec, status, text)
        if kind == "error":
            return self.error_line(spec["status"], spec["error"], status, text)
        report, reason = self._json_report(status, text, spec)
        if reason is not None:
            return reason
        if report is None:
            return None
        return getattr(self, "_" + kind)(spec, report)

    # -- shared pieces -----------------------------------------------------

    def _json_report(self, status, text, spec):
        """The report of a success, or (None, None) for an expected error."""
        expected = 0
        error = None
        if spec["kind"] == "verify" and spec["status"] != 0:
            expected, error = spec["status"], spec["expect"]
        elif spec["kind"] == "classify" and spec["truth"]["case"] is None:
            expected, error = 1, "SpecError"
        if expected != 0:
            return None, self.error_line(expected, error, status, text)
        if status != 0:
            return None, f"exit {status!r}, expected 0: {text[:200]!r}"
        record = _one_json_line(text)
        if record is None or "report" not in record:
            return None, "success output is not one JSON report line"
        return record["report"], None

    def error_line(self, expected, error, status, text):
        """None if ``text`` is one JSON error line with the expected exit
        status (and error type, unless ``error`` is None)."""
        if status != expected:
            return f"exit {status!r}, expected {expected}: {text[:200]!r}"
        record = _one_json_line(text)
        if record is None or not isinstance(record.get("error"), dict):
            return "error output is not one JSON error line"
        if error is not None and record["error"].get("type") != error:
            return f"error type {record['error'].get('type')!r}, expected {error}"
        return None

    def _derivatives(self, doc, x, value, gradient, hessian):
        expr = self.expr(doc)
        plain = expr.value(x)
        if abs(value - plain) > self.tol["JET_VALUE_ARITHMETIC_RTOL"] * max(
                abs(plain), 1.0):
            return f"value {value!r} vs plain evaluation {plain!r}"
        reason = _independent_value(doc, x, value)
        if reason is not None:
            return reason
        fd = self._fd(expr, x)
        grad = np.asarray(gradient, dtype=float)
        hess = np.asarray(hessian, dtype=float)
        gap = float(np.max(np.abs(grad - fd.gradient)))
        if gap > self.tol["GRADIENT_FD_RTOL"] * max(1.0, float(np.max(np.abs(grad)))):
            return f"gradient differs from finite differences by {gap:.3g}"
        gap = float(np.max(np.abs(hess - fd.hessian)))
        if gap > self.tol["HESSIAN_FD_SCALED_TOL"] * max(1.0, float(np.max(np.abs(hess)))):
            return f"Hessian differs from finite differences by {gap:.3g}"
        return None

    # -- per command -------------------------------------------------------

    def _eval(self, spec, report):
        return self._derivatives(spec["doc"], spec["at"], report["value"],
                                 report["gradient"], report["hessian"])

    def _curvature(self, spec, report):
        x = spec["at"]
        reason = self._derivatives(spec["doc"], x, report["value"],
                                   report["gradient"], report["hessian"])
        if reason is not None:
            return reason
        n = len(x)
        fd = self._fd(self.expr(spec["doc"]), x)
        w_fd = math.sqrt(1.0 + float(np.dot(fd.gradient, fd.gradient)))
        scale = max(1.0, float(np.max(np.abs(fd.gradient))))
        if abs(report["area_factor"] - w_fd) > \
                math.sqrt(n) * self.tol["GRADIENT_FD_RTOL"] * scale:
            return f"area factor {report['area_factor']!r} vs {w_fd!r}"
        # det(Hess) from the reported curvature against the determinant of
        # the finite-difference Hessian, with the entrywise gate carried
        # through the determinant expansion.
        det_fd = float(np.linalg.det(fd.hessian))
        det = report["gauss_kronecker"] * w_fd ** (n + 2)
        h_scale = max(1.0, float(np.max(np.abs(fd.hessian))))
        bound = (self.tol["HESSIAN_FD_SCALED_TOL"] * n ** (n / 2 + 1)
                 * h_scale ** n)
        if abs(det - det_fd) > bound:
            return f"det Hess from curvature {det!r} vs {det_fd!r}"
        return None

    def _elasticity(self, spec, report):
        x = spec["at"]
        n = len(x)
        pairs = report.get("pairs", {})
        if len(pairs) != n * (n - 1) // 2:
            return f"{len(pairs)} pairs reported for {n} inputs"
        for key, got in pairs.items():
            i, j = (int(t) - 1 for t in key.split(","))
            reason = self._hicks(spec, x, i, j, got)
            if reason is not None:
                return f"pair {key}: {reason}"
        return None

    def _hicks(self, spec, x, i, j, got):
        sigma = spec["truth"]["sigma"]
        rtol = self.tol["CES_CONSTANCY_RTOL"]
        if sigma == "degenerate":
            return None if got["kind"] == "degenerate" else f"{got} not degenerate"
        if sigma is None:
            # Quasi-sum: the outer function drops out, leaving
            # H = -(1/(x_i h_i') + 1/(x_j h_j')) / (h_i''/h_i'^2 + h_j''/h_j'^2).
            inner = spec["doc"]["inner"]
            di = workloads.scalar_derivatives(inner[i], x[i])
            dj = workloads.scalar_derivatives(inner[j], x[j])
            terms = (di[2] / di[1] ** 2, dj[2] / dj[1] ** 2)
            den = math.fsum(terms)
            if abs(den) <= 1e-6 * sum(map(abs, terms)):
                return None  # too close to infinite to pin down
            sigma = -(1.0 / (x[i] * di[1]) + 1.0 / (x[j] * dj[1])) / den
            rtol *= sum(map(abs, terms)) / abs(den)
        if got["kind"] != "finite":
            return f"{got} where sigma is {sigma!r}"
        if abs(got["value"] - sigma) > rtol * max(1.0, abs(sigma)):
            return f"value {got['value']!r}, closed form {sigma!r}"
        return None

    def _classify(self, spec, report):
        truth = spec["truth"]
        if report.get("case") != truth["case"]:
            return f"case {report.get('case')!r}, expected {truth['case']!r}"
        return _sigma_matches(report.get("sigma"), _case_sigma(truth),
                              self.tol["CES_CONSTANCY_RTOL"])

    def _box(self, spec, report):
        truth = spec["truth"]
        if report.get("verdict") != truth["detect"]:
            return f"verdict {report.get('verdict')!r}, expected {truth['detect']!r}"
        want = truth["sigma"] if truth["detect"] == "RegularCES" else None
        return _sigma_matches(report.get("sigma_estimate"), want,
                              self.tol["CES_CONSTANCY_RTOL"])

    def _verify(self, spec, report):
        if report.get("verdict") != spec["expect"]:
            return f"verdict {report.get('verdict')!r}, expected {spec['expect']!r}"
        rows = report.get("per_point_data", [])
        want = 0 if report.get("theorem") == "T11" else spec["points"]
        if len(rows) != want:
            return f"{len(rows)} per-point rows, expected {want}"
        return None

    def _scan(self, spec, status, text):
        if status != 0:
            return f"exit {status!r}, expected 0: {text[:200]!r}"
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        doc, truth = spec["doc"], spec["truth"]
        n = workloads.doc_arity(doc)
        header = [f"x{k + 1}" for k in range(n)]
        header += ["f", "W", "G", "flatness_residual", "H12"]
        if not lines or lines[0].split(",") != header:
            return f"header {lines[:1]!r}, expected {header}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != spec["rows"]:
            return f"{len(rows)} rows, expected {spec['rows']}"
        x = np.array([[float(c) for c in row[:n]] for row in rows])
        per_axis = round(spec["rows"] ** (1.0 / n))
        axis = np.geomspace(0.5, 2.0, per_axis)
        for k in range(n):
            values = np.unique(x[:, k])
            if values.shape != axis.shape or \
                    np.max(np.abs(values - axis)) > 1e-12:
                return f"axis {k + 1} is not the geometric grid"
        f, w, g = (np.array([float(row[n + c]) for row in rows])
                   for c in range(3))
        expr = self.expr(doc)
        rtol = self.tol["JET_VALUE_ARITHMETIC_RTOL"]
        for r in range(len(rows)):
            plain = expr.value(x[r])
            if abs(f[r] - plain) > rtol * max(abs(plain), 1.0):
                return f"row {r}: f {f[r]!r} vs plain evaluation {plain!r}"
            reason = _independent_value(doc, x[r].tolist(), float(f[r]))
            if reason is not None:
                return f"row {r}: {reason}"
        reason = self._scan_hicks(truth, x, [row[n + 4] for row in rows])
        if reason is not None:
            return reason
        if truth["family"] == "ratio":
            d1 = np.array([workloads.scalar_derivatives(doc["outer"],
                                                        xr[1] / xr[0])[1]
                           for xr in x])
            predicted = -d1 * d1 / (x[:, 0] ** 4 * w ** 4)
            gap = np.abs(g - predicted) / np.abs(predicted)
            if np.max(gap) > RATIO_CURVATURE_RTOL:
                return f"ratio curvature off its closed form by {np.max(gap):.3g}"
        rng = np.random.default_rng(spec["fd_seed"])
        for r in rng.choice(len(rows), size=spec["fd_rows"], replace=False):
            fd = self._fd(expr, x[r])
            w_fd = math.sqrt(1.0 + float(np.dot(fd.gradient, fd.gradient)))
            scale = max(1.0, float(np.max(np.abs(fd.gradient))))
            if abs(w[r] - w_fd) > \
                    math.sqrt(n) * self.tol["GRADIENT_FD_RTOL"] * scale:
                return f"row {r}: W {float(w[r])!r} vs finite differences {w_fd!r}"
            if spec["degree_one"]:
                scaled = abs(g[r]) * w_fd ** (n + 2) / \
                    float(np.linalg.norm(fd.hessian)) ** n
                if scaled > self.tol["VANISHING_CURVATURE_TOL"]:
                    return f"row {r}: degree-one G {float(g[r])!r} is not zero"
        return None

    def _scan_hicks(self, truth, x, cells):
        sigma = truth["sigma"]
        if sigma == "degenerate":
            bad = [c for c in cells if c not in ("nan", "degenerate")]
            return f"H12 {bad[0]!r} not degenerate" if bad else None
        rtol = self.tol["CES_CONSTANCY_RTOL"]
        for r, cell in enumerate(cells):
            value = float(cell)
            if not abs(value - sigma) <= rtol * max(1.0, abs(sigma)):
                return f"row {r}: H12 {cell} vs sigma {sigma!r}"
        return None


def _independent_value(doc, x, value):
    direct = workloads.doc_value(doc, x)
    if abs(value - direct) > INDEPENDENT_VALUE_RTOL * max(abs(direct), 1.0):
        return f"value {value!r} vs the document evaluated directly {direct!r}"
    return None


def _case_sigma(truth):
    if truth["case"] == "HomotheticACMS":
        return truth["sigma"]
    if truth["case"] == "HomotheticCobbDouglas":
        return 1.0
    return None


def _sigma_matches(got, want, rtol):
    if want is None:
        return None if got is None else f"sigma {got!r}, expected none"
    if got is None or abs(got - want) > rtol * max(1.0, abs(want)):
        return f"sigma {got!r}, expected {want!r}"
    return None


def _one_json_line(text):
    if not text.endswith("\n") or text.count("\n") != 1:
        return None
    try:
        record = json.loads(text)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None
