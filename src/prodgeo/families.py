"""Parametric production-function families and their closed-form pieces.

The admissible inputs are points of the positive orthant.  Four evaluable
families are provided:

* generalized Cobb-Douglas      ``gamma * prod(x_i ** alpha_i)``
* generalized ACMS aggregator   ``gamma * (sum(a_i**rho * x_i**rho)) ** (d/rho)``
* quasi-sum                     ``F(h_1(x_1) + ... + h_n(x_n))``
* two-input ratio               ``F(x_2 / x_1)``

Each is F(h_1(x_1) + ... + h_n(x_n)), and one batched kernel evaluates them
all from closed-form per-axis h', h'' and the outer F', F''.  Quasi-sum
components come from a small closed family of scalar functions (power, log,
exp, affine), each with exact first and second derivatives, so structure
matching downstream can work on parameters rather than on curve fitting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Jet2
from .errors import DomainError, SpecError

FORM_POWER = "power"
FORM_LOG = "log"
FORM_EXP = "exp"
FORM_AFFINE = "affine"
FORMS = (FORM_POWER, FORM_LOG, FORM_EXP, FORM_AFFINE)

DEFAULT_BOX_AXIS = (0.5, 2.0)
MONOTONICITY_SAMPLES = 64


def _fsum(terms: list) -> float:
    """``math.fsum``, with DomainError where fsum itself raises: the exact
    sum of finite terms leaves the float range, or the terms hold inf and
    -inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"sum leaves the float range: {exc}") from None


def default_box(n: int) -> tuple[tuple[float, float], ...]:
    """The canonical evaluation box [0.5, 2]^n."""
    return tuple(DEFAULT_BOX_AXIS for _ in range(n))


@dataclass(frozen=True)
class ScalarFn:
    """One-variable scalar function from the closed family.

    form        one of power, log, exp, affine
    coefficient nonzero multiplier c
    exponent    power only: c * x**p + shift with p != 0
    shift       additive constant (the family is closed under translation)

    The four forms and their derivatives:

        power   c * x**p + s      c*p*x**(p-1)     c*p*(p-1)*x**(p-2)
        log     c * ln(x) + s     c / x            -c / x**2
        exp     c * e**x + s      c * e**x         c * e**x
        affine  c * x + s         c                0
    """

    form: str
    coefficient: float
    exponent: float | None = None
    shift: float = 0.0

    def __post_init__(self):
        if self.form not in FORMS:
            raise SpecError(f"unknown scalar form {self.form!r}")
        c = float(self.coefficient)
        if not math.isfinite(c) or c == 0.0:
            raise SpecError("coefficient must be finite and nonzero")
        object.__setattr__(self, "coefficient", c)
        if self.form == FORM_POWER:
            if self.exponent is None:
                raise SpecError("power form requires an exponent")
            p = float(self.exponent)
            if not math.isfinite(p) or p == 0.0:
                raise SpecError("power exponent must be finite and nonzero")
            object.__setattr__(self, "exponent", p)
        elif self.exponent is not None:
            raise SpecError(f"{self.form} form takes no exponent")
        s = float(self.shift)
        if not math.isfinite(s):
            raise SpecError("shift must be finite")
        object.__setattr__(self, "shift", s)

    # -- evaluation --------------------------------------------------------

    def value(self, x: float) -> float:
        return self.derivatives(x)[0]

    def derivatives(self, x):
        """(value, first, second) at x in closed form; x is a float or an
        array, and a float gives 0-d results (DomainError if any element is
        outside the domain)."""
        x = np.asarray(x, dtype=float)
        outside, message = self._outside(x)
        if outside is not None and outside.any():
            raise DomainError(message)
        c, s = self.coefficient, self.shift
        if self.form == FORM_POWER:
            p = self.exponent
            return (c * x ** p + s, c * p * x ** (p - 1.0),
                    c * p * (p - 1.0) * x ** (p - 2.0))
        if self.form == FORM_LOG:
            return c * np.log(x) + s, c / x, -c / (x * x)
        if self.form == FORM_EXP:
            e = c * np.exp(x)
            return e + s, e, e
        return c * x + s, np.full_like(x, c), np.zeros_like(x)

    def _outside(self, x: np.ndarray):
        """Mask of the elements of x outside the domain (None when the
        domain is the whole line) and the DomainError text."""
        if self.form == FORM_LOG:
            return x <= 0.0, "log form needs a positive argument"
        p = self.exponent
        if self.form != FORM_POWER or (p >= 2 and p.is_integer()):
            return None, ""
        if p.is_integer():
            return x == 0.0, "power form undefined at zero"
        return x <= 0.0, f"power form with exponent {p} needs a positive argument"

    def increasing_on_positive(self) -> bool:
        """Whether the derivative is positive on the whole positive axis."""
        if self.form == FORM_POWER:
            return self.coefficient * self.exponent > 0.0
        return self.coefficient > 0.0

    def to_dict(self) -> dict:
        doc = {"form": self.form, "coefficient": self.coefficient,
               "shift": self.shift}
        if self.form == FORM_POWER:
            doc["exponent"] = self.exponent
        return doc

    @classmethod
    def from_dict(cls, doc) -> "ScalarFn":
        if not isinstance(doc, dict):
            raise SpecError("scalar function record must be an object")
        allowed = {"form", "coefficient", "exponent", "shift"}
        extra = set(doc) - allowed
        if extra:
            raise SpecError(f"unknown scalar function keys: {sorted(extra)}")
        if "form" not in doc or "coefficient" not in doc:
            raise SpecError("scalar function record needs form and coefficient")
        numbers = {k: _doc_number(doc[k], k)
                   for k in ("coefficient", "exponent", "shift") if k in doc}
        return cls(form=doc["form"], **numbers)


@dataclass(frozen=True)
class QuasiSumSpec:
    """Outer function applied to a sum of per-input scalar functions."""

    outer: ScalarFn
    inner: tuple[ScalarFn, ...]

    def __post_init__(self):
        inner = tuple(self.inner)
        if len(inner) < 2:
            raise SpecError("quasi-sum needs at least two inputs")
        if not all(isinstance(h, ScalarFn) for h in inner):
            raise SpecError("inner components must be ScalarFn instances")
        if not isinstance(self.outer, ScalarFn):
            raise SpecError("outer must be a ScalarFn")
        object.__setattr__(self, "inner", inner)

    @property
    def n(self) -> int:
        return len(self.inner)

    @np.errstate(all="ignore")
    def inner_sum(self, point) -> float:
        return _fsum([h.value(x) for h, x in zip(self.inner, point)])


@dataclass(frozen=True, eq=False)
class PointTable:
    """One evaluation of an expression at the rows of ``points``: values
    (N,), gradients (N, n), Hessians (N, n, n) and the per-axis record
    ``factors`` = (F', F'', h', h'') of F(sum h_k(x_k)).  ``table[rows]``
    is the table of those rows."""

    points: np.ndarray
    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    factors: tuple

    def __getitem__(self, rows) -> PointTable:
        return PointTable(self.points[rows], self.value[rows],
                          self.gradient[rows], self.hessian[rows],
                          tuple(part[rows] for part in self.factors))


@dataclass(frozen=True, eq=False)
class FunctionExpr:
    """Evaluable member of one of the closed families.

    family  one of cobb_douglas, acms, quasi_sum, ratio (the document
            types; any other is a SpecError)
    n       input count
    params  family-specific record
    """

    family: str
    n: int
    params: dict

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILY_KEYS:
            raise SpecError(f"unknown family {self.family!r}; expected one "
                            f"of {sorted(_FAMILY_KEYS)}")

    def _check_point(self, point, ndim: int = 1) -> np.ndarray:
        """A point (ndim 1) or an (N, n) point array (ndim 2), validated."""
        x = np.asarray(point, dtype=float)
        if x.ndim != ndim or x.shape[-1] != self.n:
            expected = f"({self.n},)" if ndim == 1 else f"(N, {self.n})"
            raise SpecError(f"point has shape {x.shape}, expected {expected}")
        if not np.isfinite(x).all() or (x <= 0.0).any():
            raise DomainError(
                "points must be finite and strictly positive in every coordinate")
        return x

    @np.errstate(all="ignore")
    def value(self, point) -> float:
        """Plain float evaluation (shares no code with the kernel); a
        value past the float range raises DomainError."""
        x = self._check_point(point)
        p = self.params
        if self.family == "cobb_douglas":
            out = p["gamma"]
            for a, xi in zip(p["alpha"], x):
                out *= xi ** a
        elif self.family == "acms":
            u = _fsum([w * xi ** p["rho"] for w, xi in zip(p["weights"], x)])
            if u <= 0.0:
                raise DomainError("aggregator sum must stay positive")
            if not math.isfinite(u):
                raise DomainError("aggregator term overflows the float range")
            # A NumPy power: past the float range it gives inf, not an
            # OverflowError.
            out = p["gamma"] * np.float64(u) ** (p["d"] / p["rho"])
        elif self.family == "quasi_sum":
            spec: QuasiSumSpec = p["spec"]
            out = spec.outer.value(spec.inner_sum(x))
        else:  # ratio
            out = p["outer"].value(x[1] / x[0])
        if not math.isfinite(out):
            raise DomainError("value overflows the float range")
        return float(out)

    def jet(self, point) -> Jet2:
        """Exact value, gradient and Hessian at ``point``: the one-row slice
        of :meth:`derivatives`."""
        row = self._row(point)
        return Jet2(row.value[0], row.gradient[0], row.hessian[0])

    def _row(self, point) -> PointTable:
        """The one-row table of :meth:`derivatives` at ``point``."""
        return self._kernel(self._check_point(point)[np.newaxis, :])

    def derivatives(self, points) -> PointTable:
        """The PointTable of the rows of an (N, n) point array, in one
        vectorised pass.

        Every family is F(h_1(x_1) + ... + h_n(x_n)): from per-axis h', h''
        and F', F'' at the inner sum, grad = F' h' and Hess = diag(D) +
        c u u^T with (D, c, u) from :func:`hessian_factors`, assembled
        bitwise symmetric.  Cobb-Douglas is gamma e^u over alpha_i log x_i
        (value from the direct product, as in :meth:`value`), ACMS a power
        over powers (F', F'' direct, so d/rho < 0 works), the ratio
        G(v) = F(e^v) over v = log x2 - log x1.  A non-finite value,
        gradient or Hessian raises DomainError."""
        return self._kernel(self._check_point(points, ndim=2))

    def _kernel(self, x: np.ndarray) -> PointTable:
        p = self.params
        with np.errstate(all="ignore"):
            if self.family == "cobb_douglas":
                f = p["gamma"]
                for k, a in enumerate(p["alpha"]):
                    f = f * x[:, k] ** a
                d1 = np.array(p["alpha"]) / x
                d2 = -d1 / x
                f1 = f2 = f
            elif self.family == "acms":
                rho, d = p["rho"], p["d"]
                q = d / rho
                h = np.array(p["weights"]) * x ** rho
                d1 = rho * h / x
                d2 = (rho - 1.0) * d1 / x
                u = h.sum(axis=1)
                if (u <= 0.0).any():
                    raise DomainError("aggregator sum must stay positive")
                f = p["gamma"] * u ** q
                f1 = q * f / u
                # q - 1 = (d - rho) / rho keeps its digits as rho nears d.
                f2 = (d - rho) / rho * f1 / u
            elif self.family == "quasi_sum":
                d1, d2 = np.empty_like(x), np.empty_like(x)
                u = 0.0
                for k, h in enumerate(p["spec"].inner):
                    hk, d1[:, k], d2[:, k] = h.derivatives(x[:, k])
                    u = u + hk
                f, f1, f2 = p["spec"].outer.derivatives(u)
            else:  # ratio
                r = x[:, 1] / x[:, 0]
                f, g1, g2 = p["outer"].derivatives(r)
                f1 = g1 * r
                f2 = g2 * r * r + f1
                # Inner -log x1 and log x2: h'' = (h')^2 and -(h')^2, formed
                # from d1 itself so that H22 cancels exactly when F'' = 0.
                d1 = np.array([-1.0, 1.0]) / x
                d2 = d1 * d1 * np.array([1.0, -1.0])
            factors = (f1, f2, d1, d2)
            gradient = f1[:, np.newaxis] * d1
            diag = hessian_factors(factors)[0]
            hessian = f2[:, np.newaxis, np.newaxis] * (
                d1[:, :, np.newaxis] * d1[:, np.newaxis, :])
            hessian.reshape(len(x), -1)[:, ::self.n + 1] += diag
        if not (np.isfinite(f).all() and np.isfinite(gradient).all()
                and np.isfinite(hessian).all()):
            raise DomainError("value, gradient or Hessian is not finite "
                              "(floating-point overflow)")
        return PointTable(x, f, gradient, hessian, factors)


@functools.cache
def index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (shared) index arrays of the pairs lo < hi, in row order."""
    lo, hi = np.triu_indices(n, 1)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


# -- builders ---------------------------------------------------------------


def _check_scale(gamma: float) -> float:
    g = float(gamma)
    if not math.isfinite(g) or g <= 0.0:
        raise SpecError("scale gamma must be finite and positive")
    return g


def build_cobb_douglas(gamma: float, alpha) -> FunctionExpr:
    """gamma * prod(x_i ** alpha_i) with gamma > 0 and every alpha_i nonzero."""
    g = _check_scale(gamma)
    a = tuple(float(v) for v in alpha)
    if len(a) < 2:
        raise SpecError("need at least two inputs")
    if any(not math.isfinite(v) or v == 0.0 for v in a):
        raise SpecError("every exponent alpha_i must be finite and nonzero")
    return FunctionExpr("cobb_douglas", len(a), {"gamma": g, "alpha": a})


def build_acms(gamma: float, a, rho: float, d: float) -> FunctionExpr:
    """gamma * (sum((a_i * x_i) ** rho-style weights)) ** (d / rho).

    Weights are a_i**rho; rho must be nonzero and d nonzero.  With
    sigma = 1 / (1 - rho) this family has constant substitution elasticity.
    """
    g = _check_scale(gamma)
    rho = float(rho)
    d = float(d)
    if not math.isfinite(rho) or rho == 0.0:
        raise SpecError("rho must be finite and nonzero")
    if not math.isfinite(d) or d == 0.0:
        raise SpecError("degree d must be finite and nonzero")
    coeffs = tuple(float(v) for v in a)
    if len(coeffs) < 2:
        raise SpecError("need at least two inputs")
    if any(not math.isfinite(v) or v == 0.0 for v in coeffs):
        raise SpecError("every a_i must be finite and nonzero")
    weights = []
    for v in coeffs:
        try:
            weights.append(math.pow(v, rho))
        except ValueError as exc:
            raise SpecError(
                f"a_i**rho not real for a_i={v}, rho={rho}") from exc
    return FunctionExpr("acms", len(coeffs),
                        {"gamma": g, "a": coeffs, "rho": rho, "d": d,
                         "weights": tuple(weights)})


@np.errstate(all="ignore")
def _validate_quasi_sum_on_box(spec: QuasiSumSpec, box) -> None:
    """Sampled monotonicity and domain check on the declared box.

    Each inner derivative is checked at MONOTONICITY_SAMPLES points per axis;
    the outer derivative is checked at the same number of points across the
    inner-sum range (inner components are monotone, so the range comes from
    the axis endpoints).  A non-finite inner value or slope, or outer slope,
    is a DomainError naming the component.
    """
    lo_sum = 0.0
    hi_sum = 0.0
    for i, ((lo, hi), h) in enumerate(zip(box, spec.inner)):
        xs = np.linspace(lo, hi, MONOTONICITY_SAMPLES)
        v, d1 = _sampled(h, xs, f"inner component {i} undefined at x=")
        if not (np.isfinite(v).all() and np.isfinite(d1).all()):
            raise DomainError(f"inner component {i} overflows on the box: "
                              f"its value or slope is not finite")
        bad = (d1 == 0.0) | (np.signbit(d1) != np.signbit(d1[0]))
        if bad.any():
            raise SpecError(f"inner component {i} is not strictly monotone "
                            f"at x={float(xs[bad.argmax()])!r}")
        lo_sum += min(v[0], v[-1])
        hi_sum += max(v[0], v[-1])
    us = np.linspace(lo_sum, hi_sum, MONOTONICITY_SAMPLES)
    _, d1 = _sampled(spec.outer, us,
                     "outer undefined on the inner-sum range at u=")
    if not np.isfinite(d1).all():
        raise DomainError("outer slope is not finite on the inner-sum range")
    bad = d1 <= 0.0
    if bad.any():
        k = bad.argmax()
        raise SpecError(
            f"outer must be strictly increasing on the inner-sum range; "
            f"derivative is {float(d1[k])!r} at u={float(us[k])!r}")


def _sampled(fn: ScalarFn, xs: np.ndarray, undefined: str):
    """(fn, fn') at every sample, or SpecError naming the first undefined
    one."""
    try:
        return fn.derivatives(xs)[:2]
    except DomainError as exc:
        outside, _ = fn._outside(xs)
        raise SpecError(f"{undefined}{float(xs[outside.argmax()])!r}") from exc


def build_quasi_sum(spec: QuasiSumSpec, box=None) -> FunctionExpr:
    """F(h_1(x_1) + ... + h_n(x_n)) after a sampled validity check on ``box``.

    ``box`` defaults to [0.5, 2]^n.  The box is only used for validation; it
    is not stored on the expression.
    """
    _validate_quasi_sum_on_box(spec, validate_box(box, spec.n))
    return FunctionExpr("quasi_sum", spec.n, {"spec": spec})


def build_ratio(outer: ScalarFn) -> FunctionExpr:
    """F(x_2 / x_1) on two inputs, F strictly increasing on the positive axis."""
    if not isinstance(outer, ScalarFn):
        raise SpecError("outer must be a ScalarFn")
    if not outer.increasing_on_positive():
        raise SpecError("outer must be strictly increasing on the positive axis")
    return FunctionExpr("ratio", 2, {"outer": outer})


# -- derived quantities ------------------------------------------------------


def euler_quotients(table: PointTable) -> np.ndarray:
    """Euler quotients (x . grad f) / f at the rows of ``table``.

    Constant across points exactly when the function is homogeneous.
    """
    if not table.value.all():
        raise DomainError("homogeneity degree undefined where f vanishes")
    return np.einsum("pi,pi->p", table.points, table.gradient) / table.value


def homogeneity_degree(expr: FunctionExpr, point) -> float:
    """Euler quotient at ``point``: the one-point slice of euler_quotients."""
    return float(euler_quotients(expr._row(point))[0])


def hessian_factors(factors) -> tuple:
    """(D, c, u) = (F' h'', F'', h') of Hess = diag(D) + c u u^T."""
    f1, f2, d1, d2 = factors
    return f1[:, np.newaxis] * d2, f2, d1


def hessian_det_terms(diag, c, u) -> np.ndarray:
    """The (N, n+1) terms of det(diag(D) + c u u^T) = sum T per row: T_0 =
    prod D_i and T_j = c u_j^2 prod_{i != j} D_i, from prefix and suffix
    products (no division)."""
    ones = np.ones((len(diag), 1))
    before = np.cumprod(np.hstack([ones, diag[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, diag[:, :0:-1]]), axis=1)[:, ::-1]
    return np.column_stack([before[:, -1] * diag[:, -1],
                            c[:, np.newaxis] * (u * u) * (before * after)])


@np.errstate(all="ignore")
def hessian_det_quasisum(spec: QuasiSumSpec, point) -> float:
    """det H = F'^n prod(h_i'') + F'^(n-1) F'' sum_j prod_{i != j}(h_i'') h_j'^2
    of a quasi-sum at ``point``: the one-point sum of hessian_det_terms over
    the kernel's factors; DomainError when it leaves the float range."""
    row = FunctionExpr("quasi_sum", spec.n, {"spec": spec})._row(point)
    det = float(hessian_det_terms(*hessian_factors(row.factors)).sum())
    if not math.isfinite(det):
        raise DomainError("Hessian determinant overflows the float range")
    return det


def as_quasi_sum(expr: FunctionExpr) -> QuasiSumSpec:
    """Rewrite a family expression in quasi-sum form, when one exists.

    Cobb-Douglas becomes exp of a weighted log sum; the aggregator family
    becomes a power outer over power inners (only when d/rho > 0, otherwise
    the outer would be decreasing); a ratio becomes log inners of opposite
    sign under the outer rewritten in log coordinates (affine and log outers
    only; the exp form has no rate parameter).
    """
    if expr.family == "quasi_sum":
        return expr.params["spec"]
    if expr.family == "cobb_douglas":
        return QuasiSumSpec(
            outer=ScalarFn(FORM_EXP, expr.params["gamma"]),
            inner=tuple(ScalarFn(FORM_LOG, a) for a in expr.params["alpha"]))
    if expr.family == "acms":
        rho = expr.params["rho"]
        exp_out = expr.params["d"] / rho
        if exp_out <= 0.0:
            raise SpecError(
                "no increasing quasi-sum form exists when d/rho <= 0")
        return QuasiSumSpec(
            outer=ScalarFn(FORM_POWER, expr.params["gamma"], exponent=exp_out),
            inner=tuple(ScalarFn(FORM_POWER, w, exponent=rho)
                        for w in expr.params["weights"]))
    outer: ScalarFn = expr.params["outer"]  # ratio
    inner = (ScalarFn(FORM_LOG, -1.0), ScalarFn(FORM_LOG, 1.0))
    if outer.form == FORM_AFFINE:
        return QuasiSumSpec(
            outer=ScalarFn(FORM_EXP, outer.coefficient, shift=outer.shift),
            inner=inner)
    if outer.form == FORM_LOG:
        return QuasiSumSpec(
            outer=ScalarFn(FORM_AFFINE, outer.coefficient, shift=outer.shift),
            inner=inner)
    raise SpecError(
        f"ratio with {outer.form} outer has no quasi-sum form in this family")


def normalize_outer_shift(expr: FunctionExpr) -> FunctionExpr:
    """Copy of ``expr`` with any additive output constant removed."""
    if expr.family == "quasi_sum":
        spec: QuasiSumSpec = expr.params["spec"]
        if spec.outer.shift == 0.0:
            return expr
        bare = QuasiSumSpec(outer=replace(spec.outer, shift=0.0),
                            inner=spec.inner)
        return FunctionExpr("quasi_sum", expr.n, {"spec": bare})
    if expr.family == "ratio":
        outer: ScalarFn = expr.params["outer"]
        if outer.shift == 0.0:
            return expr
        return FunctionExpr("ratio", 2, {"outer": replace(outer, shift=0.0)})
    return expr


# -- document form ------------------------------------------------------------

_FAMILY_KEYS = {
    "cobb_douglas": {"type", "gamma", "alpha"},
    "acms": {"type", "gamma", "a", "rho", "d"},
    "quasi_sum": {"type", "outer", "inner"},
    "ratio": {"type", "outer"},
}


def expr_from_dict(doc, box=None) -> FunctionExpr:
    """Build an expression from its document form (see README for the keys)."""
    if not isinstance(doc, dict):
        raise SpecError("function document must be an object")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise SpecError(
            f"unknown function type {kind!r}; expected one of "
            f"{sorted(_FAMILY_KEYS)}")
    extra = set(doc) - _FAMILY_KEYS[kind]
    if extra:
        raise SpecError(f"unknown keys for {kind}: {sorted(extra)}")
    missing = _FAMILY_KEYS[kind] - set(doc)
    if missing:
        raise SpecError(f"missing keys for {kind}: {sorted(missing)}")
    if kind == "cobb_douglas":
        return build_cobb_douglas(_doc_number(doc["gamma"], "gamma"),
                                  _doc_numbers(doc["alpha"], "alpha"))
    if kind == "acms":
        gamma, rho, d = (_doc_number(doc[k], k) for k in ("gamma", "rho", "d"))
        return build_acms(gamma, _doc_numbers(doc["a"], "a"), rho, d)
    if kind == "quasi_sum":
        inner = doc["inner"]
        if not isinstance(inner, (list, tuple)):
            raise SpecError("inner must be an array of scalar function records")
        spec = QuasiSumSpec(outer=ScalarFn.from_dict(doc["outer"]),
                            inner=tuple(ScalarFn.from_dict(h) for h in inner))
        return build_quasi_sum(spec, box)
    return build_ratio(ScalarFn.from_dict(doc["outer"]))


def _doc_number(value, name: str):
    """A number field of a document, as written: bool (true would read as
    1.0), null and text are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{name} is too large for a float") from None


def _doc_numbers(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{name} must be an array, got {type(value).__name__}")
    return [_doc_number(v, f"{name} entry") for v in value]


def expr_to_dict(expr: FunctionExpr) -> dict:
    """Document form of an expression."""
    p = expr.params
    if expr.family == "cobb_douglas":
        return {"type": "cobb_douglas", "gamma": p["gamma"],
                "alpha": list(p["alpha"])}
    if expr.family == "acms":
        return {"type": "acms", "gamma": p["gamma"], "a": list(p["a"]),
                "rho": p["rho"], "d": p["d"]}
    if expr.family == "quasi_sum":
        spec: QuasiSumSpec = p["spec"]
        return {"type": "quasi_sum", "outer": spec.outer.to_dict(),
                "inner": [h.to_dict() for h in spec.inner]}
    return {"type": "ratio", "outer": p["outer"].to_dict()}


def validate_box(box, n: int | None = None):
    """Check a per-axis (lo, hi) box: strictly positive, lo < hi, finite;
    None is the default box of ``n`` axes."""
    if box is None:
        return default_box(n)
    out = []
    for axis, pair in enumerate(box):
        lo, hi = (float(pair[0]), float(pair[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SpecError(f"box axis {axis} bounds must be finite")
        if lo <= 0.0 or lo >= hi:
            raise SpecError(
                f"box axis {axis} needs 0 < lo < hi, got {lo!r}:{hi!r}")
        out.append((lo, hi))
    if n is not None and len(out) != n:
        raise SpecError(f"box has {len(out)} axes, expected {n}")
    return tuple(out)
