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

import numpy as np

from .errors import DomainError, SpecError

FORM_POWER = "power"
FORM_LOG = "log"
FORM_EXP = "exp"
FORM_AFFINE = "affine"
FORMS = (FORM_POWER, FORM_LOG, FORM_EXP, FORM_AFFINE)

DEFAULT_BOX_AXIS = (0.5, 2.0)
_NOT_FINITE = ("value, gradient or Hessian is not finite "
               "(floating-point overflow)")


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


class _Record:
    """An immutable record of the fields ``__slots__`` names, the parameters
    of its constructor, which builds (and so checks) each copy too."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):  # and __delattr__
        raise AttributeError(f"cannot change {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes):
        """A copy with the fields ``changes`` names set to its values."""
        return type(self)(**{**self._fields(), **changes})

    def __reduce__(self):  # copy and pickle
        return type(self), tuple(self._fields().values())


class _Value(_Record):
    """A record equal to one of its type with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        return (self._fields() == other._fields() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))


class ScalarFn(_Value):
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

    __slots__ = ("form", "coefficient", "exponent", "shift")

    def __init__(self, form: str, coefficient: float,
                 exponent: float | None = None, shift: float = 0.0):
        if form not in FORMS:
            raise SpecError(f"unknown scalar form {form!r}")
        c = float(coefficient)
        if not math.isfinite(c) or c == 0.0:
            raise SpecError("coefficient must be finite and nonzero")
        if form == FORM_POWER:
            if exponent is None:
                raise SpecError("power form requires an exponent")
            exponent = float(exponent)
            if not math.isfinite(exponent) or exponent == 0.0:
                raise SpecError("power exponent must be finite and nonzero")
        elif exponent is not None:
            raise SpecError(f"{form} form takes no exponent")
        s = float(shift)
        if not math.isfinite(s):
            raise SpecError("shift must be finite")
        self._set(form, c, exponent, s)

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
            p = self.exponent  # u^1: c*1*0 signed as u, as u**-1 overflows
            return (c * x ** p + s, c * p * x ** (p - 1.0), c * p * (p - 1.0)
                    * (np.sign(x) if p == 1.0 else x ** (p - 2.0)))
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
        if self.form != FORM_POWER or (p >= 1 and p.is_integer()):
            return None, ""
        if p.is_integer():
            return x == 0.0, "power form undefined at zero"
        return x <= 0.0, f"power form with exponent {p} needs a positive argument"

    def increasing_on_positive(self) -> bool:
        """Whether the derivative is positive on the whole positive axis."""
        if self.form == FORM_POWER:
            return self.coefficient * self.exponent > 0.0
        return self.coefficient > 0.0

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


class QuasiSumSpec(_Value):
    """Outer function applied to a sum of per-input scalar functions."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: ScalarFn, inner: tuple[ScalarFn, ...]):
        inner = tuple(inner)
        if len(inner) < 2:
            raise SpecError("quasi-sum needs at least two inputs")
        if not all(isinstance(h, ScalarFn) for h in inner):
            raise SpecError("inner components must be ScalarFn instances")
        if not isinstance(outer, ScalarFn):
            raise SpecError("outer must be a ScalarFn")
        self._set(outer, inner)

    @property
    def n(self) -> int:
        return len(self.inner)

    @np.errstate(all="ignore")
    def inner_sum(self, point) -> float:
        return _fsum([h.value(x) for h, x in zip(self.inner, point)])


class PointTable(_Record):
    """One evaluation of an expression at the rows of ``points``: values
    (N,), gradients (N, n), the per-axis record ``factors`` = (F', F'',
    h', h'') of F(sum h_k(x_k)) and the outer argument ``u`` (N,) that F'
    and F'' were taken at (the inner sum, x2/x1 for the ratio family, None
    for Cobb-Douglas, whose kernel forms no sum)."""

    __slots__ = ("points", "value", "gradient", "factors", "u")

    def __init__(self, points: np.ndarray, value: np.ndarray,
                 gradient: np.ndarray, factors: tuple, u: np.ndarray | None):
        self._set(points, value, gradient, factors, u)

    @property
    def hessian(self) -> np.ndarray:
        """The (N, n, n) Hessians diag(D) + c u u^T, assembled bitwise
        symmetric on each read; DomainError where an entry is not finite."""
        f1, c, u, d2 = self.factors
        with np.errstate(all="ignore"):
            hessian = c[:, np.newaxis, np.newaxis] * (
                u[:, :, np.newaxis] * u[:, np.newaxis, :])
            hessian.reshape(len(u), -1)[:, ::u.shape[1] + 1] += \
                f1[:, np.newaxis] * d2
        if not np.isfinite(hessian).all():
            raise DomainError(_NOT_FINITE)
        return hessian


class PointRecords(_Record):
    """Per-point records as one (N, k) float64 array: ``fields`` holds the
    sorted keys and widths (0 for a float, m for a list of m floats) of the
    columns of ``data``; ``len`` and ``[i]`` (so iteration too) give dicts."""

    __slots__ = ("fields", "data")

    def __init__(self, fields: tuple, data: np.ndarray):
        self._set(fields, data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> dict:
        row, out, k = self.data[i].tolist(), {}, 0
        for name, width in self.fields:
            out[name] = row[k:k + width] if width else row[k]
            k += width or 1
        return out


class FunctionExpr(_Record):
    """Evaluable member of one of the closed families.

    family  one of cobb_douglas, acms, quasi_sum, ratio (the document
            types; any other is a SpecError)
    n       input count
    params  family-specific record
    """

    __slots__ = ("family", "n", "params")

    def __init__(self, family: str, n: int, params: dict):
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise SpecError(f"unknown family {family!r}; expected one "
                            f"of {sorted(_FAMILY_KEYS)}")
        self._set(family, n, params)

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

    def derivatives(self, points) -> PointTable:
        """The PointTable of the rows of an (N, n) point array, in one
        vectorised pass.

        Every family is F(h_1(x_1) + ... + h_n(x_n)): from per-axis h', h''
        and F', F'' at the inner sum, grad = F' h' and Hess = diag(D) +
        c u u^T with (D, c, u) = (F' h'', F'', h'), kept as the factors.
        Cobb-Douglas is gamma e^u over alpha_i log x_i (value from the
        direct product, as in :meth:`value`), ACMS a power over powers (F',
        F'' direct, so d/rho < 0 works), the ratio G(v) = F(e^v) over
        v = log x2 - log x1.  A non-finite value,
        gradient or factor raises DomainError."""
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
                u = None
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
                u = x[:, 1] / x[:, 0]
                f, g1, g2 = p["outer"].derivatives(u)
                f1 = g1 * u
                f2 = g2 * u * u + f1
                # Inner -log x1 and log x2: h'' = (h')^2 and -(h')^2, formed
                # from d1 itself so that H22 cancels exactly when F'' = 0.
                d1 = np.array([-1.0, 1.0]) / x
                d2 = d1 * d1 * np.array([1.0, -1.0])
            factors = (f1, f2, d1, d2)
            gradient = f1[:, np.newaxis] * d1
        if not all(np.isfinite(a).all() for a in (f, gradient, *factors)):
            raise DomainError(_NOT_FINITE)
        return PointTable(x, f, gradient, factors, u)


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
                        {"gamma": g, "rho": rho, "d": d,
                         "weights": tuple(weights)})


@np.errstate(all="ignore")
def _validate_quasi_sum_on_box(spec: QuasiSumSpec, box) -> None:
    """Exact check on the declared (positive) box.  Each closed form is
    monotone on a positive interval, with a slope of one sign and monotone
    size, so each inner is checked at its box ends and the outer at the ends
    of the inner-sum range, then at u = 0 if inside, where the slope of an
    integer power other than u^1 can vanish or blow up.  Overflow is a
    DomainError naming the part."""
    lo_sum = hi_sum = 0.0
    for i, (ends, h) in enumerate(zip(box, spec.inner)):
        v, d1 = h.derivatives(ends)[:2]
        if not (np.isfinite(v).all() and np.isfinite(d1).all()):
            raise DomainError(f"inner component {i} overflows on the box: "
                              f"its value or slope is not finite")
        bad = (d1 == 0.0) | (np.signbit(d1) != np.signbit(d1[0]))
        if bad.any():
            raise SpecError(f"inner component {i} is not strictly monotone "
                            f"at x={ends[bad.argmax()]!r}")
        lo_sum, hi_sum = lo_sum + min(v), hi_sum + max(v)
    zero = [(0.0,)] if lo_sum < 0.0 < hi_sum else []
    for us in map(np.array, [(lo_sum, hi_sum), *zero]):
        outside = spec.outer._outside(us)[0]
        if outside is not None and outside.any():
            raise SpecError("outer undefined on the inner-sum range at "
                            f"u={float(us[outside.argmax()])!r}")
        d1 = spec.outer.derivatives(us)[1]
        if not np.isfinite(d1).all():
            raise DomainError("outer slope is not finite on the inner-sum range")
        k = (d1 <= 0.0).argmax()
        if d1[k] <= 0.0:
            raise SpecError(
                f"outer must be strictly increasing on the inner-sum range; "
                f"derivative is {float(d1[k])!r} at u={float(us[k])!r}")


def build_quasi_sum(spec: QuasiSumSpec, box=None) -> FunctionExpr:
    """F(h_1(x_1) + ... + h_n(x_n)) after an exact validity check on ``box``
    (default [0.5, 2]^n), which the expression does not store."""
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
    """Euler quotients (x . grad f) / f at the rows of ``table``, formed as
    (F' / f) sum_k x_k h_k' from the per-axis record, so that x . grad f,
    which can overflow where the quotient is representable, is never formed.

    Constant across points exactly when the function is homogeneous.
    """
    if not table.value.all():
        raise DomainError("homogeneity degree undefined where f vanishes")
    with np.errstate(all="ignore"):
        return table.factors[0] / table.value * np.einsum(
            "pi,pi->p", table.points, table.factors[2])


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
