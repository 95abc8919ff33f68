"""Forward-mode second-order jets: exact gradients and Hessians.

Evaluating an expression on :class:`Jet2` operands propagates the value, the
gradient, and the full Hessian simultaneously, so first and second
derivatives come out exact up to floating-point rounding, with no truncation
error.  The supported operation set is addition, scalar multiples, products,
real-exponent powers, the natural logarithm, the exponential, and composition
with a one-variable outer function supplied through its first two
derivatives.

The document families get their derivatives from the batched kernel in
:mod:`prodgeo.families`; jets now serve ``custom`` composites, carry the
kernel's one-point results, and give the tests an independent oracle.

Hessians are assembled from symmetric building blocks only (scaled symmetric
matrices and symmetrized outer products), which keeps ``hessian[i, j] ==
hessian[j, i]`` exact, not merely within tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

Number = (int, float, np.integer, np.floating)


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i*b_j + b_i*a_j is bitwise symmetric because float * and + commute.
    return np.outer(a, b) + np.outer(b, a)


class Jet2:
    """Value, gradient, and symmetric Hessian of one scalar quantity."""

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        self.value = float(value)
        self.gradient = np.asarray(gradient, dtype=float)
        self.hessian = np.asarray(hessian, dtype=float)
        n = self.gradient.shape[0] if self.gradient.ndim == 1 else -1
        if self.gradient.ndim != 1 or self.hessian.shape != (n, n):
            raise ValueError("gradient must be (n,) and hessian (n, n)")

    @property
    def n(self) -> int:
        return self.gradient.shape[0]

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet2":
        return cls(float(value), np.zeros(n), np.zeros((n, n)))

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.n != self.n:
                raise ValueError(
                    f"jet dimension mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, Number):
            return Jet2.constant(float(other), self.n)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet2(self.value + o.value, self.gradient + o.gradient,
                    self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        hess = (self.value * o.hessian + o.value * self.hessian
                + _sym_outer(self.gradient, o.gradient))
        return Jet2(self.value * o.value,
                    self.value * o.gradient + o.value * self.gradient,
                    hess)

    __rmul__ = __mul__

    # -- powers, log, exp, composition ------------------------------------

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with an outer function given (f(v), f'(v), f''(v)) at the
        current value v.  This is the one-variable chain rule carried to
        second order."""
        g = self.gradient
        hess = f1 * self.hessian + f2 * np.outer(g, g)
        return Jet2(f0, f1 * g, hess)

    def __pow__(self, exponent):
        p = float(exponent)
        if p == 0.0:
            return Jet2.constant(1.0, self.n)
        if p == 1.0:
            return Jet2(self.value, self.gradient, self.hessian)
        v = self.value
        if p.is_integer():
            if v == 0.0 and p < 0:
                raise DomainError("zero base with negative exponent")
        elif v <= 0.0:
            raise DomainError(
                f"fractional power requires a positive base, got {v!r}")
        return self.chain(v ** p, p * v ** (p - 1.0),
                          p * (p - 1.0) * v ** (p - 2.0))

    def log(self) -> "Jet2":
        v = self.value
        if v <= 0.0:
            raise DomainError(f"log requires a positive argument, got {v!r}")
        return self.chain(math.log(v), 1.0 / v, -1.0 / (v * v))

    def exp(self) -> "Jet2":
        e = math.exp(self.value)
        return self.chain(e, e, e)


def lift_variable(index: int, value: float, n: int) -> Jet2:
    """Seed coordinate ``index`` of an ``n``-input jet at ``value``.

    The gradient is the standard basis vector, the Hessian is zero.
    """
    if not isinstance(index, (int, np.integer)):
        raise TypeError("index must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} inputs")
    x = float(value)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(
            f"inputs live on the positive orthant, got x[{index}] = {x!r}")
    grad = np.zeros(n)
    grad[index] = 1.0
    return Jet2(x, grad, np.zeros((n, n)))


def evaluate_jet(expr, point) -> Jet2:
    """The exact value, gradient and symmetric Hessian of ``expr`` at
    ``point``, as a jet (``expr`` is anything with a ``jet(point)`` method).
    """
    return expr.jet(point)


def finite_difference_oracle(expr, point, step: float | None = None) -> Jet2:
    """Gradient and Hessian by central differences, packaged as a jet.

    Independent of the jet arithmetic: only ``expr.value`` is used.  The
    per-coordinate step is ``step * max(1, |x_i|)``.  Every stencil point
    must stay strictly inside the positive orthant.
    """
    from . import tolerances

    if step is None:
        step = tolerances.FD_DEFAULT_STEP
    x = np.asarray(point, dtype=float)
    n = x.shape[0]
    h = step * np.maximum(1.0, np.abs(x))
    if np.any(x - h <= 0.0):
        raise DomainError("step too large: stencil leaves the positive orthant")

    f, e = expr.value, np.diag(h)  # e[i]: the step along coordinate i
    f0 = f(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        fp, fm = f(x + e[i]), f(x - e[i])
        grad[i] = (fp - fm) / (2.0 * h[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h[i] * h[i])
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                - f(x - e[i] + e[j]) + f(x - e[i] - e[j])) / (4.0 * h[i] * h[j])
    return Jet2(f0, grad, hess)
