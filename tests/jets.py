"""Forward-mode second-order jet arithmetic: the tests' derivative oracle.

Evaluating an expression on :class:`Jet` operands propagates the value, the
gradient, and the full Hessian simultaneously, so first and second
derivatives come out exact up to floating-point rounding, with no truncation
error.  The supported operation set is addition, scalar multiples, products,
real-exponent powers, the natural logarithm, the exponential, and composition
with a one-variable outer function supplied through its first two
derivatives.

prodgeo evaluates every family through one batched quasi-sum kernel; this
arithmetic builds the same derivatives by the chain and product rules
instead, so agreement between the two is a real cross-check.

Hessians are assembled from symmetric building blocks only (scaled symmetric
matrices and symmetrized outer products), which keeps ``hessian[i, j] ==
hessian[j, i]`` exact, not merely within tolerance.

The module also holds the determinant and 2x2 minors of an assembled
Hessian, the oracle for the kernel's closed forms over its factors.
"""

from __future__ import annotations

import math

import numpy as np

from prodgeo import DomainError, Jet2
from prodgeo.families import index_pairs

Number = (int, float, np.integer, np.floating)


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i*b_j + b_i*a_j is bitwise symmetric because float * and + commute.
    return np.outer(a, b) + np.outer(b, a)


class Jet(Jet2):
    """A :class:`prodgeo.Jet2` record with jet arithmetic."""

    __slots__ = ()

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet":
        return cls(float(value), np.zeros(n), np.zeros((n, n)))

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.n != self.n:
                raise ValueError(
                    f"jet dimension mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, Number):
            return Jet.constant(float(other), self.n)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(self.value + o.value, self.gradient + o.gradient,
                   self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.gradient, -self.hessian)

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
        return Jet(self.value * o.value,
                   self.value * o.gradient + o.value * self.gradient,
                   hess)

    __rmul__ = __mul__

    # -- powers, log, exp, composition ------------------------------------

    def chain(self, f0: float, f1: float, f2: float) -> "Jet":
        """Compose with an outer function given (f(v), f'(v), f''(v)) at the
        current value v.  This is the one-variable chain rule carried to
        second order."""
        g = self.gradient
        hess = f1 * self.hessian + f2 * np.outer(g, g)
        return Jet(f0, f1 * g, hess)

    def __pow__(self, exponent):
        p = float(exponent)
        if p == 0.0:
            return Jet.constant(1.0, self.n)
        if p == 1.0:
            return Jet(self.value, self.gradient, self.hessian)
        v = self.value
        if p.is_integer():
            if v == 0.0 and p < 0:
                raise DomainError("zero base with negative exponent")
        elif v <= 0.0:
            raise DomainError(
                f"fractional power requires a positive base, got {v!r}")
        return self.chain(v ** p, p * v ** (p - 1.0),
                          p * (p - 1.0) * v ** (p - 2.0))

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise DomainError(f"log requires a positive argument, got {v!r}")
        return self.chain(math.log(v), 1.0 / v, -1.0 / (v * v))

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        return self.chain(e, e, e)


def lift_variable(index: int, value: float, n: int) -> Jet:
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
    return Jet(x, grad, np.zeros((n, n)))


@np.errstate(all="ignore")
def assembled_curvatures(gradient: np.ndarray, hessian: np.ndarray) -> dict:
    """``area_factor`` W, ``gauss_kronecker`` det Hess / W^(n+2) (det by LU)
    and ``riemann_max``, the largest |2x2 minor| of h = Hess / W, per row of
    (N, n) gradients and (N, n, n) assembled Hessians."""
    w_sq = 1.0 + np.einsum("pi,pi->p", gradient, gradient)
    w = np.sqrt(w_sq)
    second = hessian / w[:, np.newaxis, np.newaxis]
    i, j = index_pairs(gradient.shape[-1])
    rows_i, rows_j = second[:, i, :], second[:, j, :]
    rmax = np.abs(rows_i[:, :, i] * rows_j[:, :, j]
                  - rows_i[:, :, j] * rows_j[:, :, i]).max(axis=(1, 2))
    gk = np.linalg.det(hessian) / w_sq
    for _ in range(gradient.shape[-1]):
        gk = gk / w
    return {"area_factor": w, "gauss_kronecker": gk, "riemann_max": rmax}
