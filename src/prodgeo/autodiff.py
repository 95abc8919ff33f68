"""Second-order records: a value, its gradient and its Hessian at one point.

:class:`Jet2` is a plain validated record.  :func:`finite_difference_oracle`
fills it from central differences of the plain value alone, as a check of
the batched kernel in :mod:`prodgeo.families` that is independent of it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


class Jet2:
    """Value, (n,) gradient and (n, n) Hessian of one scalar quantity."""

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


def finite_difference_oracle(expr, point, step: float = 1e-4) -> Jet2:
    """Gradient and Hessian by central differences, packaged as a jet.

    Independent of the derivative kernel: only ``expr.value`` is used.  The
    per-coordinate step is ``step * max(1, |x_i|)``.  Every stencil point
    must stay strictly inside the positive orthant.
    """
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
