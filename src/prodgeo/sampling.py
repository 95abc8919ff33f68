"""Point sampling on boxes in the positive orthant.

Everything here works in log coordinates: random samples are log-uniform and
grids are geometric, so the positive orthant is covered without crowding the
large end of each axis.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecError

__all__ = ["MAX_POINTS", "box_center", "log_uniform", "log_grid", "grid_shape",
           "check_points"]

# The most points one request evaluates: scan's grid, or the box center and
# the samples of verify, classify and elasticity --box.
MAX_POINTS = 1_000_000


def check_points(count: int) -> None:
    """SpecError where ``count`` points exceed MAX_POINTS, before anything
    is allocated for them."""
    if count > MAX_POINTS:
        raise SpecError(f"the request evaluates {count} points; at most "
                        f"{MAX_POINTS} are allowed")


def box_center(box) -> np.ndarray:
    """Arithmetic midpoint of each axis of a checked box."""
    return np.array([(lo + hi) / 2.0 for lo, hi in box])


def log_uniform(box, count: int, seed: int = 0) -> np.ndarray:
    """(count, n) array of independent log-uniform points in the checked
    ``box``: lo * (hi/lo)^u, or exp(log lo + u log(hi/lo)) on axes where
    hi/lo overflows."""
    rng = np.random.default_rng(seed)
    u = rng.random((int(count), len(box)))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    with np.errstate(over="ignore"):
        ratio = hi / lo
    points = lo * ratio ** u
    wide = ~np.isfinite(ratio)
    log_lo, log_hi = np.log(lo[wide]), np.log(hi[wide])
    points[:, wide] = np.exp(log_lo + u[:, wide] * (log_hi - log_lo))
    return points


def grid_shape(n_axes: int, samples: int) -> int:
    """Points per axis so the full grid lands near ``samples`` total."""
    per = round(float(samples) ** (1.0 / n_axes))
    return max(2, int(per))


def log_grid(box, samples: int) -> np.ndarray:
    """Geometric grid over the checked ``box`` with about ``samples``
    points in total.

    Rows are ordered with the last axis varying fastest.
    """
    per = grid_shape(len(box), samples)
    check_points(per ** len(box))
    axes = [np.geomspace(lo, hi, per) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
