"""Numerical thresholds the library reads.

Every constant here decides a verdict or sets a default the library uses, so
each report embeds this whole table and states the exact contract it was
produced under.  Values are part of the output contract; change them
deliberately.  The gates that only the test suite checks against live in
``tests/gates.py``.
"""

# Finite-difference oracle.
FD_DEFAULT_STEP = 1e-4          # central-difference step, scaled by max(1, |x_i|)

# Elasticity of substitution.
DEGENERACY_EPS = 1e-9           # numerator/denominator vanishing, scale-normalized
CES_CONSTANCY_RTOL = 1e-6       # constancy of the pairwise elasticity across samples
CES_RESIDUAL_TOL = 1e-8         # identity residual bound for a regular verdict
SIGMA_ONE_TIE_TOL = 1e-6        # |sigma - 1| below this selects the log branch

# Structure matching.
EXPONENT_MATCH_TOL = 1e-12
DEGREE_ONE_TOL = 1e-12          # exact-parameter linear-homogeneity tests
STRUCTURE_RESIDUAL_TOL = 1e-8

# Graph geometry.
VANISHING_CURVATURE_TOL = 1e-10  # |sum T| / sum |T| below this: G is zero
CLEAR_CURVATURE_TOL = 1e-6       # ... above this: G is clearly nonzero
FLATNESS_VERDICT_TOL = 1e-9      # normalized Riemann residual below this is flat
CLEAR_NONFLAT_TOL = 1e-6


def as_dict() -> dict[str, float]:
    """All tolerances in effect, for inclusion in reports."""
    return {
        name: float(value)
        for name, value in sorted(globals().items())
        if name.isupper() and isinstance(value, float)
    }
