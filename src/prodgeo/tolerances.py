"""Numerical thresholds the library reads.

Every constant here decides a verdict the library reports, so each report
embeds this whole table and states the exact contract it was produced
under.  Values are part of the output contract; change them
deliberately.  The gates that only the test suite checks against live in
``tests/gates.py``.
"""

# Elasticity of substitution.
DEGENERACY_EPS = 1e-9           # numerator/denominator vanishing, scale-normalized
CES_CONSTANCY_RTOL = 1e-6       # constancy of the pairwise elasticity across samples
CES_RESIDUAL_TOL = 1e-8         # identity residual bound for a regular verdict

# Structure matching: equal exponents, opposite log coefficients, degree one.
PARAMETER_MATCH_TOL = 1e-12     # exact tests of document parameters

# Graph geometry: T are the terms of det Hess (G) or of its 2x2 minors.
VANISHING_CURVATURE_TOL = 1e-10  # |sum T| / sum |T| below this: zero
CLEAR_CURVATURE_TOL = 1e-6       # ... above this: clearly nonzero


def as_dict() -> dict[str, float]:
    """All tolerances in effect, for inclusion in reports."""
    return {
        name: float(value)
        for name, value in sorted(globals().items())
        if name.isupper() and isinstance(value, float)
    }
