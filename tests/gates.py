"""Numeric gates the test suite checks the library against.

The library never reads these, so reports do not carry them; the
thresholds behind its verdicts are in ``prodgeo.tolerances``.  Tests
compare against these names rather than repeating literals.
"""

# Finite-difference oracle.
GRADIENT_FD_RTOL = 1e-6         # jet gradient vs central differences, relative
HESSIAN_FD_SCALED_TOL = 1e-4    # jet Hessian vs differences, scaled by largest entry

# Jet arithmetic.
JET_VALUE_ARITHMETIC_RTOL = 1e-14

# Closed-form determinant and homogeneity checks.
HESSIAN_DET_RTOL = 1e-9
HOMOGENEITY_ATOL = 1e-10
EULER_RADIAL_TOL = 1e-10        # degree-1: ||H x|| <= tol * ||H|| * ||x||

# Elasticity of substitution.
SCALE_INVARIANCE_TOL = 1e-10    # homogeneous f: elasticity is degree-0 in x
SIGMA_ROOT_MATCH_TOL = 1e-9     # elasticity vs root of the identity residual in sigma

# Structure matching.
LEVELSET_ROUNDTRIP_RTOL = 1e-8
RAY_INVARIANCE_TOL = 1e-10      # two-input ratio: f(t*x) == f(x)

# Graph geometry.
METRIC_DET_RTOL = 1e-12         # det(metric) vs W^2
SHAPE_DET_RTOL = 1e-9           # det(shape operator) vs Gauss-Kronecker
NORMAL_ORTHOGONALITY_TOL = 1e-12
UNIT_NORM_TOL = 1e-14
FLATNESS_VERDICT_TOL = 1e-9     # flatness_residual below this: flat
CLEAR_NONFLAT_TOL = 1e-6        # ... above this: clearly curved

# Outer-function differential consistency.
ODE_MATCH_TOL = 1e-12
ODE_MISMATCH_MIN = 1e-3
