"""Numeric tolerances shared across the test suite."""

# distance kept from spline knots when finite-differencing the penalty
KNOT_DISTANCE = 1e-3
FD_STEP = 1e-6
FD_TOL = 1e-5

ADJOINT_TOL = 1e-10
# cached-Hessian loss, gradient and curvature against the explicit maps
MODEL_TOL = 1e-10
PROJECTION_TOL = 1e-9
WEYL_SLACK = 1e-10

# prox grid oracle: coarse step, then local refinement around the best point
PROX_GRID_STEP = 1e-5
PROX_ORACLE_TOL = 1e-4
