"""Numerical tolerances, kept in one table.

Every tolerance used anywhere in the package is defined here.  The report
tolerance and the root-finding grid and tolerance are the defaults of
parameters; the others are constants.  Tests import these names instead of
repeating literals.
"""

# Construction-time validation of density matrices: Hermiticity defect,
# trace deviation and the allowed negative dip of the smallest eigenvalue.
VALIDATION_TOL = 1e-10

# Slack on the X-state parameter checks: on the unit diagonal sum, and times
# the block trace on the positivity conditions d2*d3 >= |c23|^2, d1*d4 >= |c14|^2.
XSTATE_PARAM_TOL = 1e-12

# Slack when judging an inequality report "satisfied".
REPORT_TOL = 1e-9

# Slack on the strict inequalities behind entanglement verdicts; boundary
# cases (equality) are classified separable.
ENTANGLE_TOL = 1e-12

# Sign-scan root finding.
ROOT_GRID = 2048
ROOT_TOL = 1e-10

# Allowed violation of |a|^2 + |b|^2 = 1 for Gisin parameters (the published
# {0.07, 0.99} figure parameters miss normalization by 1.5%).
GISIN_NORM_SLACK = 0.02

# Grid points for family sweeps.
SWEEP_POINTS = 200
