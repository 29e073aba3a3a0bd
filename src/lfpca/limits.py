"""Numerical limits shared by the pipeline; ``lfpca fit`` echoes them in manifest.json."""

# Largest condition number (sigma_1 / sigma_d)^2 of the moment design product
# F F' that mom.judge_design, the one identifiability rule, accepts.
FF_CONDITION_LIMIT = 1e12
# Largest condition number of a subject's score normal equations that is
# solved directly; above it the minimum-norm least-squares solution is used
# and the subject is flagged rank deficient.
BLUP_CONDITION_LIMIT = 1e10
# Gram eigenvalues at or below RANK_EPS * max(s_1, 1) count as zero.
RANK_EPS = 1e-12
# top_eigenpairs accepts Krylov Ritz pairs whose residuals ||K x - theta x||
# are at most EIGEN_RESIDUAL_TOL * ||K||_1, and drops block directions of
# that norm or less as dependent.
EIGEN_RESIDUAL_TOL = 1e-13
# ... and only when the wanted pairs' residual over the gap to the next Ritz
# value, a bound on the error of their vectors' span, is below this.
EIGEN_VECTOR_TOL = 1e-10
