"""Method-of-moments regression of pairwise visit products on covariates.

Every ordered within-subject visit pair (i, j1, j2) contributes one column
to the design matrix F. Regressing the pairwise quadratics on those columns
(via the weight matrix H = F'(FF')^{-1}) yields unbiased estimates of the
subject-level covariance blocks K^{ks} and the visit-level covariance K^W.
The quadratics are never formed in p dimensions here: the same weights are
applied to the low-dimensional vectors S^{1/2} U_ij, which is what makes
the whole fit linear in p. Subjects with the same visit count J share the
shape of their pair block, so F and the weighted products are built one
visit-count group at a time, never one subject or one pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, ValidationError
from .gram import IntrinsicDecomposition, check_finite
from .limits import FF_CONDITION_LIMIT


@dataclass
class DesignReport:
    """Outcome of judge_design: ok iff no failure was recorded."""

    failures: list[str]
    rank: int
    required_rank: int
    condition_number: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return (f"design ok: moment design matrix has full row rank "
                    f"{self.rank}/{self.required_rank}")
        return "design invalid: " + "; ".join(self.failures)


@dataclass
class MomDesign:
    """Design matrix F (d x m), weights H (m x d), and the pair bookkeeping.

    d = (q+1)^2 + 1. Row s + k*(q+1) of F carries Z_{ij1,k} * Z_{ij2,s}
    (0-based; the last row is the same-visit indicator). Pairs are
    enumerated subjects in design order, (j1, j2) row-major, so subject i
    owns the contiguous column block starting at pair_offsets[i].
    compute_weights sets h and the report of :func:`judge_design` it passed.
    """

    f: np.ndarray
    pair_offsets: np.ndarray
    q: int
    h: np.ndarray | None = None
    report: DesignReport | None = None

    @property
    def n_rows(self) -> int:
        return (self.q + 1) ** 2 + 1


def build_design_matrix(design: "StudyDesign") -> MomDesign:
    """Build F for a validated design from the covariate products
    Z_{ij1,k} Z_{ij2,s}; for q = 1 its columns are (1, T_{ij2}, T_{ij1},
    T_{ij1} T_{ij2}, same-visit).
    """
    q = design.q
    d = (q + 1) ** 2 + 1
    counts = np.asarray(design.visit_counts)
    offsets = np.concatenate([[0], np.cumsum(counts * counts)]).astype(np.int64)
    f = np.empty((d, int(offsets[-1])))
    z_all = design.stacked_z()
    for j, idx, cols in design.visit_groups():
        z = z_all[cols]  # (G, J, q+1)
        pairs = (offsets[idx][:, None] + np.arange(j * j)).ravel()
        f[:d - 1, pairs] = np.einsum("gak,gbs->gabks", z, z).reshape(pairs.size, d - 1).T
        f[d - 1, pairs] = np.tile(np.eye(j).ravel(), idx.size)
    return MomDesign(f=f, pair_offsets=offsets, q=q)


def judge_design(mom: MomDesign) -> DesignReport:
    """The identifiability rule, from one SVD of F: full row rank (q+1)^2 + 1,
    a condition number (sigma_1 / sigma_d)^2 of F F' at most FF_CONDITION_LIMIT,
    and a subject with three or more visits (J^2 >= 9 pair columns), which is
    what separates the visit-level component from the subject trajectory.
    The report lists every deficiency instead of raising at the first."""
    failures: list[str] = []
    required = mom.n_rows
    if np.diff(mom.pair_offsets).max() < 9:
        failures.append("no subject has 3 or more visits; the visit-specific component "
                        "is not identifiable")
    f = mom.f
    sv = np.linalg.svd(f, compute_uv=False)
    rank = int(np.sum(sv > sv[0] * max(f.shape) * np.finfo(float).eps)) if sv[0] > 0 else 0
    if rank < required:
        failures.append(f"moment design matrix is rank deficient ({rank} < {required}); "
                        "check visit counts and covariate spread")
        cond = np.inf
    else:
        cond = float((sv[0] / sv[required - 1]) ** 2)  # condition number of F F'
        if cond > FF_CONDITION_LIMIT:
            failures.append(f"moment design matrix is numerically singular "
                            f"(condition {cond:.2e} > {FF_CONDITION_LIMIT:.0e})")
    return DesignReport(failures=failures, rank=rank, required_rank=required,
                        condition_number=cond)


def compute_weights(mom: MomDesign) -> MomDesign:
    """Attach H = F'(FF')^{-1}, whose columns are the pair weights, and the
    report; a design :func:`judge_design` fails raises IdentifiabilityError."""
    report = judge_design(mom)
    if not report.ok:
        raise IdentifiabilityError(str(report))
    mom.h = np.linalg.solve(mom.f @ mom.f.T, mom.f).T
    mom.report = report
    return mom


def intrinsic_covariances(decomp: IntrinsicDecomposition, mom: MomDesign,
                          design: "StudyDesign", gram: np.ndarray) -> IntrinsicCovariances:
    """Covariance estimates in the r-dimensional singular basis, as operators.

    With coordinates C = S^{1/2} U' (r x n), weight column l of H gives
    K_l = C W_l C', where W_l is the block-diagonal n x n matrix holding
    each subject's J x J pair weights. k_x (the K_l of the covariate pairs,
    (q+1)r square) and k_w (r square) are kept as their factors in a
    :class:`CovarianceOperator`: C, with the visits taken once in
    visit-count-group order, and each group's pair weights as H gives
    them, so each matrix is symmetric up to rounding. Neither matrix is
    formed here: ``k @ X`` is C (W (C' X)), and ``np.asarray(k)`` forms
    it. The estimates hold the n x r coordinates and
    (q+1)^2 + 1 weights per visit pair, where the formed matrices hold
    (q+1)^2 r^2 + r^2 values (324 MB at n = 3200; :func:`~lfpca.fit.fit_panel`
    gives the measured peaks). Raw traces are sum(W_l * G) over the diagonal
    blocks of the full Gram matrix, so they keep the complete trace even
    when the rank was truncated.
    """
    if mom.h is None:
        raise ValidationError("moment design has no weights; call compute_weights first")
    if decomp.u.shape[0] != design.n:
        raise ValidationError(
            f"decomposition has {decomp.u.shape[0]} columns, design expects {design.n}")
    if gram.shape != (design.n, design.n):
        raise ValidationError(f"Gram matrix shape {gram.shape} does not match n={design.n}")
    q, d = mom.q, mom.n_rows
    traces = np.zeros(d)
    order, groups_x, groups_w, start = [], [], [], 0
    for j, idx, cols in design.visit_groups():
        pairs = mom.pair_offsets[idx][:, None] + np.arange(j * j)
        weights = mom.h[pairs].reshape(idx.size, j, j, d)
        traces += np.einsum("gabd,gab->d", weights, gram[cols[:, :, None], cols[:, None, :]])
        stop = start + cols.size
        groups_x.append((start, stop, _pair_weights(weights[..., :d - 1], q + 1)))
        groups_w.append((start, stop, _pair_weights(weights[..., d - 1:], 1)))
        order.append(cols.ravel())
        start = stop
    coords_t = decomp.u[np.concatenate(order)]  # C' with its rows in group order
    coords_t *= np.sqrt(decomp.s)
    return IntrinsicCovariances(k_x=CovarianceOperator(coords_t, groups_x, q + 1),
                                k_w=CovarianceOperator(coords_t, groups_w, 1),
                                trace_x_raw=float(np.trace(traces[:d - 1].reshape(q + 1, q + 1))),
                                trace_w_raw=float(traces[d - 1]))


def _pair_weights(weights: np.ndarray, width: int) -> np.ndarray:
    """One visit-count group's weights, (G, J, J, width^2) with column
    k * width + s holding W_ks, laid out as the (G, J width, J width)
    matrices of the operator: row a * width + k, column b * width + s holds
    W_ks[a, b] as H gives it. Swapping the visits of every pair swaps the
    rows (k, s) and (s, k) of F, so W_ks = W_sk' and each matrix is
    symmetric up to rounding."""
    g, j = weights.shape[:2]
    layout = weights.reshape(g, j, j, width, width).transpose(0, 1, 3, 2, 4)  # [g, a, k, b, s]
    # contiguous, so the batched products of the operator run in BLAS
    return np.ascontiguousarray(layout.reshape(g, j * width, j * width))


class CovarianceOperator:
    """An intrinsic covariance K = C W C', (width r) square, kept as its
    factors: ``coords_t`` is C' (n x r) with its rows in visit-count-group
    order, and ``groups`` holds (start, stop, weights) per group, the
    (G, J width, J width) weights of :func:`_pair_weights` for the rows
    [start, stop). K has width x width blocks of r x r, ordered by
    covariate index (width q + 1 for k_x, 1 for k_w). K is symmetric up to
    rounding: a consumer reads one triangle of it, as ``eigh`` does.

    ``K @ X`` is C (W (C' X)) for a block X of K's row count or a vector:
    one n x r product per side and one batched product per group, whose
    rows of C' X and of W C' X are views, so K is never formed and nothing
    of size n x r is allocated. ``np.asarray(K)`` forms it with
    :func:`_weighted_products`: one r x n by n x r product per block on or
    above the diagonal. Both refuse non-finite results with NumericalError.
    """

    def __init__(self, coords_t: np.ndarray, groups: list, width: int):
        self.coords_t, self.groups, self.width = coords_t, groups, width
        self.shape = (width * coords_t.shape[1],) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[0]:
            raise ValidationError(f"cannot apply a covariance operator of shape {self.shape} "
                                  f"to an array of shape {x.shape}")
        r, width = self.coords_t.shape[1], self.width
        block = x.reshape(x.shape[0], -1)
        b = block.shape[1]
        # X_0, ..., X_q side by side, so a visit's row of C' X holds them in covariate order
        t = self.coords_t @ block.reshape(width, r, b).transpose(1, 0, 2).reshape(r, width * b)
        wt = np.empty_like(t)
        for start, stop, weights in self.groups:
            shape = weights.shape[0], -1, b
            np.matmul(weights, t[start:stop].reshape(shape), out=wt[start:stop].reshape(shape))
        image = (self.coords_t.T @ wt).reshape(r, width, b).transpose(1, 0, 2)
        check_finite(image, "intrinsic covariance accumulation produced non-finite values")
        return image.reshape(x.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        matrix = _weighted_products(self.coords_t, self.groups, self.width)
        return matrix if dtype is None else matrix.astype(dtype, copy=False)


def _weighted_products(coords_t: np.ndarray, groups: list, width: int) -> np.ndarray:
    """The formed K of a :class:`CovarianceOperator`. A block (k, s) with
    k <= s is C W_ks C', W_ks C' taken one visit-count group at a time in an
    n x r work array and the product written straight into the block; a
    block below the diagonal is its mirror transposed."""
    n, r = coords_t.shape
    matrix = np.empty((width * r, width * r))
    block = [[matrix[k * r:(k + 1) * r, s * r:(s + 1) * r] for s in range(width)]
             for k in range(width)]
    upper = [(k, s) for k in range(width) for s in range(k, width)]
    t = np.empty((n, r))  # W_ks C'
    for k, s in upper:
        for start, stop, weights in groups:
            g, j = weights.shape[0], weights.shape[1] // width
            np.matmul(weights.reshape(g, j, width, j, width)[:, :, k, :, s],
                      coords_t[start:stop].reshape(g, j, r), out=t[start:stop].reshape(g, j, r))
        np.matmul(coords_t.T, t, out=block[k][s])
        if s > k:
            block[s][k][:] = block[k][s].T
    check_finite(matrix, "intrinsic covariance accumulation produced non-finite values")
    return matrix


@dataclass
class IntrinsicCovariances:
    """Intrinsic covariance estimates and their raw traces.

    k_x is ((q+1)r, (q+1)r) with r x r blocks ordered by covariate index;
    k_w is (r, r). Each is a :class:`CovarianceOperator` when it comes from
    :func:`intrinsic_covariances` (``np.asarray(k_x)`` forms the matrix for
    inspection) or an array; :func:`~lfpca.gram.top_eigenpairs` takes
    either. Each is symmetric up to rounding, and what decomposes it reads
    one triangle. The raw traces are recorded before any eigenvalue
    clipping (trace_w_raw houses the trace of the visit-level estimator,
    which includes any white-noise mass).
    """

    k_x: CovarianceOperator | np.ndarray
    k_w: CovarianceOperator | np.ndarray
    trace_x_raw: float
    trace_w_raw: float
