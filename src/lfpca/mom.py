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

from .errors import IdentifiabilityError, NumericalError, ValidationError
from .gram import IntrinsicDecomposition, matrix_panels
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
                          design: "StudyDesign", gram: np.ndarray):
    """Covariance estimates in the r-dimensional singular basis.

    With coordinates C = S^{1/2} U' (r x n), weight column l of H gives
    K_l = C W_l C', where W_l is the block-diagonal n x n matrix holding
    each subject's J x J pair weights. W_l C' is formed one visit-count
    group at a time and K_l is then a single r x n by n x r product written
    into its block of k_x (or into k_w); W_l itself is never built, and a
    block below the diagonal is its mirror transposed.
    Raw traces are sum(W_l * G) over the diagonal blocks of the full Gram
    matrix, so they keep the complete trace even when the rank was
    truncated.
    """
    if mom.h is None:
        raise ValidationError("moment design has no weights; call compute_weights first")
    if decomp.u.shape[0] != design.n:
        raise ValidationError(
            f"decomposition has {decomp.u.shape[0]} columns, design expects {design.n}")
    if gram.shape != (design.n, design.n):
        raise ValidationError(f"Gram matrix shape {gram.shape} does not match n={design.n}")
    q, d = mom.q, mom.n_rows
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T  # (r, n)
    k_x, k_w, traces = _weighted_products(coords, mom, design, gram)
    trace_x = float(np.trace(traces[:d - 1].reshape(q + 1, q + 1)))
    trace_w = float(traces[d - 1])
    # min and max propagate NaN and reach any infinity: no boolean copy is made
    if not all(np.isfinite((k.min(), k.max())).all() for k in (k_x, k_w)):
        raise NumericalError("intrinsic covariance accumulation produced non-finite values")
    return IntrinsicCovariances(k_x=k_x, k_w=k_w, trace_x_raw=trace_x, trace_w_raw=trace_w)


def _weighted_products(coords: np.ndarray, mom: MomDesign, design: "StudyDesign",
                       gram: np.ndarray):
    """Symmetric k_x and k_w from C W_l C' for every weight column l, and
    sum(W_l * G) per column. Swapping the visits of every pair swaps the
    rows (k, s) and (s, k) of F, so W_ks = W_sk': a k_x block below the
    diagonal is the transpose of its mirror, not a product of its own, and
    a block on the diagonal and k_w are symmetrized in place by
    :func:`_symmetrize`. The (n, r) work arrays are freed on return."""
    q, r = mom.q, coords.shape[0]
    d = mom.n_rows
    groups = []
    traces = np.zeros(d)
    for j, idx, cols in design.visit_groups():
        pairs = mom.pair_offsets[idx][:, None] + np.arange(j * j)
        weights = mom.h[pairs].reshape(idx.size, j, j, d)
        c_g = coords.T[cols]  # (G, J, r)
        traces += np.einsum("gabd,gab->d", weights, gram[cols[:, :, None], cols[:, None, :]])
        groups.append((cols, weights, c_g))
    k_x = np.empty(((q + 1) * r, (q + 1) * r))
    k_w = np.empty((r, r))
    t = np.empty((design.n, r))  # W_l C'
    for l in range(d):
        k, s = divmod(l, q + 1)
        if l < d - 1 and k > s:  # W_ks = W_sk': block (k, s) is block (s, k) transposed
            k_x[k * r:(k + 1) * r, s * r:(s + 1) * r] = k_x[s * r:(s + 1) * r, k * r:(k + 1) * r].T
            continue
        for cols, weights, c_g in groups:
            t[cols] = weights[..., l] @ c_g
        out = k_w if l == d - 1 else k_x[k * r:(k + 1) * r, s * r:(s + 1) * r]
        np.matmul(coords, t, out=out)
        if k == s or l == d - 1:
            _symmetrize(out)
    return k_x, k_w, traces


def _symmetrize(matrix: np.ndarray) -> None:
    """matrix = (matrix + matrix') / 2 in place, one row panel of
    :func:`matrix_panels` and its mirrored column panel at a time: each pair
    is (x + y) / 2, the bits of the whole-matrix form, with no whole-size
    temporary. A panel reads only entries that no earlier panel wrote."""
    for rows in matrix_panels(matrix.shape[0]):
        half = np.add(matrix[rows, rows.start:], matrix[rows.start:, rows].T)
        half /= 2
        matrix[rows, rows.start:] = half
        matrix[rows.start:, rows] = half.T


@dataclass
class IntrinsicCovariances:
    """Symmetric intrinsic covariance estimates and their raw traces.

    k_x is ((q+1)r, (q+1)r) with r x r blocks ordered by covariate index;
    k_w is (r, r). The raw traces are recorded before any eigenvalue
    clipping (trace_w_raw houses the trace of the visit-level estimator,
    which includes any white-noise mass).
    """

    k_x: np.ndarray
    k_w: np.ndarray
    trace_x_raw: float
    trace_w_raw: float
