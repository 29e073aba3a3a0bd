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
from typing import TYPE_CHECKING

import numpy as np

from .errors import IdentifiabilityError, NumericalError, ValidationError
from .gram import IntrinsicDecomposition
from .limits import FF_CONDITION_LIMIT

if TYPE_CHECKING:
    from .design import StudyDesign


@dataclass
class MomDesign:
    """Design matrix F (d x m), weights H (m x d), and the pair bookkeeping.

    d = (q+1)^2 + 1. Row s + k*(q+1) of F carries Z_{ij1,k} * Z_{ij2,s}
    (0-based; the last row is the same-visit indicator). Pairs are
    enumerated subjects in design order, (j1, j2) row-major, so subject i
    owns the contiguous column block starting at pair_offsets[i].
    """

    f: np.ndarray
    pair_offsets: np.ndarray
    q: int
    h: np.ndarray | None = None

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


def compute_weights(mom: MomDesign) -> MomDesign:
    """Attach H = F'(FF')^{-1}; the columns of H are the pair weights."""
    f = mom.f
    ff = f @ f.T
    cond = np.linalg.cond(ff)
    if not np.isfinite(cond) or cond > FF_CONDITION_LIMIT:
        raise IdentifiabilityError(
            f"moment design matrix F F' is numerically singular (condition {cond:.2e}); "
            "run validate_design for a diagnosis")
    mom.h = np.linalg.solve(ff, f).T
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
    if not (np.all(np.isfinite(k_x)) and np.all(np.isfinite(k_w))):
        raise NumericalError("intrinsic covariance accumulation produced non-finite values")
    return IntrinsicCovariances(k_x=k_x, k_w=k_w, trace_x_raw=trace_x, trace_w_raw=trace_w)


def _weighted_products(coords: np.ndarray, mom: MomDesign, design: "StudyDesign",
                       gram: np.ndarray):
    """Symmetric k_x and k_w from C W_l C' for every weight column l, and
    sum(W_l * G) per column. Swapping the visits of every pair swaps the
    rows (k, s) and (s, k) of F, so W_ks = W_sk': a k_x block below the
    diagonal is the transpose of its mirror, not a product of its own, and
    a block on the diagonal and k_w are symmetrized as (K + K') / 2 in
    place. The (n, r) work arrays are freed on return."""
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
            out[...] = (out + out.T) / 2
    return k_x, k_w, traces


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

    @property
    def q(self) -> int:
        return self.k_x.shape[0] // self.k_w.shape[0] - 1

    @property
    def r(self) -> int:
        return self.k_w.shape[0]
