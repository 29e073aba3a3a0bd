"""Method-of-moments regression of pairwise visit products on covariates.

Every ordered within-subject visit pair (i, j1, j2) contributes one column
to the design matrix F. Regressing the pairwise quadratics on those columns
(via the weight matrix H = F'(FF')^{-1}) yields unbiased estimates of the
subject-level covariance blocks K^{ks} and the visit-level covariance K^W.
The quadratics are never formed in p dimensions here: the same weights are
applied to the low-dimensional vectors S^{1/2} U_ij, which is what makes
the whole fit linear in p.
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
    pair_index: list[tuple[int, int, int]]
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
    m = sum(j * j for j in design.visit_counts)
    f = np.empty((d, m))
    pair_index = []
    offsets = np.zeros(design.n_subjects + 1, dtype=np.int64)
    col = 0
    for i, subj in enumerate(design.subjects):
        z = subj.z
        j_i = subj.n_visits
        offsets[i] = col
        for j1 in range(j_i):
            for j2 in range(j_i):
                f[: d - 1, col] = np.outer(z[j1], z[j2]).ravel()
                f[d - 1, col] = 1.0 if j1 == j2 else 0.0
                pair_index.append((i, j1, j2))
                col += 1
    offsets[-1] = col
    return MomDesign(f=f, pair_index=pair_index, pair_offsets=offsets, q=q)


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
                          design: "StudyDesign", gram: np.ndarray | None = None):
    """Covariance estimates in the r-dimensional singular basis.

    Applies the pair weights to outer products of the coordinate vectors
    S^{1/2} U_ij, accumulated subject by subject as small matrix products.
    Raw traces are taken from the full Gram matrix when it is supplied, so
    they keep the complete trace even when the rank was truncated;
    otherwise they fall back to the traces of the accumulated matrices.
    """
    if mom.h is None:
        raise ValidationError("moment design has no weights; call compute_weights first")
    if decomp.u.shape[0] != design.n:
        raise ValidationError(
            f"decomposition has {decomp.u.shape[0]} columns, design expects {design.n}")
    if gram is not None and gram.shape != (design.n, design.n):
        raise ValidationError(f"Gram matrix shape {gram.shape} does not match n={design.n}")
    q, r = mom.q, decomp.r
    d = mom.n_rows
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T  # (r, n)
    k_x = np.zeros(((q + 1) * r, (q + 1) * r))
    k_w = np.zeros((r, r))
    trace_x = 0.0
    trace_w = 0.0
    for i in range(design.n_subjects):
        cols = design.columns(i)
        c_i = coords[:, cols]
        j_i = design.subjects[i].n_visits
        h_i = mom.h[mom.pair_offsets[i]:mom.pair_offsets[i + 1], :]
        weights = h_i.reshape(j_i, j_i, d)
        if gram is not None:
            g_i = gram[cols, cols]
        else:
            g_i = c_i.T @ c_i
        for k in range(q + 1):
            for s in range(q + 1):
                w = weights[:, :, s + k * (q + 1)]
                k_x[k * r:(k + 1) * r, s * r:(s + 1) * r] += c_i @ w @ c_i.T
                if k == s:
                    trace_x += float(np.sum(w * g_i))
        w = weights[:, :, d - 1]
        k_w += c_i @ w @ c_i.T
        trace_w += float(np.sum(w * g_i))
    k_x = (k_x + k_x.T) / 2
    k_w = (k_w + k_w.T) / 2
    if not (np.all(np.isfinite(k_x)) and np.all(np.isfinite(k_w))):
        raise NumericalError("intrinsic covariance accumulation produced non-finite values")
    return IntrinsicCovariances(k_x=k_x, k_w=k_w, trace_x_raw=trace_x, trace_w_raw=trace_w,
                                q=q, r=r)


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
    q: int
    r: int

    def x_block(self, k: int, s: int) -> np.ndarray:
        r = self.r
        return self.k_x[k * r:(k + 1) * r, s * r:(s + 1) * r]
