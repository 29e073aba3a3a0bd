"""Score prediction and reconstruction.

Scores solve the per-subject normal equations of the fitted basis, stacked
and solved one visit-count group at a time. Every matrix involved is
low-dimensional: the bases [Phi_x0 | ... | Phi_xq | Phi_w] are V B with B
the stacked intrinsic coefficients, so their Gram matrix is B'B, and the
training right-hand side needs only the coordinates of each visit in the
singular basis. Scoring new data under a saved model streams only the
projections against the stored lifted bases.
"""

from __future__ import annotations

import numpy as np

from .design import StudyDesign
from .errors import ValidationError
from .gram import IntrinsicDecomposition, stack_coefficients
from .limits import BLUP_CONDITION_LIMIT
from .panel import DataPanel, center_panel, finite_row_sums, stream
from .store import FittedModel, ScorePanel, check_pairing
from .store import read_scores_csv  # lfbench imports it as lfpca.blup.read_scores_csv


def panel_projections(model: FittedModel, panel: DataPanel) -> np.ndarray:
    """Streamed projections Phi'(Y - mean 1') of (possibly new) data against
    the stored bases, one row per column of B (see :func:`stack_coefficients`).

    The data is read through a view centered by the model mean, and each
    block is projected onto all the bases in one product. Non-finite input
    raises NumericalError as in the fit, and a non-finite basis value
    ValidationError naming the basis file (see :func:`finite_row_sums`).
    """
    if panel.p != model.p:
        raise ValidationError(f"panel has {panel.p} rows, model expects {model.p}")
    def _project(rows, blocks, outs):
        *parts, block = blocks
        model.check_bases(rows, parts)
        finite_row_sums(rows, block)
        return (np.hstack(parts).T @ block,)

    (stacked,), _ = stream([*model.phi_x, model.phi_w, center_panel(panel, model.mean)], _project)
    return stacked


def _solve_scores(model: FittedModel, design: StudyDesign, proj: np.ndarray) -> ScorePanel:
    """Per-subject normal equations, stacked and solved one visit-count group
    at a time; minimum-norm least squares for the ill-conditioned ones.

    ``proj`` is Phi'(Y - mean 1') with Phi = V B. The Gram blocks
    Phi_k' Phi_s = A_k' A_s and the projection rows are views of B'B and
    ``proj`` in B's family layout.
    """
    n_x, n_w, q1 = model.n_x, model.n_w, model.q + 1
    d = q1 * n_x
    b = stack_coefficients(model.a_x, model.a_w)
    gram = b.T @ b
    gxx = gram[:d, :d].reshape(q1, n_x, q1, n_x)  # [k, a, s, b] = (A_k' A_s)[a, b]
    gxw = gram[:d, d:].reshape(q1, n_x, n_w)
    gww = gram[d:, d:]
    px = proj[:d].reshape(q1, n_x, -1)
    pw = proj[d:]
    z_all = design.stacked_z()
    xi = np.empty((design.n_subjects, n_x))
    zeta = np.empty((design.n, n_w))
    deficient = np.empty(design.n_subjects, dtype=bool)
    for j, idx, cols in design.visit_groups():
        g = idx.size
        z = z_all[cols]  # (G, J, q+1)
        m = np.empty((g, n_x + j * n_w, n_x + j * n_w))
        m[:, :n_x, :n_x] = np.einsum("gks,kasb->gab", z.transpose(0, 2, 1) @ z, gxx)
        xw = np.einsum("gjk,kab->gajb", z, gxw).reshape(g, n_x, j * n_w)
        m[:, :n_x, n_x:] = xw
        m[:, n_x:, :n_x] = xw.transpose(0, 2, 1)
        m[:, n_x:, n_x:] = np.kron(np.eye(j), gww)
        rhs = np.concatenate([np.einsum("gjk,kagj->ga", z, px[:, :, cols]),
                              pw[:, cols].transpose(1, 2, 0).reshape(g, j * n_w)], axis=1)
        cond = np.linalg.cond(m)
        bad = ~np.isfinite(cond) | (cond > BLUP_CONDITION_LIMIT)
        omega = np.empty_like(rhs)
        omega[~bad] = np.linalg.solve(m[~bad], rhs[~bad, :, None])[..., 0]
        for k in np.flatnonzero(bad):
            omega[k] = np.linalg.lstsq(m[k], rhs[k], rcond=None)[0]
        xi[idx] = omega[:, :n_x]
        zeta[cols.ravel()] = omega[:, n_x:].reshape(g * j, n_w)
        deficient[idx] = bad
    return ScorePanel(subject_ids=list(design.subject_ids),
                      visit_counts=design.visit_counts.tolist(), xi=xi, zeta=zeta,
                      rank_deficient=deficient)


def score_blups(model: FittedModel, decomp: IntrinsicDecomposition,
                design: StudyDesign) -> ScorePanel:
    """Predicted scores for the training panel, all in the intrinsic space."""
    if decomp.r != model.r:
        raise ValidationError(f"decomposition rank {decomp.r} does not match model rank {model.r}")
    if decomp.u.shape[0] != design.n:
        raise ValidationError("decomposition and design disagree on the number of visits")
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T
    return _solve_scores(model, design, stack_coefficients(model.a_x, model.a_w).T @ coords)


def score_new_panel(model: FittedModel, panel: DataPanel, design: StudyDesign) -> ScorePanel:
    """Scores for new data under a saved model.

    The panel is centered with the model mean. The design is in original
    units: its covariates are mapped through the model's stored scaling.
    """
    if panel.n != design.n:
        raise ValidationError(f"panel has {panel.n} columns, design describes {design.n} visits")
    return _solve_scores(model, model.in_model_units(design), panel_projections(model, panel))


def reconstruct(model: FittedModel, scores: ScorePanel, design: StudyDesign,
                subject_index: int, visit_index: int) -> np.ndarray:
    """Fitted observation for one visit, assembled slice by slice, from ``scores``
    and the design they were solved under, in original units. ValidationError
    for a design of another q than the model's, for scores of other component
    counts than the model's or other subject ids or visit counts than the
    design's (:func:`check_pairing`), for a subject or visit the design lacks,
    and for a non-finite basis value (as in :func:`panel_projections`)."""
    design = model.in_model_units(design)
    check_pairing(scores, model.n_x, model.n_w, "the model", design, "the design")
    if not 0 <= subject_index < design.n_subjects:
        raise ValidationError(f"no subject index {subject_index}")
    col = design.column_of(subject_index, visit_index)
    xi = scores.xi[subject_index]
    coef = np.concatenate([z_k * xi for z_k in design.stacked_z()[col]] + [scores.zeta[col]])

    def _fitted(rows, blocks, outs):
        model.check_bases(rows, blocks)
        np.matmul(np.hstack(blocks), coef, out=outs[0])
        outs[0] += model.mean[rows]

    _, (fitted,) = stream([*model.phi_x, model.phi_w], _fitted, [(None, None)])
    return fitted
