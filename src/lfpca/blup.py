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

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._parallel import resolve_threads
from .design import StudyDesign
from .errors import ValidationError
from .gram import IntrinsicDecomposition, stack_coefficients
from .limits import BLUP_CONDITION_LIMIT
from .mom import _visit_groups
from .panel import DataPanel, center_panel, stream

if TYPE_CHECKING:
    from .fit import FittedModel


@dataclass
class ScorePanel:
    """Scores in design order: a row of ``xi`` per subject, a row of ``zeta``
    per visit (in column order), and the subjects solved by least squares."""

    subject_ids: list[str]
    visit_counts: list[int]
    xi: np.ndarray              # (N, n_x)
    zeta: np.ndarray            # (n, n_w)
    rank_deficient: np.ndarray  # (N,) bool

    def xi_matrix(self) -> np.ndarray:
        return self.xi

    def zeta_matrix(self) -> np.ndarray:
        return self.zeta


def panel_projections(model: "FittedModel", panel: DataPanel,
                      threads: int | None = None) -> np.ndarray:
    """Streamed projections Phi'(Y - mean 1') of (possibly new) data against
    the stored bases, one row per column of B (see :func:`stack_coefficients`).

    The data is read through a view centered by the model mean, and each
    block is projected onto all the bases in one product.
    """
    if panel.p != model.p:
        raise ValidationError(f"panel has {panel.p} rows, model expects {model.p}")
    bases = [*model.phi_x, model.phi_w]

    def _project(rows, blocks, outs):
        *parts, block = blocks
        return (np.hstack(parts).T @ block,)

    (stacked,), _ = stream([*bases, center_panel(panel, model.mean)], _project,
                           threads=resolve_threads(threads))
    return stacked


def _solve_scores(model: "FittedModel", design: StudyDesign, proj: np.ndarray) -> ScorePanel:
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
    for j, idx, cols in _visit_groups(design):
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
    return ScorePanel(subject_ids=[s.subject_id for s in design.subjects],
                      visit_counts=design.visit_counts, xi=xi, zeta=zeta,
                      rank_deficient=deficient)


def score_blups(model: "FittedModel", decomp: IntrinsicDecomposition,
                design: StudyDesign) -> ScorePanel:
    """Predicted scores for the training panel, all in the intrinsic space."""
    if decomp.r != model.r:
        raise ValidationError(f"decomposition rank {decomp.r} does not match model rank {model.r}")
    if decomp.u.shape[0] != design.n:
        raise ValidationError("decomposition and design disagree on the number of visits")
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T
    return _solve_scores(model, design, stack_coefficients(model.a_x, model.a_w).T @ coords)


def score_new_panel(model: "FittedModel", panel: DataPanel, design: StudyDesign,
                    threads: int | None = None) -> ScorePanel:
    """Scores for new data under a saved model.

    The panel is centered with the model mean. The design is in original
    units: its covariates are mapped through the model's stored scaling.
    """
    if panel.n != design.n:
        raise ValidationError(f"panel has {panel.n} columns, design describes {design.n} visits")
    return _solve_scores(model, model.in_model_units(design),
                         panel_projections(model, panel, threads=threads))


def reconstruct(model: "FittedModel", scores: ScorePanel, design: StudyDesign,
                subject_index: int, visit_index: int) -> np.ndarray:
    """Fitted observation for one visit, assembled slice by slice, from ``scores``
    and the design they were solved under, in original units."""
    design = model.in_model_units(design)
    if ([s.subject_id for s in design.subjects] != scores.subject_ids
            or design.visit_counts != scores.visit_counts):
        raise ValidationError("design and scores disagree on subject ids or visit counts")
    if not 0 <= subject_index < design.n_subjects:
        raise ValidationError(f"no subject index {subject_index}")
    col = design.column_of(subject_index, visit_index)
    z = design.subjects[subject_index].z
    xi = scores.xi[subject_index]
    coef = np.concatenate([z_k * xi for z_k in z[visit_index]] + [scores.zeta[col]])

    def _fitted(rows, blocks, outs):
        np.matmul(np.hstack(blocks), coef, out=outs[0])
        outs[0] += model.mean[rows]

    _, (fitted,) = stream([*model.phi_x, model.phi_w], _fitted, [(None, None)])
    return fitted


# ---------------------------------------------------------------------------
# scores CSV
# ---------------------------------------------------------------------------

SCORES_HEADER = ["subject_id", "score_type", "visit_index", "component", "value"]


def write_scores_csv(scores: ScorePanel, path) -> None:
    starts = np.concatenate([[0], np.cumsum(scores.visit_counts, dtype=np.int64)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for i, sid in enumerate(scores.subject_ids):
            for c, v in enumerate(scores.xi[i]):
                writer.writerow([sid, "xi", "", c, f"{v:.17g}"])
            for j, row in enumerate(scores.zeta[starts[i]:starts[i + 1]]):
                for c, v in enumerate(row):
                    writer.writerow([sid, "zeta", j, c, f"{v:.17g}"])


def read_scores_csv(path) -> ScorePanel:
    """Read a scores CSV; no subject is flagged rank deficient."""
    xi: dict[str, dict[int, float]] = {}
    zeta: dict[str, dict[tuple[int, int], float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SCORES_HEADER:
            raise ValidationError(f"unexpected scores header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            sid, kind, visit, comp, value = row
            if sid not in xi:
                xi[sid], zeta[sid] = {}, {}
            if kind == "xi":
                xi[sid][int(comp)] = float(value)
            elif kind == "zeta":
                zeta[sid][(int(visit), int(comp))] = float(value)
            else:
                raise ValidationError(f"unknown score_type {kind!r} in {path}")
    ids = list(xi)
    n_x = 1 + max((c for sid in ids for c in xi[sid]), default=-1)
    n_w = 1 + max((c for sid in ids for _, c in zeta[sid]), default=-1)
    counts = [1 + max((j for j, _ in zeta[sid]), default=-1) for sid in ids]
    for sid, count in zip(ids, counts):
        if (xi[sid].keys() != set(range(n_x))
                or zeta[sid].keys() != {(j, c) for j in range(count) for c in range(n_w)}):
            raise ValidationError(f"{path}: subject {sid} does not have {n_x} xi components "
                                  f"and {n_w} zeta components for each of its visits")
    zeta_values = [v for sid in ids for _, v in sorted(zeta[sid].items())]
    return ScorePanel(subject_ids=ids, visit_counts=counts,
                      xi=np.array([[xi[sid][c] for c in range(n_x)] for sid in ids]),
                      zeta=np.array(zeta_values).reshape(sum(counts), n_w),
                      rank_deficient=np.zeros(len(ids), dtype=bool))
