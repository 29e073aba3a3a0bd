"""Score prediction and reconstruction.

Scores solve the per-subject normal equations of the fitted basis. Every
matrix involved is low-dimensional: the Gram blocks reduce to products of
the intrinsic eigenvector matrices (the lifted bases share the same
orthonormal left factor), and the right-hand side needs only the
coordinates of each visit in the singular basis. Scoring new data under a
saved model streams the projections against the stored lifted bases
instead, one slice at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._parallel import resolve_threads
from .design import StudyDesign, apply_covariate_scaling
from .errors import ValidationError
from .gram import IntrinsicDecomposition
from .limits import BLUP_CONDITION_LIMIT
from .panel import DataPanel, center_panel, stream

if TYPE_CHECKING:
    from .fit import FittedModel


@dataclass
class SubjectScores:
    subject_id: str
    xi: np.ndarray       # (n_x,)
    zeta: np.ndarray     # (n_visits, n_w)
    rank_deficient: bool


@dataclass
class ScorePanel:
    subjects: list[SubjectScores]
    n_x: int
    n_w: int

    @property
    def any_rank_deficient(self) -> bool:
        return any(s.rank_deficient for s in self.subjects)

    def xi_matrix(self) -> np.ndarray:
        return np.vstack([s.xi for s in self.subjects])

    def zeta_matrix(self) -> np.ndarray:
        return np.vstack([s.zeta for s in self.subjects])


@dataclass
class Projections:
    """Per-visit inner products of the lifted bases with the centered data."""

    x: list[np.ndarray]   # (q+1) arrays of (n_x, n)
    w: np.ndarray         # (n_w, n)


def intrinsic_projections(model: "FittedModel", decomp: IntrinsicDecomposition) -> Projections:
    """Projections of the training data, from the singular basis alone."""
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T
    x = [model.x_coefficients(k).T @ coords for k in range(model.q + 1)]
    return Projections(x=x, w=model.a_w.T @ coords)


def _basis_grams(model: "FittedModel"):
    """Gram blocks of the lifted bases via the intrinsic coefficients."""
    q1, r = model.q + 1, model.r
    blocks = [model.x_coefficients(k) for k in range(q1)]
    gxx = np.array([[bk.T @ bs for bs in blocks] for bk in blocks])
    gxw = np.array([bk.T @ model.a_w for bk in blocks])
    gww = model.a_w.T @ model.a_w
    return gxx, gxw, gww


def panel_projections(model: "FittedModel", panel: DataPanel, threads: int | None = None):
    """Streamed projections of (possibly new) data against the stored bases.

    The data is read through a view centered by the model mean. Returns
    (projections, grams) where the Gram blocks are accumulated from the
    lifted basis panels themselves, so saved models can score data without
    the training decomposition.
    """
    if panel.p != model.p:
        raise ValidationError(f"panel has {panel.p} rows, model expects {model.p}")
    for phi in model.phi_x:
        if phi.row_starts != model.phi_w.row_starts:
            raise ValidationError("lifted basis panels disagree on slice layout")

    def _project(rows, blocks, outs):
        *xs, wb, block = blocks
        return ([x.T @ block for x in xs] + [wb.T @ block]
                + [np.array([[a.T @ b for b in xs] for a in xs]),
                   np.array([a.T @ wb for a in xs]), wb.T @ wb])

    sums, _ = stream([*model.phi_x, model.phi_w, center_panel(panel, model.mean)], _project,
                     threads=resolve_threads(threads))
    q1 = model.q + 1
    return Projections(x=sums[:q1], w=sums[q1]), tuple(sums[q1 + 1:])


def _solve_scores(model: "FittedModel", design: StudyDesign, proj: Projections,
                  grams, cond_limit: float = BLUP_CONDITION_LIMIT) -> ScorePanel:
    """Per-subject normal equations; minimum-norm fallback when ill-conditioned."""
    gxx, gxw, gww = grams
    n_x, n_w = model.n_x, model.n_w
    out = []
    for i, subj in enumerate(design.subjects):
        j_i = subj.n_visits
        cols = design.columns(i)
        z = subj.z
        dim = n_x + j_i * n_w
        m = np.zeros((dim, dim))
        zz = z.T @ z
        m[:n_x, :n_x] = np.einsum("ks,ksab->ab", zz, gxx)
        xw = np.einsum("jk,kab->jab", z, gxw)
        for j in range(j_i):
            lo = n_x + j * n_w
            m[:n_x, lo:lo + n_w] = xw[j]
            m[lo:lo + n_w, :n_x] = xw[j].T
            m[lo:lo + n_w, lo:lo + n_w] = gww
        rhs = np.zeros(dim)
        px_sub = np.stack([proj.x[k][:, cols] for k in range(model.q + 1)])
        rhs[:n_x] = np.einsum("jk,kaj->a", z, px_sub)
        rhs[n_x:] = proj.w[:, cols].T.ravel()
        cond = np.linalg.cond(m)
        deficient = not np.isfinite(cond) or cond > cond_limit
        if deficient:
            omega = np.linalg.lstsq(m, rhs, rcond=None)[0]
        else:
            omega = np.linalg.solve(m, rhs)
        out.append(SubjectScores(subject_id=subj.subject_id, xi=omega[:n_x],
                                 zeta=omega[n_x:].reshape(j_i, n_w),
                                 rank_deficient=deficient))
    return ScorePanel(subjects=out, n_x=n_x, n_w=n_w)


def score_blups(model: "FittedModel", decomp: IntrinsicDecomposition,
                design: StudyDesign, cond_limit: float = BLUP_CONDITION_LIMIT) -> ScorePanel:
    """Predicted scores for the training panel, all in the intrinsic space."""
    if decomp.r != model.r:
        raise ValidationError(f"decomposition rank {decomp.r} does not match model rank {model.r}")
    if decomp.u.shape[0] != design.n:
        raise ValidationError("decomposition and design disagree on the number of visits")
    return _solve_scores(model, design, intrinsic_projections(model, decomp),
                         _basis_grams(model), cond_limit)


def score_new_panel(model: "FittedModel", panel: DataPanel, design: StudyDesign,
                    apply_scaling: bool = True, threads: int | None = None,
                    cond_limit: float = BLUP_CONDITION_LIMIT) -> ScorePanel:
    """Scores for new data under a saved model.

    The panel is centered with the model mean, and covariates are mapped
    through the training normalization so original units are accepted.
    """
    if panel.n != design.n:
        raise ValidationError(f"panel has {panel.n} columns, design describes {design.n} visits")
    if design.q != model.q:
        raise ValidationError(f"design has q={design.q}, model was fitted with q={model.q}")
    if apply_scaling and model.covariate_scaling:
        design = apply_covariate_scaling(design, model.covariate_scaling)
    proj, grams = panel_projections(model, panel, threads=threads)
    return _solve_scores(model, design, proj, grams, cond_limit)


def reconstruct(model: "FittedModel", scores: ScorePanel, design: StudyDesign,
                subject_index: int, visit_index: int) -> np.ndarray:
    """Fitted observation for one visit, assembled slice by slice."""
    if not 0 <= subject_index < design.n_subjects:
        raise ValidationError(f"no subject index {subject_index}")
    subj = design.subjects[subject_index]
    if not 0 <= visit_index < subj.n_visits:
        raise ValidationError(f"subject {subj.subject_id!r} has no visit {visit_index}")
    entry = scores.subjects[subject_index]
    coefs = [z_k * entry.xi for z_k in subj.z[visit_index]] + [entry.zeta[visit_index]]

    def _fitted(rows, blocks, outs):
        outs[0][:] = model.mean[rows]
        for block, coef in zip(blocks, coefs):
            outs[0] += block @ coef

    _, (fitted,) = stream([*model.phi_x, model.phi_w], _fitted, [(None, None)])
    return fitted


# ---------------------------------------------------------------------------
# scores CSV
# ---------------------------------------------------------------------------

def write_scores_csv(scores: ScorePanel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "score_type", "visit_index", "component", "value"])
        for subj in scores.subjects:
            for c, v in enumerate(subj.xi):
                writer.writerow([subj.subject_id, "xi", "", c, f"{v:.17g}"])
            for j, row in enumerate(subj.zeta):
                for c, v in enumerate(row):
                    writer.writerow([subj.subject_id, "zeta", j, c, f"{v:.17g}"])


def read_scores_csv(path) -> ScorePanel:
    xi: dict[str, dict[int, float]] = {}
    zeta: dict[str, dict[tuple[int, int], float]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["subject_id", "score_type", "visit_index", "component", "value"]:
            raise ValidationError(f"unexpected scores header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            sid, kind, visit, comp, value = row
            if sid not in xi:
                xi[sid], zeta[sid] = {}, {}
                order.append(sid)
            if kind == "xi":
                xi[sid][int(comp)] = float(value)
            elif kind == "zeta":
                zeta[sid][(int(visit), int(comp))] = float(value)
            else:
                raise ValidationError(f"unknown score_type {kind!r} in {path}")
    subjects = []
    n_x = n_w = 0
    for sid in order:
        xs = np.array([xi[sid][c] for c in sorted(xi[sid])])
        keys = zeta[sid]
        if keys:
            j_max = max(k[0] for k in keys) + 1
            c_max = max(k[1] for k in keys) + 1
            zs = np.array([[keys[(j, c)] for c in range(c_max)] for j in range(j_max)])
        else:
            zs = np.zeros((0, 0))
        subjects.append(SubjectScores(subject_id=sid, xi=xs, zeta=zs, rank_deficient=False))
        n_x, n_w = xs.size, zs.shape[1] if zs.size else n_w
    return ScorePanel(subjects=subjects, n_x=n_x, n_w=n_w)
