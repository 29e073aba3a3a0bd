"""Seeded inputs for the three benchmark workloads.

Every operation gets its own inputs, generated from (workload seed, operation
index) and written to files before the operation starts, so the process that
runs the operations only ever sees files. ``curves`` and ``lattice`` are the
two simulation studies of the source paper; ``ooc`` is its out-of-core use:
a panel larger than the last-level cache, streamed from disk through one
n x n Gram matrix, plus a new batch scored under the saved model. The ooc
panel (480 MB) is kept well below 1 GiB per file, so the workload also runs
where the file size or the free disk space is capped (see run.check_room).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lfpca.design import StudyDesign, write_metadata
from lfpca.panel import PanelWriter, write_panel
from lfpca.simulate import (ScenarioSpec, curve_bases, default_eigenvalues, draw_scores,
                            generate_scenario1, generate_scenario2, sample_design)

# Inputs of each workload. ``toy`` keeps the study designs and shrinks p, so
# the smoke test runs every workload in seconds under the same bounds.
SIZES = {
    "full": {
        "curves": dict(p=750, subjects=100, visits=4, sigma2=1e-2, n_x=4, n_w=4),
        "lattice": dict(lattice=(38, 72, 11), subjects=150, visits=6, n_x=3, n_w=2),
        "ooc": dict(p=100_000, subjects=150, visits=4, slices=40, sigma=5.5e-4,
                    new_subjects=50, new_visits=4, n_x=4, n_w=4),
    },
    "toy": {
        "curves": dict(p=750, subjects=100, visits=4, sigma2=1e-2, n_x=4, n_w=4),
        "lattice": dict(lattice=(4, 16, 2), subjects=150, visits=6, n_x=3, n_w=2),
        "ooc": dict(p=3000, subjects=150, visits=4, slices=4, sigma=5.5e-4,
                    new_subjects=50, new_visits=4, n_x=4, n_w=4),
    },
}

# Ground-truth recovery bounds of the output checks (see checks.py). Largest
# values seen over 330 curves, 130 lattice and 20 ooc inputs with lfpca 0.1.0:
# component-1 residual 0.109 / 0.038 / 0.021, |lambda_x1 error| 0.65 / 0.40 /
# 0.22, new-batch signal error (ooc) 0.30. Each bound sits well above that and
# well below what a fit unrelated to the truth gives (about 1).
BOUNDS = {
    "curves": dict(max_x_residual=0.3, max_lambda_err=1.2),
    "lattice": dict(max_x_residual=0.15, max_lambda_err=1.0),
    "ooc": dict(max_x_residual=0.15, max_lambda_err=1.0, max_new_signal_err=0.6),
}


@dataclass
class Truth:
    """Generating bases, eigenvalues and scores of one training panel."""

    phi_x: tuple[np.ndarray, ...]
    phi_w: np.ndarray
    lambda_x: np.ndarray
    lambda_w: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    # new batch (ooc only)
    new_xi: np.ndarray | None = None
    new_zeta: np.ndarray | None = None


@dataclass
class Inputs:
    """Files of one operation and the truth behind them."""

    panel: Path
    meta: Path
    truth: Truth
    new_panel: Path | None = None
    new_meta: Path | None = None
    files: list[Path] = field(default_factory=list)


def op_seed(seed: int, index: int) -> int:
    """Independent generator seed for operation ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_inputs(workload: str, cfg: dict, seed: int, index: int, workdir: Path) -> Inputs:
    """Generate and write the inputs of one operation into ``workdir``."""
    s = op_seed(seed, index)
    panel_path, meta_path = workdir / f"panel_{index}.lfpb", workdir / f"meta_{index}.csv"
    if workload == "ooc":
        return _ooc_inputs(cfg, s, index, workdir)
    if workload == "curves":
        spec = ScenarioSpec.curves(p=cfg["p"], sigma2=cfg["sigma2"], seed=s,
                                   n_subjects=cfg["subjects"], n_visits=cfg["visits"])
        panel, design, gt = generate_scenario1(spec)
    elif workload == "lattice":
        spec = ScenarioSpec.blocks(seed=s, n_subjects=cfg["subjects"], n_visits=cfg["visits"],
                                   lattice=tuple(cfg["lattice"]))
        panel, design, gt = generate_scenario2(spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    write_panel(panel, panel_path)
    write_metadata(design, meta_path)
    truth = Truth(phi_x=gt.phi_x, phi_w=gt.phi_w, lambda_x=gt.lambda_x, lambda_w=gt.lambda_w,
                  xi=gt.xi, zeta=gt.zeta)
    return Inputs(panel=panel_path, meta=meta_path, truth=truth, files=[panel_path, meta_path])


# ---------------------------------------------------------------------------
# out-of-core panel, generated slice by slice
# ---------------------------------------------------------------------------

def ooc_bases(p: int):
    """Curves-type bases on a p-point grid and a non-zero mean image.

    The subject-level families are those of the scenario-1 generator (normalized
    jointly); the visit-level family is four higher-frequency harmonics, nearly
    orthogonal to both. Scenario 1's visit-level functions reuse the intercept
    functions, which leaves new-batch scores too weakly identified to check
    against the truth; these do not.
    """
    x0, x1, _ = curve_bases(p)
    norms = np.sqrt(np.sum(x0 * x0, axis=0) + np.sum(x1 * x1, axis=0))
    x0 /= norms
    x1 /= norms
    v = np.linspace(0.0, 1.0, p)
    w = np.column_stack([np.sin(6 * np.pi * v), np.cos(6 * np.pi * v),
                         np.sin(8 * np.pi * v), np.cos(8 * np.pi * v)])
    w /= np.sqrt(np.sum(w * w, axis=0))
    mean = 0.01 * (1.0 + 0.5 * np.cos(2 * np.pi * v))
    return (x0, x1), w, mean


def write_streamed_panel(path: Path, design: StudyDesign, phi_x, phi_w, xi, zeta,
                         mean: np.ndarray, sigma: float, n_slices: int,
                         rng: np.random.Generator) -> None:
    """Write sum_k Z_k Phi_xk xi + Phi_w zeta + mean + noise one row slice at a
    time through PanelWriter; the p x n matrix is never held in memory."""
    p, n = phi_w.shape[0], design.n
    z = design.stacked_z()
    subj_of_col = np.repeat(np.arange(design.n_subjects), design.visit_counts)
    bases = np.hstack([*phi_x, phi_w])
    coefs = np.vstack([(xi[subj_of_col] * z[:, k][:, None]).T for k in range(len(phi_x))]
                      + [zeta.T])
    with PanelWriter(path, p, n, n_slices=n_slices) as writer:
        for a, b in zip(writer.row_starts, writer.row_starts[1:]):
            block = rng.random((b - a, n))  # uniform white noise of variance sigma^2:
            block -= 0.5                       # the fit uses second moments only, and
            block *= sigma * np.sqrt(12.0)     # uniform draws cost a fifth of normal ones
            block += bases[a:b] @ coefs
            block += mean[a:b, None]
            writer.write_slice(block)


def _ooc_inputs(cfg: dict, seed: int, index: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    phi_x, phi_w, mean = ooc_bases(cfg["p"])
    lam_x = default_eigenvalues(cfg["n_x"])
    lam_w = default_eigenvalues(cfg["n_w"])

    design = sample_design(rng, cfg["subjects"], cfg["visits"])
    xi = draw_scores(rng, lam_x, design.n_subjects, "mixture")
    zeta = draw_scores(rng, lam_w, design.n, "mixture")
    new_design = sample_design(rng, cfg["new_subjects"], cfg["new_visits"])
    new_xi = draw_scores(rng, lam_x, new_design.n_subjects, "mixture")
    new_zeta = draw_scores(rng, lam_w, new_design.n, "mixture")

    paths = {name: workdir / f"{name}_{index}{ext}" for name, ext in
             (("panel", ".lfpb"), ("meta", ".csv"), ("new_panel", ".lfpb"), ("new_meta", ".csv"))}
    write_streamed_panel(paths["panel"], design, phi_x, phi_w, xi, zeta, mean,
                         cfg["sigma"], cfg["slices"], rng)
    write_metadata(design, paths["meta"])
    new_slices = max(1, round(cfg["slices"] * new_design.n / design.n))
    write_streamed_panel(paths["new_panel"], new_design, phi_x, phi_w, new_xi, new_zeta, mean,
                         cfg["sigma"], new_slices, rng)
    write_metadata(new_design, paths["new_meta"])
    for path in paths.values():  # no dirty pages left to be flushed during the fit
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    truth = Truth(phi_x=phi_x, phi_w=phi_w, lambda_x=lam_x, lambda_w=lam_w, xi=xi, zeta=zeta,
                  new_xi=new_xi, new_zeta=new_zeta)
    return Inputs(panel=paths["panel"], meta=paths["meta"], truth=truth,
                  new_panel=paths["new_panel"], new_meta=paths["new_meta"],
                  files=list(paths.values()))
