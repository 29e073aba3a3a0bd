"""Eigendecomposition of the intrinsic covariances, lifting, and reporting.

The intrinsic covariance matrices live in the r-dimensional singular basis.
Their eigenvectors A are lifted back to voxel space as Phi = V A without
ever forming a p x p covariance: per slice of the raw rows,
V^l A = Y^l (J U S^{-1/2} A), where J = I - 11'/n centers the columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import resolve_threads
from .design import (CovariateScale, DesignReport, StudyDesign, apply_covariate_scaling,
                     normalize_covariates, validate_design)
from .errors import IdentifiabilityError, ValidationError
from .gram import (DEFAULT_VAR_THRESHOLD, IntrinsicDecomposition, accumulate_gram,
                   eigen_gram, fix_signs, left_factor, mass_count, stack_coefficients,
                   top_eigenpairs)
from .mom import (IntrinsicCovariances, MomDesign, build_design_matrix, compute_weights,
                  intrinsic_covariances)
from .panel import DataPanel, read_panel, stream, write_panel

ORDER_CAP = 30
DEFAULT_ORDER_THRESHOLD = 0.9  # spectrum mass an automatic order keeps


@dataclass
class IntrinsicBasis:
    """Truncated eigenstructure of the intrinsic covariances.

    a_x stacks the (q+1) blocks of subject-level eigenvectors; columns are
    orthonormal in the stacked space. Negative eigenvalues among the
    retained components are clipped to zero and counted. solvers holds the
    :func:`top_eigenpairs` record of ``k_x`` and of ``k_w``.
    """

    a_x: np.ndarray
    lambda_x: np.ndarray
    a_w: np.ndarray
    lambda_w: np.ndarray
    clipped_x: int
    clipped_w: int
    solvers: dict

    @property
    def clipped_count(self) -> int:
        return self.clipped_x + self.clipped_w


def decompose_intrinsic(cov: IntrinsicCovariances, n_x: int | None = None, n_w: int | None = None,
                        threshold: float = DEFAULT_ORDER_THRESHOLD) -> IntrinsicBasis:
    """Top eigenpairs of the intrinsic covariances, descending, clipped at 0.

    An order left as None is chosen by :func:`select_orders` at
    ``threshold`` from the matrix's eigenvalues (``eigvalsh``); the pairs
    come from :func:`top_eigenpairs`. Eigenvector columns are
    sign-normalized so their largest-magnitude entry is positive, which
    makes outputs reproducible across platforms.
    """
    a_x, lam_x, clip_x, solver_x = _top_eigen(cov.k_x, n_x, "n_x", threshold)
    a_w, lam_w, clip_w, solver_w = _top_eigen(cov.k_w, n_w, "n_w", threshold)
    return IntrinsicBasis(a_x=a_x, lambda_x=lam_x, a_w=a_w, lambda_w=lam_w,
                          clipped_x=clip_x, clipped_w=clip_w,
                          solvers={"k_x": solver_x, "k_w": solver_w})


def _top_eigen(matrix: np.ndarray, count: int | None, name: str, threshold: float):
    """Leading ``count`` pairs of ``matrix``, sign-fixed and clipped at 0, with
    the number clipped and the solver record."""
    if count is None:
        count = _auto_order(np.linalg.eigvalsh(matrix)[::-1], threshold)
    if not 1 <= count <= matrix.shape[0]:
        raise ValidationError(f"{name} must be in [1, {matrix.shape[0]}], got {count}")
    evals, evecs, solver = top_eigenpairs(matrix, k=count)
    top, vecs = evals[:count], np.array(evecs[:, :count])
    fix_signs(vecs)
    return vecs, np.maximum(top, 0.0), int(np.sum(top < 0)), solver


def select_orders(spectrum_x: np.ndarray, spectrum_w: np.ndarray,
                  threshold: float = DEFAULT_ORDER_THRESHOLD) -> tuple[int, int]:
    """Smallest component counts capturing ``threshold`` of each nonnegative
    spectrum, capped at ORDER_CAP. Explicit user choices take precedence upstream."""
    return _auto_order(spectrum_x, threshold), _auto_order(spectrum_w, threshold)


def _auto_order(spectrum: np.ndarray, threshold: float) -> int:
    return min(mass_count(np.asarray(spectrum), threshold), ORDER_CAP)


def estimate_sigma2(cov: IntrinsicCovariances, lambda_w: np.ndarray, p: int, n_w: int) -> float:
    """White-noise variance from the visit-level trace surplus.

    The visit-level moment estimator absorbs sigma^2 I, so under a low-rank
    model the per-voxel noise variance is the trace left over after the
    retained eigenvalues, divided by the remaining dimensions; clamped at 0.
    """
    if p <= n_w:
        raise ValidationError(f"sigma2 estimator needs p > n_w, got p={p}, n_w={n_w}")
    surplus = cov.trace_w_raw - float(np.sum(lambda_w[:n_w]))
    return max(surplus / (p - n_w), 0.0)


@dataclass
class FittedModel:
    """Everything needed to interpret, score, and reconstruct observations."""

    p: int
    n: int
    q: int
    r: int
    n_x: int
    n_w: int
    a_x: np.ndarray
    a_w: np.ndarray
    lambda_x: np.ndarray
    lambda_w: np.ndarray
    phi_x: tuple[DataPanel, ...]
    phi_w: DataPanel
    sigma2: float
    trace_x: float
    trace_w: float
    clipped_count: int
    mean: np.ndarray
    covariate_scaling: tuple[CovariateScale, ...] = ()

    def in_model_units(self, design: StudyDesign) -> StudyDesign:
        """A design in original units through the stored scaling; refused unless q matches."""
        if design.q != self.q:
            raise ValidationError(f"design has q={design.q}, model was fitted with q={self.q}")
        return apply_covariate_scaling(design, self.covariate_scaling)


@dataclass
class VarianceTable:
    """Per-component percentage shares of total variability, plus totals.

    shares_x[k][m] is the percentage carried by component m of the lifted
    family for covariate k; a stacked eigenvector has unit norm, so its
    blocks partition the component's eigenvalue across families.
    """

    shares_x: np.ndarray          # (q+1, rows)
    shares_w: np.ndarray          # (rows,)
    cumulative: np.ndarray        # (rows,)
    trace_x: float
    trace_w: float
    total: float

    @property
    def percent_x(self) -> float:
        """Subject-level share of the two-way split (nonnegative, sums to 100)."""
        pos = max(self.trace_x, 0.0) + max(self.trace_w, 0.0)
        return 100.0 * max(self.trace_x, 0.0) / pos

    @property
    def percent_w(self) -> float:
        pos = max(self.trace_x, 0.0) + max(self.trace_w, 0.0)
        return 100.0 * max(self.trace_w, 0.0) / pos

    def write_csv(self, path) -> None:
        q1, rows = self.shares_x.shape
        with open(path, "w") as fh:
            fh.write("k," + ",".join(f"phi_x{k}" for k in range(q1)) + ",phi_w,cumulative\n")
            for m in range(rows):
                cells = [f"{self.shares_x[k, m]:.17g}" for k in range(q1)]
                fh.write(f"{m + 1}," + ",".join(cells)
                         + f",{self.shares_w[m]:.17g},{self.cumulative[m]:.17g}\n")
            totals = [f"{self.shares_x[k].sum():.17g}" for k in range(q1)]
            fh.write("total," + ",".join(totals)
                     + f",{self.shares_w.sum():.17g},{self.cumulative[-1]:.17g}\n")


def variance_explained(model: FittedModel) -> VarianceTable:
    """Decompose total variability across components and families.

    The denominator is the raw (pre-clipping) trace total; clipped
    components contribute nothing to the numerators. Covariates should be
    normalized for the shares to be comparable across families.
    """
    total = model.trace_x + model.trace_w
    if not total > 0:
        raise ValidationError(f"total variability must be positive, got {total}")
    rows = max(model.n_x, model.n_w)
    blocks = model.a_x.reshape(model.q + 1, model.r, model.n_x)
    shares_x = np.zeros((model.q + 1, rows))
    shares_x[:, :model.n_x] = 100.0 * model.lambda_x * np.sum(blocks * blocks, axis=1) / total
    shares_w = np.zeros(rows)
    shares_w[:model.n_w] = 100.0 * model.lambda_w / total
    cumulative = np.cumsum(shares_x.sum(axis=0) + shares_w)
    return VarianceTable(shares_x=shares_x, shares_w=shares_w, cumulative=cumulative,
                         trace_x=model.trace_x, trace_w=model.trace_w, total=total)


@dataclass
class FitResult:
    """Fit outputs plus the intermediates tests and the CLI report on."""

    model: FittedModel
    decomposition: IntrinsicDecomposition
    covariances: IntrinsicCovariances
    scores: "ScorePanel"
    mom: MomDesign
    gram: np.ndarray
    options: dict  # rank, thresholds, threads, normalize, write_v as used; None where unused
    eigensolvers: dict  # top_eigenpairs record of "gram", "k_x" and "k_w"
    report: DesignReport | None = None
    v: DataPanel | None = None  # left singular vectors, only with write_v


def fit_panel(panel: DataPanel, design: StudyDesign, *, n_x: int | None = None,
              n_w: int | None = None, rank: int | None = None,
              var_threshold: float | None = None, order_threshold: float | None = None,
              normalize: bool = True, threads: int | None = None, workdir=None,
              write_v: bool = False) -> FitResult:
    """Run the full pipeline: SVD via the centered Gram matrix, moment
    estimation, intrinsic eigendecomposition, lifting, noise variance, and
    per-subject score prediction.

    With ``normalize`` the covariates are standardized before the design is
    validated, so the identifiability check and ``report`` describe the
    design that is fitted, whatever the units of the covariates; the model
    stores the transform, so callers keep their design in original units.
    Options are checked before any row is read. An explicit ``rank`` is used
    as given and orders it cannot hold are refused; a None threshold takes its
    default where it is used, and a threshold that nothing automatic uses is refused.
    The panel is read twice, raw: once for the Gram matrix and the mean,
    once for the lift; no centered copy is made. Both passes read row blocks
    of at most ``BLOCK_BYTES`` (see :func:`stream`): the panel's slices set
    the outputs' layout and cap the block height, never raise it. When
    ``workdir`` is given, the lifted bases are streamed to files there, so
    peak memory stays at about ``(threads + 1) x 2 x BLOCK_BYTES + n^2``
    plus O(p) vectors; otherwise they are kept in memory. With ``write_v``
    the left singular vectors V, bit for bit as :func:`left_vectors` forms
    them, are one more output of the lift's pass (``workdir/v.lfpb`` or
    in memory, as ``FitResult.v``); the panel is still read twice.
    """
    for name, value in (("rank", rank), ("n_x", n_x), ("n_w", n_w)):
        if value is not None and value < 1:
            raise ValidationError(f"{name} must be >= 1 (or None for auto), got {value}")
    if not isinstance(write_v, bool):
        raise ValidationError(f"write_v must be True or False, got {write_v!r}")
    if rank is not None and var_threshold is not None:
        raise ValidationError("var_threshold applies only to an automatic rank")
    if n_x is not None and n_w is not None and order_threshold is not None:
        raise ValidationError("order_threshold applies only when n_x or n_w is automatic")
    if rank is None and var_threshold is None:
        var_threshold = DEFAULT_VAR_THRESHOLD
    if (n_x is None or n_w is None) and order_threshold is None:
        order_threshold = DEFAULT_ORDER_THRESHOLD
    for name, value in (("var_threshold", var_threshold), ("order_threshold", order_threshold)):
        if value is not None and not 0 < value <= 1:
            raise ValidationError(f"{name} must be in (0, 1], got {value}")
    threads = resolve_threads(threads)
    if rank is not None and ((n_w or 0) > rank or (n_x or 0) > (design.q + 1) * rank):
        raise ValidationError(f"rank {rank} cannot hold n_x={n_x} (at most (q+1) x rank) "
                              f"and n_w={n_w} (at most rank) components")
    if panel.n != design.n:
        raise ValidationError(f"panel has {panel.n} columns, design describes {design.n} visits")
    scaling: tuple[CovariateScale, ...] = ()
    if normalize:
        design, scaling = normalize_covariates(design)
    report = validate_design(design)
    if not report.ok:
        raise IdentifiabilityError(str(report))

    workdir = Path(workdir) if workdir is not None else None
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)

    gram, mean = accumulate_gram(panel, threads=threads)
    decomp = eigen_gram(gram, rank=rank, var_threshold=var_threshold)

    mom = compute_weights(build_design_matrix(design))
    covs = intrinsic_covariances(decomp, mom, design, gram=gram)
    basis = decompose_intrinsic(covs, n_x, n_w, threshold=order_threshold)
    n_x, n_w = basis.lambda_x.size, basis.lambda_w.size
    sigma2 = estimate_sigma2(covs, basis.lambda_w, panel.p, n_w)

    phi_x, phi_w, v = _lift_basis(panel, decomp, basis, design.q, workdir, threads, write_v)
    model = FittedModel(p=panel.p, n=panel.n, q=design.q, r=decomp.r, n_x=n_x, n_w=n_w,
                        a_x=basis.a_x, a_w=basis.a_w,
                        lambda_x=basis.lambda_x, lambda_w=basis.lambda_w,
                        phi_x=phi_x, phi_w=phi_w, sigma2=sigma2,
                        trace_x=covs.trace_x_raw, trace_w=covs.trace_w_raw,
                        clipped_count=basis.clipped_count, mean=mean,
                        covariate_scaling=scaling)
    from .blup import score_blups
    scores = score_blups(model, decomp, design)
    return FitResult(model=model, decomposition=decomp, covariances=covs, scores=scores,
                     mom=mom, gram=gram, report=report, v=v,
                     eigensolvers={"gram": decomp.solver, **basis.solvers}, options={
                         "rank": rank, "var_threshold": var_threshold, "normalize": normalize,
                         "order_threshold": order_threshold, "threads": threads,
                         "write_v": write_v})


def _lift_basis(panel: DataPanel, decomp: IntrinsicDecomposition, basis: IntrinsicBasis,
                q: int, workdir: Path | None, threads: int, write_v: bool):
    """One streamed pass over the raw rows producing every lifted family,
    Phi = Y (F B) with F = J U S^{-1/2} from :func:`left_factor` and B from
    :func:`stack_coefficients`, and with ``write_v`` also V = Y F."""
    factor = left_factor(decomp)
    stacked = factor @ stack_coefficients(basis.a_x, basis.a_w)
    widths = [basis.a_x.shape[1]] * (q + 1) + [basis.a_w.shape[1]]
    edges = np.cumsum(widths)[:-1]
    names = [f"phi_x_{k}.lfpb" for k in range(q + 1)] + ["phi_w.lfpb"]
    if write_v:
        widths, names = widths + [decomp.r], names + ["v.lfpb"]

    def _lift(rows, blocks, outs):
        # one product reads the block once; the families are its column ranges
        # and the first outputs (zip stops before V)
        for out, part in zip(outs, np.split(blocks[0] @ stacked, edges, axis=1)):
            out[:] = part
        if write_v:
            # V as its own product: the columns of one wide product with F
            # appended would differ from left_vectors (and move Phi) in the last bits
            np.matmul(blocks[0], factor, out=outs[-1])

    _, panels = stream([panel], _lift,
                       [(width, workdir / name if workdir is not None else None)
                        for width, name in zip(widths, names)], threads)
    return tuple(panels[:q + 1]), panels[q + 1], panels[-1] if write_v else None


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

MODEL_FILE = "model.json"
MEAN_FILE = "mean.lfpb"


def save_model(model: FittedModel, outdir) -> None:
    """Write the model directory: model.json, mean.lfpb, and the phi panels."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "p": model.p, "n": model.n, "q": model.q, "r": model.r,
        "n_x": model.n_x, "n_w": model.n_w,
        "a_x": model.a_x.tolist(), "a_w": model.a_w.tolist(),
        "lambda_x": model.lambda_x.tolist(), "lambda_w": model.lambda_w.tolist(),
        "sigma2": model.sigma2, "trace_x": model.trace_x, "trace_w": model.trace_w,
        "clipped_count": model.clipped_count,
        "covariate_scaling": [{"column": s.column, "shift": s.shift, "scale": s.scale}
                              for s in model.covariate_scaling],
    }
    with open(outdir / MODEL_FILE, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    write_panel(DataPanel.from_array(model.mean[:, None]), outdir / MEAN_FILE)
    for k, phi in enumerate(model.phi_x):
        _ensure_panel_file(phi, outdir / f"phi_x_{k}.lfpb")
    _ensure_panel_file(model.phi_w, outdir / "phi_w.lfpb")


def _ensure_panel_file(panel: DataPanel, path: Path) -> None:
    if panel.file_backed and panel._path == path:
        return
    write_panel(panel, path)


def load_model(model_dir) -> FittedModel:
    """Open a saved model; phi panels stay on disk and are read lazily."""
    model_dir = Path(model_dir)
    meta_path = model_dir / MODEL_FILE
    if not meta_path.is_file():
        raise ValidationError(f"no {MODEL_FILE} in {model_dir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    mean = read_panel(model_dir / MEAN_FILE).to_array()[:, 0]
    phi_x = tuple(read_panel(model_dir / f"phi_x_{k}.lfpb") for k in range(meta["q"] + 1))
    phi_w = read_panel(model_dir / "phi_w.lfpb")
    scaling = tuple(CovariateScale(column=s["column"], shift=s["shift"], scale=s["scale"])
                    for s in meta["covariate_scaling"])
    return FittedModel(p=meta["p"], n=meta["n"], q=meta["q"], r=meta["r"],
                       n_x=meta["n_x"], n_w=meta["n_w"],
                       a_x=np.array(meta["a_x"]), a_w=np.array(meta["a_w"]),
                       lambda_x=np.array(meta["lambda_x"]), lambda_w=np.array(meta["lambda_w"]),
                       phi_x=phi_x, phi_w=phi_w, sigma2=meta["sigma2"],
                       trace_x=meta["trace_x"], trace_w=meta["trace_w"],
                       clipped_count=meta["clipped_count"], mean=mean,
                       covariate_scaling=scaling)
