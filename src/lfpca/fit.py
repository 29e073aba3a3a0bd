"""The fit pipeline, from the Gram pass to the training scores, and the
variance-explained report; :mod:`lfpca.store` saves and loads the model.

The intrinsic covariance matrices live in the r-dimensional singular basis.
Their eigenvectors A are lifted back to voxel space as Phi = V A without
ever forming a p x p covariance: per slice of the raw rows,
V^l A = Y^l (J U S^{-1/2} A), where J = I - 11'/n centers the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import resolve_threads
from .blup import score_blups
from .design import CovariateScale, DesignReport, StudyDesign, normalize_covariates, validate_design
from .errors import IdentifiabilityError, ValidationError
from .gram import (DEFAULT_VAR_THRESHOLD, IntrinsicDecomposition, accumulate_gram,
                   check_count, check_share, eigen_gram, fix_signs, left_factor, mass_count,
                   stack_coefficients, top_eigenpairs)
from .mom import (IntrinsicCovariances, MomDesign, build_design_matrix, compute_weights,
                  intrinsic_covariances)
from .panel import DataPanel, stream
from .store import V_FILE, FittedModel, ScorePanel, basis_files
from .store import load_model, save_model  # lfbench imports and traces them as lfpca.fit.*

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

    An order left as None is the fewest leading eigenvalues of the matrix
    (``eigvalsh``) that hold ``threshold`` of its positive mass, at most
    ORDER_CAP (``threshold`` is :func:`fit_panel`'s ``order_threshold``); the
    pairs come from :func:`top_eigenpairs`. Eigenvector columns are
    sign-normalized so their largest-magnitude entry is positive, which makes
    outputs reproducible across platforms.
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
        share = check_share("order_threshold", threshold)
        count = min(mass_count(np.linalg.eigvalsh(matrix)[::-1], share), ORDER_CAP)
    evals, evecs, solver = top_eigenpairs(matrix, k=check_count(name, count, matrix.shape[0]))
    top, vecs = evals[:count], np.array(evecs[:, :count])
    fix_signs(vecs)
    return vecs, np.maximum(top, 0.0), int(np.sum(top < 0)), solver


def estimate_sigma2(cov: IntrinsicCovariances, lambda_w: np.ndarray, p: int) -> float:
    """White-noise variance from the visit-level trace surplus.

    The visit-level moment estimator absorbs sigma^2 I, so under a low-rank
    model the per-voxel noise variance is the trace left over after the
    retained eigenvalues, divided by the remaining dimensions; clamped at 0.
    """
    n_w = lambda_w.size
    if p <= n_w:
        raise ValidationError(f"sigma2 estimator needs p > n_w, got p={p}, n_w={n_w}")
    return max((cov.trace_w_raw - float(np.sum(lambda_w))) / (p - n_w), 0.0)


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
    scores: ScorePanel
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
    Options are checked before any row is read, as the steps check them; a
    count must fit its matrix (n for the rank, the rank or n for ``n_w``, (q+1)
    times that for ``n_x``). A None threshold takes its default where it is
    used, and one that nothing automatic uses is refused.
    The panel is read twice, raw: once for the Gram matrix and the mean,
    once for the lift; no centered copy is made. Both passes read row blocks
    of at most ``BLOCK_BYTES`` (see :func:`stream`): the panel's slices set
    the outputs' layout and cap the block height, never raise it. When
    ``workdir`` is given, the lifted bases are streamed to files there, so
    peak memory stays at about ``(threads + 1) x 2 x BLOCK_BYTES + n^2``
    plus O(p) vectors; otherwise they are kept in memory. With ``write_v``
    the left singular vectors V = Y F, with F from :func:`left_factor`, are
    one more output of the lift's pass (``workdir/v.lfpb`` or in memory, as
    ``FitResult.v``); the panel is still read twice.
    """
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
        if value is not None:
            check_share(name, value)
    threads = resolve_threads(threads)
    if panel.n != design.n:
        raise ValidationError(f"panel has {panel.n} columns, design describes {design.n} visits")
    r = panel.n if rank is None else check_count("rank", rank, panel.n)
    for name, count, limit in (("n_x", n_x, (design.q + 1) * r), ("n_w", n_w, r)):
        if count is not None:
            check_count(name, count, limit)
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
    sigma2 = estimate_sigma2(covs, basis.lambda_w, panel.p)

    phi_x, phi_w, v = _lift_basis(panel, decomp, basis, design.q, workdir, threads, write_v)
    model = FittedModel(n=panel.n, a_x=basis.a_x, a_w=basis.a_w,
                        lambda_x=basis.lambda_x, lambda_w=basis.lambda_w,
                        phi_x=phi_x, phi_w=phi_w, sigma2=sigma2,
                        trace_x=covs.trace_x_raw, trace_w=covs.trace_w_raw,
                        clipped_count=basis.clipped_count, mean=mean,
                        covariate_scaling=scaling)
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
    names = basis_files(q)
    if write_v:
        widths, names = widths + [decomp.r], names + [V_FILE]

    def _lift(rows, blocks, outs):
        # one product reads the block once; the families are its column ranges
        # and the first outputs (zip stops before V)
        for out, part in zip(outs, np.split(blocks[0] @ stacked, edges, axis=1)):
            out[:] = part
        if write_v:
            # V as its own product: appending F to the wide product would
            # move the last bits of Phi with write_v
            np.matmul(blocks[0], factor, out=outs[-1])

    _, panels = stream([panel], _lift,
                       [(width, workdir / name if workdir is not None else None)
                        for width, name in zip(widths, names)], threads)
    return tuple(panels[:q + 1]), panels[q + 1], panels[-1] if write_v else None
