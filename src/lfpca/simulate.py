"""Synthetic panel generators and estimator-recovery metrics.

Two built-in study templates are provided: smooth one-dimensional curves
on [0, 1] (trigonometric subject-level bases, shifted-Legendre slope bases,
mixture-of-normals scores, optional white noise) and disjoint indicator
blocks on a 3-D lattice (normal scores, no noise). Both are fully
determined by a seed. A third generator synthesizes panels from any fitted
model. Generating bases are unit-normalized per component: subject-level
intercept/slope pairs are normalized jointly as one stacked vector, so the
component eigenvalues carry the full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import StudyDesign, normalize_covariates
from .errors import ValidationError
from .panel import DataPanel
from .store import FittedModel, GroundTruth, ScorePanel, check_pairing

LATTICE_DIMS = (38, 72, 11)


@dataclass
class ScenarioSpec:
    """Configuration for the built-in generators; seeds fully determine output.
    The one place that sets scenario defaults (for options left None) and
    refuses, with ValidationError, an option the scenario cannot honour."""

    scenario: int
    p: int | None = None
    n_subjects: int | None = None
    n_visits: int | None = None
    sigma2: float | None = None
    seed: int = 0
    lattice: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.scenario == 1:
            if self.lattice is not None:
                raise ValidationError("the curves scenario has no lattice")
            defaults = {"p": 750, "n_subjects": 100, "n_visits": 4, "sigma2": 1e-4}
        elif self.scenario == 2:
            self.lattice = LATTICE_DIMS if self.lattice is None else self.lattice
            block_layout(self.lattice)
            cells = int(np.prod(self.lattice))
            if self.p not in (None, cells):
                raise ValidationError(f"the block-lattice scenario has p fixed by its lattice "
                                      f"({cells} cells), got p={self.p}")
            if self.sigma2 not in (None, 0):
                raise ValidationError("the block-lattice scenario has no noise term")
            defaults = {"p": cells, "n_subjects": 150, "n_visits": 6}
            self.sigma2 = 0.0  # the truth records 0.0 whichever zero was given
        else:
            raise ValidationError(f"scenario must be 1 or 2, got {self.scenario}")
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValidationError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if min(self.p, self.n_subjects, self.n_visits, *(self.lattice or ())) < 1:
            raise ValidationError("n_subjects, n_visits, p and lattice sizes must be positive")

    @classmethod
    def curves(cls, p: int | None = None, sigma2: float | None = None, seed: int = 0,
               n_subjects: int | None = None, n_visits: int | None = None) -> "ScenarioSpec":
        return cls(scenario=1, p=p, sigma2=sigma2, seed=seed,
                   n_subjects=n_subjects, n_visits=n_visits)

    @classmethod
    def blocks(cls, seed: int = 0, n_subjects: int | None = None, n_visits: int | None = None,
               lattice: tuple[int, int, int] | None = None) -> "ScenarioSpec":
        return cls(scenario=2, seed=seed, n_subjects=n_subjects, n_visits=n_visits,
                   lattice=lattice)


def default_eigenvalues(count: int) -> np.ndarray:
    """Geometric decay 1, 1/2, 1/4, ..."""
    return 0.5 ** np.arange(count)


def draw_mixture_scores(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Equal mixture of two normals centered at +-sqrt(lam/2), each with
    variance lam/2, so the draws have mean 0 and variance exactly lam."""
    centers = np.sqrt(lam / 2.0) * (2 * rng.integers(0, 2, size) - 1)
    return centers + np.sqrt(lam / 2.0) * rng.standard_normal(size)


def draw_scores(rng: np.random.Generator, lambdas: np.ndarray, count: int,
                law: str) -> np.ndarray:
    if law == "mixture":
        return np.column_stack([draw_mixture_scores(rng, lam, count) for lam in lambdas])
    if law == "normal":
        return np.column_stack([np.sqrt(lam) * rng.standard_normal(count) for lam in lambdas])
    raise ValidationError(f"unknown score law {law!r}")


def sample_design(rng: np.random.Generator, n_subjects: int, n_visits: int) -> StudyDesign:
    """Visit times: first visit uniform on (0,1), positive uniform increments,
    then all times standardized over the pooled study."""
    # one draw, row-major: the same stream as one draw of n_visits per subject
    times = np.cumsum(rng.uniform(0, 1, (n_subjects, n_visits)), axis=1)
    z = np.column_stack([np.ones(times.size), times.ravel()])
    design, _ = normalize_covariates(StudyDesign(
        [f"subj{i:04d}" for i in range(n_subjects)], [n_visits] * n_subjects, z))
    return design


# ---------------------------------------------------------------------------
# scenario 1: smooth curves
# ---------------------------------------------------------------------------

def curve_bases(p: int):
    """Raw generating functions on the regular grid of p points in [0, 1].

    Subject-level intercepts are sines/cosines, slopes are the first four
    shifted Legendre polynomials, visit-level functions reuse scaled copies
    (a constant, then the first three intercept functions), so the families
    are internally orthogonal but correlated across families.
    """
    v = np.linspace(0.0, 1.0, p)
    c = np.sqrt(2.0 / 3.0)
    x0 = np.column_stack([c * np.sin(2 * np.pi * v), c * np.cos(2 * np.pi * v),
                          c * np.sin(4 * np.pi * v), c * np.cos(4 * np.pi * v)])
    x1 = np.column_stack([np.full(p, 0.5),
                          np.sqrt(3.0) * (2 * v - 1) / 2,
                          np.sqrt(5.0) * (6 * v ** 2 - 6 * v + 1) / 2,
                          np.sqrt(7.0) * (20 * v ** 3 - 30 * v ** 2 + 12 * v - 1) / 2])
    w = np.column_stack([2.0 * x1[:, 0], np.sqrt(4.0 / 3.0) * x0[:, 0],
                         np.sqrt(4.0 / 3.0) * x0[:, 1], np.sqrt(4.0 / 3.0) * x0[:, 2]])
    return x0, x1, w


def _normalize_stacked(parts: list[np.ndarray]) -> None:
    norms = np.sqrt(sum(np.sum(b * b, axis=0) for b in parts))
    for b in parts:
        b /= norms


def _generate(spec: ScenarioSpec, phi_x, phi_w, law: str, block_coords=None):
    """(panel, design, truth) from raw bases, normalized here; draws the design first."""
    rng = np.random.default_rng(spec.seed)
    design = sample_design(rng, spec.n_subjects, spec.n_visits)
    _normalize_stacked(list(phi_x))
    _normalize_stacked([phi_w])
    lam_x, lam_w = (default_eigenvalues(basis.shape[1]) for basis in (phi_x[0], phi_w))
    panel, truth = _synthesize(rng, design, phi_x, phi_w, lam_x, lam_w, law, spec.sigma2,
                               spec.seed, block_coords=block_coords)
    return panel, design, truth


def _synthesize(rng, design, phi_x, phi_w, lam_x, lam_w, law, sigma2, seed, mean=None,
                block_coords=None):
    """(panel, truth): the one body that draws a simulated panel. It draws xi,
    then zeta, then the noise from ``rng``; ``mean``, when given, is added
    before the noise."""
    xi = draw_scores(rng, lam_x, design.n_subjects, law)
    zeta = draw_scores(rng, lam_w, design.n, law)
    values = _assemble(design, phi_x, phi_w, xi, zeta)
    if mean is not None:
        values += mean[:, None]
    if sigma2 > 0:
        values += np.sqrt(sigma2) * rng.standard_normal(values.shape)
    truth = GroundTruth(phi_x=phi_x, phi_w=phi_w, lambda_x=lam_x, lambda_w=lam_w,
                        xi=xi, zeta=zeta, subject_ids=list(design.subject_ids),
                        visit_counts=design.visit_counts.tolist(), sigma2=sigma2,
                        seed=seed, score_law=law, block_coords=block_coords)
    return DataPanel.from_array(values), truth


def generate_scenario1(spec: ScenarioSpec):
    """Curves panel (mixture scores, optional noise): (panel, design, truth)."""
    if spec.scenario != 1:
        raise ValidationError("spec is not a curves scenario")
    x0, x1, w = curve_bases(spec.p)
    return _generate(spec, (x0, x1), w, "mixture")


# ---------------------------------------------------------------------------
# scenario 2: indicator blocks on a 3-D lattice
# ---------------------------------------------------------------------------

def block_layout(lattice: tuple[int, int, int]):
    """Eight disjoint, equally sized sub-blocks along the second lattice axis.

    Order follows eigenvalue strength: intercept, slope, then visit-level
    for component 1, then component 2, and so on. Each block spans the full
    first and third axes, so all axial slices look the same. Returns
    (family, component, (y_lo, y_hi)) triples.
    """
    n_blocks = 8
    if len(lattice) != 3 or lattice[1] < n_blocks:
        raise ValidationError(f"lattice must have three axes and at least {n_blocks} cells "
                              f"on axis 1, got {lattice}")
    height = lattice[1] // n_blocks
    order = [("x0", 0), ("x1", 0), ("w", 0), ("x0", 1), ("x1", 1), ("w", 1),
             ("x0", 2), ("x1", 2)]
    return [(fam, comp, (b * height, (b + 1) * height)) for b, (fam, comp) in enumerate(order)]


def _block_vector(lattice, y_range) -> np.ndarray:
    vol = np.zeros(lattice)
    vol[:, y_range[0]:y_range[1], :] = 1.0
    return vol.ravel()


def generate_scenario2(spec: ScenarioSpec):
    """Block-lattice panel (noiseless, normal scores): (panel, design, truth)."""
    if spec.scenario != 2:
        raise ValidationError("spec is not a block-lattice scenario")
    layout = block_layout(spec.lattice)
    x0, x1, w = np.zeros((spec.p, 3)), np.zeros((spec.p, 3)), np.zeros((spec.p, 2))
    for fam, comp, y_range in layout:
        {"x0": x0, "x1": x1, "w": w}[fam][:, comp] = _block_vector(spec.lattice, y_range)
    return _generate(spec, (x0, x1), w, "normal", [
        {"family": fam, "component": comp, "axis1_range": list(rng_)} for fam, comp, rng_ in layout])


def _assemble(design: StudyDesign, phi_x, phi_w, xi, zeta) -> np.ndarray:
    """Columns mean-free: sum_k Z_c,k Phi_x[k] xi_i + Phi_w zeta_c, formed as
    one product of the stacked bases with the stacked coefficients."""
    z = design.stacked_z()
    xi_of_col = xi[np.repeat(np.arange(design.n_subjects), design.visit_counts)]  # (n, n_x)
    coefs = [(xi_of_col * z[:, k][:, None]).T for k in range(len(phi_x))] + [zeta.T]
    return np.hstack([*phi_x, phi_w]) @ np.vstack(coefs)


# ---------------------------------------------------------------------------
# generation from a fitted model
# ---------------------------------------------------------------------------

def generate_from_model(model: FittedModel, design: StudyDesign, *,
                        lambda_x=None, lambda_w=None, score_law: str = "mixture",
                        sigma2: float = 0.0, seed: int = 0):
    """Synthesize a panel from a fitted basis over a (possibly unbalanced)
    design template in original units, mapped through the model's stored
    scaling; returns (panel, truth). Variances must be finite and nonnegative."""
    design = model.in_model_units(design)
    lam_x = np.asarray(model.lambda_x if lambda_x is None else lambda_x, dtype=float)
    lam_w = np.asarray(model.lambda_w if lambda_w is None else lambda_w, dtype=float)
    if lam_x.size != model.n_x or lam_w.size != model.n_w:
        raise ValidationError("eigenvalue overrides must match the model orders")
    for name, values in (("lambda_x", lam_x), ("lambda_w", lam_w), ("sigma2", sigma2)):
        if not (np.all(np.isfinite(values)) and np.all(np.asarray(values) >= 0)):
            raise ValidationError(f"{name} must be finite and nonnegative, got {values}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    *phi_x, phi_w = model.basis_arrays()
    return _synthesize(np.random.default_rng(seed), design, tuple(phi_x), phi_w, lam_x, lam_w,
                       score_law, sigma2, seed, mean=model.mean)


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

SCORE_QUANTILES = (0.005, 0.05, 0.5, 0.95, 0.995)


@dataclass
class EvaluationResult:
    """Recovery metrics per family and component.

    vector_distances maps family ("x0".."xq", "w") to sign-aligned squared
    L2 distances; lambda_errors holds signed normalized eigenvalue errors;
    score_errors holds sign-aligned normalized score errors, one column per
    component, with summary quantiles alongside.
    """

    vector_distances: dict[str, np.ndarray]
    lambda_errors: dict[str, np.ndarray]
    score_errors: dict[str, np.ndarray] = field(default_factory=dict)
    score_quantiles: dict[str, np.ndarray] = field(default_factory=dict)


def aligned_sq_distance(truth: np.ndarray, estimate: np.ndarray) -> float:
    """min(||t - e||^2, ||t + e||^2): the SVD sign is not identified."""
    return float(min(np.sum((truth - estimate) ** 2), np.sum((truth + estimate) ** 2)))


def evaluate(truth: GroundTruth, model: FittedModel,
             scores: ScorePanel | None = None) -> EvaluationResult:
    """Compare a fitted model (and optionally its scores, subject by subject)
    to the truth. ValidationError, naming the values that disagree, for a
    model of another q, n_x, n_w or p than the truth's, and for scores of
    other component counts than the model's or other subject ids or visit
    counts than the truth's (:func:`check_pairing`)."""
    sizes = {"q": len(truth.phi_x) - 1, "n_x": truth.n_x, "n_w": truth.n_w,
             "p": truth.phi_w.shape[0]}
    differ = [key for key, size in sizes.items() if getattr(model, key) != size]
    if differ:
        raise ValidationError(
            "model has " + ", ".join(f"{key} = {getattr(model, key)}" for key in differ)
            + ", but the truth has " + ", ".join(f"{key} = {sizes[key]}" for key in differ))
    if scores is not None:
        check_pairing(scores, model.n_x, model.n_w, "the model", truth, "the truth")
    *est_x, est_w = model.basis_arrays()
    distances: dict[str, np.ndarray] = {}
    for k in range(model.q + 1):
        distances[f"x{k}"] = np.array([
            aligned_sq_distance(truth.phi_x[k][:, m], est_x[k][:, m])
            for m in range(model.n_x)])
    distances["w"] = np.array([
        aligned_sq_distance(truth.phi_w[:, m], est_w[:, m]) for m in range(model.n_w)])
    lambda_errors = {
        "x": (model.lambda_x - truth.lambda_x) / truth.lambda_x,
        "w": (model.lambda_w - truth.lambda_w) / truth.lambda_w,
    }
    result = EvaluationResult(vector_distances=distances, lambda_errors=lambda_errors)
    if scores is None:
        return result
    # Joint sign per component: the intercept/slope blocks flip together.
    sign_x = np.array([
        _sign(sum(truth.phi_x[k][:, m] @ est_x[k][:, m] for k in range(model.q + 1)))
        for m in range(model.n_x)])
    sign_w = np.array([_sign(truth.phi_w[:, m] @ est_w[:, m]) for m in range(model.n_w)])
    xi_hat = scores.xi * sign_x
    zeta_hat = scores.zeta * sign_w
    result.score_errors["x"] = (truth.xi - xi_hat) / np.sqrt(truth.lambda_x)
    result.score_errors["w"] = (truth.zeta - zeta_hat) / np.sqrt(truth.lambda_w)
    for fam, err in result.score_errors.items():
        result.score_quantiles[fam] = np.quantile(err, SCORE_QUANTILES, axis=0)
    return result


def _sign(value: float) -> float:
    return -1.0 if value < 0 else 1.0
