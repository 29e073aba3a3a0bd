"""Longitudinal functional PCA for high-dimensional panels, out of core.

Decomposes repeatedly measured high-dimensional observations into
subject-level (intercept and slope, or general covariate loadings) and
visit-level components, with score prediction and a simulation harness.
All heavy computation is linear in the observation dimension and streams
the data in row slices.
"""

__version__ = "0.1.0"

from .blup import reconstruct, score_blups, score_new_panel
from .design import (CovariateScale, DesignReport, StudyDesign, apply_covariate_scaling,
                     normalize_covariates, read_metadata, validate_design, write_metadata)
from .errors import IdentifiabilityError, LfpcaError, NumericalError, ValidationError
from .fit import (FitResult, VarianceTable, decompose_intrinsic, estimate_sigma2, fit_panel,
                  variance_explained)
from .gram import IntrinsicDecomposition, accumulate_gram, eigen_gram
from .mom import (IntrinsicCovariances, MomDesign, build_design_matrix, compute_weights,
                  intrinsic_covariances)
from .panel import (DataPanel, PanelWriter, center_panel, panel_from_csv, panel_to_csv,
                    read_panel, stream, write_panel)
from .simulate import (EvaluationResult, ScenarioSpec, aligned_sq_distance, curve_bases,
                       default_eigenvalues, evaluate, generate_from_model, generate_scenario1,
                       generate_scenario2)
from .store import (FittedModel, GroundTruth, ScorePanel, load_model, load_truth,
                    read_scores_csv, save_model, save_truth, write_scores_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
