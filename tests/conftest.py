import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lfpca import (DataPanel, StudyDesign, intrinsic_covariances, normalize_covariates,
                   read_panel, write_panel)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database, so runs are reproducible
    settings.register_profile("lfpca", derandomize=True, deadline=None, database=None)
    settings.load_profile("lfpca")


def poison_basis(model_dir, row):
    """Write an inf into row ``row`` of a saved model's ``phi_w.lfpb``."""
    path = Path(model_dir) / "phi_w.lfpb"
    arr = read_panel(path).to_array()
    arr[row, 0] = np.inf
    write_panel(DataPanel.from_array(arr), path)


def fit_covariances(result, design):
    """The intrinsic covariances of ``result``, a fit of ``design``: a fit
    keeps none, so they are rebuilt from its decomposition, weights and Gram
    matrix with the design it fitted (standardised when it normalised)."""
    if result.options["normalize"]:
        design = normalize_covariates(design)[0]
    return intrinsic_covariances(result.decomposition, result.mom, design, gram=result.gram)


def make_design(rng, n_subjects=8, visits=4, q=1, spread=2.0):
    """Random design: sorted positive times, extra covariates uniform.

    ``visits`` may be an int or a per-subject sequence.
    """
    counts = [visits] * n_subjects if np.isscalar(visits) else list(visits)
    pairs = []
    for i, j_i in enumerate(counts):
        times = np.sort(rng.uniform(0.0, spread, j_i))
        cols = [np.ones(j_i), times]
        for _ in range(q - 1):
            cols.append(rng.uniform(-1.0, 1.0, j_i))
        pairs.append((f"s{i:03d}", np.column_stack(cols)))
    return design_of(pairs)


def design_of(pairs):
    """The design of (subject id, (J_i, q+1) covariate rows) pairs, in order."""
    pairs = list(pairs)
    return StudyDesign([sid for sid, _ in pairs], [len(z) for _, z in pairs],
                       np.vstack([z for _, z in pairs]))


def subject_rows(design):
    """Each subject's (J_i, q+1) covariate rows, in design order."""
    z = design.stacked_z()
    return [z[design.columns(i)] for i in range(design.n_subjects)]


def reordered(design, order):
    """The design with its subjects taken in ``order``."""
    rows = subject_rows(design)
    return design_of((design.subject_ids[i], rows[i]) for i in order)


def map_times(design, shift, scale):
    """The design with every visit time T replaced by shift + scale * T."""
    z = design.stacked_z().copy()
    z[:, 1] = shift + scale * z[:, 1]
    return StudyDesign(design.subject_ids, design.visit_counts, z)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
