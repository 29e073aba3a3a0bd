import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lfpca import StudyDesign, Subject

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database, so runs are reproducible
    settings.register_profile("lfpca", derandomize=True, deadline=None, database=None)
    settings.load_profile("lfpca")


def make_design(rng, n_subjects=8, visits=4, q=1, spread=2.0):
    """Random design: sorted positive times, extra covariates uniform.

    ``visits`` may be an int or a per-subject sequence.
    """
    counts = [visits] * n_subjects if np.isscalar(visits) else list(visits)
    subjects = []
    for i, j_i in enumerate(counts):
        times = np.sort(rng.uniform(0.0, spread, j_i))
        cols = [np.ones(j_i), times]
        for _ in range(q - 1):
            cols.append(rng.uniform(-1.0, 1.0, j_i))
        subjects.append(Subject(f"s{i:03d}", np.column_stack(cols)))
    return StudyDesign(subjects)


def map_times(design, shift, scale):
    """The design with every visit time T replaced by shift + scale * T."""
    z = design.stacked_z()
    z[:, 1] = shift + scale * z[:, 1]
    return StudyDesign([Subject(s.subject_id, z[design.columns(i)])
                        for i, s in enumerate(design.subjects)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
