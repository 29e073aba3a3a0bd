import numpy as np
import pytest

from conftest import design_of, make_design, subject_rows
from lfpca import (StudyDesign, ValidationError, apply_covariate_scaling,
                   normalize_covariates, read_metadata, validate_design, write_metadata)
from oracle import oracle_design_matrix


def test_column_indexing_is_cumulative(rng):
    design = make_design(rng, n_subjects=3, visits=[2, 3, 1])
    assert design.n == 6
    assert design.column_of(0, 1) == 1
    assert design.column_of(1, 0) == 2
    assert design.column_of(2, 0) == 5
    assert design.columns(1) == slice(2, 5)
    with pytest.raises(ValidationError):
        design.column_of(2, 1)


def test_intercept_column_enforced():
    with pytest.raises(ValidationError):
        design_of([("a", np.array([[1.0, 0.5], [0.9, 1.0]]))])


TWO_SUBJECTS = (["a", "b"], [1, 2], np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]))


def _with_z(row, col, value):
    z = TWO_SUBJECTS[2].copy()
    z[row, col] = value
    return TWO_SUBJECTS[:2] + (z,)


DESIGN_REFUSALS = {
    "no-subjects": (([], [], np.ones((0, 2))), "no subjects"),
    "counts-length": ((["a", "b"], [3], TWO_SUBJECTS[2]), "one integer visit count per subject"),
    "count-0": ((["a", "b"], [0, 3], TWO_SUBJECTS[2]), "visit counts must be >= 1"),
    "duplicate-id": ((["a", "a"], [1, 2], TWO_SUBJECTS[2]), "duplicate subject_id"),
    "row-count": ((["a", "b"], [2, 2], TWO_SUBJECTS[2]), r"n = 4 visits .* shape \(3, 2\)"),
    "one-column": (TWO_SUBJECTS[:2] + (np.ones((3, 1)),), r"q >= 1, got shape \(3, 1\)"),
    "intercept": (_with_z(2, 0, 0.5), "subject 'b': intercept column must be all ones"),
    "nan": (_with_z(1, 1, np.nan), "subject 'b': non-finite covariate values"),
}


@pytest.mark.parametrize("args, message", DESIGN_REFUSALS.values(), ids=list(DESIGN_REFUSALS))
def test_design_refuses_malformed_arrays(args, message):
    StudyDesign(*TWO_SUBJECTS)  # the unaltered arrays make a design
    with pytest.raises(ValidationError, match=message):
        StudyDesign(*args)


def test_stacked_z_is_read_only(rng):
    design = make_design(rng, n_subjects=3, visits=[2, 1, 3])
    z = design.stacked_z()
    with pytest.raises(ValueError, match="read-only"):
        z[0, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        design.visit_counts[0] = 4
    assert design.stacked_z() is z


def test_metadata_round_trip(rng, tmp_path):
    design = make_design(rng, n_subjects=4, visits=[3, 4, 3, 5], q=2)
    path = tmp_path / "meta.csv"
    write_metadata(design, path)
    back = read_metadata(path)
    assert back.subject_ids == design.subject_ids
    assert back.q == design.q and back.n == design.n
    np.testing.assert_array_equal(back.stacked_z(), design.stacked_z())
    # the (subject, visit) <-> column bijection survives serialization
    for i in range(design.n_subjects):
        for j in range(design.visit_counts[i]):
            assert back.column_of(i, j) == design.column_of(i, j)


def test_metadata_rewrite_is_byte_identical(rng, tmp_path):
    design = make_design(rng, n_subjects=5, visits=[1, 4, 2, 5, 3], q=2)
    write_metadata(design, tmp_path / "a.csv")
    write_metadata(read_metadata(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_metadata_rejects_column_gaps(rng, tmp_path):
    design = make_design(rng, n_subjects=2, visits=2)
    path = tmp_path / "meta.csv"
    write_metadata(design, path)
    lines = path.read_text().splitlines()
    del lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_metadata(path)


# --- covariate normalization ------------------------------------------------

def test_normalize_three_times():
    design = design_of([("a", np.column_stack([np.ones(3), [1.0, 2.0, 3.0]]))])
    normalized, scales = normalize_covariates(design)
    np.testing.assert_allclose(normalized.stacked_z()[:, 1], [-1.0, 0.0, 1.0])
    assert scales[0].shift == 2.0 and scales[0].scale == 1.0


def test_normalize_is_idempotent(rng):
    design = make_design(rng, n_subjects=5, visits=3, q=2)
    once, _ = normalize_covariates(design)
    twice, _ = normalize_covariates(once)
    np.testing.assert_allclose(once.stacked_z(), twice.stacked_z(), atol=1e-12)
    z = once.stacked_z()
    assert abs(z[:, 1].mean()) < 1e-12 and abs(z[:, 1].var(ddof=1) - 1.0) < 1e-12


def test_normalize_rejects_constant_covariate():
    design = design_of([("a", np.column_stack([np.ones(3), np.zeros(3)]))])
    with pytest.raises(ValidationError, match="Z1"):
        normalize_covariates(design)


def test_normalize_leaves_intercept_untouched(rng):
    design = make_design(rng, n_subjects=4, visits=3)
    normalized, _ = normalize_covariates(design)
    assert np.all(normalized.stacked_z()[:, 0] == 1.0)


def test_apply_scaling_reproduces_training_transform(rng):
    design = make_design(rng, n_subjects=4, visits=3)
    normalized, scales = normalize_covariates(design)
    reapplied = apply_covariate_scaling(design, scales)
    np.testing.assert_allclose(reapplied.stacked_z(), normalized.stacked_z(), atol=1e-14)


# --- identifiability --------------------------------------------------------

def test_validate_passes_four_visit_design(rng):
    design = make_design(rng, n_subjects=100, visits=4)
    report = validate_design(design)
    assert report.ok, report.failures
    assert report.rank == report.required_rank == 5


def test_validate_fails_single_visit_design(rng):
    design = make_design(rng, n_subjects=10, visits=1)
    report = validate_design(design)
    assert not report.ok
    assert report.rank < 5


def test_validate_fails_two_visit_designs(rng):
    # Shared two-visit times: the design matrix itself is rank deficient,
    # confirmed by brute force on the literal column construction.
    z = np.column_stack([np.ones(2), [0.0, 1.0]])
    shared = design_of((f"s{i}", z) for i in range(10))
    f = oracle_design_matrix(subject_rows(shared))
    assert np.linalg.matrix_rank(f) < 5
    report = validate_design(shared)
    assert not report.ok

    # Distinct gaps can make the matrix full rank, but two visits still
    # cannot separate a visit-level deviation from the subject trajectory,
    # so the report must flag the missing third visit either way.
    hetero = make_design(rng, n_subjects=10, visits=2)
    report = validate_design(hetero)
    assert not report.ok
    assert any("3 or more visits" in msg for msg in report.failures)


def test_validate_reports_are_informative(rng):
    design = make_design(rng, n_subjects=6, visits=1)
    report = validate_design(design)
    assert "rank" in str(report) or "visits" in str(report)
    assert report.condition_number == np.inf or report.condition_number > 0


def test_validate_q2_design(rng):
    design = make_design(rng, n_subjects=12, visits=4, q=2)
    assert validate_design(design).ok
