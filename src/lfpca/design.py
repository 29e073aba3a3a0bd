"""Study designs: subjects, visits, covariates, and the column layout.

The data matrix columns are ordered subject by subject, visit by visit;
the column of visit (i, j) is sum(J_1..J_{i-1}) + j and every module in
the pipeline relies on that fixed indexing. Covariate rows Z_ij always
start with an intercept entry of 1; for the intercept/slope model q = 1
and Z_ij = (1, T_ij).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .limits import FF_CONDITION_LIMIT


@dataclass
class Subject:
    """One subject: an identifier and a (J_i, q+1) covariate matrix."""

    subject_id: str
    z: np.ndarray

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=np.float64))
        if self.z.ndim != 2 or self.z.shape[0] < 1 or self.z.shape[1] < 2:
            raise ValidationError(
                f"subject {self.subject_id!r}: covariates must be (J_i, q+1) with J_i >= 1, "
                f"q >= 1, got shape {self.z.shape}")
        if not np.all(self.z[:, 0] == 1.0):
            raise ValidationError(f"subject {self.subject_id!r}: intercept column must be all ones")
        if not np.all(np.isfinite(self.z)):
            raise ValidationError(f"subject {self.subject_id!r}: non-finite covariate values")

    @property
    def n_visits(self) -> int:
        return self.z.shape[0]


class StudyDesign:
    """Ordered subjects plus the derived column index map."""

    def __init__(self, subjects):
        self.subjects = list(subjects)
        if not self.subjects:
            raise ValidationError("design has no subjects")
        widths = {s.z.shape[1] for s in self.subjects}
        if len(widths) != 1:
            raise ValidationError(f"subjects disagree on covariate count: {sorted(widths)}")
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate subject_id in design")
        self.q = widths.pop() - 1
        counts = [s.n_visits for s in self.subjects]
        self.col_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.n = int(self.col_offsets[-1])

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def visit_counts(self) -> list[int]:
        return [s.n_visits for s in self.subjects]

    def column_of(self, subject_index: int, visit_index: int) -> int:
        subj = self.subjects[subject_index]
        if not 0 <= visit_index < subj.n_visits:
            raise ValidationError(
                f"subject {subj.subject_id!r} has {subj.n_visits} visits, no visit {visit_index}")
        return int(self.col_offsets[subject_index]) + visit_index

    def columns(self, subject_index: int) -> slice:
        """Column range of one subject's visits."""
        return slice(int(self.col_offsets[subject_index]), int(self.col_offsets[subject_index + 1]))

    def stacked_z(self) -> np.ndarray:
        """All covariate rows stacked in column order, shape (n, q+1)."""
        return np.vstack([s.z for s in self.subjects])


# ---------------------------------------------------------------------------
# metadata CSV
# ---------------------------------------------------------------------------

def write_metadata(design: StudyDesign, path) -> None:
    """Write the sidecar table: subject_id,visit_index,col,Z0,...,Zq."""
    header = ["subject_id", "visit_index", "col"] + [f"Z{k}" for k in range(design.q + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        col = 0
        for subj in design.subjects:
            for j in range(subj.n_visits):
                writer.writerow([subj.subject_id, j, col]
                                + [f"{v:.17g}" for v in subj.z[j]])
                col += 1


def read_metadata(path) -> StudyDesign:
    """Read the sidecar table back into a design, validating the column map."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"metadata file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"metadata file {path} is empty") from None
        if header[:3] != ["subject_id", "visit_index", "col"]:
            raise ValidationError(f"metadata header must start with subject_id,visit_index,col, got {header[:3]}")
        z_names = header[3:]
        if not z_names or z_names[0] != "Z0":
            raise ValidationError("metadata must carry covariate columns Z0,Z1,...")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append((row[0], int(row[1]), int(row[2]), [float(v) for v in row[3:]]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"metadata file {path} has no visit rows")
    rows.sort(key=lambda r: r[2])
    subjects: list[Subject] = []
    current_id, z_rows, expect_visit = None, [], 0
    for col, (sid, visit, col_idx, z) in enumerate(rows):
        if col_idx != col:
            raise ValidationError(f"metadata column indices must be 0..n-1; missing or duplicate col {col}")
        if sid != current_id:
            if current_id is not None:
                subjects.append(Subject(current_id, np.array(z_rows)))
            if any(s.subject_id == sid for s in subjects):
                raise ValidationError(f"subject {sid!r} occupies non-contiguous columns")
            current_id, z_rows, expect_visit = sid, [], 0
        if visit != expect_visit:
            raise ValidationError(f"subject {sid!r}: visit_index must run 0..J-1 in column order")
        z_rows.append(z)
        expect_visit += 1
    subjects.append(Subject(current_id, np.array(z_rows)))
    return StudyDesign(subjects)


# ---------------------------------------------------------------------------
# covariate normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariateScale:
    """Affine map applied to one covariate column: z -> (z - shift) / scale."""

    column: int
    shift: float
    scale: float


def normalize_covariates(design: StudyDesign):
    """Standardize each non-intercept covariate over all n visits pooled.

    Uses the n-1 divisor for the sample variance. Returns the normalized
    design, mapped by :func:`apply_covariate_scaling`, and the per-column
    affine transforms, which a fitted model stores and re-applies to every
    design given in original units.
    """
    z = design.stacked_z()
    scales = []
    for k in range(1, design.q + 1):
        var = z[:, k].var(ddof=1) if design.n > 1 else 0.0
        if var <= 0.0:
            raise ValidationError(f"covariate column Z{k} has zero variance; cannot normalize")
        scales.append(CovariateScale(column=k, shift=float(z[:, k].mean()),
                                     scale=float(np.sqrt(var))))
    scales = tuple(scales)
    return apply_covariate_scaling(design, scales), scales


def apply_covariate_scaling(design: StudyDesign, scales) -> StudyDesign:
    """Map a design in original units through stored transforms."""
    z = design.stacked_z()
    for sc in scales:
        if not 1 <= sc.column <= design.q:
            raise ValidationError(f"scaling refers to column Z{sc.column}, design has q={design.q}")
        z[:, sc.column] = (z[:, sc.column] - sc.shift) / sc.scale
    subjects = [Subject(s.subject_id, z[design.columns(i)])
                for i, s in enumerate(design.subjects)]
    return StudyDesign(subjects)


# ---------------------------------------------------------------------------
# identifiability validation
# ---------------------------------------------------------------------------

@dataclass
class DesignReport:
    """Outcome of validate_design: ok iff no failure was recorded."""

    failures: list[str]
    rank: int
    required_rank: int
    condition_number: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return (f"design ok: moment design matrix has full row rank "
                    f"{self.rank}/{self.required_rank}")
        return "design invalid: " + "; ".join(self.failures)


def validate_design(design: StudyDesign) -> DesignReport:
    """Check that the design identifies all variance components.

    The operative condition is that the pairwise-moment design matrix F has
    full row rank (q+1)^2 + 1 with a well-conditioned F F'. Additionally at
    least one subject must have three or more visits, which is what separates
    the visit-specific component from the subject trajectory in practice.
    Returns a report instead of raising, so callers can surface every
    deficiency at once.
    """
    from .mom import build_design_matrix

    failures: list[str] = []
    required = (design.q + 1) ** 2 + 1
    if max(design.visit_counts) < 3:
        failures.append("no subject has 3 or more visits; the visit-specific component "
                        "is not identifiable")
    f = build_design_matrix(design).f
    sv = np.linalg.svd(f, compute_uv=False)
    rank = int(np.sum(sv > sv[0] * max(f.shape) * np.finfo(float).eps)) if sv[0] > 0 else 0
    if rank < required:
        failures.append(f"moment design matrix is rank deficient ({rank} < {required}); "
                        "check visit counts and covariate spread")
        cond = np.inf
    else:
        cond = float((sv[0] / sv[required - 1]) ** 2)  # condition number of F F'
        if cond > FF_CONDITION_LIMIT:
            failures.append(f"moment design matrix is numerically singular "
                            f"(condition {cond:.2e} > {FF_CONDITION_LIMIT:.0e})")
    return DesignReport(failures=failures, rank=rank, required_rank=required,
                        condition_number=cond)
