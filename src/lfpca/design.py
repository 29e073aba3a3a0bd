"""Study designs: subject ids, visit counts, covariates, and the column layout.

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
from .mom import DesignReport, build_design_matrix, judge_design


class StudyDesign:
    """Subjects as arrays: ``subject_ids`` in design order, ``visit_counts``
    J_i, and the (n, q+1) covariate rows Z_ij stacked in column order, with
    the derived column offsets. The arrays are read-only."""

    def __init__(self, subject_ids, visit_counts, z):
        self.subject_ids = tuple(subject_ids)
        counts = np.asarray(visit_counts)
        if not self.subject_ids:
            raise ValidationError("design has no subjects")
        if counts.shape != (len(self.subject_ids),) or not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"need one integer visit count per subject, got {counts.dtype} "
                                  f"counts of shape {counts.shape} for {len(self.subject_ids)}")
        if counts.min() < 1:
            raise ValidationError(f"visit counts must be >= 1, got {counts.min()}")
        if len(set(self.subject_ids)) != len(self.subject_ids):
            raise ValidationError("duplicate subject_id in design")
        self.visit_counts = _read_only(counts.astype(np.int64))
        self.col_offsets = _read_only(np.concatenate([[0], np.cumsum(self.visit_counts)]))
        self.n = int(self.col_offsets[-1])
        z = np.array(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != self.n or z.shape[1] < 2:
            raise ValidationError(f"covariates must be (n, q+1) with n = {self.n} visits and "
                                  f"q >= 1, got shape {z.shape}")
        for bad, what in ((z[:, 0] != 1.0, "intercept column must be all ones"),
                          (~np.isfinite(z).all(axis=1), "non-finite covariate values")):
            if np.any(bad):
                subject = np.searchsorted(self.col_offsets, np.argmax(bad), side="right") - 1
                raise ValidationError(f"subject {self.subject_ids[subject]!r}: {what}")
        self.q = z.shape[1] - 1
        self._z = _read_only(z)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    def column_of(self, subject_index: int, visit_index: int) -> int:
        count = int(self.visit_counts[subject_index])
        if not 0 <= visit_index < count:
            raise ValidationError(f"subject {self.subject_ids[subject_index]!r} has {count} "
                                  f"visits, no visit {visit_index}")
        return int(self.col_offsets[subject_index]) + visit_index

    def columns(self, subject_index: int) -> slice:
        """Column range of one subject's visits."""
        return slice(int(self.col_offsets[subject_index]), int(self.col_offsets[subject_index + 1]))

    def stacked_z(self) -> np.ndarray:
        """All covariate rows stacked in column order, shape (n, q+1), read-only."""
        return self._z

    def visit_groups(self):
        """Subjects grouped by visit count: yields (J, subject indices, (G, J) columns)."""
        for j in sorted(set(self.visit_counts.tolist())):  # np.unique would import numpy.ma, ~1 MB
            idx = np.flatnonzero(self.visit_counts == j)
            yield j, idx, self.col_offsets[idx][:, None] + np.arange(j)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# metadata CSV
# ---------------------------------------------------------------------------

def write_metadata(design: StudyDesign, path) -> None:
    """Write the sidecar table: subject_id,visit_index,col,Z0,...,Zq."""
    header = ["subject_id", "visit_index", "col"] + [f"Z{k}" for k in range(design.q + 1)]
    z = design.stacked_z()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        col = 0
        for subject_id, count in zip(design.subject_ids, design.visit_counts):
            for j in range(count):
                writer.writerow([subject_id, j, col] + [f"{v:.17g}" for v in z[col]])
                col += 1


def read_metadata(path) -> StudyDesign:
    """Read the sidecar table, through :func:`read_csv_records`, back into a
    design, validating the column map."""
    header, records = read_csv_records(path, "metadata", ["subject_id", "visit_index", "col"],
                                       lambda row: (row[0], int(row[1]), int(row[2]),
                                                    [float(v) for v in row[3:]]))
    if header[3:4] != ["Z0"]:
        raise ValidationError(f"{path}: metadata must carry covariate columns Z0,Z1,...")
    if not records:
        raise ValidationError(f"metadata file {path} has no visit rows")
    rows = sorted((row for _, row in records), key=lambda r: r[2])
    counts: dict[str, int] = {}  # visits so far of each subject, in column order
    for col, (sid, visit, col_idx, _) in enumerate(rows):
        if col_idx != col:
            raise ValidationError(f"metadata column indices must be 0..n-1; missing or duplicate col {col}")
        if sid in counts and sid != next(reversed(counts)):
            raise ValidationError(f"subject {sid!r} occupies non-contiguous columns")
        if visit != counts.get(sid, 0):
            raise ValidationError(f"subject {sid!r}: visit_index must run 0..J-1 in column order")
        counts[sid] = visit + 1
    return StudyDesign(list(counts), list(counts.values()), [z for *_, z in rows])


def read_csv_records(path, what: str, header_start: list[str], parse) -> tuple[list, list]:
    """The one read loop of lfpca's CSV records: the header of a UTF-8 file and
    the (line, ``parse(row)``) pairs of its non-blank rows. ValidationError,
    naming ``what`` and the file or ``path:line``, unless the path is a
    non-empty file whose header starts with ``header_start`` and whose rows
    have the header's field count, and for a ValueError from ``parse``."""
    if not Path(path).is_file():
        raise ValidationError(f"{what} file not found: {path}")
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{what} file {path} is empty")
            if header[:len(header_start)] != header_start:
                raise ValueError(f"{what} header must start with {','.join(header_start)}, "
                                 f"got {header[:len(header_start)]}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                records.append((reader.line_num, parse(row)))
    except UnicodeDecodeError:
        raise ValidationError(f"{what} file {path} is not UTF-8 text") from None
    except (ValueError, csv.Error) as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    return header, records


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
    z = design.stacked_z().copy()
    for sc in scales:
        if not 1 <= sc.column <= design.q:
            raise ValidationError(f"scaling refers to column Z{sc.column}, design has q={design.q}")
        z[:, sc.column] = (z[:, sc.column] - sc.shift) / sc.scale
    return StudyDesign(design.subject_ids, design.visit_counts, z)


# ---------------------------------------------------------------------------
# identifiability validation
# ---------------------------------------------------------------------------

def validate_design(design: StudyDesign) -> DesignReport:
    """Check that the design identifies all variance components: the report
    of :func:`lfpca.mom.judge_design` on its moment design matrix."""
    return judge_design(build_design_matrix(design))
