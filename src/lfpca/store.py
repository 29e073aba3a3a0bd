"""The records lfpca writes and reads back, each next to its file format:
the fitted model and the model directory, the scores and the scores CSV,
the simulation truth and the truth directory. In a model directory every
matrix is an LFPB file, and model.json holds only sizes and short scalar
records. Each reader is the one check of what it reads, and raises
ValidationError naming the file and the key.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .design import CovariateScale, StudyDesign, apply_covariate_scaling, read_csv_records
from .errors import ValidationError
from .panel import DataPanel, finite_row_sums, read_panel, write_panel

MODEL_FILE = "model.json"
MEAN_FILE = "mean.lfpb"
A_X_FILE = "a_x.lfpb"  # the intrinsic coefficients A_x, (q+1)r x n_x
A_W_FILE = "a_w.lfpb"  # the intrinsic coefficients A_w, r x n_w
V_FILE = "v.lfpb"  # the left singular vectors a fit writes with write_v
SCORES_FILE = "scores.csv"
TRUTH_FILE = "truth.json"
TRUTH_DIR = "truth"  # the truth directory of a simulated replication


# ---------------------------------------------------------------------------
# fitted model and the model directory
# ---------------------------------------------------------------------------

@dataclass
class FittedModel:
    """Everything needed to interpret, score, and reconstruct observations.

    The sizes are read from the arrays: p from ``mean``, q from ``phi_x``
    (one basis per covariate), r and n_w from ``a_w`` (r x n_w) and n_x from
    ``a_x`` ((q+1)r x n_x). n is the training panel's column count.
    """

    n: int
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

    @property
    def p(self) -> int:
        return self.mean.size

    @property
    def q(self) -> int:
        return len(self.phi_x) - 1

    @property
    def r(self) -> int:
        return self.a_w.shape[0]

    @property
    def n_x(self) -> int:
        return self.a_x.shape[1]

    @property
    def n_w(self) -> int:
        return self.a_w.shape[1]

    def basis_sources(self) -> list:
        """What a refusal of each basis' values names, in family order: its
        file, or its file name in a model directory when held in memory."""
        return [phi.path or name
                for phi, name in zip([*self.phi_x, self.phi_w], basis_files(self.q))]

    def check_bases(self, rows: slice, blocks) -> None:
        """Refuse non-finite values in rows ``rows`` of the bases, read as
        ``blocks`` in family order (see :func:`finite_row_sums`)."""
        for block, source in zip(blocks, self.basis_sources()):
            finite_row_sums(rows, block, source=source)

    def basis_arrays(self) -> list[np.ndarray]:
        """The bases read whole, in family order, each refused unless finite."""
        return [finite_values(phi, source)
                for phi, source in zip((*self.phi_x, self.phi_w), self.basis_sources())]

    def in_model_units(self, design: StudyDesign) -> StudyDesign:
        """A design in original units through the stored scaling; refused unless q matches."""
        if design.q != self.q:
            raise ValidationError(f"design has q={design.q}, model was fitted with q={self.q}")
        return apply_covariate_scaling(design, self.covariate_scaling)


_SIZES = ("p", "n", "q", "r", "n_x", "n_w")  # stored in model.json, read from the arrays
_MODEL_KEYS = _SIZES + ("lambda_x", "lambda_w", "sigma2", "trace_x", "trace_w",
                        "clipped_count", "covariate_scaling")


def basis_file(k: int | None = None) -> str:
    """File name of the lifted basis Phi_xk in a model directory, or of
    Phi_w when ``k`` is None: the one place these names are spelled."""
    return "phi_w.lfpb" if k is None else f"phi_x_{k}.lfpb"


def basis_files(q: int) -> list[str]:
    """The basis file names of a model with ``q`` covariates, in family
    order Phi_x0 ... Phi_xq, Phi_w."""
    return [basis_file(k) for k in range(q + 1)] + [basis_file()]


def phi_x_files_in(directory) -> list[str]:
    """The Phi_x basis file names present in ``directory``, counted from
    Phi_x0 up to the first one missing."""
    names = []
    while (Path(directory) / basis_file(len(names))).is_file():
        names.append(basis_file(len(names)))
    return names


def save_model(model: FittedModel, outdir) -> None:
    """Write the model directory: a_x.lfpb, a_w.lfpb, mean.lfpb and the phi
    panels, each one LFPB file with its exact bits, then model.json with the
    sizes and scalars. An earlier model.json is removed before anything is
    written, so a save that fails partway leaves a directory that
    :func:`load_model` refuses, never a mix of two models that loads."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / MODEL_FILE).unlink(missing_ok=True)
    for matrix, name in ((model.a_x, A_X_FILE), (model.a_w, A_W_FILE),
                         (model.mean[:, None], MEAN_FILE)):
        write_panel(DataPanel.from_array(matrix), outdir / name)
    for phi, name in zip([*model.phi_x, model.phi_w], basis_files(model.q)):
        if phi.path != outdir / name:
            write_panel(phi, outdir / name)
    payload = {
        **{name: getattr(model, name) for name in _SIZES},
        "lambda_x": model.lambda_x.tolist(), "lambda_w": model.lambda_w.tolist(),
        "sigma2": model.sigma2, "trace_x": model.trace_x, "trace_w": model.trace_w,
        "clipped_count": model.clipped_count,
        "covariate_scaling": [{"column": s.column, "shift": s.shift, "scale": s.scale}
                              for s in model.covariate_scaling],
    }
    # one line: json.dumps without indent takes the C encoder, json.dump never does
    (outdir / MODEL_FILE).write_text(json.dumps(payload, sort_keys=True))


def load_model(model_dir) -> FittedModel:
    """Open a saved model; phi panels stay on disk and are read lazily.

    This is the one check of a model directory. It raises ValidationError,
    naming the file and the key, when ``model.json`` does not parse or lacks
    a key, when ``a_x.lfpb`` or ``a_w.lfpb`` is missing (a model directory
    written before the coefficients left ``model.json``, which must be
    fitted again), when a stored size disagrees with the arrays
    (``a_x.lfpb`` is (q+1)r x n_x, ``a_w.lfpb`` is r x n_w, lambda_x and
    lambda_w hold n_x and n_w values), when a coefficient, eigenvalue,
    ``sigma2``, trace or mean value is not finite, when a covariate scaling
    entry does not name a column in [1, q] or has a shift or scale that is
    not a finite number or a scale <= 0, or when ``mean.lfpb`` is not p x 1
    or a basis file is not p x n_x (p x n_w for Phi_w). Of the bases only
    the headers are read; the scoring pass checks their values as it reads
    them (see :func:`lfpca.blup.panel_projections`). Keys it does not know,
    such as the ``spectrum_x`` of older files, are ignored.
    """
    model_dir = Path(model_dir)
    meta = _CheckedJson(model_dir / MODEL_FILE, _MODEL_KEYS)
    for name in (A_X_FILE, A_W_FILE):
        if not (model_dir / name).is_file():
            raise ValidationError(f"no {name} in {model_dir}: a model directory written "
                                  f"before the coefficients left {MODEL_FILE} must be refitted")
    sizes = {key: meta.value(key, _size) for key in _SIZES}
    p, q, r = sizes["p"], sizes["q"], sizes["r"]
    lambda_x, lambda_w = meta.vector("lambda_x"), meta.vector("lambda_w")
    a_w = read_panel(model_dir / A_W_FILE)
    meta.counts(sizes, (("r", a_w.p, f"rows in {A_W_FILE}"),
                        ("n_w", a_w.n, f"columns in {A_W_FILE}"),
                        ("n_x", lambda_x.size, "values in 'lambda_x'"),
                        ("n_w", lambda_w.size, "values in 'lambda_w'")))
    a_x = _checked_panel(model_dir / A_X_FILE, meta.path, (q + 1) * r, sizes["n_x"],
                         "(q+1) r x n_x")
    a_x, a_w = (finite_values(panel) for panel in (a_x, a_w))
    scaling = meta.value("covariate_scaling",
                         lambda entries: tuple(_covariate_scale(s, q) for s in entries))
    scalars = {key: meta.value(key, _finite) for key in ("sigma2", "trace_x", "trace_w")}
    mean = finite_values(_checked_panel(model_dir / MEAN_FILE, meta.path, p, 1, "p x 1"))[:, 0]
    *phi_x, phi_w = [_checked_panel(model_dir / name, meta.path, p, sizes[key], f"p x {key}")
                     for name, key in zip(basis_files(q), ["n_x"] * (q + 1) + ["n_w"])]
    return FittedModel(n=sizes["n"], a_x=a_x, a_w=a_w, lambda_x=lambda_x, lambda_w=lambda_w,
                       phi_x=tuple(phi_x), phi_w=phi_w, **scalars,
                       clipped_count=meta.value("clipped_count", _size),
                       mean=mean, covariate_scaling=scaling)


def finite_values(panel: DataPanel, source=None) -> np.ndarray:
    """A stored matrix read whole, refused by ``source`` (the panel's file
    when None) and the first bad row unless finite (see :func:`finite_row_sums`)."""
    values = panel.to_array()
    finite_row_sums(slice(0, panel.p), values, source=source or panel.path)
    return values


def _covariate_scale(entry: dict, q: int) -> CovariateScale:
    column, shift, scale = _size(entry["column"]), _finite(entry["shift"]), _finite(entry["scale"])
    if not 1 <= column <= q:
        raise ValueError(f"column must be in [1, {q}], got {column}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return CovariateScale(column=column, shift=shift, scale=scale)


def _size(raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ValueError(f"expected a non-negative integer, got {raw!r}")
    return raw


def _finite(raw) -> float:
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or (isinstance(raw, float) and not math.isfinite(raw))):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return float(raw)


class _CheckedJson:
    """A JSON object file that a model or truth directory carries, refused
    with ValidationError naming the file (and the key) when it is missing,
    does not parse, lacks one of ``keys`` or holds a value of the wrong kind."""

    def __init__(self, path: Path, keys):
        self.path = path
        if not path.is_file():
            raise ValidationError(f"no {path.name} in {path.parent}")
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path} does not parse: {exc}") from None
        if not isinstance(self.data, dict):
            raise ValidationError(f"{path} must hold a JSON object")
        missing = [key for key in keys if key not in self.data]
        if missing:
            raise ValidationError(f"{path}: missing key(s) {', '.join(map(repr, missing))}")

    def value(self, key: str, convert):
        """``convert`` of the value at ``key``; its TypeError, ValueError or
        KeyError becomes a ValidationError naming the key."""
        try:
            return convert(self.data[key])
        except (TypeError, ValueError, KeyError) as exc:
            raise ValidationError(f"{self.path}: bad {key!r}: {exc!r}") from None

    def vector(self, key: str) -> np.ndarray:
        """A finite float vector."""
        arr = self.value(key, lambda v: np.array(v, dtype=np.float64))
        if arr.ndim != 1:
            raise ValidationError(f"{self.path}: {key!r} must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{self.path}: {key!r} holds non-finite values")
        return arr

    def counts(self, sizes: dict, found) -> None:
        """Refuse a stored size that disagrees with the data: ``found`` holds
        (key, count, what is counted) triples."""
        for key, got, what in found:
            if sizes[key] != got:
                raise ValidationError(f"{self.path}: {key!r} is {sizes[key]}, "
                                      f"but there are {got} {what}")


def _checked_panel(path: Path, json_path: Path, rows: int, cols: int, shape: str) -> DataPanel:
    """The panel at ``path``, refused unless its header says rows x cols, the
    ``shape`` that the file at ``json_path`` gives."""
    panel = read_panel(path)
    if (panel.p, panel.n) != (rows, cols):
        raise ValidationError(f"{path} is {panel.p} x {panel.n}, but {json_path.name} "
                              f"gives {shape} = {rows} x {cols}")
    return panel


# ---------------------------------------------------------------------------
# scores and the scores CSV
# ---------------------------------------------------------------------------

@dataclass
class ScorePanel:
    """Scores in design order: a row of ``xi`` per subject, a row of ``zeta``
    per visit (in column order), and the subjects solved by least squares."""

    subject_ids: list[str]
    visit_counts: list[int]
    xi: np.ndarray              # (N, n_x)
    zeta: np.ndarray            # (n, n_w)
    rank_deficient: np.ndarray  # (N,) bool

    def xi_matrix(self) -> np.ndarray:
        return self.xi

    def zeta_matrix(self) -> np.ndarray:
        return self.zeta


_SCORES_HEADER = ["subject_id", "score_type", "visit_index", "component", "value"]


def _score_rows(subject_ids, visit_counts, n_x: int, n_w: int):
    """The scores CSV row order as (subject_id, score_type, visit_index, component)
    keys: each subject's xi components, then its zeta components visit by visit."""
    for sid, count in zip(subject_ids, visit_counts):
        yield from ((sid, "xi", "", c) for c in range(n_x))
        yield from ((sid, "zeta", j, c) for j in range(count) for c in range(n_w))


def write_scores_csv(scores: ScorePanel, path) -> None:
    """Write one row per score, in the order of :func:`_score_rows`, each
    value with 17 significant digits."""
    values = {"xi": iter(scores.xi.ravel().tolist()), "zeta": iter(scores.zeta.ravel().tolist())}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SCORES_HEADER)
        writer.writerows([*key, f"{next(values[key[1]]):.17g}"]
                         for key in _score_rows(scores.subject_ids, scores.visit_counts,
                                                scores.xi.shape[1], scores.zeta.shape[1]))


def _score_row(row) -> tuple:
    sid, kind, visit, comp, value = row
    if kind not in ("xi", "zeta"):
        raise ValueError(f"unknown score_type {kind!r}")
    return (sid, kind, int(visit) if kind == "zeta" else visit, int(comp)), float(value)


def read_scores_csv(path) -> ScorePanel:
    """Read a scores CSV through :func:`lfpca.design.read_csv_records`; no
    subject is flagged rank deficient. Its subjects, visit counts and
    component counts are read from the rows, which must then run in the order
    :func:`write_scores_csv` writes: otherwise, or without rows, ValidationError
    names the first row out of order and its subject."""
    _, records = read_csv_records(path, "scores", _SCORES_HEADER, _score_row)
    if not records:
        raise ValidationError(f"scores file {path} has no score rows")
    keys = [key for _, (key, _) in records]
    ids = list(dict.fromkeys(sid for sid, *_ in keys))
    n_x, n_w = (1 + max((c for _, kind, _, c in keys if kind == want), default=0)
                for want in ("xi", "zeta"))
    visits = {sid: j for sid, kind, j, _ in keys if kind == "zeta"}  # the last j, in write order
    counts = [1 + visits.get(sid, 0) for sid in ids]
    expected = list(_score_rows(ids, counts, n_x, n_w))
    if keys != expected:
        i, (found, want) = next((i, pair) for i, pair in enumerate(zip_longest(keys, expected))
                                if pair[0] != pair[1])
        where = f"{path}:{records[i][0]}" if found else str(path)
        raise ValidationError(f"{where}: scores rows out of order at subject "
                              f"{(found or want)[0]!r}: found {found or 'the end of the file'}, "
                              f"expected {want or 'the end of the file'}")
    values = np.array([value for _, (_, value) in records])
    is_xi = np.array([key[1] == "xi" for key in keys])
    return ScorePanel(subject_ids=ids, visit_counts=counts,
                      xi=values[is_xi].reshape(len(ids), n_x),
                      zeta=values[~is_xi].reshape(sum(counts), n_w),
                      rank_deficient=np.zeros(len(ids), dtype=bool))


def check_pairing(scores: ScorePanel, n_x: int, n_w: int, source: str,
                  owner=None, owner_name: str = "") -> None:
    """The one pairing check of scores: ValidationError unless they hold the
    ``n_x`` xi and ``n_w`` zeta components that ``source`` gives and, with an
    ``owner`` (a design or a truth), its subject ids with its visit counts, in
    its order. The message names the first subject that differs."""
    got = (scores.xi.shape[1], scores.zeta.shape[1])
    if got != (n_x, n_w):
        raise ValidationError(f"scores have {got[0]} xi and {got[1]} zeta components, but "
                              f"{source} has n_x = {n_x} and n_w = {n_w}")
    if owner is None:
        return
    mine, theirs = ([(sid, int(count)) for sid, count in zip(record.subject_ids,
                                                              record.visit_counts)]
                    for record in (scores, owner))
    if mine != theirs:
        i = next(i for i, (a, b) in enumerate(zip_longest(mine, theirs)) if a != b)
        at_i = [f"{pairs[i][0]} with {pairs[i][1]} visits" if i < len(pairs) else "missing"
                for pairs in (mine, theirs)]
        raise ValidationError(
            f"scores hold {len(mine)} subjects and {sum(c for _, c in mine)} visits and "
            f"{owner_name} {len(theirs)} and {sum(c for _, c in theirs)}; subject {i + 1} is "
            f"{at_i[0]} in the scores and {at_i[1]} in {owner_name}")


# ---------------------------------------------------------------------------
# simulation truth and the truth directory
# ---------------------------------------------------------------------------

@dataclass
class GroundTruth:
    """Generating bases, eigenvalues, and scores for one synthetic panel, with
    the subject ids and visit counts of the design the scores belong to."""

    phi_x: tuple[np.ndarray, ...]
    phi_w: np.ndarray
    lambda_x: np.ndarray
    lambda_w: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    subject_ids: list[str]
    visit_counts: list[int]
    sigma2: float
    seed: int
    score_law: str
    block_coords: list | None = None

    @property
    def n_x(self) -> int:
        return self.phi_x[0].shape[1]

    @property
    def n_w(self) -> int:
        return self.phi_w.shape[1]


_TRUTH_KEYS = ("lambda_x", "lambda_w", "sigma2", "seed", "score_law", "n_x", "n_w", "p")


def save_truth(truth: GroundTruth, outdir) -> None:
    """Write the ground-truth manifest, bases, and scores for one panel."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"lambda_x": truth.lambda_x.tolist(), "lambda_w": truth.lambda_w.tolist(),
                "sigma2": truth.sigma2, "seed": truth.seed, "score_law": truth.score_law,
                "n_x": truth.n_x, "n_w": truth.n_w, "p": int(truth.phi_w.shape[0]),
                "block_coords": truth.block_coords}
    with open(outdir / TRUTH_FILE, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for basis, name in zip([*truth.phi_x, truth.phi_w], basis_files(len(truth.phi_x) - 1)):
        write_panel(DataPanel.from_array(basis), outdir / name)
    scores = ScorePanel(subject_ids=truth.subject_ids, visit_counts=truth.visit_counts,
                        xi=truth.xi, zeta=truth.zeta,
                        rank_deficient=np.zeros(len(truth.subject_ids), dtype=bool))
    write_scores_csv(scores, outdir / SCORES_FILE)


def load_truth(truth_dir) -> GroundTruth:
    """Open a truth directory, checked like a model directory: ValidationError,
    naming the file and the key, when ``truth.json`` does not parse, lacks
    one of its keys or holds a value of the wrong kind (``lambda_x`` and
    ``lambda_w`` must hold n_x and n_w finite positive values), when a basis file
    is not p x n_x (p x n_w for Phi_w) or not finite, or when ``scores.csv``
    does not read or hold n_x xi and n_w zeta components. ``block_coords`` is optional."""
    truth_dir = Path(truth_dir)
    meta = _CheckedJson(truth_dir / TRUTH_FILE, _TRUTH_KEYS)
    sizes = {key: meta.value(key, _size) for key in ("p", "n_x", "n_w")}
    lambda_x, lambda_w = meta.vector("lambda_x"), meta.vector("lambda_w")
    meta.counts(sizes, (("n_x", lambda_x.size, "values in 'lambda_x'"),
                        ("n_w", lambda_w.size, "values in 'lambda_w'")))
    for key, values in (("lambda_x", lambda_x), ("lambda_w", lambda_w)):
        if np.any(values <= 0):
            raise ValidationError(f"{meta.path}: {key!r} holds a value <= 0: {values.min():g}")
    names = phi_x_files_in(truth_dir)
    if not names:
        raise ValidationError(f"no {basis_file(0)} in {truth_dir}")
    panels = [_checked_panel(truth_dir / name, meta.path, sizes["p"], sizes[key], f"p x {key}")
              for name, key in zip(names + [basis_file()], ["n_x"] * len(names) + ["n_w"])]
    *phi_x, phi_w = [finite_values(panel) for panel in panels]
    scores = read_scores_csv(truth_dir / SCORES_FILE)
    check_pairing(scores, sizes["n_x"], sizes["n_w"], str(meta.path))
    return GroundTruth(phi_x=tuple(phi_x), phi_w=phi_w, lambda_x=lambda_x, lambda_w=lambda_w,
                       xi=scores.xi, zeta=scores.zeta, subject_ids=scores.subject_ids,
                       visit_counts=scores.visit_counts, sigma2=meta.value("sigma2", _finite),
                       seed=meta.value("seed", _size),
                       score_law=meta.value("score_law", _score_law),
                       block_coords=meta.data.get("block_coords"))


def _score_law(raw) -> str:
    if raw not in ("mixture", "normal"):
        raise ValueError(f"expected 'mixture' or 'normal', got {raw!r}")
    return raw
