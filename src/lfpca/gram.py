"""Gram-matrix SVD of the centered panel with p-linear, out-of-core effort.

Centering is the right product Y J with J = I - 11'/n, so no centered copy
is made. The centered Gram matrix G = J Y'Y J is accumulated slice by slice
from the raw rows, its eigendecomposition G = U S U' gives the right
singular vectors and squared singular values, and the left singular
vectors V = Y (J U S^{-1/2}) are formed in a second streamed pass. All
heavy work is therefore linear in p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .limits import RANK_EPS
from .panel import DataPanel, stream

DEFAULT_VAR_THRESHOLD = 0.9999  # spectrum mass an automatic rank keeps


@dataclass
class IntrinsicDecomposition:
    """Right singular structure of the centered panel.

    u has orthonormal columns (n x r), s holds the corresponding Gram
    eigenvalues (squared singular values) in descending order, and
    total_gram_trace is trace(G) = ||Y||_F^2 over all n directions,
    recorded before any truncation.
    """

    u: np.ndarray
    s: np.ndarray
    r: int
    total_gram_trace: float

    def truncate(self, rank: int) -> "IntrinsicDecomposition":
        if rank > self.r:
            raise ValidationError(f"requested rank {rank} exceeds retained rank {self.r}")
        return replace(self, u=self.u[:, :rank], s=self.s[:rank], r=rank)


def accumulate_gram(panel: DataPanel, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``(G, mean)``: the centered Gram matrix and the row means, in one pass.

    Each row is shifted by its first column before the slice products are
    summed; J removes the shift exactly, and without it a large mean would
    cancel the signal in J Y'Y J. Non-finite input raises NumericalError
    naming the rows of its block and the first bad row.
    """
    def _slice(rows, blocks, outs):
        block = blocks[0]
        with np.errstate(invalid="ignore", over="ignore"):
            np.sum(block, axis=1, out=outs[0])
        bad = np.flatnonzero(~np.isfinite(outs[0]))
        if bad.size:
            raise NumericalError(f"non-finite input in rows [{rows.start}, {rows.stop}), "
                                 f"first at row {rows.start + int(bad[0])}")
        shifted = block - block[:, :1]
        return (shifted.T @ shifted,)

    (gram,), (sums,) = stream([panel], _slice, [(None, None)], threads)
    gram = (gram + gram.T) / 2
    col = gram.mean(axis=0)
    gram -= col[:, None] + col[None, :] - col.mean()
    return gram, sums / panel.n


def eigen_gram(gram: np.ndarray) -> IntrinsicDecomposition:
    """Spectral decomposition of the Gram matrix, eigenvalues descending.

    Eigenvalues at or below RANK_EPS * max(s_1, 1) are treated as zero and
    their directions dropped from the retained rank.
    """
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValidationError(f"Gram matrix must be square, got {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise NumericalError("Gram matrix contains non-finite entries")
    evals, evecs = eigh_descending(gram)
    keep = evals > RANK_EPS * max(evals[0] if evals.size else 0.0, 1.0)
    evals, evecs = evals[keep], evecs[:, keep]
    fix_signs(evecs)
    return IntrinsicDecomposition(u=evecs, s=evals, r=int(evals.size),
                                  total_gram_trace=float(np.trace(gram)))


def eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition, eigenvalues in descending order."""
    evals, evecs = np.linalg.eigh(matrix)
    return evals[::-1].copy(), evecs[:, ::-1]


def fix_signs(vectors: np.ndarray) -> None:
    """Flip each column in place so its largest-magnitude entry is positive."""
    if vectors.size == 0:
        return
    idx = np.abs(vectors).argmax(axis=0)
    flips = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    flips[flips == 0] = 1.0
    vectors *= flips


def truncated_rank(s: np.ndarray, rank: int | None = None,
                   var_threshold: float = DEFAULT_VAR_THRESHOLD) -> int:
    """Number of singular directions to keep.

    Either an explicit rank, used as given, or the smallest rank capturing
    ``var_threshold`` of the retained spectrum mass.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValidationError("empty spectrum")
    if np.any(np.diff(s) > 0):
        raise ValidationError("spectrum must be sorted descending")
    n_pos = int(np.sum(s > 0))
    if rank is not None:
        if rank < 1 or rank > n_pos:
            raise ValidationError(f"rank must be in [1, {n_pos}] (positive eigenvalues), got {rank}")
        return rank
    if not 0 < var_threshold <= 1:
        raise ValidationError(f"var_threshold must be in (0, 1], got {var_threshold}")
    return mass_count(s, var_threshold)


def mass_count(spectrum: np.ndarray, threshold: float) -> int:
    """Smallest count of leading positive eigenvalues whose cumulative share
    of the positive spectrum reaches ``threshold`` (1 if none is positive)."""
    pos = spectrum[spectrum > 0]
    if pos.size == 0:
        return 1
    mass = np.cumsum(pos) / pos.sum()
    return min(int(np.searchsorted(mass, threshold - 1e-15) + 1), pos.size)


def left_vectors(panel: DataPanel, decomp: IntrinsicDecomposition, out_path=None,
                 threads: int = 1) -> DataPanel:
    """Left singular vectors V = Y (J U S^{-1/2}) of the centered panel Y J.

    Streamed over the raw rows; centering is folded into the n x r factor.
    Returned as a p x r panel in the same slice layout as the input; written
    to ``out_path`` when given, else kept in memory.
    """
    if np.any(decomp.s <= 0):
        raise ValidationError("cannot form left vectors for non-positive singular values")
    proj = center_factor(decomp.u / np.sqrt(decomp.s))

    def _left(rows, blocks, outs):
        np.matmul(blocks[0], proj, out=outs[0])

    _, (v,) = stream([panel], _left, [(decomp.r, out_path)], threads)
    return v


def center_factor(factor: np.ndarray) -> np.ndarray:
    """J F, so raw rows times J F equal centered rows times F. Formed in C
    order: the column means then do not depend on the caller's layout."""
    factor = np.ascontiguousarray(factor)
    return factor - factor.mean(axis=0)


def stack_coefficients(a_x: np.ndarray, a_w: np.ndarray) -> np.ndarray:
    """B = [A_x0 | ... | A_xq | A_w], r x ((q+1) n_x + n_w), from the stacked
    (q+1) r x n_x subject-level eigenvectors. The lifted bases
    [Phi_x0 | ... | Phi_xq | Phi_w] are V B, so their Gram matrix is B'B."""
    return np.hstack([*np.split(a_x, a_x.shape[0] // a_w.shape[0]), a_w])
