"""Gram-matrix SVD of the centered panel with p-linear, out-of-core effort.

The n x n Gram matrix G = Y'Y is accumulated slice by slice, its
eigendecomposition G = U S U' gives the right singular vectors and squared
singular values, and the left singular vectors V = Y U S^{-1/2} are formed
in a second streamed pass. All heavy work is therefore linear in p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .limits import RANK_EPS
from .panel import DataPanel, stream


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


def accumulate_gram(panel: DataPanel, threads: int = 1) -> np.ndarray:
    """G = Y'Y as the ordered sum of per-slice contributions, symmetrized."""
    if not panel.centered:
        raise ValidationError("panel must be centered before Gram accumulation")
    (gram,), _ = stream([panel], lambda rows, blocks, outs: (blocks[0].T @ blocks[0],),
                        threads=threads)
    return (gram + gram.T) / 2


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


def truncated_rank(s: np.ndarray, rank: int | None = None, var_threshold: float = 0.9999,
                   model_orders: tuple[int, int] | None = None) -> int:
    """Number of singular directions to keep.

    Either an explicit rank (floored at 2*N_X + N_W when the model orders
    are known, so the intrinsic model is never starved), or the smallest
    rank capturing ``var_threshold`` of the retained spectrum mass.
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
        if model_orders is not None:
            n_x, n_w = model_orders
            rank = max(rank, min(2 * n_x + n_w, n_pos))
        return rank
    if not 0 < var_threshold <= 1:
        raise ValidationError(f"var_threshold must be in (0, 1], got {var_threshold}")
    mass = np.cumsum(s[:n_pos]) / s[:n_pos].sum()
    return int(np.searchsorted(mass, var_threshold - 1e-15) + 1)


def left_vectors(panel: DataPanel, decomp: IntrinsicDecomposition, rank: int | None = None,
                 out_path=None, threads: int = 1) -> DataPanel:
    """Left singular vectors V = Y U S^{-1/2}, streamed slice by slice.

    An uncentered panel must carry its ``mean``, which is subtracted from
    each slice as it is read. Returned as a p x r panel in the same slice
    layout as the input; written to ``out_path`` when given, else kept in
    memory.
    """
    if not panel.centered and panel.mean is None:
        raise ValidationError("panel must be centered or carry its mean")
    r = decomp.r if rank is None else rank
    if r > decomp.r:
        raise ValidationError(f"requested rank {r} exceeds retained rank {decomp.r}")
    if np.any(decomp.s[:r] <= 0):
        raise ValidationError("cannot form left vectors for non-positive singular values")
    proj = decomp.u[:, :r] / np.sqrt(decomp.s[:r])

    def _left(rows, blocks, outs):
        block = blocks[0] if panel.centered else blocks[0] - panel.mean[rows, None]
        np.matmul(block, proj, out=outs[0])

    _, (v,) = stream([panel], _left, [(r, out_path)], threads)
    return v
