"""Gram-matrix SVD of the centered panel with p-linear, out-of-core effort.

Centering is the right product Y J with J = I - 11'/n, so no centered copy
is made. The centered Gram matrix G = J Y'Y J is accumulated slice by slice
from the raw rows, its eigendecomposition G = U S U' gives the right
singular vectors and squared singular values, and the left singular
vectors V = Y (J U S^{-1/2}) are formed in the fit's second streamed pass. All
heavy work is therefore linear in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .limits import EIGEN_RESIDUAL_TOL, EIGEN_VECTOR_TOL, RANK_EPS
from .panel import DataPanel, finite_row_sums, stream

DEFAULT_VAR_THRESHOLD = 0.9999  # spectrum mass an automatic rank keeps
KRYLOV_BLOCK = 8  # columns of the start block of top_eigenpairs
GIVE_UP_STEP = 6  # top_eigenpairs judges its acceptance ratio from this step (or half its budget)
RITZ_LEAD = 2  # steps before its predicted acceptance that top_eigenpairs solves again
RITZ_MAX_GAP = 5  # most steps from one Rayleigh-Ritz solve of top_eigenpairs to the next
PANEL_BYTES = 1 << 20  # about the most a whole-matrix step copies of an n x n matrix at once


@dataclass
class IntrinsicDecomposition:
    """Right singular structure of the centered panel.

    u has orthonormal columns (n x r), s holds the corresponding Gram
    eigenvalues (squared singular values) in descending order, and
    total_gram_trace is trace(G) = ||Y||_F^2 over all n directions,
    recorded before any truncation. solver is the record of
    :func:`top_eigenpairs` for G, None when the pairs came from elsewhere.
    """

    u: np.ndarray
    s: np.ndarray
    total_gram_trace: float
    solver: dict | None = None

    @property
    def r(self) -> int:
        return self.s.size


def accumulate_gram(panel: DataPanel) -> tuple[np.ndarray, np.ndarray]:
    """``(G, mean)``: the centered Gram matrix and the row means, in one pass.

    Each row is shifted by its first column before the slice products are
    summed; J removes the shift exactly, and without it a large mean would
    cancel the signal in J Y'Y J. A writeable block is shifted in place, a
    read-only view of an in-memory panel into a copy (see ``stream``).
    Non-finite input raises NumericalError (see :func:`finite_row_sums`).
    """
    def _slice(rows, blocks, outs):
        block = blocks[0]
        finite_row_sums(rows, block, out=outs[0])
        first = block[:, :1].copy()  # a copy: numpy's overlap handling would copy the block
        block = np.subtract(block, first, out=block if block.flags.writeable else None)
        return (block.T @ block,)

    (gram,), (sums,) = stream([panel], _slice, [(None, None)])
    col = gram.mean(axis=0)
    gram -= col[:, None] + col[None, :] - col.mean()
    return gram, sums / panel.n


def eigen_gram(gram: np.ndarray, rank: int | None = None,
               var_threshold: float = DEFAULT_VAR_THRESHOLD) -> IntrinsicDecomposition:
    """Leading eigenpairs of the Gram matrix, eigenvalues descending.

    ``rank`` pairs when given, else the fewest whose eigenvalues reach
    ``var_threshold`` of trace(G). Eigenvalues at or below RANK_EPS * max(s_1, 1)
    count as zero: never kept nor asked for; a panel with none has no variance.
    The pairs come from :func:`top_eigenpairs`: block Krylov while the rank
    fits its basis, else one dense ``eigh``.
    """
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValidationError(f"Gram matrix must be square, got {gram.shape}")
    if rank is None:
        check_share("var_threshold", var_threshold)
    else:
        check_count("rank", rank, gram.shape[0])
    if not np.all(np.isfinite(gram)):
        raise NumericalError("Gram matrix contains non-finite entries")
    trace = float(np.trace(gram))
    evals, evecs, solver = top_eigenpairs(
        gram, k=rank, mass=None if rank is not None else var_threshold * trace)
    keep = evals > RANK_EPS * np.max(evals, initial=1.0)
    if not keep.any():
        raise ValidationError("the centred panel has no variance")
    evals, evecs = evals[keep], evecs[:, keep]  # copies: the sign fix below is in place
    r = (check_count("rank", rank, evals.size) if rank is not None
         else mass_count(evals, var_threshold, trace))
    u = evecs[:, :r]
    fix_signs(u)
    return IntrinsicDecomposition(u=u, s=evals[:r], total_gram_trace=trace, solver=solver)


def check_count(name: str, count: int, limit: int) -> int:
    """The one check of an eigenpair count: ValidationError unless an integer
    (a numpy one too, but not a bool) in [1, ``limit``]."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {count!r}")
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    if count > limit:
        raise ValidationError(f"{name} must be in [1, {limit}], got {count}")
    return count


def check_share(name: str, share: float) -> float:
    """The one check of a spectrum share: ValidationError unless in (0, 1] (not NaN)."""
    if share is None or not 0 < share <= 1:
        raise ValidationError(f"{name} must be in (0, 1], got {share}")
    return share


def top_eigenpairs(matrix: np.ndarray, k: int | None = None,
                   mass: float | None = None) -> tuple[np.ndarray, np.ndarray, dict]:
    """Leading eigenpairs of a symmetric matrix K by algebraic value,
    descending, and a record of the path that found them.

    Exactly one of ``k`` (the number of pairs) and ``mass`` (the fewest
    leading pairs whose eigenvalues sum to at least it) is given. Block
    Krylov from a fixed pseudo-random start block (:func:`_start_block`),
    with full reorthogonalisation and Rayleigh-Ritz: a step adds K times
    the newest block, less its part in the basis; directions of norm at most
    EIGEN_RESIDUAL_TOL * ||K||_1 are dependent and dropped. The wanted
    pairs are accepted with the next one when every residual
    ||K x - theta x|| is at most EIGEN_RESIDUAL_TOL * ||K||_1 and the
    wanted pairs' residual over the gap to the next Ritz value, which
    bounds the error of their span, is at most EIGEN_VECTOR_TOL. The
    record is then ``{"path": "krylov", "steps": ..., "rayleigh_ritz": ...,
    "residual": ...}``: the steps, the Rayleigh-Ritz solves among them, and
    the largest accepted residual relative to ||K||_1. ||K||_1 is taken over
    the column panels of :func:`matrix_panels`, so no copy of K is made whole.

    Rayleigh-Ritz runs only where it could accept: at every step until the
    larger acceptance ratio has fallen between two solves, then RITZ_LEAD
    steps before the step at which, at the rate it fell since the last
    solve, it would reach 1, but after at least one and at most
    RITZ_MAX_GAP steps (early rates are the slowest, so the prediction errs
    late), and always at the last step and the first step that may give
    up. The work is capped at a basis of n/4 columns: one that would pass
    it, that no longer grows, or whose progress says it cannot make it
    gives up for one dense ``eigh``. Progress is the captured trace until it reaches
    ``mass`` (at the last step's gain, more than twice the steps left), then
    the ratio: from step GIVE_UP_STEP or half the budget, whichever comes
    first, at the rate it fell since the last solve, more than three times
    the steps left (early steps converge slowest). The record is then
    ``{"path": "dense"}`` and all n pairs are returned.
    """
    if (k is None) == (mass is None):
        raise ValidationError("top_eigenpairs takes exactly one of k and mass")
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    budget = n // 4
    width = KRYLOV_BLOCK if k is None else max(KRYLOV_BLOCK, check_count("k", k, n) + 1)
    if width > budget:
        return _dense_eigenpairs(matrix)
    norm = max(float(np.abs(matrix[:, cols]).sum(axis=0).max()) for cols in matrix_panels(n))
    floor = EIGEN_RESIDUAL_TOL * norm
    basis, images = np.empty((n, budget)), np.empty((n, budget))
    proj = np.empty((budget, budget))  # basis' K basis
    block = _start_block(n, width)
    m = steps = solves = 0
    last_mass, last_step, last_excess = 0.0, 0, np.inf
    due, was_judged = 1, False  # the next step due for Rayleigh-Ritz; the last one's judging
    while block.shape[1] and m + block.shape[1] <= budget:
        c = block.shape[1]
        basis[:, m:m + c], images[:, m:m + c] = block, matrix @ block
        proj[:m + c, m:m + c] = basis[:, :m + c].T @ images[:, m:m + c]
        proj[m:m + c, :m] = proj[:m, m:m + c].T
        proj[m:m + c, m:m + c] = (proj[m:m + c, m:m + c] + proj[m:m + c, m:m + c].T) / 2
        m, steps = m + c, steps + 1
        block = _new_directions(basis[:, :m], images[:, m - c:m], floor)
        grows = block.shape[1] and m + block.shape[1] <= budget  # another step follows
        # the Ritz values sum to trace(proj): below ``mass`` no count of them can reach it
        captured = np.trace(proj[:m, :m])
        if mass is not None and captured < mass:
            if steps > 1 and mass - captured > 2 * (captured - last_mass) * (budget - m) / c:
                break  # at the last step's gain, more than twice the steps left
            last_mass = captured
            continue
        judged = steps >= GIVE_UP_STEP or 2 * m >= budget
        if grows and steps < due and (was_judged or not judged):
            continue
        solves, was_judged = solves + 1, judged
        theta, vecs = np.linalg.eigh(proj[:m, :m])
        theta, vecs = theta[::-1], vecs[:, ::-1]
        # in mass mode, one more than the leading sums short of it (m + 1 if all are)
        want = k if mass is None else int(np.sum(np.cumsum(theta) < mass)) + 1
        if want >= m:
            continue
        ritz = basis[:, :m] @ vecs[:, :want + 1]
        res = np.linalg.norm(images[:, :m] @ vecs[:, :want + 1] - ritz * theta[:want + 1], axis=0)
        bound = EIGEN_VECTOR_TOL * (theta[want - 1] - theta[want])
        # the larger of the two acceptance ratios; 1 or less accepts
        excess = (max(res.max() / floor, np.linalg.norm(res[:want]) / bound)
                  if floor > 0 and bound > 0 else np.inf)
        if excess <= 1:
            return (theta[:want].copy(), ritz[:, :want],
                    {"path": "krylov", "steps": steps, "rayleigh_ritz": solves,
                     "residual": float(res.max() / norm)})
        due = steps + 1
        if np.isfinite(last_excess) and excess < last_excess:
            rate = np.log(last_excess / excess) / (steps - last_step)  # per step
            left = np.log(excess) / rate  # steps to acceptance at that rate
            if judged and left > 3 * (budget - m) / c:
                break
            due = steps + min(RITZ_MAX_GAP, max(1, math.ceil(left) - RITZ_LEAD))
        last_step, last_excess = steps, excess
    return _dense_eigenpairs(matrix)


def matrix_panels(n: int) -> list[slice]:
    """Slices cutting range(n) into the fewest nearly equal panels of an
    n x n float64 matrix's rows or columns that hold about PANEL_BYTES each,
    and at least 2 wide: numpy sums a one-column panel along axis 0 in
    another order, so only then does a column sum over panels keep the bits
    of the same sum over the whole matrix."""
    count = max(1, min(n // 2, -(-8 * n * n // PANEL_BYTES)))
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


def _start_block(n: int, width: int) -> np.ndarray:
    """Orthonormal n x width start block from splitmix64 of each entry's
    index: the same on every run and platform, and it does not load
    numpy.random (about 6 MB of resident memory)."""
    z = np.arange(1, n * width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.linalg.qr((z >> np.uint64(11)).reshape(n, width) / 2.0 ** 53 - 0.5)[0]


def _new_directions(basis: np.ndarray, block: np.ndarray, floor: float) -> np.ndarray:
    """Orthonormal directions of ``block`` outside span(basis), dropping
    those of norm at most ``floor``. Two projections make the block
    orthogonal to the basis; the survivors, scaled up to unit norm, are
    projected once more so small ones do not carry rounding back in."""
    for _ in range(2):
        block = block - basis @ (basis.T @ block)
    left, sizes, _ = np.linalg.svd(block, full_matrices=False)
    left = left[:, sizes > floor]
    left -= basis @ (basis.T @ left)
    return np.linalg.qr(left)[0]


def _dense_eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    evals, evecs = np.linalg.eigh(matrix)
    return evals[::-1].copy(), evecs[:, ::-1], {"path": "dense"}


def fix_signs(vectors: np.ndarray) -> None:
    """Flip each column in place so its largest-magnitude entry is positive."""
    idx = np.abs(vectors).argmax(axis=0)
    flips = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    flips[flips == 0] = 1.0
    vectors *= flips


def mass_count(spectrum: np.ndarray, threshold: float, total: float | None = None) -> int:
    """Smallest count of leading positive eigenvalues whose cumulative share
    of ``total`` (by default the positive mass) reaches ``threshold``, at
    most the positive count (1 if none is positive)."""
    pos = spectrum[spectrum > 0]
    if pos.size == 0:
        return 1
    mass = np.cumsum(pos) / (pos.sum() if total is None else total)
    return min(int(np.searchsorted(mass, threshold - 1e-15) + 1), pos.size)


def left_factor(decomp: IntrinsicDecomposition) -> np.ndarray:
    """F = J U S^{-1/2}, so raw rows times F are the left singular vectors.
    Formed in C order: the column means of U S^{-1/2}, and so the bits of
    every product with F, do not depend on the layout of ``decomp.u``."""
    if np.any(decomp.s <= 0):
        raise ValidationError("cannot form left vectors for non-positive singular values")
    factor = np.ascontiguousarray(decomp.u / np.sqrt(decomp.s))
    return factor - factor.mean(axis=0)


def stack_coefficients(a_x: np.ndarray, a_w: np.ndarray) -> np.ndarray:
    """B = [A_x0 | ... | A_xq | A_w], r x ((q+1) n_x + n_w), from the stacked
    (q+1) r x n_x subject-level eigenvectors. The lifted bases
    [Phi_x0 | ... | Phi_xq | Phi_w] are V B, so their Gram matrix is B'B."""
    return np.hstack([*np.split(a_x, a_x.shape[0] // a_w.shape[0]), a_w])
