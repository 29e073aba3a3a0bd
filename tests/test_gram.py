import tracemalloc

import numpy as np
import pytest

from lfpca import (DataPanel, IntrinsicCovariances, IntrinsicDecomposition, ScenarioSpec,
                   ValidationError, accumulate_gram, center_panel, decompose_intrinsic,
                   eigen_gram, fit_panel, generate_scenario1, generate_scenario2,
                   write_panel, read_panel)
from lfpca import gram as gram_module
from lfpca.gram import fix_signs, left_factor, top_eigenpairs


def panel(arr, n_slices=1):
    return DataPanel.from_array(np.asarray(arr, dtype=float), n_slices=n_slices)


def centered(arr):
    """Dense oracle: every row minus its mean."""
    arr = np.asarray(arr, dtype=float)
    return arr - arr.mean(axis=1, keepdims=True)


def gram_of(arr, n_slices=1):
    return accumulate_gram(panel(arr, n_slices))[0]


# --- Gram accumulation -------------------------------------------------------

def test_gram_identity():
    c = centered(np.eye(4))
    for n_slices in (1, 2, 4):
        gram, mean = accumulate_gram(panel(np.eye(4), n_slices))
        np.testing.assert_array_equal(gram, c.T @ c)
        np.testing.assert_array_equal(mean, np.full(4, 0.25))


def test_gram_zero():
    np.testing.assert_array_equal(gram_of(np.zeros((5, 3))), np.zeros((3, 3)))


def test_gram_matches_dense_product(rng):
    arr = rng.standard_normal((6, 3))
    gram = gram_of(arr, n_slices=2)
    assert np.abs(gram - centered(arr).T @ centered(arr)).max() <= 1e-12


def test_gram_invariant_to_slice_count(rng):
    arr = rng.standard_normal((40, 9))
    grams = [gram_of(arr, n_slices=l) for l in (1, 3, 7, 40)]
    for gram in grams[1:]:
        assert np.abs(gram - grams[0]).max() <= 1e-12


def test_gram_trace_equals_frobenius(rng):
    arr = rng.standard_normal((12, 5))
    decomp = eigen_gram(gram_of(arr))
    assert abs(decomp.total_gram_trace - np.sum(centered(arr) ** 2)) < 1e-10
    assert abs(decomp.total_gram_trace - decomp.s.sum()) < 1e-10  # full rank here
    assert decomp.total_gram_trace >= decomp.s.sum() - 1e-12


# --- eigendecomposition ------------------------------------------------------

def test_eigen_diag_drops_exact_zero():
    decomp = eigen_gram(np.diag([4.0, 1.0, 0.0]))
    np.testing.assert_allclose(decomp.s, [4.0, 1.0])
    assert decomp.r == 2
    expected = np.eye(3)[:, :2]
    np.testing.assert_allclose(np.abs(decomp.u), expected, atol=1e-14)


def test_eigen_identity_reconstructs():
    decomp = eigen_gram(np.eye(3))
    np.testing.assert_allclose(decomp.s, np.ones(3))
    # degenerate spectrum: only the reconstruction is pinned down
    recon = decomp.u @ np.diag(decomp.s) @ decomp.u.T
    assert np.abs(recon - np.eye(3)).max() <= 1e-12
    assert np.abs(decomp.u.T @ decomp.u - np.eye(3)).max() <= 1e-12


def test_eigen_rank_two_gram(rng):
    a, b = rng.standard_normal((5,)), rng.standard_normal((5,))
    c, d = rng.standard_normal((5,)), rng.standard_normal((5,))
    y = np.outer(a, b) + np.outer(c, d)  # 5x5 of rank 2
    gram = y.T @ y
    decomp = eigen_gram(gram)
    assert decomp.r == 2
    recon = decomp.u @ np.diag(decomp.s) @ decomp.u.T
    assert np.abs(recon - gram).max() <= 1e-10


def test_eigen_orthonormal_within_tolerance(rng):
    arr = rng.standard_normal((30, 8))
    decomp = eigen_gram(arr.T @ arr)
    assert np.abs(decomp.u.T @ decomp.u - np.eye(decomp.r)).max() <= 1e-10


def test_eigen_rejects_nonfinite():
    from lfpca import NumericalError
    gram = np.eye(3)
    gram[0, 0] = np.nan
    with pytest.raises(NumericalError):
        eigen_gram(gram)


# --- top-k eigensolver ---------------------------------------------------------

def dense_top(matrix, k):
    """Dense oracle: the k algebraically largest pairs, descending, sign-fixed."""
    evals, evecs = np.linalg.eigh(matrix)
    vecs = np.array(evecs[:, ::-1][:, :k])
    fix_signs(vecs)
    return evals[::-1][:k], vecs


def with_spectrum(evals, seed=0):
    """Symmetric matrix with the given eigenvalues and random eigenvectors."""
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(evals),) * 2))[0]
    return (basis * np.asarray(evals, dtype=float)) @ basis.T


def assert_matches_dense(evals, evecs, matrix):
    # criterion 1 of the acceptance suite: eigenvalues to 1e-8, vectors to 1e-6
    want_vals, want_vecs = dense_top(matrix, evals.size)
    np.testing.assert_allclose(evals, want_vals, rtol=1e-8, atol=1e-12)
    vecs = np.array(evecs)
    fix_signs(vecs)
    assert np.abs(vecs - want_vecs).max() <= 1e-6
    assert np.abs(vecs.T @ vecs - np.eye(evals.size)).max() <= 1e-12


def test_top_eigenpairs_accepts_krylov_on_curves_k_x():
    spec = ScenarioSpec.curves(p=750, sigma2=1e-4, seed=4)
    panel, design, _ = generate_scenario1(spec)
    k_x = fit_panel(panel, design, n_x=4, n_w=4).covariances.k_x
    evals, evecs, solver = top_eigenpairs(k_x, k=4)
    assert solver["path"] == "krylov" and evals.size == 4
    assert solver["steps"] * 8 <= k_x.shape[0] // 4 and solver["residual"] <= 1e-13
    assert_matches_dense(evals, evecs, k_x)


def noisy_curves_fit(seed):
    panel, design, _ = generate_scenario1(ScenarioSpec.curves(p=750, sigma2=1e-2, seed=seed))
    return fit_panel(panel, design, n_x=4, n_w=4)


def test_top_eigenpairs_certifies_noisy_k_x_with_fewer_rayleigh_ritz_solves():
    # a noisy k_x (798 square) takes 15-19 steps; Rayleigh-Ritz runs only
    # at the steps that could accept, and the pairs are dense's
    k_x = noisy_curves_fit(seed=4).covariances.k_x
    evals, evecs, solver = top_eigenpairs(k_x, k=4)
    assert solver["path"] == "krylov" and solver["rayleigh_ritz"] < solver["steps"]
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(k_x)[::-1][:4], rtol=1e-12, atol=0)
    assert_matches_dense(evals, evecs, k_x)


@pytest.mark.parametrize("matrix, k", [("k_w", 4), ("gram", 10)])
def test_top_eigenpairs_gives_up_early_where_it_cannot_certify(monkeypatch, matrix, k):
    # this k_w's 5th and 6th eigenvalues nearly tie (0.0716, 0.0692), and
    # the 11th Gram pair lies in the noise bulk: the next Ritz pair's
    # residual cannot reach the floor within the budget. The attempt gives
    # up by step GIVE_UP_STEP (each step makes one new block) and returns
    # dense eigh's bits.
    fit = noisy_curves_fit(seed=3)
    matrix = fit.covariances.k_w if matrix == "k_w" else fit.gram
    steps = []
    new_directions = gram_module._new_directions
    monkeypatch.setattr(gram_module, "_new_directions",
                        lambda *args: steps.append(1) or new_directions(*args))
    evals, evecs, solver = top_eigenpairs(matrix, k=k)
    assert solver == {"path": "dense"} and 2 <= len(steps) <= gram_module.GIVE_UP_STEP
    dense_vals, dense_vecs = np.linalg.eigh(matrix)
    np.testing.assert_array_equal(evals, dense_vals[::-1])
    np.testing.assert_array_equal(evecs, dense_vecs[:, ::-1])


def test_top_eigenpairs_falls_back_on_tie_at_cut():
    # lambda_4 = lambda_5: no gap bounds the vectors of the top four
    matrix = with_spectrum(np.r_[[9.0, 7.0, 5.0, 3.0, 3.0], np.full(195, 0.1)])
    evals, evecs, solver = top_eigenpairs(matrix, k=4)
    assert solver == {"path": "dense"}
    dense_vals, dense_vecs = np.linalg.eigh(matrix)
    np.testing.assert_array_equal(evals, dense_vals[::-1])
    np.testing.assert_array_equal(evecs, dense_vecs[:, ::-1])
    # one pair later the cut is clear of the tie
    evals, evecs, solver = top_eigenpairs(matrix, k=5)
    assert solver["path"] == "krylov"
    np.testing.assert_allclose(evals, [9.0, 7.0, 5.0, 3.0, 3.0], rtol=1e-12)


def noiseless_lattice_gram():
    panel, _, _ = generate_scenario2(ScenarioSpec.blocks(lattice=(4, 16, 2), seed=3))
    return accumulate_gram(panel)[0]


def test_eigen_gram_krylov_on_exactly_low_rank_gram():
    # the lattice has rank 8 with s_9 / s_1 about 4e-15; a centred product
    # of rank 12 needs a third block of 8, of which only 4 directions are
    # new: the rest are rounding, which the basis must drop (or project out
    # again once scaled up) to stay orthonormal and certify
    factor = np.random.default_rng(7).standard_normal((300, 12)) * np.geomspace(10, 1, 12)
    factor -= factor.mean(axis=0)
    for gram, rank in ((noiseless_lattice_gram(), 8), (factor @ factor.T, 12)):
        decomp = eigen_gram(gram)
        assert decomp.r == rank and decomp.solver["path"] == "krylov"
        assert decomp.solver["steps"] <= 3
        assert_matches_dense(decomp.s, decomp.u, gram)
        assert decomp.s.sum() >= 0.9999 * decomp.total_gram_trace
        np.testing.assert_allclose(eigen_gram(gram, rank=rank).s, decomp.s, rtol=1e-12)


def test_eigen_gram_refuses_rank_above_positive_count():
    gram = noiseless_lattice_gram()
    for rank in (9, 20):
        with pytest.raises(ValidationError, match=r"rank must be in \[1, 8\]"):
            eigen_gram(gram, rank=rank)


def test_decompose_indefinite_matrix_keeps_algebraic_top_and_clip_count():
    # the negative eigenvalues dominate in magnitude; the top three by value
    # include one negative, which is clipped
    matrix = with_spectrum(np.r_[[5.0, 3.0, -0.1, -0.7], np.linspace(-100.0, -99.99, 196)])
    covs = IntrinsicCovariances(k_x=matrix, k_w=matrix, trace_x_raw=float(np.trace(matrix)),
                                trace_w_raw=float(np.trace(matrix)))
    basis = decompose_intrinsic(covs, n_x=3, n_w=3)
    assert basis.solvers["k_x"]["path"] == basis.solvers["k_w"]["path"] == "krylov"
    want_vals, want_vecs = dense_top(matrix, 3)
    assert basis.clipped_x == basis.clipped_w == int(np.sum(want_vals < 0)) == 1
    np.testing.assert_allclose(basis.lambda_w, np.maximum(want_vals, 0.0), rtol=1e-8, atol=1e-12)
    assert np.abs(basis.a_w - want_vecs).max() <= 1e-6


# --- rank policy -------------------------------------------------------------

def test_eigen_gram_threshold_arithmetic():
    # 8 of a trace of 10 reaches 0.8 with one pair
    assert eigen_gram(np.diag([8.0, 1.0, 1.0]), var_threshold=0.8).r == 1


def test_eigen_gram_explicit_rank_is_used_as_given():
    gram = np.diag(np.linspace(10, 1, 10))
    assert [eigen_gram(gram, rank=rank).r for rank in (2, 8)] == [2, 8]
    with pytest.raises(ValidationError, match=r"rank must be in \[1, 10\], got 11"):
        eigen_gram(gram, rank=11)


@pytest.mark.parametrize("options, message", [
    (dict(rank=-1), "rank must be >= 1, got -1"),
    (dict(rank=0), "rank must be >= 1, got 0"),
    (dict(rank=41), r"rank must be in \[1, 40\], got 41"),
    (dict(var_threshold=1.5), r"var_threshold must be in \(0, 1\], got 1.5"),
    (dict(var_threshold=np.nan), r"var_threshold must be in \(0, 1\], got nan"),
    (dict(var_threshold=0.0), r"var_threshold must be in \(0, 1\], got 0.0"),
    (dict(var_threshold=-1.0), r"var_threshold must be in \(0, 1\], got -1.0"),
])
def test_eigen_gram_refuses_count_or_share_before_solving(monkeypatch, options, message):
    calls = []
    monkeypatch.setattr(gram_module, "top_eigenpairs", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValidationError, match=message):
        eigen_gram(np.eye(40), **options)
    assert calls == []


@pytest.mark.parametrize("options, message", [
    ({}, "exactly one of k and mass"),
    (dict(k=2, mass=1.0), "exactly one of k and mass"),
    (dict(k=0), "k must be >= 1, got 0"),
    (dict(k=-1), "k must be >= 1, got -1"),
    (dict(k=41), r"k must be in \[1, 40\], got 41"),
])
def test_top_eigenpairs_refuses_what_it_cannot_honour(options, message):
    with pytest.raises(ValidationError, match=message):
        top_eigenpairs(np.diag(np.linspace(40, 1, 40)), **options)


# --- left singular vectors V = Y F, F = left_factor(decomp) -------------------

def test_left_vectors_identity():
    eye = panel(np.eye(4))
    decomp = eigen_gram(accumulate_gram(eye)[0])
    v = np.eye(4) @ left_factor(decomp)
    recon = v @ np.diag(np.sqrt(decomp.s)) @ decomp.u.T
    assert np.abs(recon - centered(np.eye(4))).max() <= 1e-12


def test_left_vectors_full_rank_reconstruction(rng):
    arr = rng.standard_normal((50, 8))
    arr -= arr.mean(axis=1, keepdims=True)
    data = panel(arr, n_slices=3)
    decomp = eigen_gram(accumulate_gram(data)[0])
    v = arr @ left_factor(decomp)
    assert np.abs(v.T @ v - np.eye(decomp.r)).max() <= 1e-10
    recon = v @ (np.sqrt(decomp.s)[:, None] * decomp.u.T)
    assert np.linalg.norm(recon - arr) <= 1e-10 * np.linalg.norm(arr)
    # column-wise reconstruction property
    for j in range(arr.shape[1]):
        err = np.linalg.norm(recon[:, j] - arr[:, j])
        assert err <= 1e-8 * max(np.linalg.norm(arr[:, j]), 1e-30)


def test_left_vectors_rank_two_exact(rng):
    a, b = rng.standard_normal((40,)), rng.standard_normal((6,))
    c, d = rng.standard_normal((40,)), rng.standard_normal((6,))
    arr = np.outer(a, b) + np.outer(c, d)
    data = panel(arr, n_slices=4)
    decomp = eigen_gram(accumulate_gram(data)[0])
    assert decomp.r == 2
    v = arr @ left_factor(decomp)
    recon = v @ (np.sqrt(decomp.s)[:, None] * decomp.u.T)
    assert np.linalg.norm(recon - centered(arr)) <= 1e-10 * np.linalg.norm(centered(arr))


def test_left_vectors_centers_slices_of_panel_with_mean(rng, tmp_path):
    # raw rows times J U S^{-1/2} are centered rows times U S^{-1/2} for any
    # U, not only one orthogonal to the ones vector; rows read from a file
    # or through a view centered by the mean
    arr = rng.standard_normal((20, 5)) + 3.0
    write_panel(DataPanel.from_array(arr, n_slices=3), tmp_path / "raw.lfpb")
    raw = read_panel(tmp_path / "raw.lfpb")
    u = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    decomp = IntrinsicDecomposition(u=u, s=np.array([3.0, 2.0, 1.0]), total_gram_trace=6.0)
    dense = centered(arr) @ (u / np.sqrt(decomp.s))
    np.testing.assert_allclose(raw.to_array() @ left_factor(decomp), dense, atol=1e-13)
    view = center_panel(raw, arr.mean(axis=1))
    np.testing.assert_allclose(view.to_array() @ left_factor(decomp), dense, atol=1e-13)


# --- memory scaling ----------------------------------------------------------

def test_gram_memory_scales_with_slice_size(rng, tmp_path):
    p, n, slices = 4000, 24, 16
    arr = rng.standard_normal((p, n))
    write_panel(DataPanel.from_array(arr, n_slices=slices), tmp_path / "p.lfpb")
    del arr
    data = read_panel(tmp_path / "p.lfpb")
    tracemalloc.start()
    accumulate_gram(data)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_bytes = p * n * 8
    budget = 3 * (p / slices) * n * 8 + 4 * n * n * 8 + (1 << 18)
    assert peak < budget < dense_bytes
