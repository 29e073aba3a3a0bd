import numpy as np
import pytest

from conftest import design_of, make_design, reordered, subject_rows
from lfpca import (DataPanel, IdentifiabilityError, accumulate_gram, build_design_matrix,
                   compute_weights, eigen_gram, intrinsic_covariances)
from lfpca.gram import left_factor
from oracle import oracle_covariances, oracle_design_matrix, oracle_pair_columns


def one_subject_design(times):
    return design_of([("a", np.column_stack([np.ones(len(times)), times]))])


# --- design matrix construction ----------------------------------------------

def test_columns_match_literal_formula():
    design = one_subject_design([-1.0, 1.0])
    f = build_design_matrix(design).f
    # pair (j1=0, j2=1): (1, T_2, T_1, T_1 T_2, same-visit)
    np.testing.assert_array_equal(f[:, 1], [1.0, 1.0, -1.0, -1.0, 0.0])
    # pair (j1=0, j2=0)
    np.testing.assert_array_equal(f[:, 0], [1.0, -1.0, -1.0, 1.0, 1.0])


def test_matches_brute_force_construction(rng):
    # q = 1 is the intercept/slope model, q = 2 adds a covariate
    for q in (1, 2):
        design = make_design(rng, n_subjects=5, visits=[3, 4, 3, 5, 4], q=q)
        f = build_design_matrix(design).f
        np.testing.assert_allclose(f, oracle_design_matrix(subject_rows(design)),
                                   atol=1e-15)


def test_pair_enumeration_is_row_major(rng):
    design = make_design(rng, n_subjects=2, visits=[2, 3])
    mom = build_design_matrix(design)
    assert list(mom.pair_offsets) == [0, 4, 13]


# --- weights -------------------------------------------------------------------

def test_weights_invert_design_matrix():
    design = one_subject_design([-1.0, 0.0, 1.0])
    mom = compute_weights(build_design_matrix(design))
    product = mom.f @ mom.h
    assert np.abs(product - np.eye(5)).max() <= 1e-10
    # brute-force 5x5 inverse oracle
    ff = mom.f @ mom.f.T
    h_oracle = mom.f.T @ np.linalg.inv(ff)
    np.testing.assert_allclose(mom.h, h_oracle, atol=1e-10)


def test_weights_raise_on_rank_deficiency(rng):
    design = make_design(rng, n_subjects=8, visits=1)
    with pytest.raises(IdentifiabilityError, match="validate_design"):
        compute_weights(build_design_matrix(design))


def test_weights_are_minimum_norm_solutions(rng):
    design = make_design(rng, n_subjects=7, visits=3)
    mom = compute_weights(build_design_matrix(design))
    for l in range(5):
        h_min, *_ = np.linalg.lstsq(mom.f, np.eye(5)[:, l], rcond=None)
        np.testing.assert_allclose(mom.h[:, l], h_min, atol=1e-10)


# --- intrinsic covariances -----------------------------------------------------

def fit_covs(rng, p, design, n_slices=1):
    arr = rng.standard_normal((p, design.n))
    arr -= arr.mean(axis=1, keepdims=True)
    panel = DataPanel.from_array(arr, n_slices=n_slices)
    gram, _ = accumulate_gram(panel)
    decomp = eigen_gram(gram)
    mom = compute_weights(build_design_matrix(design))
    covs = intrinsic_covariances(decomp, mom, design, gram=gram)
    return arr, panel, decomp, covs


def test_output_exactly_symmetric(rng):
    design = make_design(rng, n_subjects=5, visits=3)
    _, _, _, covs = fit_covs(rng, 20, design)
    assert np.abs(covs.k_x - covs.k_x.T).max() == 0.0
    assert np.abs(covs.k_w - covs.k_w.T).max() == 0.0


def test_lifted_covariances_match_dense_oracle(rng):
    design = make_design(rng, n_subjects=4, visits=3)  # n = 12
    arr, panel, decomp, covs = fit_covs(rng, 40, design)
    v = panel.to_array() @ left_factor(decomp)
    k_x_oracle, k_w_oracle = oracle_covariances(arr, subject_rows(design))
    lifted_w = v @ covs.k_w @ v.T
    assert np.abs(lifted_w - k_w_oracle).max() <= 1e-10
    d = np.zeros((2 * 40, 2 * decomp.r))
    d[:40, :decomp.r] = v
    d[40:, decomp.r:] = v
    lifted_x = d @ covs.k_x @ d.T
    assert np.abs(lifted_x - k_x_oracle).max() <= 1e-10
    # raw traces agree with the dense traces
    assert abs(covs.trace_w_raw - np.trace(k_w_oracle)) <= 1e-10
    assert abs(covs.trace_x_raw - np.trace(k_x_oracle)) <= 1e-10


def lifted(panel, decomp, covs):
    """k_x and k_w lifted to voxel space through V = Y J U S^{-1/2}."""
    v = panel.to_array() @ left_factor(decomp)
    blocks = np.kron(np.eye(covs.q + 1), v)
    return blocks @ covs.k_x @ blocks.T, v @ covs.k_w @ v.T


def test_unbalanced_designs_match_dense_oracle(rng):
    # J_i = 1 subjects contribute only same-visit pairs; every visit-count
    # group must land in its own columns of W_l
    visits = [1, 3, 2, 5, 1, 4]
    for q in (1, 2):
        design = make_design(rng, n_subjects=len(visits), visits=visits, q=q)
        z_list = subject_rows(design)
        mom = build_design_matrix(design)
        np.testing.assert_allclose(mom.f, oracle_design_matrix(z_list), atol=1e-15)
        arr, panel, decomp, covs = fit_covs(rng, 40, design, n_slices=2)
        k_x_oracle, k_w_oracle = oracle_covariances(arr, z_list)
        lifted_x, lifted_w = lifted(panel, decomp, covs)
        assert np.abs(lifted_x - k_x_oracle).max() <= 1e-10
        assert np.abs(lifted_w - k_w_oracle).max() <= 1e-10
        assert abs(covs.trace_x_raw - np.trace(k_x_oracle)) <= 1e-10
        assert abs(covs.trace_w_raw - np.trace(k_w_oracle)) <= 1e-10


def test_block_weight_column_mapping(rng):
    # The (k=1, s=0) block must use the third weight column, i.e. the one
    # attached to the T_{j1} row of the design matrix.
    design = make_design(rng, n_subjects=5, visits=3)
    arr, panel, decomp, covs = fit_covs(rng, 15, design)
    mom = compute_weights(build_design_matrix(design))
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T
    expected = np.zeros((decomp.r, decomp.r))
    for idx, (c1, c2) in enumerate(oracle_pair_columns(subject_rows(design))):
        expected += np.outer(coords[:, c1], coords[:, c2]) * mom.h[idx, 2]
    r = decomp.r
    np.testing.assert_allclose(covs.k_x[r:, :r], expected, atol=1e-12)
    # cross blocks are transposes of each other
    np.testing.assert_allclose(covs.k_x[r:, :r], covs.k_x[:r, r:].T, atol=1e-15)


def every_block_covariances(decomp, mom, design):
    """Reference: each C W_l C' from its n x n weight matrix W_l built in
    full, every k_x block a product of its own, then symmetrized."""
    coords = np.sqrt(decomp.s)[:, None] * decomp.u.T
    w = np.zeros((mom.n_rows, design.n, design.n))
    for i, j in enumerate(design.visit_counts):
        cols = design.columns(i)
        pairs = mom.pair_offsets[i] + np.arange(j * j)
        w[:, cols, cols] = mom.h[pairs].T.reshape(-1, j, j)
    q1 = mom.q + 1
    k_x = np.block([[coords @ w[k * q1 + s] @ coords.T for s in range(q1)] for k in range(q1)])
    k_w = coords @ w[-1] @ coords.T
    return (k_x + k_x.T) / 2, (k_w + k_w.T) / 2


@pytest.mark.parametrize("q", [1, 2])
def test_covariance_blocks_match_every_block_reference(rng, q):
    # a k_x block below the diagonal is copied from its mirror (W_ks = W_sk'),
    # which must agree with forming it
    design = make_design(rng, n_subjects=6, visits=[1, 3, 2, 5, 1, 4], q=q)
    _, _, decomp, covs = fit_covs(rng, 40, design)
    mom = compute_weights(build_design_matrix(design))
    k_x, k_w = every_block_covariances(decomp, mom, design)
    assert np.abs(covs.k_x - k_x).max() <= 1e-14 * np.abs(k_x).max()
    assert np.abs(covs.k_w - k_w).max() <= 1e-14 * np.abs(k_w).max()


def test_estimates_invariant_to_subject_order(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((18, design.n))
    arr -= arr.mean(axis=1, keepdims=True)

    perm = rng.permutation(design.n_subjects)
    cols = np.concatenate([np.arange(design.columns(i).start, design.columns(i).stop)
                           for i in perm])
    design_p = reordered(design, perm)
    arr_p = arr[:, cols]

    def covs_of(a, d):
        panel = DataPanel.from_array(a)
        gram, _ = accumulate_gram(panel)
        decomp = eigen_gram(gram)
        mom = compute_weights(build_design_matrix(d))
        covs = intrinsic_covariances(decomp, mom, d, gram=gram)
        v = panel.to_array() @ left_factor(decomp)
        return v @ covs.k_w @ v.T, covs.trace_w_raw

    lifted, trace = covs_of(arr, design)
    lifted_p, trace_p = covs_of(arr_p, design_p)
    assert np.abs(lifted - lifted_p).max() <= 1e-10
    assert abs(trace - trace_p) <= 1e-10


def test_unbalanced_estimates_invariant_to_subject_order(rng):
    # visit-count groups reorder the sums, so a permuted design must agree
    # up to rounding, not bit for bit
    design = make_design(rng, n_subjects=6, visits=[1, 3, 2, 5, 1, 4], q=2)
    arr = rng.standard_normal((30, design.n))
    arr -= arr.mean(axis=1, keepdims=True)
    perm = np.array([3, 0, 5, 2, 4, 1])
    cols = np.concatenate([np.arange(design.columns(i).start, design.columns(i).stop)
                           for i in perm])
    design_p = reordered(design, perm)

    def covs_of(a, d):
        panel = DataPanel.from_array(a)
        gram, _ = accumulate_gram(panel)
        decomp = eigen_gram(gram)
        covs = intrinsic_covariances(decomp, compute_weights(build_design_matrix(d)), d,
                                     gram=gram)
        return lifted(panel, decomp, covs), covs.trace_x_raw, covs.trace_w_raw

    (lx, lw), tx, tw = covs_of(arr, design)
    (lx_p, lw_p), tx_p, tw_p = covs_of(arr[:, cols], design_p)
    assert np.abs(lx - lx_p).max() <= 1e-10
    assert np.abs(lw - lw_p).max() <= 1e-10
    assert abs(tx - tx_p) <= 1e-10 and abs(tw - tw_p) <= 1e-10


def test_monte_carlo_unbiasedness(rng):
    # Fixed small design, known ground truth, mean over replications of the
    # lifted visit-level estimator approaches the true covariance.
    p, reps = 30, 300
    design = make_design(rng, n_subjects=12, visits=3)
    basis = np.linalg.qr(rng.standard_normal((p, 2)))[0]
    lam_w = np.array([1.0, 0.4])
    k_w_true = basis @ np.diag(lam_w) @ basis.T
    basis_x = np.linalg.qr(rng.standard_normal((p, 2)))[0]
    lam_x = np.array([1.5, 0.7])
    z = design.stacked_z()
    subj_of_col = np.repeat(np.arange(design.n_subjects), design.visit_counts)

    acc = np.zeros((p, p))
    for _ in range(reps):
        xi = np.sqrt(lam_x) * rng.standard_normal((design.n_subjects, 2))
        zeta = np.sqrt(lam_w) * rng.standard_normal((design.n, 2))
        arr = basis_x @ xi[subj_of_col].T + basis @ zeta.T
        # intercept-only subject effect: identical across visits of a subject
        # true mean is zero: the uncentered Gram and left vectors, formed here
        gram = arr.T @ arr
        decomp = eigen_gram(gram)
        mom = compute_weights(build_design_matrix(design))
        covs = intrinsic_covariances(decomp, mom, design, gram=gram)
        v = arr @ (decomp.u / np.sqrt(decomp.s))
        acc += v @ covs.k_w @ v.T
    mean_est = acc / reps
    err = np.abs(mean_est - k_w_true).max()
    # entrywise sampling error of the mean is O(1/sqrt(reps))
    assert err < 6.0 / np.sqrt(reps)


def test_weights_invert_design_matrix_general_q2(rng):
    design = make_design(rng, n_subjects=8, visits=[3, 4, 5, 3, 4, 3, 5, 4], q=2)
    mom = compute_weights(build_design_matrix(design))
    assert np.abs(mom.f @ mom.h - np.eye(10)).max() <= 1e-10
