import numpy as np
import pytest

from conftest import make_design
from lfpca import (DataPanel, ScenarioSpec, ValidationError, aligned_sq_distance, curve_bases,
                   default_eigenvalues, evaluate, fit_panel, generate_from_model,
                   generate_scenario1, generate_scenario2, load_truth, save_truth)
from lfpca.simulate import block_layout, draw_mixture_scores, draw_scores


def test_default_eigenvalues():
    np.testing.assert_allclose(default_eigenvalues(4), [1.0, 0.5, 0.25, 0.125])


def test_slope_basis_is_constant_before_normalization():
    _, x1, w = curve_bases(100)
    assert np.all(x1[:, 0] == 0.5)
    assert np.all(w[:, 0] == 1.0)


def test_curve_families_internally_orthogonal():
    x0, x1, w = curve_bases(4001)
    for fam in (x0, x1, w):
        gram = fam.T @ fam / fam.shape[0]
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-3  # Riemann-sum orthogonality


def test_same_seed_gives_identical_panels():
    spec = ScenarioSpec.curves(p=60, sigma2=1e-3, seed=42, n_subjects=12, n_visits=4)
    a, _, _ = generate_scenario1(spec)
    b, _, _ = generate_scenario1(spec)
    np.testing.assert_array_equal(a.to_array(), b.to_array())


def test_scenario1_shapes_and_times(rng):
    spec = ScenarioSpec.curves(p=50, sigma2=0.0, seed=1, n_subjects=20, n_visits=4)
    panel, design, truth = generate_scenario1(spec)
    assert panel.p == 50 and panel.n == 80
    times = design.stacked_z()[:, 1]
    assert abs(times.mean()) < 1e-12
    assert abs(times.var(ddof=1) - 1.0) < 1e-12
    # generating vectors: stacked subject-level pairs and visit-level
    # vectors all have unit norm
    stacked = np.vstack(truth.phi_x)
    np.testing.assert_allclose(np.linalg.norm(stacked, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(truth.phi_w, axis=0), 1.0, atol=1e-12)


def test_mixture_scores_match_moments(rng):
    lam = 0.5
    draws = draw_mixture_scores(rng, lam, 200_000)
    assert abs(draws.mean()) < 4 * np.sqrt(lam / 200_000)
    assert abs(draws.var() - lam) < 0.01
    # bimodal: component centers at +-sqrt(lam/2)
    assert abs(np.abs(draws).mean() - np.abs(draws).mean()) < 1e-12


def test_scenario1_score_marginals():
    spec = ScenarioSpec.curves(p=10, sigma2=0.0, seed=7, n_subjects=1500, n_visits=4)
    _, _, truth = generate_scenario1(spec)
    for k, lam in enumerate(truth.lambda_x):
        xi = truth.xi[:, k]
        assert abs(xi.mean()) < 4 * np.sqrt(lam / xi.size)
        assert abs(xi.var() - lam) < 6 * lam * np.sqrt(2.0 / xi.size)


def test_unknown_score_law(rng):
    with pytest.raises(ValidationError):
        draw_scores(rng, np.ones(2), 5, "cauchy")


# --- block lattice -------------------------------------------------------------

def test_block_layout_geometry():
    layout = block_layout((38, 72, 11))
    assert len(layout) == 8
    ranges = [rng_ for _, _, rng_ in layout]
    # disjoint, equally sized, ordered along the second axis
    assert all(b - a == 9 for a, b in ranges)
    assert all(ranges[i][1] <= ranges[i + 1][0] for i in range(7))
    fams = [(fam, comp) for fam, comp, _ in layout]
    assert fams[:3] == [("x0", 0), ("x1", 0), ("w", 0)]


def test_scenario2_fixed_p():
    spec = ScenarioSpec.blocks(seed=0)
    assert spec.p == 38 * 72 * 11 == 30096


def test_scenario2_rejects_noise():
    with pytest.raises(ValidationError):
        ScenarioSpec(scenario=2, sigma2=1e-4)


def test_scenario_defaults_fill_only_unset_options():
    curves = ScenarioSpec(scenario=1, n_visits=5)
    assert (curves.p, curves.n_subjects, curves.n_visits, curves.sigma2, curves.lattice) == (
        750, 100, 5, 1e-4, None)
    blocks = ScenarioSpec.blocks(n_subjects=7, lattice=(5, 16, 3))
    assert (blocks.p, blocks.n_subjects, blocks.n_visits, blocks.sigma2) == (240, 7, 6, 0.0)
    assert ScenarioSpec(scenario=2).p == 30096
    assert ScenarioSpec(scenario=2, p=30096, sigma2=0).lattice == (38, 72, 11)


@pytest.mark.parametrize("options, reason", [
    (dict(scenario=1, sigma2=np.nan), "finite"),   # would write a noiseless panel
    (dict(scenario=1, sigma2=np.inf), "finite"),   # would write non-finite values
    (dict(scenario=1, seed=-1), "seed"),           # numpy's bare ValueError
    (dict(scenario=2, p=750, sigma2=0), "30096 cells"),  # the panel has 30096 rows
    (dict(scenario=2, p=30096, sigma2=0, lattice=(5, 16, 3)), "240 cells"),
    (dict(scenario=2, sigma2=0, lattice=(5, 16, 0)), "positive"),
    (dict(scenario=2, sigma2=0, lattice=(2, 4, 1)), "three axes"),  # too few cells for 8 blocks
    (dict(scenario=2, sigma2=0, lattice=(8, 16)), "three axes"),
    (dict(scenario=1, lattice=(2, 8, 1)), "no lattice"),
])
def test_scenario_refuses_options_it_cannot_honour(options, reason):
    with pytest.raises(ValidationError, match=reason):
        ScenarioSpec(**options)


def test_scenario2_disjoint_supports_small_lattice():
    spec = ScenarioSpec.blocks(seed=3, n_subjects=25, n_visits=4, lattice=(5, 16, 3))
    panel, design, truth = generate_scenario2(spec)
    assert panel.p == spec.p == 5 * 16 * 3
    stacked = np.vstack(truth.phi_x)
    np.testing.assert_allclose(np.linalg.norm(stacked, axis=0), 1.0, atol=1e-12)
    # disjoint supports make cross products exactly zero
    gram_x0 = truth.phi_x[0].T @ truth.phi_x[0]
    assert np.abs(gram_x0 - np.diag(np.diag(gram_x0))).max() == 0.0
    gram_w = truth.phi_w.T @ truth.phi_w
    assert np.abs(gram_w - np.diag(np.diag(gram_w))).max() == 0.0
    np.testing.assert_allclose(np.diag(gram_w), 1.0, atol=1e-12)
    assert truth.block_coords is not None and len(truth.block_coords) == 8


def test_scenario2_full_size_recovery():
    # one seeded full-size data set: the fit recovers all five components
    spec = ScenarioSpec.blocks(seed=11)
    panel, design, truth = generate_scenario2(spec)
    res = fit_panel(panel, design, n_x=3, n_w=2)
    result = evaluate(truth, res.model, res.scores)
    stacked_truth = np.vstack(truth.phi_x)
    stacked_est = np.vstack([p.to_array() for p in res.model.phi_x])
    for m in range(3):
        dist = aligned_sq_distance(stacked_truth[:, m], stacked_est[:, m])
        assert dist < 0.5
    for m in range(2):
        assert result.vector_distances["w"][m] < 0.5


# --- generation from a fitted model ----------------------------------------------

def test_from_model_zero_variance_scores(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((40, design.n))
    res = fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2)
    panel, truth = generate_from_model(res.model, design,
                                       lambda_x=np.zeros(2), lambda_w=np.zeros(2),
                                       score_law="normal", sigma2=0.0, seed=1)
    np.testing.assert_allclose(panel.to_array(), res.model.mean[:, None]
                               * np.ones((1, design.n)), atol=1e-12)


@pytest.mark.parametrize("options", [
    dict(sigma2=-1.0), dict(sigma2=np.nan), dict(sigma2=np.inf),
    dict(lambda_x=[-1.0, 0.5]), dict(lambda_w=[np.nan, 0.5]), dict(lambda_x=[np.inf, 0.5]),
])
def test_from_model_refuses_invalid_variances(rng, options):
    # unchecked, a negative or NaN sigma2 would drop the noise silently and a
    # negative eigenvalue would fill the panel with NaNs
    design = make_design(rng, n_subjects=6, visits=3)
    res = fit_panel(DataPanel.from_array(rng.standard_normal((40, design.n))), design,
                    n_x=2, n_w=2)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        generate_from_model(res.model, design, **options)


def test_from_model_refuses_negative_seed(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    res = fit_panel(DataPanel.from_array(rng.standard_normal((40, design.n))), design,
                    n_x=2, n_w=2)
    with pytest.raises(ValidationError, match="seed"):
        generate_from_model(res.model, design, seed=-1)


def test_from_model_round_trip_subspace(rng):
    # generate from a fitted basis at high signal-to-noise, refit, and the
    # subject-level intercept subspaces agree: median principal angle over a
    # few replications stays under 10 degrees
    design = make_design(rng, n_subjects=250, visits=5)
    seed_panel = DataPanel.from_array(rng.standard_normal((120, design.n)))
    base = fit_panel(seed_panel, design, n_x=2, n_w=2)

    def orth(block):
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        return u[:, s > 1e-10 * s[0]]

    span_truth = orth(base.model.phi_x[0].to_array())
    worst_angles = []
    for seed in range(5):
        panel, _ = generate_from_model(base.model, design,
                                       lambda_x=np.array([1.0, 0.8]),
                                       lambda_w=np.array([0.05, 0.025]),
                                       score_law="mixture", sigma2=1e-6, seed=seed)
        refit = fit_panel(panel, design, n_x=2, n_w=2)
        span_est = orth(refit.model.phi_x[0].to_array())
        cosines = np.linalg.svd(span_truth.T @ span_est, compute_uv=False)
        worst_angles.append(np.degrees(np.arccos(np.clip(cosines, 0, 1))).max())
    assert np.median(worst_angles) < 10.0


def test_from_model_respects_unbalanced_template(rng):
    design = make_design(rng, n_subjects=5, visits=[2, 5, 3, 4, 6])
    arr = rng.standard_normal((30, design.n))
    fit_design = make_design(rng, n_subjects=8, visits=4)
    res = fit_panel(DataPanel.from_array(rng.standard_normal((30, fit_design.n))),
                    fit_design, n_x=2, n_w=2)
    panel, truth = generate_from_model(res.model, design, score_law="normal", seed=2)
    assert panel.n == design.n
    assert truth.zeta.shape == (design.n, 2)


# --- evaluation metrics ------------------------------------------------------------

def test_distance_zero_for_identical_vectors(rng):
    v = rng.standard_normal(20)
    assert aligned_sq_distance(v, v) == 0.0
    assert aligned_sq_distance(v, -v) == 0.0


def test_distance_two_for_orthogonal_unit_vectors():
    a = np.zeros(4)
    a[0] = 1.0
    b = np.zeros(4)
    b[1] = 1.0
    assert aligned_sq_distance(a, b) == pytest.approx(2.0)


def test_distance_symmetric_under_sign_flips(rng):
    a, b = rng.standard_normal(15), rng.standard_normal(15)
    base = aligned_sq_distance(a, b)
    assert aligned_sq_distance(-a, b) == pytest.approx(base)
    assert aligned_sq_distance(a, -b) == pytest.approx(base)


def test_evaluate_rejects_mismatched_counts(rng):
    spec = ScenarioSpec.curves(p=40, sigma2=1e-4, seed=2, n_subjects=15, n_visits=4)
    panel, design, truth = generate_scenario1(spec)
    res = fit_panel(panel, design, n_x=3, n_w=4)
    with pytest.raises(ValidationError, match="component count"):
        evaluate(truth, res.model)


def test_evaluate_score_quantiles_shape(rng):
    spec = ScenarioSpec.curves(p=60, sigma2=1e-4, seed=4, n_subjects=30, n_visits=4)
    panel, design, truth = generate_scenario1(spec)
    res = fit_panel(panel, design, n_x=4, n_w=4)
    result = evaluate(truth, res.model, res.scores)
    assert result.score_errors["x"].shape == truth.xi.shape
    assert result.score_quantiles["x"].shape == (5, 4)
    assert set(result.vector_distances) == {"x0", "x1", "w"}
    # quantiles are ordered
    q = result.score_quantiles["x"]
    assert np.all(np.diff(q, axis=0) >= 0)


def test_truth_round_trip(rng, tmp_path):
    spec = ScenarioSpec.curves(p=30, sigma2=0.0, seed=6, n_subjects=10, n_visits=4)
    panel, design, truth = generate_scenario1(spec)
    save_truth(truth, tmp_path)
    back = load_truth(tmp_path)
    assert back.subject_ids == list(design.subject_ids) == truth.subject_ids
    assert back.visit_counts == design.visit_counts.tolist() == truth.visit_counts
    np.testing.assert_array_equal(back.lambda_x, truth.lambda_x)
    np.testing.assert_array_equal(back.xi, truth.xi)
    np.testing.assert_array_equal(back.zeta, truth.zeta)
    for k in range(2):
        np.testing.assert_array_equal(back.phi_x[k], truth.phi_x[k])
    assert back.sigma2 == truth.sigma2 and back.seed == truth.seed


def test_noiseless_curves_rank_at_most_twelve():
    # the noiseless generator spans at most 2 * 4 + 4 directions
    from lfpca import accumulate_gram, eigen_gram
    spec = ScenarioSpec.curves(p=300, sigma2=0.0, seed=21, n_subjects=100, n_visits=4)
    panel, design, _ = generate_scenario1(spec)
    assert eigen_gram(accumulate_gram(panel)[0], var_threshold=0.9999).r <= 12


def test_auto_orders_on_noiseless_curves():
    from lfpca import IntrinsicCovariances, decompose_intrinsic, fit_panel
    # population spectra of the generator: each stacked component carries
    # its full eigenvalue, so the 0.99 threshold needs all four components
    lam = np.diag(default_eigenvalues(4))
    basis = decompose_intrinsic(IntrinsicCovariances(k_x=lam, k_w=lam, trace_x_raw=lam.trace(),
                                                     trace_w_raw=lam.trace()), threshold=0.99)
    assert (basis.lambda_x.size, basis.lambda_w.size) == (4, 4)
    # fitted spectra: the visit-level selection matches; the subject-level
    # spectrum carries extra dispersion mass (moment-estimator eigenvalue
    # spreading), so the auto policy may keep a few more, never fewer
    spec = ScenarioSpec.curves(p=200, sigma2=0.0, seed=8, n_subjects=100, n_visits=4)
    panel, design, _ = generate_scenario1(spec)
    res = fit_panel(panel, design, order_threshold=0.99)
    assert res.model.n_w == 4
    assert res.model.n_x >= 4


def test_from_model_ten_component_generation(rng):
    # empirical-basis generation: ten components per family, geometric
    # eigenvalues, light white noise
    from lfpca import fit_panel
    design = make_design(rng, n_subjects=40, visits=4)
    base = fit_panel(DataPanel.from_array(rng.standard_normal((150, design.n))),
                     design, n_x=10, n_w=10)
    lam = default_eigenvalues(10)
    panel, truth = generate_from_model(base.model, design, lambda_x=lam, lambda_w=lam,
                                       score_law="mixture", sigma2=1e-4, seed=3)
    assert truth.xi.shape == (40, 10) and truth.zeta.shape == (design.n, 10)
    # total variance of a column ~ sum of component variances plus noise
    arr = panel.to_array() - base.model.mean[:, None]
    per_col = np.sum(arr * arr, axis=0).mean()
    z = design.stacked_z()
    expected = lam.sum() * np.mean(z[:, 0] ** 2 + z[:, 1] ** 2) + lam.sum() \
        + 150 * 1e-4
    assert abs(per_col - expected) / expected < 0.5
