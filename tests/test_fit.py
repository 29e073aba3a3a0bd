import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_design, map_times, reordered, subject_rows
from lfpca import (DataPanel, IdentifiabilityError, NumericalError, ValidationError,
                   decompose_intrinsic, eigen_gram, estimate_sigma2, fit_panel,
                   generate_from_model, load_model, reconstruct, save_model, score_new_panel,
                   stream, variance_explained, write_panel, read_panel)
from lfpca import panel as panel_module
from lfpca.gram import left_factor
from lfpca.mom import IntrinsicCovariances
from oracle import aligned_vec_err, oracle_fit, well_separated


def covs_from(k_x, k_w):
    return IntrinsicCovariances(k_x=np.asarray(k_x, dtype=float),
                                k_w=np.asarray(k_w, dtype=float),
                                trace_x_raw=float(np.trace(k_x)),
                                trace_w_raw=float(np.trace(k_w)))


# --- intrinsic eigendecomposition ---------------------------------------------

def test_decompose_diagonal():
    covs = covs_from(np.diag([2.0, 1.0]), np.eye(1))
    basis = decompose_intrinsic(covs, n_x=2, n_w=1)
    np.testing.assert_allclose(basis.lambda_x, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(basis.a_x), np.eye(2), atol=1e-14)
    assert basis.clipped_count == 0


def test_decompose_clips_negative_eigenvalues():
    k_w = np.diag([3.0, -0.1])
    covs = covs_from(np.diag([1.0, 1.0, 1.0, 1.0]), k_w)
    basis = decompose_intrinsic(covs, n_x=1, n_w=2)
    np.testing.assert_allclose(basis.lambda_w, [3.0, 0.0])
    assert basis.clipped_w == 1 and basis.clipped_count == 1


def test_decompose_rejects_excess_orders():
    covs = covs_from(np.eye(4), np.eye(2))
    with pytest.raises(ValidationError):
        decompose_intrinsic(covs, n_x=5, n_w=1)
    with pytest.raises(ValidationError):
        decompose_intrinsic(covs, n_x=1, n_w=3)


def test_decompose_sign_convention():
    vec = np.array([0.6, -0.8])
    k_w = 2.0 * np.outer(-vec, -vec)
    covs = covs_from(np.eye(2), k_w)
    basis = decompose_intrinsic(covs, n_x=1, n_w=1)
    assert basis.a_w[np.abs(basis.a_w[:, 0]).argmax(), 0] > 0


# --- sigma2 --------------------------------------------------------------------

def test_sigma2_zero_when_trace_matches():
    covs = covs_from(np.eye(2), np.diag([2.0, 1.0]))
    assert estimate_sigma2(covs, np.array([2.0, 1.0]), p=100) == 0.0


def test_sigma2_clamped_at_zero():
    covs = covs_from(np.eye(2), np.diag([2.0, -0.5]))
    # trace (1.5) < retained eigenvalue sum (2.0) after clipping
    assert estimate_sigma2(covs, np.array([2.0, 0.0]), p=50) == 0.0


def test_sigma2_positive_surplus():
    k_w = np.diag([4.0, 1.0, 0.5, 0.5])
    covs = covs_from(np.eye(2), k_w)
    got = estimate_sigma2(covs, np.array([4.0, 1.0]), p=102)
    assert abs(got - 1.0 / 100) < 1e-15


def test_sigma2_requires_more_voxels_than_components():
    covs = covs_from(np.eye(2), np.eye(2))
    with pytest.raises(ValidationError):
        estimate_sigma2(covs, np.ones(2), p=2)


# --- order selection -------------------------------------------------------------

# An order left as None is the fewest leading eigenvalues of its matrix that
# hold the threshold of the positive mass, at most ORDER_CAP.

def test_select_orders_threshold():
    spectrum = np.diag([8.0, 1.0, 1.0])
    basis = decompose_intrinsic(covs_from(spectrum, spectrum), threshold=0.9)
    assert basis.lambda_x.size == 2 and basis.lambda_w.size == 2


def test_select_orders_ignores_negative_mass():
    basis = decompose_intrinsic(covs_from(np.diag([5.0, 3.0, -2.0]), np.eye(1)), threshold=0.9)
    assert basis.lambda_x.size == 2


def test_select_orders_cap():
    spectrum = np.eye(100)
    basis = decompose_intrinsic(covs_from(spectrum, spectrum), threshold=0.999)
    assert basis.lambda_x.size == 30 and basis.lambda_w.size == 30


@pytest.mark.parametrize("threshold", [1.5, np.nan, 0.0, -1.0, None])
def test_select_orders_refuses_share_outside_unit_interval(rng, threshold):
    # a share outside (0, 1] is refused as fit_panel refuses it, not taken
    # as "every positive pair" or "one pair"
    k_x, k_w = rng.standard_normal((12, 12)), rng.standard_normal((6, 6))
    covs = covs_from(k_x @ k_x.T, k_w @ k_w.T)
    with pytest.raises(ValidationError,
                       match=rf"order_threshold must be in \(0, 1\], got {threshold}"):
        decompose_intrinsic(covs, threshold=threshold)
    # with both orders given the threshold is not used
    assert decompose_intrinsic(covs, n_x=2, n_w=2, threshold=threshold).lambda_w.size == 2


def test_user_override_wins(rng):
    design = make_design(rng, n_subjects=8, visits=4)
    panel = DataPanel.from_array(rng.standard_normal((30, design.n)))
    res = fit_panel(panel, design, n_x=4, n_w=4)
    assert res.model.n_x == 4 and res.model.n_w == 4


# --- lifting ---------------------------------------------------------------------

def test_lift_slice_count_invariance(rng, tmp_path):
    # the lift Phi = Y A through stream, with the slice-ordered sum Y'Y alongside
    arr = rng.standard_normal((35, 8))
    a = rng.standard_normal((8, 3))

    def _lift(rows, blocks, outs):
        np.matmul(blocks[0], a, out=outs[0])
        return (blocks[0].T @ blocks[0],)

    first = {}
    for slices in (1, 7):
        for threads in (1, 3):
            for path in (None, tmp_path / f"phi_{slices}_{threads}.lfpb"):
                (gram,), (phi,) = stream([DataPanel.from_array(arr, n_slices=slices)], _lift,
                                         [(3, path)], threads)
                assert phi.file_backed == (path is not None)
                ref_phi, ref_gram = first.setdefault(slices, (phi.to_array(), gram))
                # neither the thread count nor the sink changes a bit
                np.testing.assert_array_equal(phi.to_array(), ref_phi)
                np.testing.assert_array_equal(gram, ref_gram)
    np.testing.assert_allclose(first[1][0], arr @ a, atol=1e-13)
    assert np.abs(first[1][0] - first[7][0]).max() <= 1e-14
    assert np.abs(first[1][1] - first[7][1]).max() <= 1e-12


# --- full fit vs dense oracle -----------------------------------------------------

def fit_and_oracle(rng, p=40, n_subjects=6, visits=3, q=1, n_x=3, n_w=3, noise=1.0):
    design = make_design(rng, n_subjects=n_subjects, visits=visits, q=q)
    panel = DataPanel.from_array(noise * rng.standard_normal((p, design.n)))
    res = fit_panel(panel, design, n_x=n_x, n_w=n_w, normalize=False)
    centered = panel.to_array() - panel.to_array().mean(axis=1, keepdims=True)
    ora = oracle_fit(centered, subject_rows(design), n_x, n_w)
    return res, ora


def test_fit_matches_dense_oracle(rng):
    res, ora = fit_and_oracle(rng)
    assert_matches_oracle(res.model, ora)


def assert_matches_oracle(model, ora):
    np.testing.assert_allclose(model.lambda_x, ora["lambda_x"], rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(model.lambda_w, ora["lambda_w"], rtol=1e-8, atol=1e-12)
    assert abs(model.trace_x - ora["trace_x"]) <= 1e-8 * abs(ora["trace_x"])
    assert abs(model.trace_w - ora["trace_w"]) <= 1e-8 * abs(ora["trace_w"])
    assert abs(model.sigma2 - ora["sigma2"]) <= 1e-8 * max(ora["sigma2"], 1e-12)
    # eigenvectors where the spectrum is well separated
    stacked = np.vstack([p.to_array() for p in model.phi_x])
    for k in well_separated(ora["spectrum_x"]):
        if k < model.n_x:
            err = aligned_vec_err(ora["phi_x_stacked"][:, [k]], stacked[:, [k]])
            assert err[0] <= 1e-6
    w_est = model.phi_w.to_array()
    for k in well_separated(ora["spectrum_w"]):
        if k < model.n_w:
            err = aligned_vec_err(ora["phi_w"][:, [k]], w_est[:, [k]])
            assert err[0] <= 1e-6


def test_fit_large_mean_matches_dense_oracle(rng, tmp_path):
    # a mean image 1e4 x the signal scale: without the per-row shift in the
    # Gram pass, J Y'Y J cancels away about 1e-8 of the centered Gram
    design = make_design(rng, n_subjects=6, visits=3)
    grid = 2.0 ** -30  # signal and mean on one grid, so Y = mean + signal exactly
    signal = np.round(rng.standard_normal((40, design.n)) / grid) * grid
    signal[:, -1] = -signal[:, :-1].sum(axis=1)  # rows with mean exactly zero
    arr = 1e4 * np.round(rng.uniform(1.0, 2.0, (40, 1)) / grid) * grid + signal
    assert np.array_equal(arr - arr[:, :1] + signal[:, :1], signal)
    ora = oracle_fit(signal, subject_rows(design), 3, 3)
    write_panel(DataPanel.from_array(arr), tmp_path / "p.lfpb")
    for raw in (DataPanel.from_array(arr), read_panel(tmp_path / "p.lfpb")):
        for slices in (1, 3):
            res = fit_panel(raw.with_slices(slices), design, n_x=3, n_w=3, normalize=False)
            assert_matches_oracle(res.model, ora)
            np.testing.assert_allclose(res.model.mean, arr.mean(axis=1), rtol=1e-15)


def test_lifted_eigenvectors_match_dense_eigensolver(rng):
    # dense eigendecomposition of the lifted visit-level covariance agrees
    # with lifting the intrinsic eigenvectors, column by column up to sign
    res, ora = fit_and_oracle(rng, p=40)
    w_est = res.model.phi_w.to_array()
    for k in well_separated(ora["spectrum_w"]):
        if k < res.model.n_w:
            err = aligned_vec_err(ora["phi_w"][:, [k]], w_est[:, [k]])
            assert err[0] <= 1e-8


def test_stacked_orthonormality(rng):
    res, _ = fit_and_oracle(rng, p=60, n_x=4, n_w=4)
    stacked = np.vstack([p.to_array() for p in res.model.phi_x])
    assert np.abs(stacked.T @ stacked - np.eye(4)).max() <= 1e-8
    w = res.model.phi_w.to_array()
    assert np.abs(w.T @ w - np.eye(4)).max() <= 1e-8


def test_eigenvalues_match_dense_eigh_of_covariances(rng):
    res, _ = fit_and_oracle(rng)
    for matrix, lam in ((res.covariances.k_x, res.model.lambda_x),
                        (res.covariances.k_w, res.model.lambda_w)):
        dense = np.maximum(np.linalg.eigvalsh(matrix)[::-1][:lam.size], 0.0)
        np.testing.assert_allclose(lam, dense, rtol=1e-8, atol=1e-12)


def test_fit_slice_invariance(rng):
    design = make_design(rng, n_subjects=7, visits=3)
    arr = rng.standard_normal((41, design.n))
    out = {}
    for l in (1, 7):
        res = fit_panel(DataPanel.from_array(arr, n_slices=l), design, n_x=2, n_w=2)
        out[l] = res
    assert out[1].model.sigma2 == pytest.approx(out[7].model.sigma2, abs=1e-14)
    for k in range(2):
        a = out[1].model.phi_x[k].to_array()
        b = out[7].model.phi_x[k].to_array()
        assert np.abs(a - b).max() <= 1e-14


def test_fit_sigma2_invariant_to_subject_order(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((30, design.n))
    res = fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2)
    perm = rng.permutation(design.n_subjects)
    design_p = reordered(design, perm)
    cols = np.concatenate([np.arange(design.columns(i).start, design.columns(i).stop)
                           for i in perm])
    res_p = fit_panel(DataPanel.from_array(arr[:, cols]), design_p, n_x=2, n_w=2)
    assert res.model.sigma2 == pytest.approx(res_p.model.sigma2, abs=1e-10)


def test_fit_absorbs_affine_map_of_covariate(rng):
    # visit times in years, calendar years or days since an epoch standardise
    # to the same design: the fit validates and fits the normalised covariates,
    # and generation, scoring and reconstruction take the design in the
    # caller's units
    design = make_design(rng, n_subjects=8, visits=4)
    arr = rng.standard_normal((40, design.n))
    visits = [(0, 0), (3, 2), (7, 3)]
    fits = []
    for shift, scale in ((0.0, 1.0), (2005.0, 1.0), (730000.0, 365.0)):
        mapped = map_times(design, shift, scale)
        res = fit_panel(DataPanel.from_array(arr), mapped, n_x=2, n_w=2)
        model = res.model
        panel, _ = generate_from_model(model, mapped, score_law="normal", seed=4)
        scores = score_new_panel(model, panel, mapped)
        recs = np.column_stack([reconstruct(model, scores, mapped, i, j) for i, j in visits])
        generated = panel.to_array()[:, [mapped.column_of(i, j) for i, j in visits]]
        assert np.linalg.norm(recs - generated) <= 1e-8 * np.linalg.norm(generated)
        fits.append({"lambda_x": model.lambda_x, "lambda_w": model.lambda_w,
                     "sigma2": np.array([model.sigma2]),
                     "phi": np.hstack([p.to_array() for p in (*model.phi_x, model.phi_w)]),
                     "xi": res.scores.xi, "zeta": res.scores.zeta,
                     "new_xi": scores.xi, "new_zeta": scores.zeta, "reconstructed": recs})
    for other in fits[1:]:
        for key, want in fits[0].items():
            err = np.abs(other[key] - want).max() / np.abs(want).max()
            assert err <= 1e-8, key


def test_fit_rejects_unidentifiable_design(rng):
    design = make_design(rng, n_subjects=8, visits=2)
    panel = DataPanel.from_array(rng.standard_normal((20, design.n)))
    with pytest.raises(IdentifiabilityError):
        fit_panel(panel, design, n_x=1, n_w=1)


# --- variance explained -----------------------------------------------------------

def test_single_component_explains_everything(rng):
    # rank-one subject-level structure, no visit-level component to speak of
    res, _ = fit_and_oracle(rng, p=30, n_x=1, n_w=1)
    model = res.model
    table = variance_explained(model)
    assert table.cumulative[-1] <= 100.0 + 1e-9
    # shares of the stacked blocks partition each eigenvalue
    total = model.trace_x + model.trace_w
    per_row = table.shares_x.sum(axis=0)
    np.testing.assert_allclose(per_row[0], 100.0 * model.lambda_x[0] / total, atol=1e-9)


def test_variance_table_csv_layout(rng, tmp_path):
    res, _ = fit_and_oracle(rng, n_x=2, n_w=2)
    table = variance_explained(res.model)
    path = tmp_path / "var.csv"
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,phi_x0,phi_x1,phi_w,cumulative"
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("total,")
    assert len(lines) == 2 + max(res.model.n_x, res.model.n_w) + 1 - 1


def test_variance_table_population_shares(rng):
    # Against the analytic shares implied by the generator: lambda times the
    # squared block norm over the total trace.
    from lfpca import generate_scenario1, ScenarioSpec
    spec = ScenarioSpec.curves(p=80, sigma2=0.0, seed=5, n_subjects=300, n_visits=4)
    panel, design, truth = generate_scenario1(spec)
    res = fit_panel(panel, design, n_x=4, n_w=4)
    table = variance_explained(res.model)
    lam = truth.lambda_x
    block_norm0 = np.sum(truth.phi_x[0] ** 2, axis=0)
    # population share of the intercept block of component 1
    expected = 100.0 * lam[0] * block_norm0[0] / (lam.sum() + truth.lambda_w.sum())
    got = table.shares_x[0, 0]
    assert abs(got - expected) < 2.0  # percentage points, sampling error


def test_variance_rejects_nonpositive_total():
    with pytest.raises(ValidationError):
        variance_explained(_tiny_model(trace_x=-1.0, trace_w=0.5))


def _tiny_model(trace_x, trace_w):
    from lfpca.store import FittedModel
    panel = DataPanel.from_array(np.zeros((3, 1)))
    return FittedModel(n=4, a_x=np.ones((1, 1)),
                       a_w=np.ones((1, 1)), lambda_x=np.ones(1), lambda_w=np.ones(1),
                       phi_x=(panel,), phi_w=panel, sigma2=0.0, trace_x=trace_x,
                       trace_w=trace_w, clipped_count=0, mean=np.zeros(3))


# --- persistence -------------------------------------------------------------------

def test_model_save_load_round_trip(rng, tmp_path):
    res, _ = fit_and_oracle(rng, n_x=2, n_w=2)
    save_model(res.model, tmp_path)
    loaded = load_model(tmp_path)
    np.testing.assert_array_equal(loaded.a_x, res.model.a_x)
    np.testing.assert_array_equal(loaded.lambda_w, res.model.lambda_w)
    np.testing.assert_array_equal(loaded.mean, res.model.mean)
    assert loaded.sigma2 == res.model.sigma2
    for k in range(2):
        np.testing.assert_array_equal(loaded.phi_x[k].to_array(),
                                      res.model.phi_x[k].to_array())
    assert loaded.covariate_scaling == res.model.covariate_scaling


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("file_backed", [False, True])
def test_model_round_trips_every_field(rng, tmp_path, q, file_backed):
    # save -> load gives back every field and size, and saving the loaded
    # model again writes the same bytes; q=0 cannot be fitted (a design
    # needs a time column), so the model is built from random arrays
    from dataclasses import fields
    from lfpca import CovariateScale
    from lfpca.store import FittedModel, basis_files
    p, r, n_x, n_w = 30, 5, 3, 2
    saved = tmp_path / "saved"
    saved.mkdir()
    phis = []
    for name, width in zip(basis_files(q), [n_x] * (q + 1) + [n_w]):
        phi = DataPanel.from_array(rng.standard_normal((p, width)), n_slices=2)
        if file_backed:
            write_panel(phi, saved / name)
            phi = read_panel(saved / name)
        phis.append(phi)
    model = FittedModel(n=17, a_x=rng.standard_normal(((q + 1) * r, n_x)),
                        a_w=rng.standard_normal((r, n_w)), lambda_x=rng.uniform(size=n_x),
                        lambda_w=rng.uniform(size=n_w), phi_x=tuple(phis[:-1]),
                        phi_w=phis[-1], sigma2=0.1, trace_x=2.5, trace_w=1.25,
                        clipped_count=1, mean=rng.standard_normal(p),
                        covariate_scaling=tuple(CovariateScale(column=k, shift=0.5 * k, scale=2.0)
                                                for k in range(1, q + 1)))
    assert (model.p, model.q, model.r, model.n_x, model.n_w) == (p, q, r, n_x, n_w)
    save_model(model, saved)
    loaded = load_model(saved)
    for field in fields(FittedModel):
        got, want = getattr(loaded, field.name), getattr(model, field.name)
        if field.name in ("phi_x", "phi_w"):
            got, want = ([b.to_array() for b in (x if isinstance(x, tuple) else (x,))]
                         for x in (got, want))
            assert len(got) == len(want), field.name
            got, want = np.concatenate(got, axis=1), np.concatenate(want, axis=1)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
    for name in ("p", "q", "r", "n_x", "n_w"):
        assert getattr(loaded, name) == getattr(model, name), name
    save_model(loaded, tmp_path / "again")
    assert sorted(path.name for path in saved.iterdir()) == sorted(
        ["model.json", "mean.lfpb", *basis_files(q)])
    for path in saved.iterdir():
        assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes(), path.name


def test_model_json_with_full_spectra_still_scores(rng, tmp_path):
    # model.json files written before spectrum_x/spectrum_w were dropped
    # carry both; they load and score as before
    import json
    res, _ = fit_and_oracle(rng, n_x=2, n_w=2)
    save_model(res.model, tmp_path)
    meta = json.loads((tmp_path / "model.json").read_text())
    assert not {"spectrum_x", "spectrum_w"} & set(meta)
    meta["spectrum_x"] = np.linalg.eigvalsh(res.covariances.k_x)[::-1].tolist()
    meta["spectrum_w"] = np.linalg.eigvalsh(res.covariances.k_w)[::-1].tolist()
    (tmp_path / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    design = make_design(rng, n_subjects=6, visits=3)
    new = DataPanel.from_array(rng.standard_normal((40, design.n)))
    want = score_new_panel(res.model, new, design)
    got = score_new_panel(load_model(tmp_path), new, design)
    np.testing.assert_array_equal(got.xi, want.xi)
    np.testing.assert_array_equal(got.zeta, want.zeta)


def test_model_json_is_compact_and_indented_files_still_load(rng, tmp_path):
    # model.json is one line with the keys and float text of the indented
    # layout written before; a file in that layout loads to the same bits
    import json
    import shutil
    res, _ = fit_and_oracle(rng, n_x=2, n_w=2)
    save_model(res.model, tmp_path / "compact")
    text = (tmp_path / "compact" / "model.json").read_text()
    indented = json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert "\n" not in text and "".join(text.split()) == "".join(indented.split())
    shutil.copytree(tmp_path / "compact", tmp_path / "indented")
    (tmp_path / "indented" / "model.json").write_text(indented)
    want, got = load_model(tmp_path / "compact"), load_model(tmp_path / "indented")
    for name in ("a_x", "a_w", "lambda_x", "lambda_w", "mean"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("n", "sigma2", "trace_x", "trace_w", "clipped_count", "covariate_scaling"):
        assert getattr(got, name) == getattr(want, name), name


def test_fit_file_backed_without_workdir(rng, tmp_path):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((24, design.n))
    write_panel(DataPanel.from_array(arr), tmp_path / "p.lfpb")
    res = fit_panel(read_panel(tmp_path / "p.lfpb"), design, n_x=2, n_w=2)
    assert not res.model.phi_w.file_backed
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p.lfpb"]
    res_mem = fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2)
    np.testing.assert_allclose(res.model.phi_w.to_array(),
                               res_mem.model.phi_w.to_array(), atol=1e-12)


def test_fit_file_backed_deletes_centered_copy(rng, tmp_path):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((24, design.n))
    write_panel(DataPanel.from_array(arr, n_slices=3), tmp_path / "p.lfpb")
    res = fit_panel(read_panel(tmp_path / "p.lfpb"), design, n_x=2, n_w=2,
                    workdir=tmp_path / "ok")
    assert sorted(f.name for f in (tmp_path / "ok").iterdir()) == [
        "phi_w.lfpb", "phi_x_0.lfpb", "phi_x_1.lfpb"]
    assert res.model.phi_w.to_array().shape == (24, 2)
    arr[5, 7] = np.nan
    write_panel(DataPanel.from_array(arr, n_slices=3), tmp_path / "bad.lfpb")
    with pytest.raises(NumericalError):
        fit_panel(read_panel(tmp_path / "bad.lfpb"), design, n_x=2, n_w=2,
                  workdir=tmp_path / "failed")
    assert list((tmp_path / "failed").iterdir()) == []


@pytest.mark.parametrize("options, message", [
    (dict(n_x=4, n_w=4, order_threshold=0.5), "order_threshold applies only"),
    (dict(rank=10, var_threshold=0.5), "var_threshold applies only"),
    (dict(n_x=0), "n_x must be >= 1"),
    (dict(n_w=-1), "n_w must be >= 1"),
    (dict(rank=0), "rank must be >= 1"),
    (dict(rank=-2), "rank must be >= 1"),
    (dict(threads=0), "threads must be >= 1"),
    (dict(threads=-3), "threads must be >= 1"),
    (dict(write_v=1), "write_v must be True or False"),
])
def test_fit_refuses_option_before_reading(rng, monkeypatch, options, message):
    # an option the fit cannot honour costs no pass over the data
    design = make_design(rng, n_subjects=20, visits=4)
    panel = DataPanel.from_array(rng.standard_normal((200, design.n)))
    calls = []
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        calls.append((start, stop))
        return read_rows(self, start, stop)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    with pytest.raises(ValidationError, match=message):
        fit_panel(panel, design, **options)
    assert calls == []


@pytest.mark.parametrize("options, step, step_options", [
    (dict(rank=0), "gram", dict(rank=0)),
    (dict(rank=-1), "gram", dict(rank=-1)),
    (dict(rank=81), "gram", dict(rank=81)),
    (dict(var_threshold=np.nan), "gram", dict(var_threshold=np.nan)),
    (dict(n_x=0), "intrinsic", dict(n_x=0, n_w=1)),
    (dict(n_w=-2), "intrinsic", dict(n_x=1, n_w=-2)),
    (dict(rank=3, n_x=7), "intrinsic", dict(n_x=7, n_w=1)),
    (dict(rank=3, n_w=4), "intrinsic", dict(n_x=1, n_w=4)),
    (dict(order_threshold=1.5), "intrinsic", dict(threshold=1.5)),
])
def test_fit_and_step_refuse_count_or_share_alike(rng, monkeypatch, options, step, step_options):
    # one check per rule: fit_panel refuses before reading, with the message
    # of the step that the option reaches (the Gram matrix of n = 80 visits;
    # k_x and k_w of rank 3 with q = 1)
    design = make_design(rng, n_subjects=20, visits=4)
    panel = DataPanel.from_array(rng.standard_normal((200, design.n)))
    monkeypatch.setattr(DataPanel, "read_rows", None)  # a read raises TypeError, no refusal
    with pytest.raises(ValidationError) as fit_error:
        fit_panel(panel, design, **options)
    with pytest.raises(ValidationError) as step_error:
        if step == "gram":
            eigen_gram(np.eye(design.n), **step_options)
        else:
            decompose_intrinsic(covs_from(np.eye(6), np.eye(3)), **step_options)
    assert str(fit_error.value) == str(step_error.value)


def test_fit_refuses_panel_without_variance(rng):
    # every column equal: the centred panel is zero
    design = make_design(rng, n_subjects=6, visits=3)
    panel = DataPanel.from_array(np.tile(rng.standard_normal((20, 1)), design.n))
    with pytest.raises(ValidationError, match="the centred panel has no variance"):
        fit_panel(panel, design)


def test_fit_file_backed_reads_each_row_twice(rng, tmp_path, monkeypatch):
    # one pass for the Gram matrix and the mean, one for the lift
    design = make_design(rng, n_subjects=6, visits=3)
    path = tmp_path / "p.lfpb"
    write_panel(DataPanel.from_array(rng.standard_normal((30, design.n))), path)
    reads = np.zeros(30, dtype=int)
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        if self._path == path:
            reads[start:stop] += 1
        return read_rows(self, start, stop)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    fit_panel(read_panel(path).with_slices(4), design, n_x=2, n_w=2, threads=2,
              workdir=tmp_path / "wd")
    np.testing.assert_array_equal(reads, 2)
    assert sorted(f.name for f in (tmp_path / "wd").iterdir()) == [
        "phi_w.lfpb", "phi_x_0.lfpb", "phi_x_1.lfpb"]


def test_fit_write_v_matches_left_vectors(rng, tmp_path, monkeypatch):
    # V is one more output of the lift's pass: in the workdir or in memory,
    # with one or two threads, the same bits, in the panel's slice layout,
    # the raw rows times left_factor, and leaving Phi as it is without write_v
    monkeypatch.setattr(panel_module, "BLOCK_BYTES", 4 * 8 * 18)  # 4-row blocks
    design = make_design(rng, n_subjects=6, visits=3)
    path = tmp_path / "p.lfpb"
    write_panel(DataPanel.from_array(rng.standard_normal((30, design.n)), n_slices=3), path)
    panel = read_panel(path)
    plain = fit_panel(panel, design, n_x=2, n_w=2)
    assert plain.v is None and plain.options["write_v"] is False
    vs = []
    for workdir, threads in ((None, 1), (tmp_path / "wd", 2)):
        res = fit_panel(panel, design, n_x=2, n_w=2, threads=threads, workdir=workdir,
                        write_v=True)
        assert res.options["write_v"] is True
        assert res.v.file_backed == (workdir is not None)
        assert res.v.row_starts == panel.row_starts and res.v.n == res.decomposition.r
        vs.append(res.v.to_array())
        # one dense product against the per-block products: not the same bits
        np.testing.assert_allclose(vs[-1], panel.to_array() @ left_factor(res.decomposition),
                                   rtol=0, atol=1e-12)
        for got, want in zip((*res.model.phi_x, res.model.phi_w),
                             (*plain.model.phi_x, plain.model.phi_w)):
            np.testing.assert_array_equal(got.to_array(), want.to_array())
    np.testing.assert_array_equal(vs[0], vs[1])
    assert sorted(f.name for f in (tmp_path / "wd").iterdir()) == [
        "phi_w.lfpb", "phi_x_0.lfpb", "phi_x_1.lfpb", "v.lfpb"]


def test_one_slice_panel_is_fitted_in_budget_blocks(rng, tmp_path, monkeypatch):
    # a one-slice panel, in memory and from a file, is read in blocks of
    # BLOCK_BYTES: the traced peak is set by the budget and by what the fit
    # keeps (p-vectors, in-memory phi), not by p x n; the outputs match the
    # unsplit fit, the phi files keep the input's slice table and every row
    # is read exactly twice
    design = make_design(rng, n_subjects=20, visits=3)
    p, n, threads = 20000, design.n, 2
    arr = rng.standard_normal((p, n)) + 3.0
    path = tmp_path / "p.lfpb"
    write_panel(DataPanel.from_array(arr), path)
    ref = fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2, threads=threads)

    budget = 64 * 1024
    monkeypatch.setattr(panel_module, "BLOCK_BYTES", budget)
    height = budget // (8 * n)
    reads = []
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        if self.n == n:
            reads.append((start, stop))
        return read_rows(self, start, stop)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    width = 3 * 2  # phi_x_0, phi_x_1, phi_w, two columns each
    for name, panel in (("memory", DataPanel.from_array(arr)), ("file", read_panel(path)),
                        ("file3", read_panel(path).with_slices(3))):
        workdir = None if name == "memory" else tmp_path / name
        reads.clear()
        tracemalloc.start()
        res = fit_panel(panel, design, n_x=2, n_w=2, threads=threads, workdir=workdir)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        kept = 8 * p * (2 + (width if workdir is None else 0))  # mean, row sums, phi
        bound = kept + (threads + 1) * 2 * budget + 256 * 1024
        assert peak < bound < 0.25 * p * n * 8, (name, peak, bound)

        counts = np.zeros(p, dtype=int)
        for start, stop in reads:
            counts[start:stop] += 1
        np.testing.assert_array_equal(counts, 2)
        assert max(stop - start for start, stop in reads) == height

        model = res.model
        if workdir is not None:
            for phi in (*model.phi_x, model.phi_w):
                assert phi.file_backed and phi.row_starts == panel.row_starts
        assert np.abs(res.gram - ref.gram).max() <= 1e-12 * np.abs(ref.gram).max()
        np.testing.assert_allclose(model.mean, ref.model.mean, rtol=0, atol=1e-12)
        for got, want in zip((*model.phi_x, model.phi_w), (*ref.model.phi_x, ref.model.phi_w)):
            assert np.abs(got.to_array() - want.to_array()).max() <= 1e-12
        for got, want in ((model.lambda_x, ref.model.lambda_x), (model.lambda_w, ref.model.lambda_w),
                          (res.scores.xi, ref.scores.xi), (res.scores.zeta, ref.scores.zeta),
                          (model.sigma2, ref.model.sigma2)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fit_reports_nonfinite_input_row(rng, tmp_path):
    # found in the Gram pass, before any output, with no numpy warning
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((24, design.n))
    arr[13, 5] = np.inf
    write_panel(DataPanel.from_array(arr), tmp_path / "inf.lfpb")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, panel in (("mem", DataPanel.from_array(arr)),
                            ("file", read_panel(tmp_path / "inf.lfpb"))):
            workdir = tmp_path / name
            with pytest.raises(NumericalError, match=r"rows \[8, 16\), first at row 13"):
                fit_panel(panel.with_slices(3), design, n_x=2, n_w=2, workdir=workdir)
            assert list(workdir.iterdir()) == []


def test_thread_resolution_env(monkeypatch):
    from lfpca._parallel import resolve_threads
    monkeypatch.delenv("LFPCA_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3
    monkeypatch.setenv("LFPCA_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2
    monkeypatch.setenv("LFPCA_THREADS", "")
    assert resolve_threads(None) == 1
    for value in ("junk", "0"):
        monkeypatch.setenv("LFPCA_THREADS", value)
        with pytest.raises(ValidationError, match="LFPCA_THREADS"):
            resolve_threads(None)


def test_variance_single_component_is_total():
    # a model whose only mass is one subject-level component: 100% cumulative
    model = _tiny_model(trace_x=2.0, trace_w=0.0)
    model.lambda_x = np.array([2.0])
    model.lambda_w = np.array([0.0])
    table = variance_explained(model)
    assert table.cumulative[-1] == pytest.approx(100.0)
    assert table.shares_x[0, 0] == pytest.approx(100.0)
    assert table.percent_x == pytest.approx(100.0)
