import numpy as np
import pytest

from conftest import design_of, make_design, poison_basis, reordered, subject_rows
from lfpca import (DataPanel, NumericalError, ValidationError, apply_covariate_scaling,
                   fit_panel, generate_from_model, load_model, read_scores_csv, reconstruct,
                   save_model, score_blups, score_new_panel, write_scores_csv)
from lfpca import panel as panel_module
from oracle import oracle_basis_matrix, oracle_scores


def fitted_model(rng, p=60, n_subjects=6, visits=3, n_x=2, n_w=2, q=1):
    """A fit on random data and its design, in the design's own units."""
    design = make_design(rng, n_subjects=n_subjects, visits=visits, q=q)
    panel = DataPanel.from_array(rng.standard_normal((p, design.n)))
    return fit_panel(panel, design, n_x=n_x, n_w=n_w), design


def mean_panel(model, n):
    """Every column equal to the model mean: exactly zero once centered."""
    return DataPanel.from_array(np.tile(model.mean[:, None], (1, n)))


def test_zero_data_gives_zero_scores(rng):
    res, design = fitted_model(rng)
    zero = mean_panel(res.model, design.n)
    scores = score_new_panel(res.model, zero, design)
    assert np.abs(scores.xi_matrix()).max() == 0.0
    assert np.abs(scores.zeta_matrix()).max() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_score_new_panel_refuses_nonfinite_input(rng, monkeypatch, bad):
    # each block is checked as the Gram pass checks it, past the first
    # block: the rows of the block and its first bad row
    res, design = fitted_model(rng)
    width = 3 * 2 + design.n  # the bases read beside the data: phi_x0, phi_x1, phi_w
    monkeypatch.setattr(panel_module, "BLOCK_BYTES", 8 * 8 * width)  # 8-row blocks
    arr = rng.standard_normal((60, design.n))
    arr[21, 4] = arr[23, 0] = bad
    with pytest.raises(NumericalError, match=r"non-finite input in rows \[16, 24\), "
                                              r"first at row 21"):
        score_new_panel(res.model, DataPanel.from_array(arr), design)


def test_exact_model_data_recovers_scores(rng):
    # data built exactly from the fitted basis: the predictor is the exact
    # projection, so generating scores come back to machine precision
    res, design = fitted_model(rng, p=80)
    panel, truth = generate_from_model(res.model, design, score_law="normal",
                                       sigma2=0.0, seed=11)
    scores = score_new_panel(res.model, panel, design)
    err_xi = np.abs(scores.xi_matrix() - truth.xi).max()
    err_zeta = np.abs(scores.zeta_matrix() - truth.zeta).max()
    scale = max(np.abs(truth.xi).max(), np.abs(truth.zeta).max())
    assert err_xi <= 1e-8 * scale
    assert err_zeta <= 1e-8 * scale


def test_training_scores_match_dense_normal_equations(rng):
    # the training and streamed scoring paths agree with explicitly assembled
    # p-dimensional normal equations on the centered training data, for a
    # balanced design, for one whose visit counts form several groups, and
    # for q=2 with n_x != n_w, where a mix-up of the family blocks would show
    cases = [(4, 1, 2, 2), ([1, 3, 2, 5, 1, 4], 1, 2, 2),
             ([2, 4, 1, 3, 5, 2, 4, 3], 2, 3, 2)]
    for visits, q, n_x, n_w in cases:
        design = make_design(rng, n_subjects=5, visits=visits, q=q)
        arr = rng.standard_normal((100, design.n))
        res = fit_panel(DataPanel.from_array(arr), design, n_x=n_x, n_w=n_w)
        model = res.model
        centered = arr - model.mean[:, None]
        std = apply_covariate_scaling(design, model.covariate_scaling)
        dense = oracle_scores([p.to_array() for p in model.phi_x], model.phi_w.to_array(),
                              subject_rows(std), centered)
        streamed = score_new_panel(model, DataPanel.from_array(arr), design)
        for scores in (res.scores, streamed):
            for i, omega in enumerate(dense):
                got = np.concatenate([scores.xi[i],
                                      scores.zeta[design.columns(i)].ravel()])
                assert np.abs(got - omega).max() <= 1e-9 * max(1.0, np.abs(omega).max())


def test_scores_residual_for_spanned_data(rng):
    # noiseless data generated from the fitted basis: residual is zero
    res, design = fitted_model(rng, p=70)
    model = res.model
    panel, truth = generate_from_model(model, design, score_law="normal",
                                       sigma2=0.0, seed=3)
    scores = score_new_panel(model, panel, design)
    arr = panel.to_array()
    std = apply_covariate_scaling(design, model.covariate_scaling)
    for i in range(design.n_subjects):
        cols = design.columns(i)
        y_i = arr[:, cols] - model.mean[:, None]
        b = oracle_basis_matrix([p.to_array() for p in model.phi_x],
                                model.phi_w.to_array(), subject_rows(std)[i])
        omega = np.concatenate([scores.xi[i], scores.zeta[cols].ravel()])
        resid = np.linalg.norm(y_i.T.ravel() - b @ omega)
        assert resid <= 1e-8 * max(np.linalg.norm(y_i), 1e-30)


def test_scores_invariant_to_slice_count(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((50, design.n))
    xi = {}
    for l in (1, 5):
        res = fit_panel(DataPanel.from_array(arr, n_slices=l), design, n_x=2, n_w=2)
        xi[l] = res.scores.xi_matrix()
    assert np.abs(xi[1] - xi[5]).max() <= 1e-10


def test_scores_invariant_to_subject_permutation(rng):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((40, design.n))
    res = fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2)
    perm = rng.permutation(design.n_subjects)
    design_p = reordered(design, perm)
    cols = np.concatenate([np.arange(design.columns(i).start, design.columns(i).stop)
                           for i in perm])
    res_p = fit_panel(DataPanel.from_array(arr[:, cols]), design_p, n_x=2, n_w=2)
    xi = res.scores.xi_matrix()
    xi_p = res_p.scores.xi_matrix()
    assert np.abs(xi[perm] - xi_p).max() <= 1e-10


def test_rank_deficient_solve_is_flagged_not_fatal(rng):
    # more scores than informative directions: minimum-norm solution, flag set
    model = fitted_model(rng, p=30, n_subjects=4, visits=6, n_x=2, n_w=2)[0].model
    # degenerate design: all covariates identical makes columns collide
    z = np.column_stack([np.ones(6), np.zeros(6) + 1.0])
    design = design_of([("dup", z)])
    scores = score_new_panel(model, mean_panel(model, 6), design)
    assert scores.rank_deficient[0] or np.abs(scores.xi[0]).max() == 0.0

    # r - n_w < n_x: a subject whose visits share one covariate row has
    # dependent columns; one with as many visits at distinct times does not
    # and is solved as if it were scored alone
    from lfpca.limits import BLUP_CONDITION_LIMIT
    model = fitted_model(rng, p=30, n_subjects=2, visits=3, n_x=3, n_w=3)[0].model
    assert model.r - model.n_w < model.n_x
    design = design_of([("dup", np.ones((2, 2))),
                        ("ok", np.column_stack([np.ones(2), [0.0, 1.0]])),
                        ("dup2", np.ones((2, 2)))])
    arr = rng.standard_normal((30, design.n))
    scores = score_new_panel(model, DataPanel.from_array(arr), design)
    phi_x, phi_w = [p.to_array() for p in model.phi_x], model.phi_w.to_array()
    cond = [np.linalg.cond(b.T @ b) for b in
            (oracle_basis_matrix(phi_x, phi_w, z)
             for z in subject_rows(apply_covariate_scaling(design, model.covariate_scaling)))]
    np.testing.assert_array_equal(scores.rank_deficient, np.array(cond) > BLUP_CONDITION_LIMIT)
    assert scores.rank_deficient.tolist() == [True, False, True]
    assert np.all(np.isfinite(scores.xi)) and np.all(np.isfinite(scores.zeta))
    solo = score_new_panel(model, DataPanel.from_array(arr[:, 2:4]),
                           reordered(design, [1]))
    got = np.concatenate([scores.xi[1], scores.zeta[2:4].ravel()])
    want = np.concatenate([solo.xi[0], solo.zeta.ravel()])
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_reconstruct_zero_scores_returns_mean(rng):
    res, design = fitted_model(rng)
    scores = score_new_panel(res.model, mean_panel(res.model, design.n), design)
    rec = reconstruct(res.model, scores, design, 0, 0)
    np.testing.assert_allclose(rec, res.model.mean, atol=1e-12)


def test_reconstruct_exact_model_data(rng):
    res, design = fitted_model(rng, p=50)
    panel, truth = generate_from_model(res.model, design, score_law="normal",
                                       sigma2=0.0, seed=9)
    scores = score_new_panel(res.model, panel, design)
    arr = panel.to_array()
    for i, j in [(0, 0), (2, 1), (design.n_subjects - 1, 2)]:
        rec = reconstruct(res.model, scores, design, i, j)
        col = design.column_of(i, j)
        err = np.linalg.norm(rec - arr[:, col])
        assert err <= 1e-8 * max(np.linalg.norm(arr[:, col]), 1e-30)


def test_reconstruct_refuses_a_nonfinite_stored_basis(rng, tmp_path):
    # the bases are checked as the scoring pass checks them, by file and
    # row, not assembled into a non-finite observation
    res, design = fitted_model(rng)
    save_model(res.model, tmp_path)
    poison_basis(tmp_path, 9)
    with pytest.raises(ValidationError, match=r"phi_w\.lfpb: non-finite values in rows "
                                              r"\[0, 60\), first at row 9$"):
        reconstruct(load_model(tmp_path), res.scores, design, 0, 0)


def test_reconstruct_rejects_unknown_visit(rng):
    res, design = fitted_model(rng)
    with pytest.raises(ValidationError):
        reconstruct(res.model, res.scores, design, 0, 99)
    with pytest.raises(ValidationError):
        reconstruct(res.model, res.scores, design, 99, 0)


def test_reconstruct_rejects_design_of_other_q(rng):
    res, design = fitted_model(rng)
    other = make_design(rng, n_subjects=design.n_subjects, visits=3, q=2)
    with pytest.raises(ValidationError, match="q=2"):
        reconstruct(res.model, res.scores, other, 0, 0)


RECONSTRUCT_MISMATCHES = {
    "orders": r"scores have 3 xi and 2 zeta components, but the model has n_x = 4 and n_w = 4$",
    "more-subjects": (r"scores hold 6 subjects and 18 visits and the design 9 and 27; subject 7 "
                      r"is missing in the scores and s006 with 3 visits in the design$"),
    "visit-count": (r"scores hold 6 subjects and 18 visits and the design 6 and 19; subject 3 "
                    r"is s002 with 3 visits in the scores and s002 with 4 visits in the design$"),
}


@pytest.mark.parametrize("case, message", RECONSTRUCT_MISMATCHES.items(),
                         ids=list(RECONSTRUCT_MISMATCHES))
def test_reconstruct_refuses_scores_that_do_not_pair(rng, case, message):
    # scores of a fit of other orders, or solved under another design, are
    # refused by name: not ended by a matmul error inside the stream, and
    # never read by position (subject 0 would read the wrong scores, and
    # subject 8 of a 9-subject design has none)
    res, design = fitted_model(rng, n_x=4, n_w=4)
    scores, under = res.scores, design
    if case == "orders":
        other = DataPanel.from_array(rng.standard_normal((60, design.n)))
        scores = fit_panel(other, design, n_x=3, n_w=2).scores
    elif case == "more-subjects":
        under = make_design(rng, n_subjects=9, visits=3)
    else:
        under = make_design(rng, visits=[3, 3, 4, 3, 3, 3])
    for subject in (0, under.n_subjects - 1):
        with pytest.raises(ValidationError, match=message):
            reconstruct(res.model, scores, under, subject, 0)


def test_scores_csv_round_trip(rng, tmp_path):
    res = fitted_model(rng)[0]
    path = tmp_path / "scores.csv"
    write_scores_csv(res.scores, path)
    back = read_scores_csv(path)
    np.testing.assert_array_equal(back.xi_matrix(), res.scores.xi_matrix())
    np.testing.assert_array_equal(back.zeta_matrix(), res.scores.zeta_matrix())
    assert back.subject_ids == res.scores.subject_ids
    assert back.visit_counts == res.scores.visit_counts


def test_read_scores_csv_rejects_ragged_components(tmp_path):
    # a subject missing an xi component, or a visit missing a zeta one, is a
    # malformed file (exit 2 from the CLI), not a numpy shape error
    head = "subject_id,score_type,visit_index,component,value\n"
    ragged = {"xi": "a,xi,,0,1\na,xi,,1,2\na,zeta,0,0,3\nb,xi,,0,4\nb,zeta,0,0,5\n",
              "zeta": "a,xi,,0,1\na,zeta,0,0,2\na,zeta,0,1,3\n"
                      "a,zeta,1,0,4\nb,xi,,0,5\nb,zeta,0,0,6\nb,zeta,0,1,7\n"}
    for kind, body in ragged.items():
        path = tmp_path / f"{kind}.csv"
        path.write_text(head + body)
        with pytest.raises(ValidationError, match="subject"):
            read_scores_csv(path)


@pytest.mark.parametrize("row, problem", [
    ("a,xi,,0,1.5,7", "expected 5 fields, got 6"),
    ("a,xi,,0", "expected 5 fields, got 4"),
    ("a,xi,,0,abc", "could not convert"),
    ("a,xi,,x,1.5", "invalid literal for int"),
    ("a,zeta,y,0,1.5", "invalid literal for int"),
    ("a,eta,0,0,1.5", "unknown score_type 'eta'"),
])
def test_read_scores_csv_names_the_malformed_line(tmp_path, row, problem):
    # like read_metadata: path:line and the fault, not a bare unpacking or
    # conversion error (lfpca evaluate would end with a traceback)
    path = tmp_path / "scores.csv"
    path.write_text("subject_id,score_type,visit_index,component,value\n"
                    "a,xi,,0,1\n" + row + "\na,zeta,0,0,2\n")
    with pytest.raises(ValidationError, match=f"scores.csv:3: {problem}"):
        read_scores_csv(path)


def test_reconstruction_residual_tracks_noise_floor(rng):
    # noisy curves data: per-voxel mean squared residual of the fitted
    # reconstruction stays within a small multiple of the noise variance
    from lfpca import ScenarioSpec, generate_scenario1, fit_panel
    sigma2 = 1e-4
    spec = ScenarioSpec.curves(p=750, sigma2=sigma2, seed=13)
    panel, design, _ = generate_scenario1(spec)
    res = fit_panel(panel, design, n_x=4, n_w=4)
    arr = panel.to_array()
    cols = rng.choice(design.n, size=40, replace=False)
    total = 0.0
    for c in cols:
        i = int(np.searchsorted(design.col_offsets, c, side="right")) - 1
        j = c - int(design.col_offsets[i])
        rec = reconstruct(res.model, res.scores, design, i, j)
        total += float(np.mean((rec - arr[:, c]) ** 2))
    assert total / cols.size <= 3 * sigma2
