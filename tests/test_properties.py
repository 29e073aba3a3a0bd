"""Metamorphic properties of a fit on small random designs.

Scaling the data by c scales the variances by c^2 and the scores by c;
adding a constant image moves only the mean; rotating voxel space rotates
only the bases and the mean, since the fit sees Y through Y'Y; an affine
change of the visit times changes nothing under standardization, and a
negative scale flips the slope family; reordering the subjects reorders
the scores and nothing else, and reversing each subject's visits reorders
the visit scores; the slice count changes only the last bits. Designs are drawn with 5-9 subjects of 1-5 visits (at
least one subject with 3 or more), or 40-48 subjects of 3-5 visits for
the reordering, and q in {1, 2}; those the fit would refuse as
unidentifiable are skipped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import (design_of, make_design, map_times, reordered,  # noqa: E402
                      subject_rows)
from lfpca import DataPanel, fit_panel, normalize_covariates, validate_design  # noqa: E402

P = 40
N_X, N_W = 2, 2


@st.composite
def problems(draw):
    """(design, Y) with Y a P x n standard normal panel."""
    q = draw(st.sampled_from([1, 2]))
    counts = draw(st.lists(st.integers(1, 5), min_size=5, max_size=9)
                  .filter(lambda c: max(c) >= 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    design = make_design(rng, n_subjects=len(counts), visits=counts, q=q)
    assume(validate_design(normalize_covariates(design)[0]).ok)
    return design, rng.standard_normal((P, design.n))


def fit(design, y):
    return fit_panel(DataPanel.from_array(y), design, n_x=N_X, n_w=N_W)


def assert_rel(actual, expected, tol):
    """Norm-relative closeness: ||actual - expected|| <= tol ||expected||."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert np.linalg.norm(actual - expected) <= tol * np.linalg.norm(expected)


def phi(model):
    return [b.to_array() for b in (*model.phi_x, model.phi_w)]


@settings(max_examples=15)
@given(problems(), st.sampled_from([1 / 8, 3.0, 1024.0]))
def test_scaling_data_scales_variances_and_scores(problem, c):
    design, y = problem
    base, scaled = fit(design, y), fit(design, c * y)
    assert scaled.model.r == base.model.r
    for name in ("lambda_x", "lambda_w", "sigma2"):
        assert_rel(getattr(scaled.model, name), c ** 2 * getattr(base.model, name), 1e-9)
    assert_rel(scaled.scores.xi, c * base.scores.xi, 1e-7)
    assert_rel(scaled.scores.zeta, c * base.scores.zeta, 1e-7)
    for got, want in zip(phi(scaled.model), phi(base.model)):
        assert_rel(got, want, 1e-7)
    assert_rel(scaled.model.mean, c * base.model.mean, 1e-12)


@settings(max_examples=15)
@given(problems(), st.floats(-100.0, 100.0))
def test_constant_image_moves_only_the_mean(problem, level):
    design, y = problem
    image = level * np.cos(np.arange(P))
    base, shifted = fit(design, y), fit(design, y + image[:, None])
    assert shifted.model.r == base.model.r
    for name in ("lambda_x", "lambda_w", "sigma2"):
        assert_rel(getattr(shifted.model, name), getattr(base.model, name), 1e-9)
    assert_rel(shifted.scores.xi, base.scores.xi, 1e-7)
    assert_rel(shifted.scores.zeta, base.scores.zeta, 1e-7)
    assert_rel(shifted.model.phi_w.to_array(), base.model.phi_w.to_array(), 1e-7)
    assert_rel(shifted.model.mean, base.model.mean + image, 1e-12)


@settings(max_examples=15)
@given(problems(), st.integers(0, 2 ** 32 - 1))
def test_rotating_voxel_space_rotates_only_bases_and_mean(problem, seed):
    design, y = problem
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((P, P)))
    base, rotated = fit(design, y), fit(design, q @ y)
    assert rotated.model.r == base.model.r
    for name in ("lambda_x", "lambda_w", "sigma2"):
        assert_rel(getattr(rotated.model, name), getattr(base.model, name), 1e-9)
    assert_rel(rotated.scores.xi, base.scores.xi, 1e-7)
    assert_rel(rotated.scores.zeta, base.scores.zeta, 1e-7)
    for got, want in zip(phi(rotated.model), phi(base.model)):
        assert_rel(got, q @ want, 1e-7)
    assert_rel(rotated.model.mean, q @ base.model.mean, 1e-12)


@settings(max_examples=15)
@given(problems(), st.floats(-1000.0, 1000.0), st.floats(0.01, 400.0), st.booleans())
def test_affine_time_change_changes_nothing_but_a_slope_sign(problem, shift, scale, flip):
    # standardization maps a + b T back to the standardized T, or to its
    # negative for b < 0: then K_x is D K_x D with D = -1 on the slope block,
    # so each subject-level eigenvector [a_0; a_1; ...] becomes [a_0; -a_1; ...]
    # up to the sign that fixes its largest entry, and Phi_x1 flips against
    # Phi_x0 while eigenvalues, sigma^2, Phi_w and the visit scores stay
    design, y = problem
    base = fit(design, y)
    mapped = fit(map_times(design, shift, -scale if flip else scale), y)
    assert mapped.model.r == base.model.r
    r = base.model.r
    signs = np.sign(np.sum(mapped.model.a_x[:r] * base.model.a_x[:r], axis=0))
    assert np.all(signs != 0) and (flip or np.all(signs == 1))
    slope = np.ones(len(base.model.phi_x))
    slope[1] = -1.0 if flip else 1.0
    for name in ("lambda_x", "lambda_w", "sigma2"):
        assert_rel(getattr(mapped.model, name), getattr(base.model, name), 1e-9)
    for got, want, sign in zip(mapped.model.phi_x, base.model.phi_x, slope):
        assert_rel(got.to_array(), sign * signs * want.to_array(), 1e-7)
    assert_rel(mapped.model.phi_w.to_array(), base.model.phi_w.to_array(), 1e-7)
    assert_rel(mapped.scores.xi, signs * base.scores.xi, 1e-7)
    assert_rel(mapped.scores.zeta, base.scores.zeta, 1e-7)
    assert_rel(mapped.model.mean, base.model.mean, 1e-12)


@settings(max_examples=15)
@given(problems())
def test_reversing_each_subjects_visits_reorders_only_visit_scores(problem):
    design, y = problem
    columns = np.concatenate([np.arange(design.n)[design.columns(i)][::-1]
                              for i in range(design.n_subjects)])
    reversed_design = design_of((sid, rows[::-1]) for sid, rows
                                in zip(design.subject_ids, subject_rows(design)))
    base, reversed_fit = fit(design, y), fit(reversed_design, y[:, columns])
    assert reversed_fit.model.r == base.model.r
    for name in ("lambda_x", "lambda_w", "sigma2"):
        assert_rel(getattr(reversed_fit.model, name), getattr(base.model, name), 1e-9)
    for got, want in zip(phi(reversed_fit.model), phi(base.model)):
        assert_rel(got, want, 1e-7)
    assert_rel(reversed_fit.scores.xi, base.scores.xi, 1e-7)
    assert_rel(reversed_fit.scores.zeta, base.scores.zeta[columns], 1e-7)
    assert_rel(reversed_fit.model.mean, base.model.mean, 1e-12)


@st.composite
def low_rank_problems(draw):
    """(design, Y, order) with Y = sum_k Z_ijk Phi_xk xi_i + Phi_w zeta_ij, no
    noise: four components per family, so G has rank 4 (q + 2) and its top
    pairs come from the Krylov solver. ``order`` permutes the subjects."""
    q = draw(st.sampled_from([1, 2]))
    counts = draw(st.lists(st.integers(3, 5), min_size=40, max_size=48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    design = make_design(rng, n_subjects=len(counts), visits=counts, q=q)
    assume(validate_design(normalize_covariates(design)[0]).ok)
    phi_x, phi_w = rng.standard_normal((q + 1, P, 4)), rng.standard_normal((P, 4))
    cols = []
    for rows in subject_rows(design):
        xi = rng.standard_normal(4) * [4.0, 2.8, 2.0, 1.4]
        for z in rows:
            cols.append(np.einsum("k,kpc,c->p", z, phi_x, xi)
                        + phi_w @ (rng.standard_normal(4) * [3.0, 2.0, 1.4, 1.0]))
    return design, np.array(cols).T, draw(st.permutations(range(len(counts))))


@settings(max_examples=10)
@given(low_rank_problems())
def test_permuting_subjects_permutes_scores(problem):
    design, y, order = problem
    columns = np.concatenate([np.arange(design.n)[design.columns(i)] for i in order])
    permuted = reordered(design, order)
    base, moved = fit(design, y), fit(permuted, y[:, columns])
    assert base.eigensolvers["gram"]["path"] == moved.eigensolvers["gram"]["path"] == "krylov"
    assert moved.model.r == base.model.r
    for name in ("lambda_x", "lambda_w"):
        np.testing.assert_allclose(getattr(moved.model, name), getattr(base.model, name),
                                   rtol=1e-8, atol=1e-12)
    assert abs(moved.model.sigma2 - base.model.sigma2) <= 1e-8 * max(base.model.sigma2, 1e-12)
    for got, want in zip(phi(moved.model), phi(base.model)):
        assert_rel(got, want, 1e-6)
    assert_rel(moved.scores.xi, base.scores.xi[order], 1e-6)
    assert_rel(moved.scores.zeta, base.scores.zeta[columns], 1e-6)


def outputs(result):
    """Every array a fit reports: eigenpairs, bases, scores, mean and sigma^2."""
    model = result.model
    return [model.lambda_x, model.lambda_w, model.a_x, model.a_w, *phi(model),
            result.scores.xi, result.scores.zeta, model.mean, np.array([model.sigma2])]


@settings(max_examples=10)
@given(problems(), st.integers(2, P))
def test_slice_count_moves_only_the_last_bits(problem, slices):
    design, y = problem
    sliced = fit_panel(DataPanel.from_array(y).with_slices(slices), design, n_x=N_X, n_w=N_W)
    base = fit(design, y)
    # the Gram sums one product per slice, so only the last bits may move
    for got, want in zip(outputs(sliced), outputs(base)):
        assert_rel(got, want, 1e-10)
