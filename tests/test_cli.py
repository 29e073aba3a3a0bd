import csv
import filecmp
import hashlib
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_design, map_times
from lfpca import (DataPanel, IdentifiabilityError, NumericalError, StudyDesign,
                   ValidationError, fit_panel, load_model, normalize_covariates,
                   read_metadata, read_panel, read_scores_csv, validate_design, write_metadata,
                   write_panel)
from lfpca import cli
from lfpca import panel as panel_module
from lfpca.cli import format_cell, main


def run(*argv):
    return main(list(argv))


def simulate_small(tmp_path, name="sim", reps=2, seed=9, p=60, sigma2="1e-3",
                   subjects=20, visits=4):
    out = tmp_path / name
    code = run("simulate", "--scenario", "1", "--p", str(p), "--sigma2", sigma2,
               "--seed", str(seed), "--reps", str(reps), "--subjects", str(subjects),
               "--visits", str(visits), "--out", str(out))
    assert code == 0
    return out


def fit_rep(tmp_path, sim_dir, rep="rep_000", name="fit", extra=()):
    out = tmp_path / name / rep
    code = run("fit", "--data", str(sim_dir / rep / "panel.lfpb"),
               "--meta", str(sim_dir / rep / "meta.csv"),
               "--nx", "4", "--nw", "4", "--out", str(out), *extra)
    assert code == 0
    return out


def test_full_pipeline_round_trip(tmp_path):
    sim = simulate_small(tmp_path)
    fits = [fit_rep(tmp_path, sim, rep=f"rep_{i:03d}") for i in range(2)]
    for fit_dir in fits:
        for artifact in ("eigenvalues.csv", "variance_explained.csv", "phi_x_0.lfpb",
                         "phi_x_1.lfpb", "phi_w.lfpb", "u.lfpb", "s.csv", "scores.csv",
                         "manifest.json", "model.json", "mean.lfpb"):
            assert (fit_dir / artifact).is_file(), artifact
        assert not (fit_dir / "centered.lfpb").exists()
    metrics = tmp_path / "metrics.csv"
    code = run("evaluate", "--truth", str(sim), "--fit", str(tmp_path / "fit"),
               "--out", str(metrics))
    assert code == 0
    with open(metrics) as fh:
        rows = list(csv.DictReader(fh))
    kinds = {row["kind"] for row in rows}
    assert kinds == {"replication", "aggregate"}
    agg = [row for row in rows if row["kind"] == "aggregate" and row["family"] == "x0"]
    assert len(agg) == 4
    for row in agg:
        assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)? \(-?\d+(\.\d+)?(e-?\d+)?\)", row["cell"])


def test_manifest_contents(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["config"]["nx"] == 4 and manifest["config"]["nw"] == 4
    assert set(manifest["input_hashes"]) == {str(sim / "rep_000" / "panel.lfpb"),
                                             str(sim / "rep_000" / "meta.csv")}
    for key in ("timing_seconds", "r", "clipped_count", "sigma2", "version"):
        assert key in manifest
    from lfpca.limits import BLUP_CONDITION_LIMIT, FF_CONDITION_LIMIT, RANK_EPS
    assert manifest["config"]["condition_limit_ff"] == FF_CONDITION_LIMIT
    assert manifest["config"]["condition_limit_blup"] == BLUP_CONDITION_LIMIT
    assert manifest["config"]["rank_eps"] == RANK_EPS
    assert manifest["config"]["var_threshold"] == 0.9999
    assert manifest["config"]["order_threshold"] is None  # both orders given
    assert not {"model", "backend", "seed"} & set(manifest["config"])
    # diagnostics the fit computes: design conditioning, scoring, spectrum mass
    # of the design the fit uses: the covariates are standardised first
    design = normalize_covariates(read_metadata(sim / "rep_000" / "meta.csv"))[0]
    assert manifest["design_condition_number"] == validate_design(design).condition_number
    assert manifest["rank_deficient_subjects"] == 0
    arr = read_panel(sim / "rep_000" / "panel.lfpb").to_array()
    total = np.sum((arr - arr.mean(axis=1, keepdims=True)) ** 2)
    s = np.loadtxt(fit_dir / "s.csv", delimiter=",", ndmin=1)
    assert manifest["retained_mass"] == pytest.approx(s.sum() / total, rel=1e-10)
    assert 0.9999 - 1e-12 <= manifest["retained_mass"] <= 1 + 1e-12
    # the spectra's solver paths and the tolerances they were certified to:
    # this noisy panel's matrices are too small for a Krylov basis, while a
    # noise-free one has a Gram of rank at most 12 whose top pairs certify
    from lfpca.limits import EIGEN_RESIDUAL_TOL, EIGEN_VECTOR_TOL
    assert manifest["config"]["eigen_residual_tol"] == EIGEN_RESIDUAL_TOL
    assert manifest["config"]["eigen_vector_tol"] == EIGEN_VECTOR_TOL
    assert manifest["eigensolvers"] == {name: {"path": "dense"} for name in ("gram", "k_x", "k_w")}
    clean = simulate_small(tmp_path, name="clean", reps=1, p=100, sigma2="0", subjects=40)
    clean_fit = fit_rep(tmp_path, clean, name="fit_clean")
    gram = json.loads((clean_fit / "manifest.json").read_text())["eigensolvers"]["gram"]
    assert gram["path"] == "krylov" and gram["steps"] >= 1
    assert 0 <= gram["residual"] <= EIGEN_RESIDUAL_TOL


def test_manifest_data_hash_is_sha256_of_file(tmp_path):
    # taken from the Gram pass's reads at any slicing and thread count; the
    # lift (with or without --write-v) reads the rows again without feeding it
    sim = simulate_small(tmp_path, reps=1)
    data, meta = tmp_path / "panel3.lfpb", sim / "rep_000" / "meta.csv"
    write_panel(read_panel(sim / "rep_000" / "panel.lfpb").with_slices(3), data)
    want = {str(data): hashlib.sha256(data.read_bytes()).hexdigest(),
            str(meta): hashlib.sha256(meta.read_bytes()).hexdigest()}
    runs = [("--slices", s, "--threads", t) for s in ("1", "3", "7") for t in ("1", "2")]
    runs.append(("--write-v", "--slices", "7", "--threads", "2"))
    for i, extra in enumerate(runs):
        out = tmp_path / f"fit{i}"
        assert run("fit", "--data", str(data), "--meta", str(meta), "--nx", "4", "--nw", "4",
                   "--out", str(out), *extra) == 0
        assert json.loads((out / "manifest.json").read_text())["input_hashes"] == want, extra


def _rchar():
    """Bytes this process has passed through read calls, or None off Linux."""
    try:
        with open("/proc/self/io") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("rchar:"))
    except OSError:
        return None


def test_fit_reads_each_data_row_twice(tmp_path, rng, monkeypatch):
    # the Gram pass (which also hashes) and the lift; nothing else reads the payload
    design = make_design(rng, n_subjects=6, visits=3)
    p = 20000
    arr = rng.standard_normal((p, design.n))
    data, meta = tmp_path / "p.lfpb", tmp_path / "m.csv"
    write_panel(DataPanel.from_array(arr, n_slices=3), data)
    write_metadata(design, meta)
    argv = ["fit", "--data", str(data), "--meta", str(meta), "--nx", "2", "--nw", "2",
            "--slices", "5", "--threads", "2"]
    assert run(*argv, "--out", str(tmp_path / "warm")) == 0  # imports, caches

    reads = np.zeros(p, dtype=int)
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        if self._path == data:
            reads[start:stop] += 1
        return read_rows(self, start, stop)

    hashed = []
    sha256_file = cli._sha256

    def recording(path):
        hashed.append(str(path))
        return sha256_file(path)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    monkeypatch.setattr(cli, "_sha256", recording)
    before = _rchar()
    assert run(*argv, "--out", str(tmp_path / "fit")) == 0
    after = _rchar()
    np.testing.assert_array_equal(reads, 2)
    assert hashed == [str(meta)]
    if before is not None:
        payload = p * design.n * 8
        assert 2 * payload <= after - before < 2.25 * payload

    # only lfpca fit makes a digest
    digests = []
    sha256 = hashlib.sha256

    def counting_sha256(*args):
        digests.append(args)
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    fit_panel(DataPanel.from_array(arr), design, n_x=2, n_w=2)
    fit_panel(read_panel(data), design, n_x=2, n_w=2)
    assert run("scores", "--model", str(tmp_path / "fit"), "--data", str(data),
               "--meta", str(meta), "--out", str(tmp_path / "scores.csv")) == 0
    assert digests == []
    assert run(*argv, "--out", str(tmp_path / "again")) == 0
    assert len(digests) == 2  # the data file and the metadata CSV


def test_fit_one_slice_file_in_budget_blocks(tmp_path, rng, monkeypatch):
    # a one-slice file under a small block budget: each payload row is still
    # read twice, also with --write-v, the manifest hash is still the file's
    # sha256, phi_*.lfpb and v.lfpb keep the one-slice table and match the
    # unsplit fit
    design = make_design(rng, n_subjects=6, visits=3)
    p = 20000
    data, meta = tmp_path / "p.lfpb", tmp_path / "m.csv"
    write_panel(DataPanel.from_array(rng.standard_normal((p, design.n))), data)
    write_metadata(design, meta)
    argv = ["fit", "--data", str(data), "--meta", str(meta), "--nx", "2", "--nw", "2",
            "--threads", "2", "--write-v"]
    assert run(*argv, "--out", str(tmp_path / "whole")) == 0

    budget = 16 * 1024
    monkeypatch.setattr(panel_module, "BLOCK_BYTES", budget)
    reads = []
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        if self._path == data:
            reads.append((start, stop))
        return read_rows(self, start, stop)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    for out, extra in (("split", argv[:-1]), ("split_v", argv)):
        reads.clear()
        assert run(*extra, "--out", str(tmp_path / out)) == 0
        counts = np.zeros(p, dtype=int)
        for start, stop in reads:
            counts[start:stop] += 1
        np.testing.assert_array_equal(counts, 2)
        assert max(stop - start for start, stop in reads) == budget // (8 * design.n)
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["input_hashes"][str(data)] == \
            hashlib.sha256(data.read_bytes()).hexdigest()

    for name in ("phi_x_0.lfpb", "phi_x_1.lfpb", "phi_w.lfpb", "v.lfpb"):
        split = read_panel(tmp_path / ("split_v" if name == "v.lfpb" else "split") / name)
        assert split.row_starts == [0, p]
        whole = read_panel(tmp_path / "whole" / name).to_array()
        assert np.abs(split.to_array() - whole).max() <= 1e-12
    split_scores = read_scores_csv(tmp_path / "split" / "scores.csv").xi
    whole_scores = read_scores_csv(tmp_path / "whole" / "scores.csv").xi
    assert np.abs(split_scores - whole_scores).max() <= 1e-12 * np.abs(whole_scores).max()


def test_failed_refit_leaves_earlier_model(tmp_path, monkeypatch):
    # outputs are staged in a sibling directory and moved into --out only
    # after manifest.json is written
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    before = {f.name: f.read_bytes() for f in fit_dir.iterdir()}
    argv = ["fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
            "--meta", str(sim / "rep_000" / "meta.csv"), "--nx", "3", "--nw", "3",
            "--out", str(fit_dir)]

    def failing_save(model, outdir):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "save_model", failing_save)
        with pytest.raises(OSError, match="disk full"):
            run(*argv)
    assert {f.name: f.read_bytes() for f in fit_dir.iterdir()} == before
    assert [d.name for d in fit_dir.parent.iterdir()] == [fit_dir.name]
    model = load_model(fit_dir)
    assert model.n_x == 4 and model.phi_w.n == 4
    # the same re-fit without the failure replaces the model
    assert run(*argv) == 0
    assert [d.name for d in fit_dir.parent.iterdir()] == [fit_dir.name]
    model = load_model(fit_dir)
    assert model.n_x == 3 and model.phi_w.n == 3


def test_refit_removes_stale_optional_outputs(tmp_path):
    # a plain re-fit removes the v.lfpb and h.csv of an earlier --write-v
    # --dump-h fit and the u.csv of a fit before u.lfpb, and leaves files
    # that lfpca fit never writes alone
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim, extra=("--write-v", "--dump-h"))
    assert (fit_dir / "v.lfpb").is_file() and (fit_dir / "h.csv").is_file()
    (fit_dir / "notes.txt").write_text("kept")
    (fit_dir / "u.csv").write_text("0.5,0.5\n")
    fit_rep(tmp_path, sim, extra=("--rank", "10"))
    assert not (fit_dir / "v.lfpb").exists() and not (fit_dir / "h.csv").exists()
    assert not (fit_dir / "u.csv").exists() and (fit_dir / "u.lfpb").is_file()
    assert (fit_dir / "notes.txt").read_text() == "kept"
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["config"]["rank"] == 10 and manifest["config"]["var_threshold"] is None
    assert manifest["r"] == 10  # an explicit rank is used as given


def test_simulate_identical_seeds_identical_trees(tmp_path):
    a = simulate_small(tmp_path, name="a", reps=2, seed=33)
    b = simulate_small(tmp_path, name="b", reps=2, seed=33)
    diffs = []

    def walk(cmp):
        diffs.extend(cmp.diff_files + cmp.left_only + cmp.right_only + cmp.funny_files)
        for sub in cmp.subdirs.values():
            walk(sub)

    walk(filecmp.dircmp(a, b, ignore=[]))
    assert diffs == []
    # different seed changes the panels
    c = simulate_small(tmp_path, name="c", reps=1, seed=34)
    assert (a / "rep_000" / "panel.lfpb").read_bytes() != \
        (c / "rep_000" / "panel.lfpb").read_bytes()


def test_fit_numeric_artifacts_deterministic(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_a = fit_rep(tmp_path, sim, name="fa")
    fit_b = fit_rep(tmp_path, sim, name="fb")
    for artifact in ("eigenvalues.csv", "u.lfpb", "s.csv", "scores.csv",
                     "variance_explained.csv", "model.json", "phi_w.lfpb"):
        assert (fit_a / artifact).read_bytes() == (fit_b / artifact).read_bytes(), artifact


def test_scores_on_training_panel_reproduces_fit_scores(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    out = tmp_path / "rescored.csv"
    code = run("scores", "--model", str(fit_dir), "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"), "--out", str(out))
    assert code == 0
    fit_scores = read_scores_csv(fit_dir / "scores.csv")
    rescored = read_scores_csv(out)
    assert np.abs(fit_scores.xi_matrix() - rescored.xi_matrix()).max() <= 1e-10
    assert np.abs(fit_scores.zeta_matrix() - rescored.zeta_matrix()).max() <= 1e-10


def test_scores_zero_panel_gives_zero_scores(tmp_path, rng):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    model_meta = json.loads((fit_dir / "model.json").read_text())
    # a new panel exactly equal to the stored mean in every column
    mean = read_panel(fit_dir / "mean.lfpb").to_array()[:, 0]
    design = make_design(rng, n_subjects=3, visits=3)
    panel = DataPanel.from_array(np.tile(mean[:, None], (1, design.n)))
    write_panel(panel, tmp_path / "flat.lfpb")
    write_metadata(design, tmp_path / "flat_meta.csv")
    out = tmp_path / "zero_scores.csv"
    assert run("scores", "--model", str(fit_dir), "--data", str(tmp_path / "flat.lfpb"),
               "--meta", str(tmp_path / "flat_meta.csv"), "--out", str(out)) == 0
    scores = read_scores_csv(out)
    assert np.abs(scores.xi_matrix()).max() <= 1e-10
    assert model_meta["p"] == panel.p


def test_scores_held_out_exact_model_data(tmp_path, rng):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    from lfpca import generate_from_model, load_model, read_metadata
    model = load_model(fit_dir)
    design = read_metadata(sim / "rep_000" / "meta.csv")
    panel, truth = generate_from_model(model, design, score_law="normal", sigma2=0.0,
                                       seed=77)
    write_panel(panel, tmp_path / "heldout.lfpb")
    write_metadata(design, tmp_path / "heldout_meta.csv")
    out = tmp_path / "heldout_scores.csv"
    assert run("scores", "--model", str(fit_dir), "--data", str(tmp_path / "heldout.lfpb"),
               "--meta", str(tmp_path / "heldout_meta.csv"), "--out", str(out)) == 0
    scores = read_scores_csv(out)
    scale = np.abs(truth.xi).max()
    assert np.abs(scores.xi_matrix() - truth.xi).max() <= 1e-8 * scale


# --- exit codes ---------------------------------------------------------------

def test_missing_metadata_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    code = run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "f"))
    assert code == 2


def test_nx_zero_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    code = run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"), "--nx", "0",
               "--out", str(tmp_path / "f"))
    assert code == 2


def test_threads_below_one_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    data, meta = str(sim / "rep_000" / "panel.lfpb"), str(sim / "rep_000" / "meta.csv")
    for threads in ("0", "-2"):
        assert run("fit", "--data", data, "--meta", meta, "--threads", threads,
                   "--out", str(tmp_path / "f")) == 2
        assert run("scores", "--model", str(fit_dir), "--data", data, "--meta", meta,
                   "--threads", threads, "--out", str(tmp_path / "s.csv")) == 2
    assert not (tmp_path / "f").exists() and not (tmp_path / "s.csv").exists()


def test_order_threshold_outside_unit_interval_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    for value in ("5.0", "0", "-0.5"):
        assert run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
                   "--meta", str(sim / "rep_000" / "meta.csv"), "--order-threshold", value,
                   "--out", str(tmp_path / "f")) == 2
    assert not (tmp_path / "f").exists()


def _score_and_evaluate(rep_dir, fit_dir, out_dir):
    """Exit codes of ``lfpca scores`` and ``lfpca evaluate`` against ``fit_dir``."""
    return (run("scores", "--model", str(fit_dir), "--data", str(rep_dir / "panel.lfpb"),
                "--meta", str(rep_dir / "meta.csv"), "--out", str(out_dir / "s.csv")),
            run("evaluate", "--truth", str(rep_dir), "--fit", str(fit_dir),
                "--out", str(out_dir / "m.csv")))


@pytest.fixture(scope="module")
def saved_fit(tmp_path_factory):
    """A simulated p=200 replication directory and a q=1 fit of it, which
    scores and evaluates as it is."""
    tmp = tmp_path_factory.mktemp("saved")
    sim = simulate_small(tmp, reps=1, p=200)
    fit_dir = fit_rep(tmp, sim)
    assert _score_and_evaluate(sim / "rep_000", fit_dir, tmp) == (0, 0)
    return sim / "rep_000", fit_dir


def _edit_json(change):
    def corrupt(fit_dir):
        meta = json.loads((fit_dir / "model.json").read_text())
        change(meta)
        (fit_dir / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return corrupt


def _edit_panel(name, change):
    def corrupt(fit_dir):
        arr = read_panel(fit_dir / name).to_array()
        write_panel(DataPanel.from_array(change(arr)), fit_dir / name)
    return corrupt


MODEL_CORRUPTIONS = {
    "r": (_edit_json(lambda m: m.update(r=m["r"] + 1)), r"model\.json: 'r' is"),
    "n_x": (_edit_json(lambda m: m.update(n_x=m["n_x"] - 1)), r"model\.json: 'n_x' is"),
    "p": (_edit_json(lambda m: m.update(p=m["p"] - 1)),
          r"mean\.lfpb is 200 x 1, but model\.json gives p x 1 = 199 x 1"),
    "short-lambda_x": (_edit_json(lambda m: m["lambda_x"].pop()), r"model\.json: .*'lambda_x'"),
    "a_x-column": (_edit_json(lambda m: [row.pop() for row in m["a_x"]]),
                   r"model\.json: .*'a_x'"),
    "no-sigma2": (_edit_json(lambda m: m.pop("sigma2")), r"model\.json: missing key.*'sigma2'"),
    "bad-json": (lambda fit_dir: (fit_dir / "model.json").write_text('{"p": 200,'),
                 r"model\.json does not parse"),
    "phi_w-rows": (_edit_panel("phi_w.lfpb", lambda a: a[:120]), r"phi_w\.lfpb is 120 x"),
    "mean-columns": (_edit_panel("mean.lfpb", lambda a: np.hstack([a, a])),
                     r"mean\.lfpb is 200 x 2"),
    "nan-a_x": (_edit_json(lambda m: m["a_x"][0].__setitem__(0, float("nan"))),
                r"model\.json: 'a_x' holds non-finite values"),
    "inf-sigma2": (_edit_json(lambda m: m.update(sigma2=float("inf"))),
                   r"model\.json: bad 'sigma2'.*expected a finite number"),
    "text-scale": (_edit_json(lambda m: m["covariate_scaling"][0].update(scale="x")),
                   r"model\.json: bad 'covariate_scaling'.*expected a finite number"),
    "inf-scale": (_edit_json(lambda m: m["covariate_scaling"][0].update(scale=float("inf"))),
                  r"model\.json: bad 'covariate_scaling'.*expected a finite number"),
    "zero-scale": (_edit_json(lambda m: m["covariate_scaling"][0].update(scale=0)),
                   r"model\.json: bad 'covariate_scaling'.*scale must be positive"),
    "scale-column": (_edit_json(lambda m: m["covariate_scaling"][0].update(column=2)),
                     r"model\.json: bad 'covariate_scaling'.*column must be in \[1, 1\]"),
    "a_x-rows": (_edit_json(lambda m: m["a_x"].pop()),
                 r"model\.json: 'a_x' has \d+ rows, expected \(q\+1\) r = \d+ for q=1"),
    "not-an-object": (lambda fit_dir: (fit_dir / "model.json").write_text("[1, 2]"),
                      r"model\.json must hold a JSON object"),
    "fractional-p": (_edit_json(lambda m: m.update(p=200.5)),
                     r"model\.json: bad 'p'.*expected a non-negative integer"),
    "nan-mean": (_edit_panel("mean.lfpb",
                             lambda a: np.where(np.arange(200)[:, None] == 7, np.nan, a)),
                 r"mean\.lfpb: non-finite values in rows \[0, 200\), first at row 7"),
}


@pytest.mark.parametrize("corrupt, message", MODEL_CORRUPTIONS.values(),
                         ids=list(MODEL_CORRUPTIONS))
def test_corrupt_model_directory_exits_2(saved_fit, tmp_path, capsys, corrupt, message):
    # a model directory is input from outside: every fault is refused by
    # name, never scored without a word or ended by a traceback
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    corrupt(tmp_path / "fit")
    capsys.readouterr()
    scores, evaluate = _score_and_evaluate(rep_dir, tmp_path / "fit", tmp_path)
    errors = capsys.readouterr().err.splitlines()
    assert (scores, evaluate) == (2, 2)
    assert len(errors) == 2 and all(re.search(message, line) for line in errors), errors
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.csv").exists()


def _edit_truth_json(change):
    def corrupt(truth_dir):
        meta = json.loads((truth_dir / "truth.json").read_text())
        change(meta)
        (truth_dir / "truth.json").write_text(json.dumps(meta))
    return corrupt


def _drop_lines(name, marker):
    def corrupt(directory):
        lines = (directory / name).read_text().splitlines(keepends=True)
        (directory / name).write_text("".join(line for line in lines if marker not in line))
    return corrupt


TRUTH_CORRUPTIONS = {
    "no-lambda_w": (_edit_truth_json(lambda m: m.pop("lambda_w")),
                    r"truth\.json: missing key.*'lambda_w'"),
    "bad-json": (lambda truth_dir: (truth_dir / "truth.json").write_text("{"),
                 r"truth\.json does not parse"),
    "short-lambda_x": (_edit_truth_json(lambda m: m.update(lambda_x=m["lambda_x"][:3])),
                       r"truth\.json: 'n_x' is 4, but there are 3 values in 'lambda_x'"),
    "phi_x_1-columns": (_edit_panel("phi_x_1.lfpb", lambda a: a[:, :3]),
                        r"phi_x_1\.lfpb is 200 x 3, but truth\.json gives p x n_x = 200 x 4"),
    "xi-components": (_drop_lines("scores.csv", ",xi,,3,"),
                      r"scores\.csv has 3 xi and 4 zeta components, but truth\.json gives n_x = 4"),
    "no-phi_x_0": (lambda truth_dir: (truth_dir / "phi_x_0.lfpb").unlink(),
                   r"no phi_x_0\.lfpb in .*truth"),
}


@pytest.mark.parametrize("corrupt, message", TRUTH_CORRUPTIONS.values(),
                         ids=list(TRUTH_CORRUPTIONS))
def test_corrupt_truth_directory_exits_2(saved_fit, tmp_path, capsys, corrupt, message):
    # a truth directory is checked like a model directory: refused by name
    rep_dir, fit_dir = saved_fit
    shutil.copytree(rep_dir / "truth", tmp_path / "rep" / "truth")
    corrupt(tmp_path / "rep" / "truth")
    capsys.readouterr()
    assert run("evaluate", "--truth", str(tmp_path / "rep"), "--fit", str(fit_dir),
               "--out", str(tmp_path / "m.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(message, errors[0]), errors
    assert not (tmp_path / "m.csv").exists()


def test_malformed_scores_row_exits_2_from_evaluate(saved_fit, tmp_path, capsys):
    # read_scores_csv's refusals (see test_blup) reach the user as exit 2
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    scores_path = tmp_path / "fit" / "scores.csv"
    lines = scores_path.read_text().splitlines()
    scores_path.write_text("\n".join(lines + ["s000,xi,,0,1.5,7"]) + "\n")
    capsys.readouterr()
    assert run("evaluate", "--truth", str(rep_dir), "--fit", str(tmp_path / "fit"),
               "--out", str(tmp_path / "m.csv")) == 2
    assert f"scores.csv:{len(lines) + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("marker, message", [
    (",xi,,3,", r"fit/scores\.csv has 3 xi and 4 zeta components, "
                r"but model\.json gives n_x = 4 and n_w = 4"),
    ("subj0019,", r"fit/scores\.csv has scores for 19 subjects and 76 visits, "
                  r"but the truth in .* has 20 and 80"),
], ids=["xi-component", "subject"])
def test_evaluate_checks_fit_scores_against_model_and_truth(saved_fit, tmp_path, capsys,
                                                            marker, message):
    # a fit's scores.csv that lacks a component or a subject is refused by
    # name before anything is compared, not ended by a broadcast error
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    _drop_lines("scores.csv", marker)(tmp_path / "fit")
    capsys.readouterr()
    assert run("evaluate", "--truth", str(rep_dir), "--fit", str(tmp_path / "fit"),
               "--out", str(tmp_path / "m.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(message, errors[0]), errors
    assert not (tmp_path / "m.csv").exists()


def test_evaluate_pairs_fit_scores_with_truth_by_subject(saved_fit, tmp_path, capsys):
    # scores are compared subject by subject, so a fit whose subject ids are
    # out of the truth's order is refused by name, not compared by position
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    path = tmp_path / "fit" / "scores.csv"
    text = path.read_text().replace("subj0003", "swap")
    path.write_text(text.replace("subj0004", "subj0003").replace("swap", "subj0004"))
    capsys.readouterr()
    assert run("evaluate", "--truth", str(rep_dir), "--fit", str(tmp_path / "fit"),
               "--out", str(tmp_path / "m.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(
        r"fit/scores\.csv: subject 4 is subj0004 with 4 visits, but in the truth in .* "
        r"it is subj0003 with 4$", errors[0]), errors
    assert not (tmp_path / "m.csv").exists()


def test_scores_refuses_nonfinite_basis_by_file(saved_fit, tmp_path, capsys):
    # a model basis is input from outside: an inf in it is refused by file
    # and row as the scoring pass reads it, not turned into nan scores
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    arr = read_panel(tmp_path / "fit" / "phi_w.lfpb").to_array()
    arr[123, 2] = np.inf
    write_panel(DataPanel.from_array(arr), tmp_path / "fit" / "phi_w.lfpb")
    capsys.readouterr()
    assert run("scores", "--model", str(tmp_path / "fit"), "--data",
               str(rep_dir / "panel.lfpb"), "--meta", str(rep_dir / "meta.csv"),
               "--out", str(tmp_path / "s.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(
        r"fit/phi_w\.lfpb: non-finite values in rows \[0, 200\), first at row 123$",
        errors[0]), errors
    assert not (tmp_path / "s.csv").exists()


def test_evaluate_refuses_nonfinite_basis_by_file(saved_fit, tmp_path, capsys):
    # evaluate reads the bases whole; an inf in one is refused as scoring
    # refuses it, not written into the table as an inf distance
    rep_dir, fit_dir = saved_fit
    shutil.copytree(fit_dir, tmp_path / "fit")
    arr = read_panel(tmp_path / "fit" / "phi_w.lfpb").to_array()
    arr[5, 0] = np.inf
    write_panel(DataPanel.from_array(arr), tmp_path / "fit" / "phi_w.lfpb")
    capsys.readouterr()
    assert run("evaluate", "--truth", str(rep_dir), "--fit", str(tmp_path / "fit"),
               "--out", str(tmp_path / "m.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(
        r"fit/phi_w\.lfpb: non-finite values in rows \[0, 200\), first at row 5$",
        errors[0]), errors
    assert not (tmp_path / "m.csv").exists()


def test_evaluate_checks_fit_q_against_truth(saved_fit, tmp_path, capsys):
    # a fit with a second covariate against a q=1 truth is refused by name,
    # not ended by an IndexError
    rep_dir, _ = saved_fit
    design = read_metadata(rep_dir / "meta.csv")
    z = np.column_stack([design.stacked_z(), np.random.default_rng(3).uniform(-1, 1, design.n)])
    write_metadata(StudyDesign(design.subject_ids, design.visit_counts, z), tmp_path / "meta.csv")
    assert run("fit", "--data", str(rep_dir / "panel.lfpb"), "--meta", str(tmp_path / "meta.csv"),
               "--nx", "4", "--nw", "4", "--out", str(tmp_path / "fit")) == 0
    capsys.readouterr()
    assert run("evaluate", "--truth", str(rep_dir), "--fit", str(tmp_path / "fit"),
               "--out", str(tmp_path / "m.csv")) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and re.search(
        r"fit/model\.json: 'q' is 2, but the truth in .* has q = 1", errors[0]), errors
    assert not (tmp_path / "m.csv").exists()


def test_scores_nonfinite_panel_exits_4_like_fit(saved_fit, tmp_path, capsys):
    # scoring refuses a NaN as the fit does, with the same message, and
    # writes no scores
    rep_dir, fit_dir = saved_fit
    arr = read_panel(rep_dir / "panel.lfpb").to_array()
    arr[17, 5] = np.nan
    write_panel(DataPanel.from_array(arr), tmp_path / "nan.lfpb")
    meta = str(rep_dir / "meta.csv")
    capsys.readouterr()
    assert run("scores", "--model", str(fit_dir), "--data", str(tmp_path / "nan.lfpb"),
               "--meta", meta, "--out", str(tmp_path / "s.csv")) == 4
    assert run("fit", "--data", str(tmp_path / "nan.lfpb"), "--meta", meta,
               "--out", str(tmp_path / "f")) == 4
    errors = capsys.readouterr().err.splitlines()
    assert errors == ["numerical error: non-finite input in rows [0, 200), first at row 17"] * 2
    assert not (tmp_path / "s.csv").exists()


def _fit_reads_nothing(tmp_path, monkeypatch, *extra):
    """Exit code of a fit on a small simulated panel, asserting that it read
    no data row."""
    sim = simulate_small(tmp_path, reps=1)
    calls = []
    read_rows = DataPanel.read_rows

    def counting(self, start, stop):
        calls.append((start, stop))
        return read_rows(self, start, stop)

    monkeypatch.setattr(DataPanel, "read_rows", counting)
    code = run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"), *extra,
               "--out", str(tmp_path / "f"))
    assert calls == []
    assert not (tmp_path / "f").exists()
    return code


def test_var_threshold_outside_unit_interval_exits_2_before_reading(tmp_path, monkeypatch):
    assert _fit_reads_nothing(tmp_path, monkeypatch, "--var-threshold", "5") == 2


def test_var_threshold_with_integer_rank_exits_2(tmp_path, monkeypatch):
    assert _fit_reads_nothing(tmp_path, monkeypatch, "--rank", "10",
                              "--var-threshold", "0.5") == 2


@pytest.mark.parametrize("value", ["junk", "0"])
def test_threads_env_it_cannot_honour_exits_2_before_reading(tmp_path, monkeypatch, value):
    monkeypatch.setenv("LFPCA_THREADS", value)
    assert _fit_reads_nothing(tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("extra", [
    ("--nx", "4", "--nw", "4", "--order-threshold", "0.5"),  # no order is automatic
    ("--rank", "3", "--nx", "4", "--nw", "4"),               # n_w > rank
    ("--rank", "1", "--nx", "3"),                            # n_x > (q+1) rank
    ("--rank", "0"),
    ("--rank", "-2"),
])
def test_option_the_fit_cannot_honour_exits_2_before_reading(tmp_path, monkeypatch, extra):
    assert _fit_reads_nothing(tmp_path, monkeypatch, *extra) == 2


@pytest.mark.parametrize("error, code", [(ValidationError, 2), (IdentifiabilityError, 3),
                                         (NumericalError, 4), (np.linalg.LinAlgError, 4)])
def test_error_class_sets_exit_code(tmp_path, monkeypatch, capsys, error, code):
    # the stable contract: each error class maps to its exit code, is reported
    # in one line with no traceback, and a failed fit leaves no --out behind
    sim = simulate_small(tmp_path, reps=1)

    def failing(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, "fit_panel", failing)
    capsys.readouterr()
    assert run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"), "--out", str(tmp_path / "f")) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("injected failure\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["sim"]


def test_reps_zero_exits_2(tmp_path):
    assert run("simulate", "--scenario", "1", "--p", "20", "--seed", "1",
               "--reps", "0", "--out", str(tmp_path / "s")) == 2


def test_unidentifiable_design_exits_3(tmp_path, rng):
    design = make_design(rng, n_subjects=6, visits=2)
    panel = DataPanel.from_array(rng.standard_normal((20, design.n)))
    write_panel(panel, tmp_path / "p.lfpb")
    write_metadata(design, tmp_path / "m.csv")
    code = run("fit", "--data", str(tmp_path / "p.lfpb"), "--meta", str(tmp_path / "m.csv"),
               "--out", str(tmp_path / "f"))
    assert code == 3


@pytest.mark.parametrize("shift, scale, extra, code", [
    (2005.0, 1.0, (), 0),                   # calendar years
    (730000.0, 365.0, (), 0),               # days since an epoch
    (3.0, 0.0, (), 2),                      # constant: cannot be standardised
    (3.0, 0.0, ("--no-normalize",), 3),     # constant: moment design rank deficient
])
def test_visit_time_units_exit_code(tmp_path, rng, shift, scale, extra, code):
    # the design is validated after standardisation, so visit times in any
    # affine units fit like times since baseline
    design = make_design(rng, n_subjects=8, visits=4)
    write_metadata(map_times(design, shift, scale), tmp_path / "m.csv")
    write_panel(DataPanel.from_array(rng.standard_normal((30, design.n))), tmp_path / "p.lfpb")
    assert run("fit", "--data", str(tmp_path / "p.lfpb"), "--meta", str(tmp_path / "m.csv"),
               "--nx", "2", "--nw", "2", "--out", str(tmp_path / "f"), *extra) == code


def test_scenario2_with_p_override_exits_2(tmp_path):
    assert run("simulate", "--scenario", "2", "--p", "100", "--seed", "1",
               "--out", str(tmp_path / "s")) == 2


@pytest.mark.parametrize("flag, value", [("--sigma2", "nan"), ("--sigma2", "inf"),
                                         ("--seed", "-1"), ("--subjects", "0")])
def test_simulate_option_it_cannot_honour_exits_2_before_writing(tmp_path, flag, value):
    # every replication's spec is checked before --out is created
    assert run("simulate", "--scenario", "1", "--p", "20", "--reps", "2", flag, value,
               "--out", str(tmp_path / "s")) == 2
    assert not (tmp_path / "s").exists()


def test_scores_p_mismatch_exits_2(tmp_path, rng):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    design = make_design(rng, n_subjects=2, visits=3)
    write_panel(DataPanel.from_array(rng.standard_normal((7, design.n))),
                tmp_path / "wrong.lfpb")
    write_metadata(design, tmp_path / "wrong.csv")
    code = run("scores", "--model", str(fit_dir), "--data", str(tmp_path / "wrong.lfpb"),
               "--meta", str(tmp_path / "wrong.csv"), "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_evaluate_empty_fit_dir_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    empty = tmp_path / "empty"
    (empty / "rep_000").mkdir(parents=True)
    assert run("evaluate", "--truth", str(sim), "--fit", str(empty),
               "--out", str(tmp_path / "m.csv")) == 2


def test_evaluate_mismatched_orders_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    out = tmp_path / "fit3" / "rep_000"
    assert run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"),
               "--nx", "3", "--nw", "3", "--out", str(out)) == 0
    assert run("evaluate", "--truth", str(sim), "--fit", str(tmp_path / "fit3"),
               "--out", str(tmp_path / "m.csv")) == 2


def test_bad_rank_flag_exits_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    code = run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
               "--meta", str(sim / "rep_000" / "meta.csv"), "--rank", "half",
               "--out", str(tmp_path / "f"))
    assert code == 2


def test_unknown_flag_exits_2(tmp_path):
    assert run("simulate", "--scenario", "1", "--frobnicate", "--out", str(tmp_path)) == 2


def test_removed_fit_flags_exit_2(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    for flag in (("--model", "general"), ("--backend", "dense"), ("--seed", "0")):
        assert run("fit", "--data", str(sim / "rep_000" / "panel.lfpb"),
                   "--meta", str(sim / "rep_000" / "meta.csv"),
                   "--out", str(tmp_path / "fit"), *flag) == 2


# --- numeric precision and misc -------------------------------------------------

def test_csv_values_round_trip_at_full_precision(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    s_text = (fit_dir / "s.csv").read_text().split()
    s_loaded = np.array([float(v) for v in s_text])
    fit_scores = read_scores_csv(fit_dir / "scores.csv")
    # write -> parse -> write is a fixed point
    from lfpca import write_scores_csv
    write_scores_csv(fit_scores, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (fit_dir / "scores.csv").read_bytes()
    assert np.all(np.isfinite(s_loaded))


def test_threads_flag_matches_serial(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    serial = fit_rep(tmp_path, sim, name="serial", extra=("--threads", "1", "--slices", "5"))
    threaded = fit_rep(tmp_path, sim, name="threaded", extra=("--threads", "4", "--slices", "5"))
    for artifact in ("u.lfpb", "s.csv", "scores.csv", "phi_w.lfpb"):
        assert (serial / artifact).read_bytes() == (threaded / artifact).read_bytes()
    outputs = []
    for threads in ("1", "4"):
        outputs.append(tmp_path / f"scores_{threads}.csv")
        assert run("scores", "--model", str(serial), "--data", str(sim / "rep_000" / "panel.lfpb"),
                   "--meta", str(sim / "rep_000" / "meta.csv"), "--threads", threads,
                   "--out", str(outputs[-1])) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_dump_h_and_write_v(tmp_path):
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim, extra=("--dump-h", "--write-v"))
    assert (fit_dir / "h.csv").is_file()
    v = read_panel(fit_dir / "v.lfpb")
    assert v.p == 60
    arr = v.to_array()
    assert np.abs(arr.T @ arr - np.eye(arr.shape[1])).max() < 1e-8
    # the same bits as the V of a fit of the panel held in memory, and the
    # dense left vectors of the centered array
    raw = read_panel(sim / "rep_000" / "panel.lfpb")
    mem = DataPanel.from_array(raw.to_array(), n_slices=raw.n_slices)
    u = read_panel(fit_dir / "u.lfpb").to_array()
    s = np.loadtxt(fit_dir / "s.csv", delimiter=",", ndmin=1)
    in_memory = fit_panel(mem, read_metadata(sim / "rep_000" / "meta.csv"), n_x=4, n_w=4,
                          write_v=True)
    np.testing.assert_array_equal(arr, in_memory.v.to_array())
    cen = mem.to_array() - mem.to_array().mean(axis=1, keepdims=True)
    np.testing.assert_allclose(arr, cen @ (u / np.sqrt(s)), atol=1e-12)


def test_u_lfpb_holds_the_fitted_u(tmp_path):
    # the n x r right singular vectors as one LFPB slice, with their exact bits
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    rep = sim / "rep_000"
    res = fit_panel(read_panel(rep / "panel.lfpb"), read_metadata(rep / "meta.csv"),
                    n_x=4, n_w=4)
    u = read_panel(fit_dir / "u.lfpb")
    assert (u.p, u.n, u.row_starts) == (*res.decomposition.u.shape, [0, u.p])
    np.testing.assert_array_equal(u.to_array(), res.decomposition.u)
    assert not (fit_dir / "u.csv").exists()


def test_write_v_leaves_other_outputs_byte_identical(tmp_path):
    # V is its own product in the lift's pass, so asking for it moves no bit
    # of U, s, the scores or any lifted basis
    sim = simulate_small(tmp_path, reps=1)
    plain = fit_rep(tmp_path, sim, name="plain", extra=("--slices", "3", "--threads", "2"))
    with_v = fit_rep(tmp_path, sim, name="with_v",
                     extra=("--slices", "3", "--threads", "2", "--write-v"))
    phis = sorted(f.name for f in with_v.glob("phi_*.lfpb"))
    assert phis == ["phi_w.lfpb", "phi_x_0.lfpb", "phi_x_1.lfpb"]
    for artifact in ("u.lfpb", "s.csv", "scores.csv", *phis):
        assert (plain / artifact).read_bytes() == (with_v / artifact).read_bytes(), artifact
    assert not (plain / "v.lfpb").exists() and (with_v / "v.lfpb").is_file()


def test_convert_round_trip(tmp_path, rng):
    arr = rng.standard_normal((6, 4))
    write_panel(DataPanel.from_array(arr), tmp_path / "p.lfpb")
    # --slices sets the layout of a written panel; a CSV has none
    assert run("convert", "--to-csv", "--slices", "3", str(tmp_path / "p.lfpb"),
               str(tmp_path / "p.csv")) == 2
    assert not (tmp_path / "p.csv").exists()
    assert run("convert", "--to-csv", str(tmp_path / "p.lfpb"), str(tmp_path / "p.csv")) == 0
    assert run("convert", "--to-panel", str(tmp_path / "p.csv"), str(tmp_path / "q.lfpb")) == 0
    np.testing.assert_array_equal(read_panel(tmp_path / "q.lfpb").to_array(), arr)


def test_format_cell_matches_table_style():
    assert format_cell(0.034, 0.048) == "0.034 (0.048)"
    assert format_cell(0.07, 0.069) == "0.07 (0.069)"
    assert format_cell(1.19, 0.086) == "1.19 (0.086)"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lfpca.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lfpca" in proc.stdout


def test_fit_nonfinite_panel_exits_4(tmp_path, rng, capsys):
    design = make_design(rng, n_subjects=6, visits=3)
    arr = rng.standard_normal((12, design.n))
    arr[3, 4] = np.nan
    write_panel(DataPanel.from_array(arr), tmp_path / "nan.lfpb")
    write_metadata(design, tmp_path / "meta.csv")
    code = run("fit", "--data", str(tmp_path / "nan.lfpb"), "--meta",
               str(tmp_path / "meta.csv"), "--out", str(tmp_path / "f"))
    assert code == 4
    assert "first at row 3" in capsys.readouterr().err
    assert list((tmp_path / "f").glob("*.lfpb")) == []


def test_simulate_default_shape_750_by_400(tmp_path):
    out = tmp_path / "sim750"
    assert run("simulate", "--scenario", "1", "--p", "750", "--sigma2", "1e-4",
               "--seed", "7", "--reps", "1", "--out", str(out)) == 0
    panel = read_panel(out / "rep_000" / "panel.lfpb")
    assert panel.p == 750 and panel.n == 400


def test_evaluate_exact_recovery_regime(tmp_path):
    # truth that equals the fitted basis itself: every distance vanishes
    sim = simulate_small(tmp_path, reps=1)
    fit_dir = fit_rep(tmp_path, sim)
    from lfpca import load_model, read_metadata
    from lfpca.store import GroundTruth, save_truth
    import lfpca
    model = load_model(fit_dir)
    design = read_metadata(sim / "rep_000" / "meta.csv")
    scores = read_scores_csv(fit_dir / "scores.csv")
    truth = GroundTruth(phi_x=tuple(p.to_array() for p in model.phi_x),
                        phi_w=model.phi_w.to_array(),
                        lambda_x=model.lambda_x, lambda_w=model.lambda_w,
                        xi=scores.xi_matrix(), zeta=scores.zeta_matrix(),
                        subject_ids=list(design.subject_ids),
                        visit_counts=design.visit_counts.tolist(),
                        sigma2=0.0, seed=0, score_law="normal")
    truth_dir = tmp_path / "selftruth"
    save_truth(truth, truth_dir)
    metrics = tmp_path / "self_metrics.csv"
    assert run("evaluate", "--truth", str(truth_dir), "--fit", str(fit_dir),
               "--out", str(metrics)) == 0
    with open(metrics) as fh:
        rows = [r for r in csv.DictReader(fh) if r["kind"] == "replication"]
    assert rows and all(float(r["evec_sq_dist"]) < 1e-6 for r in rows)


def test_scenario2_cli_small_cohort(tmp_path):
    out = tmp_path / "sim2"
    assert run("simulate", "--scenario", "2", "--seed", "4", "--reps", "1",
               "--subjects", "10", "--visits", "4", "--out", str(out)) == 0
    panel = read_panel(out / "rep_000" / "panel.lfpb")
    assert panel.p == 30096 and panel.n == 40
    fit_dir = tmp_path / "fit2" / "rep_000"
    assert run("fit", "--data", str(out / "rep_000" / "panel.lfpb"),
               "--meta", str(out / "rep_000" / "meta.csv"),
               "--nx", "3", "--nw", "2", "--out", str(fit_dir)) == 0
    metrics = tmp_path / "m2.csv"
    assert run("evaluate", "--truth", str(out), "--fit", str(tmp_path / "fit2"),
               "--out", str(metrics)) == 0
    with open(metrics) as fh:
        rows = [r for r in csv.DictReader(fh) if r["kind"] == "aggregate" and r["family"] == "w"]
    assert len(rows) == 2
