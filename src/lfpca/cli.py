"""Command-line driver binding the pipeline end to end.

Commands: ``fit``, ``simulate``, ``evaluate``, ``scores``, ``convert``.
Exit codes are stable: 0 success, 2 validation/usage failure,
3 identifiability failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import resolve_threads
from .blup import score_new_panel
from .design import read_metadata, write_metadata
from .errors import IdentifiabilityError, NumericalError, ValidationError
from .fit import DEFAULT_ORDER_THRESHOLD, fit_panel, variance_explained
from .gram import DEFAULT_VAR_THRESHOLD
from .limits import (BLUP_CONDITION_LIMIT, EIGEN_RESIDUAL_TOL, EIGEN_VECTOR_TOL,
                     FF_CONDITION_LIMIT, RANK_EPS)
from .panel import (DataPanel, digest_panel, panel_from_csv, panel_to_csv, read_panel,
                    write_panel)
from .simulate import ScenarioSpec, evaluate, generate_scenario1, generate_scenario2
from .store import (MODEL_FILE, SCORES_FILE, TRUTH_DIR, TRUTH_FILE, V_FILE, basis_files,
                    load_model, load_truth, phi_x_files_in, read_scores_csv, save_model,
                    save_truth, write_scores_csv)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTIFIABILITY = 3
EXIT_NUMERICAL = 4


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IdentifiabilityError as exc:
        print(f"identifiability error: {exc}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lfpca",
                                     description="Longitudinal functional PCA toolkit")
    parser.add_argument("--version", action="version", version=f"lfpca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the model to a panel")
    fit.add_argument("--data", required=True, help="LFPB panel file")
    fit.add_argument("--meta", required=True, help="metadata CSV")
    fit.add_argument("--nx", type=int, default=None, help="subject-level components (default: auto)")
    fit.add_argument("--nw", type=int, default=None, help="visit-level components (default: auto)")
    fit.add_argument("--var-threshold", type=float, default=None,
                     help=f"spectrum mass kept when the rank is auto "
                          f"(default {DEFAULT_VAR_THRESHOLD}); not with an integer --rank")
    fit.add_argument("--order-threshold", type=float, default=None,
                     help=f"spectrum mass used to auto-select component counts "
                          f"(default {DEFAULT_ORDER_THRESHOLD}); not with both --nx and --nw")
    fit.add_argument("--slices", type=int, default=None, help="processing slice count")
    fit.add_argument("--rank", default="auto", help="retained rank, integer or 'auto'")
    fit.add_argument("--threads", type=int, default=None,
                     help="no effect: every data pass runs in one thread; a value (or "
                          "LFPCA_THREADS) that is not an integer >= 1 is still refused")
    fit.add_argument("--no-normalize", action="store_true",
                     help="skip covariate standardization")
    fit.add_argument("--write-v", action="store_true", help=f"also write {V_FILE}")
    fit.add_argument("--dump-h", action="store_true", help="also write the weight matrix H as CSV")
    fit.add_argument("--out", default="lfpca_fit", help="output directory")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="generate synthetic panels")
    sim.add_argument("--scenario", type=int, choices=[1, 2], required=True)
    sim.add_argument("--p", type=int, default=None, help="grid size (scenario 1 only)")
    sim.add_argument("--sigma2", type=float, default=None, help="white-noise variance")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--subjects", type=int, default=None)
    sim.add_argument("--visits", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("evaluate", help="compare fits against ground truth")
    ev.add_argument("--truth", required=True, help="simulation output directory")
    ev.add_argument("--fit", required=True, help="fit output directory")
    ev.add_argument("--out", required=True, help="metrics CSV")
    ev.set_defaults(func=cmd_evaluate)

    sc = sub.add_parser("scores", help="score new data under a saved model")
    sc.add_argument("--model", required=True, help="fit output directory")
    sc.add_argument("--data", required=True, help="LFPB panel file")
    sc.add_argument("--meta", required=True, help="metadata CSV")
    sc.add_argument("--threads", type=int, default=None, help="as for fit: no effect")
    sc.add_argument("--out", required=True, help="scores CSV")
    sc.set_defaults(func=cmd_scores)

    cv = sub.add_parser("convert", help="convert panels to/from CSV (debugging, small p)")
    direction = cv.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-csv", action="store_true")
    direction.add_argument("--to-panel", action="store_true")
    cv.add_argument("--slices", type=int, default=None,
                    help="slice count of the written panel (--to-panel only; default 1)")
    cv.add_argument("input")
    cv.add_argument("output")
    cv.set_defaults(func=cmd_convert)
    return parser


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    t0 = time.monotonic()
    resolve_threads(args.threads)
    rank = _parse_rank(args.rank)
    outdir = _output_dir(args.out)
    panel = digest_panel(read_panel(args.data))
    design = read_metadata(args.meta)
    if args.slices is not None:
        panel = panel.with_slices(args.slices)
    with _staged_dir(outdir) as stage:
        result = fit_panel(panel, design, n_x=args.nx, n_w=args.nw, rank=rank,
                           var_threshold=args.var_threshold,
                           order_threshold=args.order_threshold,
                           normalize=not args.no_normalize,
                           workdir=stage, write_v=args.write_v)
        data_hash = panel.digest.hexdigest()
        model, decomp = result.model, result.decomposition
        _write_eigenvalues(stage / "eigenvalues.csv", model)
        variance_explained(model).write_csv(stage / "variance_explained.csv")
        write_panel(DataPanel.from_array(decomp.u), stage / "u.lfpb")
        np.savetxt(stage / "s.csv", decomp.s, delimiter=",", fmt="%.17g")
        write_scores_csv(result.scores, stage / SCORES_FILE)
        save_model(model, stage)
        if args.dump_h:
            np.savetxt(stage / "h.csv", result.mom.h, delimiter=",", fmt="%.17g")

        manifest = {
            "command": "fit",
            "version": __version__,
            "config": {
                "nx": model.n_x, "nw": model.n_w, **result.options, "slices": panel.n_slices,
                "condition_limit_ff": FF_CONDITION_LIMIT,
                "condition_limit_blup": BLUP_CONDITION_LIMIT, "rank_eps": RANK_EPS,
                "eigen_residual_tol": EIGEN_RESIDUAL_TOL, "eigen_vector_tol": EIGEN_VECTOR_TOL,
            },
            "input_hashes": {args.data: data_hash, args.meta: _sha256(args.meta)},
            "timing_seconds": round(time.monotonic() - t0, 6),
            "peak_rss_mb": _peak_rss_mb(),
            "p": model.p, "n": model.n, "q": model.q, "r": model.r,
            "clipped_count": model.clipped_count,
            "sigma2": model.sigma2,
            "design_condition_number": result.report.condition_number,
            "rank_deficient_subjects": int(result.scores.rank_deficient.sum()),
            "retained_mass": float(decomp.s.sum() / decomp.total_gram_trace),
            "eigensolvers": result.eigensolvers,
        }
        with open(stage / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"fit complete: r={model.r}, n_x={model.n_x}, n_w={model.n_w}, "
          f"sigma2={model.sigma2:.6g}, out={outdir}")
    return EXIT_OK


# Fit outputs that depend on the options, and the u.csv of fits before
# u.lfpb: an earlier fit's copy that the current fit does not write is
# removed from --out, as are the phi_x files of an earlier fit of larger q.
_OPTIONAL_OUTPUTS = (V_FILE, "h.csv", "u.csv")


@contextlib.contextmanager
def _staged_dir(outdir: Path):
    """A temporary sibling directory of ``outdir`` whose files are moved
    into ``outdir``, in place of an earlier fit's, when the block ends
    without error. It is removed either way, so a fit that fails before the
    move leaves ``outdir`` as it was. The earlier ``model.json`` is removed
    before anything else changes and the new one is moved last, so a move
    that fails partway leaves a directory that ``load_model`` refuses, never
    a mix of two fits that loads."""
    outdir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    try:
        yield stage
        outdir.mkdir(exist_ok=True)
        (outdir / MODEL_FILE).unlink(missing_ok=True)
        for name in [*_OPTIONAL_OUTPUTS, *phi_x_files_in(outdir)]:
            if not (stage / name).exists():
                (outdir / name).unlink(missing_ok=True)
        for path in sorted(stage.iterdir(), key=lambda path: path.name == MODEL_FILE):
            os.replace(path, outdir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _output_dir(path) -> Path:
    """``path`` as an output directory, refused before any work when it, or
    the nearest of its parents that exists, is not a directory."""
    path = Path(path)
    existing = next(found for found in (path, *path.parents) if found.exists())
    if not existing.is_dir():
        raise ValidationError(f"cannot write output directory {path}: "
                              f"{existing} is not a directory")
    return path


def _output_file(path) -> Path:
    """``path`` as an output file, refused before any work when it is a
    directory or its directory does not exist."""
    path = _not_a_directory(path)
    if not path.parent.is_dir():
        raise ValidationError(f"cannot write output file {path}: "
                              f"no directory {path.parent}")
    return path


def _not_a_directory(path) -> Path:
    """``path`` as an output file, refused before any work when it is a directory."""
    path = Path(path)
    if path.is_dir():
        raise ValidationError(f"cannot write output file {path}: it is a directory")
    return path


def _parse_rank(raw):
    if raw is None or raw == "auto":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"--rank must be an integer or 'auto', got {raw!r}") from None


def _write_eigenvalues(path, model) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "component", "value"])
        for c, v in enumerate(model.lambda_x):
            writer.writerow(["x", c, f"{v:.17g}"])
        for c, v in enumerate(model.lambda_w):
            writer.writerow(["w", c, f"{v:.17g}"])


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far in MB (2^20 bytes), from
    ``getrusage``, which reports it in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 3)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ValidationError("--reps must be >= 1")
    specs = [ScenarioSpec(scenario=args.scenario, p=args.p, n_subjects=args.subjects,
                          n_visits=args.visits, sigma2=args.sigma2, seed=args.seed + rep)
             for rep in range(args.reps)]
    generate = {1: generate_scenario1, 2: generate_scenario2}[args.scenario]
    outdir = Path(args.out)
    rep_dirs = [outdir / f"rep_{rep:03d}" for rep in range(args.reps)]
    # every path written, refused before the first draw; both scenarios have q = 1
    truth_files = [TRUTH_FILE, SCORES_FILE, *basis_files(1)]
    for rep_dir in rep_dirs:
        _output_dir(rep_dir / TRUTH_DIR)
        for path in [rep_dir / "panel.lfpb", rep_dir / "meta.csv",
                     *(rep_dir / TRUTH_DIR / name for name in truth_files)]:
            _not_a_directory(path)
    for spec, rep_dir in zip(specs, rep_dirs):
        panel, design, truth = generate(spec)
        rep_dir.mkdir(parents=True, exist_ok=True)
        write_panel(panel, rep_dir / "panel.lfpb")
        write_metadata(design, rep_dir / "meta.csv")
        save_truth(truth, rep_dir / TRUTH_DIR)
    print(f"simulated {args.reps} replication(s) into {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def format_cell(mean: float, sd: float) -> str:
    """Aggregate table cell, e.g. ``0.034 (0.048)``."""
    return f"{round(mean, 3):g} ({round(sd, 3):g})"


def _find_pairs(truth_root: Path, fit_root: Path):
    """Match truth and fit directories, either a single pair or rep_* trees."""
    for truth_dir in (truth_root, truth_root / TRUTH_DIR):
        if (truth_dir / TRUTH_FILE).is_file():
            return [("", truth_dir, fit_root)]
    reps = sorted(d.name for d in truth_root.glob("rep_*") if d.is_dir())
    if not reps:
        raise ValidationError(f"{truth_root} contains no ground truth ({TRUTH_FILE} or rep_*)")
    pairs = []
    for name in reps:
        fit_dir = fit_root / name
        if not fit_dir.is_dir():
            raise ValidationError(f"fit directory missing replication {name}")
        pairs.append((name, truth_root / name / TRUTH_DIR, fit_dir))
    return pairs


def cmd_evaluate(args) -> int:
    out = _output_file(args.out)
    truth_root, fit_root = Path(args.truth), Path(args.fit)
    if not truth_root.is_dir():
        raise ValidationError(f"truth directory not found: {truth_root}")
    if not fit_root.is_dir():
        raise ValidationError(f"fit directory not found: {fit_root}")
    per_rep = []
    for name, truth_dir, fit_dir in _find_pairs(truth_root, fit_root):
        truth, model = load_truth(truth_dir), load_model(fit_dir)
        path = fit_dir / SCORES_FILE
        scores = read_scores_csv(path) if path.is_file() else None
        try:
            per_rep.append((name, evaluate(truth, model, scores)))
        except ValidationError as exc:
            raise ValidationError(f"{fit_dir}: {exc}") from None

    quant_names = ["score_q005", "score_q05", "score_q50", "score_q95", "score_q995"]
    header = (["kind", "replication", "family", "component", "evec_sq_dist", "lambda_rel_err"]
              + quant_names + ["evec_mean", "evec_sd", "cell"])
    rows = []
    for name, res in per_rep:
        for fam, dists in res.vector_distances.items():
            lam = res.lambda_errors.get("x" if fam.startswith("x") else "w")
            quants = res.score_quantiles.get("x" if fam == "x0" else ("w" if fam == "w" else None))
            for c, dist in enumerate(dists):
                lam_cell = f"{lam[c]:.17g}" if (fam in ("x0", "w") and c < lam.size) else ""
                qcells = ([f"{quants[qi, c]:.17g}" for qi in range(5)]
                          if quants is not None else [""] * 5)
                rows.append(["replication", name, fam, c, f"{dist:.17g}", lam_cell]
                            + qcells + ["", "", ""])
    families = per_rep[0][1].vector_distances.keys()
    for fam in families:
        stacked = np.vstack([res.vector_distances[fam] for _, res in per_rep])
        for c in range(stacked.shape[1]):
            mean = float(stacked[:, c].mean())
            sd = float(stacked[:, c].std(ddof=1)) if stacked.shape[0] > 1 else 0.0
            rows.append(["aggregate", "", fam, c, "", ""] + [""] * 5
                        + [f"{mean:.17g}", f"{sd:.17g}", format_cell(mean, sd)])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"evaluated {len(per_rep)} replication(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scores / convert
# ---------------------------------------------------------------------------

def cmd_scores(args) -> int:
    resolve_threads(args.threads)
    out = _output_file(args.out)
    model = load_model(args.model)
    panel = read_panel(args.data)
    design = read_metadata(args.meta)
    scores = score_new_panel(model, panel, design)
    write_scores_csv(scores, out)
    print(f"scored {design.n_subjects} subject(s) -> {out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    output = _output_file(args.output)
    if args.to_csv:
        if args.slices is not None:
            raise ValidationError("--slices applies only to --to-panel")
        panel_to_csv(read_panel(args.input), output)
    else:
        slices = 1 if args.slices is None else args.slices
        write_panel(panel_from_csv(args.input, n_slices=slices), output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
