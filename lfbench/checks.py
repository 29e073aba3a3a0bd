"""Output checks applied to every operation; each returns a list of failures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lfpca.fit import load_model

ORTHO_TOL = 1e-8        # lifted bases; measured at most 7e-15 with lfpca 0.1.0
SCORE_MATCH_TOL = 1e-8  # streamed scores vs the fit's own scores, relative


@dataclass
class Outputs:
    """The parts of a saved model the checks read, as plain arrays."""

    lambda_x: np.ndarray
    lambda_w: np.ndarray
    phi_x: list[np.ndarray]
    phi_w: np.ndarray


def load_outputs(model_dir) -> Outputs:
    model = load_model(model_dir)
    return Outputs(lambda_x=model.lambda_x, lambda_w=model.lambda_w,
                   phi_x=[np.array(p.to_array()) for p in model.phi_x],
                   phi_w=np.array(model.phi_w.to_array()))


def check_fit(out: Outputs, truth, cfg: dict) -> list[str]:
    """Eigenvalues, orthonormality of the lifted bases, and component-1 recovery."""
    failures = []
    for fam, lam in (("x", out.lambda_x), ("w", out.lambda_w)):
        if not np.all(np.isfinite(lam)):
            failures.append(f"lambda_{fam} has non-finite values")
        elif np.any(lam < 0) or np.any(np.diff(lam) > 0):
            failures.append(f"lambda_{fam} is not non-negative and descending: {lam}")
    gram_x = sum(phi.T @ phi for phi in out.phi_x)
    gram_w = out.phi_w.T @ out.phi_w
    for fam, gram in (("x", gram_x), ("w", gram_w)):
        dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if not dev <= ORTHO_TOL:
            failures.append(f"phi_{fam} not orthonormal: max |Phi'Phi - I| = {dev:.3g}")
    dist = component1_residual(out, truth)
    if not dist <= cfg["max_x_residual"]:
        failures.append(f"subject-level component 1 lies {dist:.3g} outside the fitted span "
                        f"(bound {cfg['max_x_residual']})")
    lam_err = abs(out.lambda_x[0] - truth.lambda_x[0]) / truth.lambda_x[0]
    if not lam_err <= cfg["max_lambda_err"]:
        failures.append(f"lambda_x1 relative error {lam_err:.3g} > {cfg['max_lambda_err']}")
    return failures


def component1_residual(out: Outputs, truth) -> float:
    """Squared distance from the truth's stacked subject-level component 1 to
    the span of the fitted stacked components.

    A distance to the fitted component 1 alone is not a usable check: when
    the first two estimated eigenvalues come close (0.758 and 0.668 on one
    curves input), components 1 and 2 rotate into each other and that
    distance reaches 0.72 on a sound fit, while this residual stays at 0.08.
    """
    t = np.concatenate([b[:, 0] for b in truth.phi_x])
    e = np.vstack(out.phi_x)
    return float(np.sum((t - e @ (e.T @ t)) ** 2))


def check_scores_match(ref: dict, got: dict, what: str) -> list[str]:
    """Scores from the streamed path reproduce the fit's own scores."""
    failures = []
    for key in ("xi", "zeta"):
        a, b = np.asarray(ref[key]), np.asarray(got[key])
        if a.shape != b.shape:
            failures.append(f"{what}: {key} shape {b.shape} != {a.shape}")
            continue
        rel = float(np.linalg.norm(b - a) / np.linalg.norm(a))
        if not rel <= SCORE_MATCH_TOL:
            failures.append(f"{what}: {key} differs from the fit's scores by {rel:.3g} relative")
    return failures


def new_signal_errors(out: Outputs, truth, scores: dict) -> tuple[float, float]:
    """Relative error of the new batch's predicted subject-level and visit-level
    signal, ||Phi_hat s_hat - Phi s|| / ||Phi s|| over all subjects or visits.

    Compared as signals rather than per-component scores, so the check holds
    when estimated components of similar eigenvalue rotate into each other.
    Computed from the small cross-Gram matrices of the bases, never in p x n.
    """
    def rel_error(est, tru, a, b):
        ee = sum(e.T @ e for e in est)
        et = sum(e.T @ t for e, t in zip(est, tru))
        tt = sum(t.T @ t for t in tru)
        err = np.trace(a @ ee @ a.T) - 2 * np.trace(a @ et @ b.T) + np.trace(b @ tt @ b.T)
        return float(np.sqrt(max(err, 0.0) / np.trace(b @ tt @ b.T)))

    return (rel_error(out.phi_x, truth.phi_x, scores["xi"], truth.new_xi),
            rel_error([out.phi_w], [truth.phi_w], scores["zeta"], truth.new_zeta))


def check_new_scores(out: Outputs, truth, scores: dict, cfg: dict) -> list[str]:
    """New-batch scores under the saved model reproduce the generator's signal."""
    failures = []
    for fam, err in zip(("subject-level", "visit-level"), new_signal_errors(out, truth, scores)):
        if not err <= cfg["max_new_signal_err"]:
            failures.append(f"new-batch {fam} signal relative error {err:.3g} "
                            f"> {cfg['max_new_signal_err']}")
    return failures
