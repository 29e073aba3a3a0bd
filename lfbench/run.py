"""Fit-and-score benchmark for lfpca.

Run from the repository root:

    python3 lfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Smoke test at toy size: ``python3 -m pytest -q lfbench/test_smoke.py``.

Workloads (``curves``, ``lattice``, ``ooc``) are described in workloads.py and
BENCHMARK.json. Each is a closed loop with one client: this process generates
the seeded inputs of one operation and writes them to files (set-up), then
asks a separate worker process to run the fit, then the score, and checks
every output before the next operation starts. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the public functions of each lfpca
module with spans (every other operation, so the run also measures the
tracing overhead) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans of a traced run are written to lfbench/_runs/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

# The environment as found is what the worker (the program) runs under. This
# process only generates and checks; it runs its own BLAS on one thread so that
# no idle BLAS threads of its own spin while the worker runs.
ENV_AS_FOUND = dict(os.environ)
THREAD_ENV = ("LFPCA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "lattice", "ooc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------

class Worker:
    """worker.py in a child process, fed one request at a time over a pipe."""

    def __init__(self):
        from_parent, to_child = os.pipe()
        from_child, to_parent = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(from_parent), str(to_parent), str(SRC)],
            pass_fds=(from_parent, to_parent), stdout=subprocess.DEVNULL, env=ENV_AS_FOUND)
        os.close(from_parent)
        os.close(to_parent)
        self.tx = Connection(to_child, readable=False)
        self.rx = Connection(from_child, writable=False)
        self._next_id = 0

    def _answer(self, what: str):
        if not self.rx.poll(WORKER_TIMEOUT):
            raise RuntimeError(f"worker gave no answer to {what} in {WORKER_TIMEOUT} s")
        return self.rx.recv()

    def call(self, req: dict) -> dict:
        req = dict(req, op_id=self._next_id)
        self._next_id += 1
        self.tx.send(req)
        return dict(self._answer(req["op"]), op_id=req["op_id"], kind=req["kind"],
                    traced=bool(req.get("traced")))

    def finish(self) -> dict:
        """Stop the worker; returns its spans and peak resident set."""
        self.tx.send(None)
        final = self._answer("shutdown")
        self.proc.wait(30)
        return final

    def close(self) -> None:
        """Make sure the child has ended (killing it after a failure)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.tx.close()
        self.rx.close()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_loop(workload: str, cfg: dict, seed: int, seconds: float, trace: bool,
             workdir: Path, worker: Worker, corrupt=None):
    """Operations until ``seconds`` of wall time have passed (at least one; at
    least two when tracing so one traced and one untraced fit exist).
    Returns the operation records and the per-operation set-up times."""
    from checks import (check_fit, check_new_scores, check_scores_match, load_outputs)
    from lfpca.blup import read_scores_csv
    from workloads import make_inputs

    records, setup = [], []
    threads = str(len(os.sched_getaffinity(0)))
    start = time.perf_counter()
    k = 0
    while k < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 0
        t0 = time.perf_counter()
        inputs = make_inputs(workload, cfg, seed, k, workdir)
        setup.append(time.perf_counter() - t0)
        out_dir = workdir / f"fit_{k}"
        if workload == "ooc":
            fit = worker.call({"op": "cli_main", "kind": "fit", "traced": traced, "argv": [
                "fit", "--data", str(inputs.panel), "--meta", str(inputs.meta),
                "--nx", str(cfg["n_x"]), "--nw", str(cfg["n_w"]), "--threads", threads,
                "--out", str(out_dir)]})
        else:
            fit = worker.call({"op": "fit_api", "kind": "fit", "traced": traced,
                               "panel": str(inputs.panel), "meta": str(inputs.meta),
                               "n_x": cfg["n_x"], "n_w": cfg["n_w"], "out": str(out_dir)})
        records.append(fit)
        fit["failures"] = [] if fit["ok"] else [fit["error"]]
        if fit["ok"]:
            outputs = load_outputs(out_dir)
            if corrupt is not None:
                corrupt(outputs)
            fit["failures"] += check_fit(outputs, inputs.truth, cfg)

            if workload == "ooc":
                fit_scores = _scores(read_scores_csv(out_dir / "scores.csv"))
                if k == 0:  # once per run: the streamed path reproduces the fit's scores
                    path = workdir / "train_scores.csv"
                    again = worker.call({"op": "cli_main", "kind": "score_train", "argv": [
                        "scores", "--model", str(out_dir), "--data", str(inputs.panel),
                        "--meta", str(inputs.meta), "--threads", threads, "--out", str(path)]})
                    records.append(again)
                    again["failures"] = [again["error"]] if not again["ok"] else \
                        check_scores_match(fit_scores, _scores(read_scores_csv(path)),
                                           "training panel through lfpca scores")
                path = workdir / f"new_scores_{k}.csv"
                score = worker.call({"op": "cli_main", "kind": "score", "traced": traced, "argv": [
                    "scores", "--model", str(out_dir), "--data", str(inputs.new_panel),
                    "--meta", str(inputs.new_meta), "--threads", threads, "--out", str(path)]})
                score["failures"] = [score["error"]] if not score["ok"] else \
                    check_new_scores(outputs, inputs.truth, _scores(read_scores_csv(path)), cfg)
            else:
                score = worker.call({"op": "score_api", "kind": "score", "traced": traced,
                                     "out": str(out_dir)})
                score["failures"] = [score["error"]] if not score["ok"] else \
                    check_scores_match(fit, score, "training panel through score_new_panel")
            records.append(score)
        worker.call({"op": "drop", "kind": "drop"})
        for path in inputs.files:
            path.unlink()
        shutil.rmtree(out_dir, ignore_errors=True)
        k += 1
    return records, setup


def _scores(panel) -> dict:
    return {"xi": panel.xi_matrix(), "zeta": panel.zeta_matrix()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value, samples), or None when that percentile would not lie
    above the median."""
    n = len(values)
    rank = n - 10
    if 2 * rank <= n:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def end_to_end(records, setup, maxrss_kb):
    fits = [r for r in records if r["kind"] == "fit" and r["ok"]]
    return {
        "fit_s_p50": (_median([r["wall"] for r in fits]), "s"),
        "fit_read_gb": (_median([r["read"] for r in fits]) / 1e9, "GB"),
        "fit_write_gb": (_median([r["written"] for r in fits]) / 1e9, "GB"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
        "setup_s": (_median(setup), "s"),
    }


def per_layer(records, spans):
    """Per-layer metrics from the traced operations: for each metric, its value
    in every traced operation of the named kind, then the median."""
    from spans import self_times

    selfs = self_times(spans)
    by_op: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        by_op.setdefault(span[4], []).append(idx)

    def total(op, name):
        return sum(spans[i][2] - spans[i][1] for i in by_op.get(op, ()) if spans[i][0] == name)

    def own(op, name):
        return sum(selfs[i] for i in by_op.get(op, ()) if spans[i][0] == name)

    def count(op, name, key, agg=sum):
        return agg([spans[i][5].get(key, 0) for i in by_op.get(op, ())
                    if spans[i][0] == name] or [0])

    def gflop_rate(op):
        seconds = total(op, "gram.accumulate_gram")
        return count(op, "gram.accumulate_gram", "flop") / 1e9 / seconds if seconds else 0.0

    def share(op, rec):
        return sum(selfs[i] for i in by_op.get(op, ())) / rec["wall"]

    spec = [
        ("mom.covariances_s", "s", "fit", lambda op, r: total(op, "mom.intrinsic_covariances")),
        ("mom.pairs", "count", "fit",
         lambda op, r: count(op, "mom.build_design_matrix", "pairs", max)),
        ("mom.design_s", "s", "fit", lambda op, r: total(op, "mom.build_design_matrix")),
        ("mom.weights_s", "s", "fit", lambda op, r: total(op, "mom.compute_weights")),
        ("design.validate_s", "s", "fit", lambda op, r: total(op, "design.validate_design")),
        ("design.normalize_s", "s", "fit",
         lambda op, r: total(op, "design.normalize_covariates")),
        ("fit.decompose_s", "s", "fit", lambda op, r: total(op, "fit.decompose_intrinsic")),
        ("fit.self_s", "s", "fit", lambda op, r: own(op, "fit.fit_panel")),
        ("fit.save_s", "s", "fit", lambda op, r: total(op, "fit.save_model")),
        ("fit.load_s", "s", "score", lambda op, r: total(op, "fit.load_model")),
        ("panel.center_s", "s", "fit", lambda op, r: total(op, "panel.center_panel")),
        ("panel.read_s", "s", "fit", lambda op, r: total(op, "panel.read_rows")),
        ("panel.read_gb", "GB-computed", "fit",
         lambda op, r: count(op, "panel.read_rows", "bytes") / 1e9),
        ("panel.write_s", "s", "fit", lambda op, r: total(op, "panel.write_slice")),
        ("panel.write_gb", "GB-computed", "fit",
         lambda op, r: count(op, "panel.write_slice", "bytes") / 1e9),
        ("panel.slices", "count", "fit",
         lambda op, r: count(op, "gram.accumulate_gram", "slices", max)),
        ("gram.accumulate_s", "s", "fit", lambda op, r: total(op, "gram.accumulate_gram")),
        ("gram.accumulate_gflop", "GFLOP-computed", "fit",
         lambda op, r: count(op, "gram.accumulate_gram", "flop") / 1e9),
        ("gram.accumulate_gflop_per_s", "GFLOP/s", "fit", lambda op, r: gflop_rate(op)),
        ("gram.eigen_s", "s", "fit", lambda op, r: total(op, "gram.eigen_gram")),
        ("gram.rank", "count", "fit", lambda op, r: count(op, "fit.fit_panel", "rank", max)),
        ("blup.score_blups_s", "s", "fit", lambda op, r: total(op, "blup.score_blups")),
        ("blup.projections_s", "s", "score", lambda op, r: total(op, "blup.panel_projections")),
        ("blup.solve_s", "s", "score", lambda op, r: own(op, "blup.score_new_panel")),
        ("cli.self_s", "s", "fit", lambda op, r: own(op, "cli.main")),
        ("parallel.pool_threads", "count", "fit",
         lambda op, r: count(op, "parallel.resolve_threads", "threads", max)),
        ("proc.cpu_util", "ratio", "fit", lambda op, r: r["cpu"] / r["wall"]),
        ("op.self_s", "s", "fit", lambda op, r: own(op, "op.fit")),
        ("trace.self_sum_share", "ratio", "fit", share),
    ]
    traced = {kind: [r for r in records if r["kind"] == kind and r["ok"] and r["traced"]]
              for kind in ("fit", "score")}
    metrics = {name: (_median([fn(r["op_id"], r) for r in traced[kind]]), unit)
               for name, unit, kind, fn in spec}
    plain = [r["wall"] for r in records if r["kind"] == "fit" and r["ok"] and not r["traced"]]
    metrics["trace.overhead_s"] = (
        _median([r["wall"] for r in traced["fit"]]) - _median(plain), "s")
    return metrics


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _llc_bytes():
    best = (0, 0)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        best = max(best, (level, value))
    return best[1]


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def panel_bytes(cfg, subjects="subjects", visits="visits"):
    """Size of one p x n float64 panel of the workload."""
    p = cfg["p"] if "p" in cfg else math.prod(cfg["lattice"])
    return p * cfg[subjects] * cfg[visits] * 8


def check_room(cfg, workdir: Path):
    """Why one operation's files would not fit, or None. An operation holds the
    training panel, the fit's centred copy of it (ooc) and the new batch at once."""
    largest = panel_bytes(cfg)
    new = panel_bytes(cfg, "new_subjects", "new_visits") if "new_subjects" in cfg else 0
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit != resource.RLIM_INFINITY and limit < largest + 2 ** 20:
        return f"file size limit {limit} B is below the {largest} B panel this workload writes"
    st = os.statvfs(workdir)
    if st.f_bavail * st.f_frsize < 2 * largest + new:
        return (f"{st.f_bavail * st.f_frsize} B free under {workdir}, "
                f"one operation needs {2 * largest + new} B")
    return None


def environment(workload, cfg):
    from lfpca._parallel import resolve_threads
    nproc = len(os.sched_getaffinity(0))
    panel = panel_bytes(cfg)
    llc = _llc_bytes()
    return {
        "nproc": nproc,
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
        "llc_mib": llc / 2 ** 20,
        "panel_mib": panel / 2 ** 20,
        "panel_over_llc": panel / llc if llc else float("nan"),
        "blas": _blas(),
        "thread_env": {name: ENV_AS_FOUND.get(name, "unset") for name in THREAD_ENV},
        "parallel.pool_threads": resolve_threads(nproc if workload == "ooc" else None),
        "note": "file reads are served from the page cache, which this benchmark cannot "
                "drop; ooc wall times therefore understate a fit from a cold disk",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None, scale: str = "full", corrupt=None) -> int:
    """Run one workload and print its report. ``scale`` and ``corrupt`` let the
    smoke test shrink the inputs and damage an output before it is checked."""
    args = parse_args(argv)
    if not (SRC / "lfpca" / "__init__.py").is_file():
        print(f"error: lfpca sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in THREAD_ENV if name != "LFPCA_THREADS"})
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import BOUNDS, SIZES

    cfg = dict(SIZES[scale][args.workload], **BOUNDS[args.workload])
    env = environment(args.workload, cfg)
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    no_room = check_room(cfg, workdir)
    if no_room is not None:
        workdir.rmdir()
        print(f"error: {no_room}", file=sys.stderr)
        return 2
    worker = Worker()
    try:
        records, setup = run_loop(args.workload, cfg, args.seed, args.seconds,
                                  bool(args.trace), workdir, worker, corrupt)
        final = worker.finish()
    finally:
        worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = [r for r in records if r["kind"] != "drop"]
    failed = [r for r in attempted if r["failures"]]
    for r in failed:
        print(f"FAILED {r['kind']} op {r['op_id']}: " + " | ".join(r["failures"]))
    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} fits={sum(r['kind'] == 'fit' for r in attempted)} "
          f"scores={sum(r['kind'] == 'score' for r in attempted)}")
    print(f"metric error_rate = {len(failed) / len(attempted)!r} ratio "
          f"({len(failed)} of {len(attempted)} operations)")
    fit_walls = [r["wall"] for r in attempted if r["kind"] == "fit" and r["ok"]]
    # Printed but not in BENCHMARK.json, which holds only metrics every workload
    # reports, never 0, and steady across runs (see CHANGES.md).
    score_walls = [r["wall"] for r in attempted
                   if r["kind"] == "score" and r["ok"] and not r["traced"]]
    print(f"metric score_s_p50 = {_median(score_walls)!r} s ({len(score_walls)} scores)")
    for kind in ("fit", "score"):
        walls = [f"{r['wall']:.4f}" for r in attempted if r["kind"] == kind]
        print(f"{kind} walls (s, in order): {' '.join(walls)}")
    print(f"set-up walls (s, in order): {' '.join(f'{t:.4f}' for t in setup)}")
    t = tail(fit_walls)
    if t is None:
        print(f"metric fit_s_tail not reported: {len(fit_walls)} fits, "
              "a tail above the median needs at least 21")
    else:
        print(f"metric fit_s_tail = {t[1]!r} s (p{t[0]:.0f} of {t[2]} fits, 10 beyond it)")

    if args.trace:
        metrics = per_layer(records, final["spans"])
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w") as fh:
            for span in final["spans"]:
                name, start, end, parent, op, counts = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **counts}) + "\n")
        print(f"spans written to {trace_path}")
    else:
        metrics = end_to_end(records, setup, final["maxrss_kb"])
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    own = resource.getrusage(resource.RUSAGE_SELF)
    print(f"generator/checker process: peak rss {own.ru_maxrss / 1024:.1f} MB")
    print(json.dumps({"correct": not failed, "attempted": len(attempted), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
