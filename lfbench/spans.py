"""Spans around calls into lfpca's public functions, installed at run time.

Nothing in the program is edited: ``install`` replaces each traced function
by a wrapper in every ``lfpca`` module that holds a reference to it (for
example ``lfpca.fit.accumulate_gram`` as well as ``lfpca.gram.accumulate_gram``),
and patches the two streamed-I/O methods on their classes. ``restore`` puts
the originals back. A span records its name, start, end, parent span and
operation id, plus counts taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _read_rows_counts(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _write_slice_counts(args, kwargs, result):
    block = args[1] if len(args) > 1 else kwargs["block"]
    return {"bytes": int(block.size) * 8}


def _gram_counts(args, kwargs, result):
    panel = args[0] if args else kwargs["panel"]
    return {"flop": 2.0 * panel.p * panel.n ** 2, "slices": panel.n_slices}


def _design_counts(args, kwargs, result):
    return {"pairs": int(result.f.shape[1])}


def _fit_counts(args, kwargs, result):
    return {"rank": int(result.model.r)}


def _threads_counts(args, kwargs, result):
    return {"threads": int(result)}


# (module, attribute path, span name, counts hook). Span names are
# "<module>.<function>" so a layer's metrics group by their prefix.
TARGETS = [
    ("lfpca.panel", "DataPanel.read_rows", "panel.read_rows", _read_rows_counts),
    ("lfpca.panel", "PanelWriter.write_slice", "panel.write_slice", _write_slice_counts),
    ("lfpca.panel", "center_panel", "panel.center_panel", None),
    ("lfpca.gram", "accumulate_gram", "gram.accumulate_gram", _gram_counts),
    ("lfpca.gram", "eigen_gram", "gram.eigen_gram", None),
    ("lfpca.mom", "build_design_matrix", "mom.build_design_matrix", _design_counts),
    ("lfpca.mom", "compute_weights", "mom.compute_weights", None),
    ("lfpca.mom", "intrinsic_covariances", "mom.intrinsic_covariances", None),
    ("lfpca.design", "validate_design", "design.validate_design", None),
    ("lfpca.design", "normalize_covariates", "design.normalize_covariates", None),
    ("lfpca.fit", "fit_panel", "fit.fit_panel", _fit_counts),
    ("lfpca.fit", "decompose_intrinsic", "fit.decompose_intrinsic", None),
    ("lfpca.fit", "save_model", "fit.save_model", None),
    ("lfpca.fit", "load_model", "fit.load_model", None),
    ("lfpca.blup", "score_blups", "blup.score_blups", None),
    ("lfpca.blup", "panel_projections", "blup.panel_projections", None),
    ("lfpca.blup", "score_new_panel", "blup.score_new_panel", None),
    ("lfpca._parallel", "resolve_threads", "parallel.resolve_threads", _threads_counts),
    ("lfpca.cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span store. Each span is a list:
    [name, start, end, parent index or None, op id, counts dict]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None,
                           self.op_id, {}])
        stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        if counts:
            self.spans[idx][5] = counts
        self._stack().pop()

    def wrap(self, fn, name: str, counts_hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, counts_hook(args, kwargs, result) if counts_hook else None)
            return result
        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Patch every target; returns what ``restore`` needs to undo it."""
        undo = []
        lfpca_modules = [m for name, m in list(sys.modules.items())
                         if m is not None and (name == "lfpca" or name.startswith("lfpca."))]
        for module_name, path, span_name, hook in TARGETS:
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self.wrap(original, span_name, hook)
            if len(parts) > 1:  # a method: patch its class once
                undo.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for module in lfpca_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return undo

    @staticmethod
    def restore(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(idx, [])):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out
