"""The process that runs the operations.

run.py starts it once per run and sends it one request at a time over a
pipe (a closed loop with one client). Its peak resident set therefore comes from
the program and the file inputs it loads, never from the generator. Around
each operation it reads the kernel's per-process I/O counters and CPU times,
so the counters need nothing from inside the program.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import traceback
from multiprocessing.connection import Connection


def _io_counters() -> tuple[int, int]:
    """(rchar, wchar) of this process: bytes passed through read/write calls."""
    fields = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields["rchar"], fields["wchar"]


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


class Operations:
    """The operations a request can name. In-memory state (the panel and the
    design of the last API fit) carries over to the score that follows it."""

    def __init__(self):
        from lfpca import blup, cli, design, fit, panel
        self.blup, self.cli, self.design, self.fit, self.panel = blup, cli, design, fit, panel
        self.data = None
        self.study = None

    def fit_api(self, req):
        """Load a panel file into memory, fit it with the default threads,
        and save the model: the in-memory use of the public API."""
        self.data = self.panel.DataPanel.from_array(
            self.panel.read_panel(req["panel"]).to_array())
        self.study = self.design.read_metadata(req["meta"])
        result = self.fit.fit_panel(self.data, self.study, n_x=req["n_x"], n_w=req["n_w"])
        self.fit.save_model(result.model, req["out"])
        return {"xi": result.scores.xi_matrix(), "zeta": result.scores.zeta_matrix()}

    def score_api(self, req):
        """Score the last fitted panel under its saved model, through the
        streamed projection path."""
        model = self.fit.load_model(req["out"])
        scores = self.blup.score_new_panel(model, self.data, self.study)
        return {"xi": scores.xi_matrix(), "zeta": scores.zeta_matrix()}

    def drop(self, req):
        self.data = self.study = None
        return {}

    def cli_main(self, req):
        rc = self.cli.main(req["argv"])
        if rc != 0:
            raise RuntimeError(f"lfpca {req['argv'][0]} exited with code {rc}")
        return {}


def serve(rx, tx) -> None:
    """Answer requests until a None arrives, then send the spans and peak RSS."""
    from spans import Tracer

    ops = Operations()
    tracer = Tracer()
    while True:
        req = rx.recv()
        if req is None:
            break
        undo = tracer.install() if req.get("traced") else None
        tracer.op_id = req["op_id"]
        reply = {"ok": True, "error": None}
        fn = getattr(ops, req["op"])
        rchar0, wchar0 = _io_counters()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        root = tracer.open(f"op.{req['kind']}") if undo is not None else None
        try:
            reply.update(fn(req))
        except Exception:  # one failed operation must not end the run
            reply.update(ok=False, error=traceback.format_exc())
        finally:
            if root is not None:
                tracer.close(root)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            rchar1, wchar1 = _io_counters()
            if undo is not None:
                tracer.restore(undo)
        reply.update(wall=wall, cpu=cpu, read=rchar1 - rchar0, written=wchar1 - wchar0)
        tx.send(reply)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tx.send({"spans": tracer.spans, "maxrss_kb": maxrss_kb})


if __name__ == "__main__":
    # argv: read fd, write fd, lfpca source directory (see run.Worker)
    sys.path.insert(0, sys.argv[3])
    serve(Connection(int(sys.argv[1]), writable=False),
          Connection(int(sys.argv[2]), readable=False))
