"""The command line's ``--threads`` / ``LFPCA_THREADS`` check.

Every streamed pass runs in the calling thread (see :func:`lfpca.panel.stream`),
so the count selects nothing; ``lfpca fit`` and ``lfpca scores`` still accept
it and refuse a value that is not an integer >= 1.
"""

from __future__ import annotations

import os

from .errors import ValidationError


def resolve_threads(threads: int | None) -> int:
    """The argument, else LFPCA_THREADS, else 1. Either must be an integer
    >= 1; unset or empty is 1."""
    if threads is not None:
        if threads < 1:
            raise ValidationError(f"threads must be >= 1 (or None), got {threads}")
        return int(threads)
    raw = os.environ.get("LFPCA_THREADS") or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValidationError(f"LFPCA_THREADS must be an integer >= 1 (or unset), got {raw!r}")
    return int(raw)
