"""Ordered mapping over panel blocks on one compute thread.

Block computations are pure functions run one at a time in input order, so
running them on one worker while the caller reads the next block gives the
serial path's output and keeps two blocks alive, whatever the slice count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def resolve_threads(threads: int | None) -> int:
    """Thread count of a pass (see :func:`ordered_map`): the argument, else
    LFPCA_THREADS, else 1. Either must be an integer >= 1; unset or empty is 1."""
    if threads is not None:
        if threads < 1:
            raise ValidationError(f"threads must be >= 1 (or None), got {threads}")
        return int(threads)
    raw = os.environ.get("LFPCA_THREADS") or "1"
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValidationError(f"LFPCA_THREADS must be an integer >= 1 (or unset), got {raw!r}")
    return int(raw)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> Iterator[R]:
    """Yield fn(item) for each item, in input order.

    With threads <= 1 this is a plain serial loop in the calling thread (the
    reference path). Otherwise fn runs on one worker thread while the caller
    reads the next item and consumes the last result, so at most two items
    are alive at a time: the one fn is on and the one being read. Either way
    one thread runs every fn call, so no result depends on ``threads``.
    """
    if threads <= 1:
        for item in items:
            result = fn(item)
            item = None  # release the input slice before handing the result over
            yield result
            result = None
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        running = None
        for item in items:
            queued, item = pool.submit(fn, item), None
            if running is not None:
                yield running.result()
            running = queued
        if running is not None:
            yield running.result()
