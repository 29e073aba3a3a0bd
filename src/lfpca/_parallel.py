"""Ordered, bounded parallel mapping over panel slices.

Slice computations are pure functions, so running them on a thread pool and
consuming the results in submission order gives output identical to the
serial path. The in-flight window is capped so memory stays proportional to
the worker count, not to the number of slices.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def resolve_threads(threads: int | None) -> int:
    """Worker count: the explicit argument, else LFPCA_THREADS, else 1.
    Either must be an integer >= 1; an unset or empty variable means 1."""
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

    With threads <= 1 this is a plain serial loop (the reference path).
    Otherwise the oldest result is taken before the next item is read, so at
    most ``threads + 1`` items are alive at a time: ``threads`` submitted and
    the one being read.
    """
    if threads <= 1:
        for item in items:
            result = fn(item)
            item = None  # release the input slice before handing the result over
            yield result
            result = None
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        it = iter(items)
        pending = [pool.submit(fn, item) for item in itertools.islice(it, threads + 1)]
        while pending:
            result = pending.pop(0).result()
            pending.extend(pool.submit(fn, item) for item in itertools.islice(it, 1))
            yield result
            result = None
