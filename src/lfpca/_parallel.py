"""Ordered, bounded parallel mapping over panel slices.

Slice computations are pure functions, so running them on a thread pool and
consuming the results in submission order gives output identical to the
serial path. The in-flight window is capped so memory stays proportional to
the worker count, not to the number of slices.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def resolve_threads(threads: int | None) -> int:
    """Worker count: the explicit argument (at least 1), else LFPCA_THREADS, else 1."""
    if threads is not None:
        if threads < 1:
            raise ValidationError(f"threads must be >= 1 (or None), got {threads}")
        return int(threads)
    try:
        return max(1, int(os.environ.get("LFPCA_THREADS") or 1))
    except ValueError:
        return 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> Iterator[R]:
    """Yield fn(item) for each item, in input order.

    With threads <= 1 this is a plain serial loop (the reference path).
    Otherwise at most ``threads + 1`` results are in flight at a time.
    """
    if threads <= 1:
        for item in items:
            result = fn(item)
            item = None  # release the input slice before handing the result over
            yield result
            result = None
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = []
        it = iter(items)
        try:
            for _ in range(threads + 1):
                pending.append(pool.submit(fn, next(it)))
        except StopIteration:
            it = None
        while pending:
            done = pending.pop(0)
            if it is not None:
                try:
                    pending.append(pool.submit(fn, next(it)))
                except StopIteration:
                    it = None
            yield done.result()
