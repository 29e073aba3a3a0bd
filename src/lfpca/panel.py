"""Row-sliced data panels and the LFPB binary container.

A panel is a p x n matrix of float64 values (p features/voxels as rows,
n observation columns) stored as L consecutive row slices. Passes read it
in row blocks of at most BLOCK_BYTES, so no operation ever needs the full
matrix in memory, whatever the slice count. Panels are backed either by an
in-memory array or by an LFPB file read block by block.

LFPB layout (all integers little-endian):

    bytes 0-3    magic ``LFPB``
    u32          format version (currently 1)
    u64          p, number of rows
    u64          n, number of columns
    u32          L, slice count
    (L+1) x u64  row index where each slice starts, first 0, last p
    payload      float64 little-endian, row-major, slices in order

Slices are consecutive row ranges, so the payload is simply the full
matrix in row-major order; arbitrary row ranges can be read directly.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import NumericalError, ValidationError

MAGIC = b"LFPB"
FORMAT_VERSION = 1
# Bytes of input rows, summed over the panels read together, that one
# streamed block holds; stream() cuts every slice into blocks of this size.
BLOCK_BYTES = 16 * 1024 * 1024

_HEAD = struct.Struct("<4sIQQI")


def slice_starts(p: int, n_slices: int) -> list[int]:
    """Row boundaries for ``n_slices`` slices of ceil(p / L) rows each; a
    count outside [1, p] raises ValidationError."""
    if not 1 <= n_slices <= p:
        raise ValidationError(f"slice count must be in [1, p] for p = {p} rows, got {n_slices}")
    height = math.ceil(p / n_slices)
    return [min(l * height, p) for l in range(n_slices + 1)]


def _check_row_starts(rs: list[int], p: int) -> None:
    """Refuse slice boundaries that do not run from 0 to p without decreasing."""
    if rs[0] != 0 or rs[-1] != p or any(b < a for a, b in zip(rs, rs[1:])):
        raise ValidationError(f"invalid slice boundaries {rs} for p={p}")


@dataclass
class DataPanel:
    """A p x n float64 matrix exposed as ordered row slices.

    ``mean`` is set only by :func:`center_panel`: when present, every read
    path returns the stored rows minus it. ``digest`` is set only by
    :func:`digest_panel`: when present, file reads feed it.
    """

    p: int
    n: int
    row_starts: list[int]
    mean: np.ndarray | None = field(default=None, repr=False)
    digest: "ReadDigest | None" = field(default=None, repr=False)
    _array: np.ndarray | None = field(default=None, repr=False)
    _path: Path | None = field(default=None, repr=False)
    _payload_offset: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValidationError(f"panel dimensions must be positive, got p={self.p}, n={self.n}")
        _check_row_starts(self.row_starts, self.p)
        if (self._array is None) == (self._path is None):
            raise ValidationError("panel needs exactly one backing: array or path")
        if self.mean is not None and self.mean.shape != (self.p,):
            raise ValidationError(f"mean must have shape ({self.p},), got {self.mean.shape}")

    @classmethod
    def from_array(cls, values, n_slices: int = 1) -> "DataPanel":
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"panel array must be 2-D, got shape {arr.shape}")
        p, n = arr.shape
        return cls(p=p, n=n, row_starts=slice_starts(p, n_slices), _array=arr)

    @property
    def n_slices(self) -> int:
        return len(self.row_starts) - 1

    @property
    def path(self) -> Path | None:
        """The LFPB file backing the panel, None for an in-memory panel."""
        return self._path

    @property
    def file_backed(self) -> bool:
        return self._path is not None

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) as a (stop-start) x n float64 array, which may be
        changed in place exactly when ``block.flags.writeable``: a file read or
        a centred block is a new array, in-memory rows a read-only view."""
        if not (0 <= start <= stop <= self.p):
            raise ValidationError(f"row range [{start}, {stop}) outside panel of {self.p} rows")
        if self._array is not None:
            block = self._array[start:stop]
            block.flags.writeable = False
        else:
            count = (stop - start) * self.n
            with open(self._path, "rb") as fh:
                fh.seek(self._payload_offset + start * self.n * 8)
                block = np.fromfile(fh, dtype="<f8", count=count)
            if block.size != count:
                raise ValidationError(f"short read from {self._path}: wanted {count} values")
            block = block.reshape(stop - start, self.n)
            if self.digest is not None:
                self.digest.feed(start, block)
        if self.mean is not None:
            block = np.subtract(block, self.mean[start:stop, None],
                                out=block if block.flags.writeable else None)
        return block

    def iter_slices(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (start_row, block) for each slice, in ascending order."""
        for a, b in zip(self.row_starts, self.row_starts[1:]):
            yield a, self.read_rows(a, b)

    def with_slices(self, n_slices: int) -> "DataPanel":
        """Same backing and mean, re-partitioned into ``n_slices`` slices."""
        return replace(self, row_starts=slice_starts(self.p, n_slices))

    def to_array(self) -> np.ndarray:
        """The full matrix as :meth:`read_rows` gives it (small panels / tests only)."""
        return self.read_rows(0, self.p)


class PanelWriter:
    """Incremental LFPB writer. Row blocks arrive in order, each a whole slice
    or the next rows of one (never running past its end), and must cover all
    rows; empty slices need no block."""

    def __init__(self, path, p: int, n: int, n_slices: int = 1,
                 row_starts: list[int] | None = None):
        self.path = Path(path)
        self.p, self.n = p, n
        self.row_starts = list(row_starts) if row_starts is not None else slice_starts(p, n_slices)
        _check_row_starts(self.row_starts, p)
        self._fh = open(self.path, "wb")
        self._fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, p, n, len(self.row_starts) - 1))
        self._fh.write(np.asarray(self.row_starts, dtype="<u8").tobytes())
        self._rows = 0  # rows written so far

    def write_slice(self, block: np.ndarray) -> None:
        """Append the next rows: a whole slice or a block of the current one."""
        nxt = bisect.bisect_right(self.row_starts, self._rows)
        end = self.row_starts[nxt] if nxt < len(self.row_starts) else self.p
        if block.ndim != 2 or block.shape[1] != self.n or block.shape[0] > end - self._rows:
            raise ValidationError(f"block of shape {block.shape} does not fit the slice rows "
                                  f"[{self._rows}, {end}) of width {self.n}")
        np.ascontiguousarray(block, dtype="<f8").tofile(self._fh)
        self._rows += block.shape[0]

    def close(self) -> None:
        """Finish the file; an incomplete one is deleted and reported."""
        self._fh.close()
        if self._rows != self.p:
            self.path.unlink(missing_ok=True)
            raise ValidationError(f"panel file {self.path} incomplete: "
                                  f"{self._rows} of {self.p} rows written")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            self.path.unlink(missing_ok=True)


def write_panel(panel: DataPanel, path) -> None:
    """Write a panel to an LFPB file, preserving its slice boundaries."""
    with PanelWriter(path, panel.p, panel.n, row_starts=panel.row_starts) as writer:
        for _, block in panel.iter_slices():
            writer.write_slice(block)


def read_panel(path) -> DataPanel:
    """Open an LFPB file as a lazily-read panel (no payload is loaded)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"panel file not found: {path}")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise ValidationError(f"{path} too short for an LFPB header")
        magic, version, p, n, n_slices = _HEAD.unpack(head)
        if magic != MAGIC:
            raise ValidationError(f"{path} is not an LFPB panel (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported LFPB version {version}")
        offsets = np.fromfile(fh, dtype="<u8", count=n_slices + 1)
        payload_offset = fh.tell()
    if offsets.size != n_slices + 1:
        raise ValidationError(f"{path}: truncated slice offset table")
    row_starts = [int(v) for v in offsets]
    expected = payload_offset + p * n * 8
    if size != expected:
        raise ValidationError(f"{path}: payload size mismatch, expected {expected} bytes, found {size}")
    return DataPanel(p=p, n=n, row_starts=row_starts, _path=path,
                     _payload_offset=payload_offset)


def stream(panels, fn, outputs=()):
    """Run ``fn`` over aligned row blocks of ``panels``: the one slice loop.

    Blocks follow the slices of ``panels[0]``: each slice is cut into blocks
    of ``max(1, BLOCK_BYTES // (8 * sum of the panels' n))`` rows, and no
    block spans two slices. For each block in turn, rows [a, b) of every
    panel are read and ``fn(rows, blocks, outs)`` runs, all in the calling
    thread, with ``rows`` = ``slice(a, b)``. ``outputs`` holds one
    ``(width, path)`` per row-block output; ``outs`` gives fn each one's rows
    [a, b) to fill in place, a (b - a) x width array or, when width is None,
    a vector. Outputs with a path are written block by block to an LFPB file,
    the others (vectors always) are kept in memory. The arrays fn returns, if
    any, are summed in block order. fn may change a block in place exactly
    when ``block.flags.writeable`` (see ``DataPanel.read_rows``); a read-only
    block is a view of an in-memory panel. A block is released before the
    next one is read, so the pass holds about ``BLOCK_BYTES`` beyond the
    panels' own storage, plus the sums, whatever the slice count.

    Returns ``(sums, outs)``: the summed arrays (None when fn returns None)
    and each output as a vector, an in-memory DataPanel or the panel read
    back from its file, in the slice layout of ``panels[0]``. On error every
    output file is closed and deleted.
    """
    layout = panels[0]
    height = max(1, BLOCK_BYTES // (8 * sum(panel.n for panel in panels)))
    memory = [np.empty(layout.p if width is None else (layout.p, width)) if path is None
              else None for width, path in outputs]
    sums = None
    with contextlib.ExitStack() as stack:
        writers = {i: stack.enter_context(PanelWriter(path, layout.p, width,
                                                      row_starts=layout.row_starts))
                   for i, (width, path) in enumerate(outputs) if path is not None}
        for a, b in zip(layout.row_starts, layout.row_starts[1:]):
            for start in range(a, b, height):
                rows = slice(start, min(start + height, b))
                blocks = [panel.read_rows(rows.start, rows.stop) for panel in panels]
                outs = [np.empty((rows.stop - rows.start, width)) if dest is None else dest[rows]
                        for dest, (width, _) in zip(memory, outputs)]
                parts = fn(rows, blocks, outs)
                for i, writer in writers.items():
                    writer.write_slice(outs[i])
                if parts is not None:
                    sums = ([np.array(part, dtype=np.float64) for part in parts] if sums is None
                            else [np.add(total, part, out=total)
                                  for total, part in zip(sums, parts)])
                blocks = outs = parts = None  # release this block before the next read
    return sums, [read_panel(path) if path is not None
                  else dest if width is None
                  else DataPanel(p=layout.p, n=width, row_starts=layout.row_starts, _array=dest)
                  for dest, (width, path) in zip(memory, outputs)]


def finite_row_sums(rows: slice, block: np.ndarray, out=None, source=None) -> np.ndarray:
    """Sums of the rows ``rows`` of a panel, read as ``block``, into ``out``
    when given: the one refusal of non-finite values. A sum that is not finite
    raises NumericalError naming the rows of the block and the first bad row,
    or, for a block of a stored model file named ``source``, ValidationError
    naming the file as well."""
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.sum(block, axis=1, out=out)
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        where = f"in rows [{rows.start}, {rows.stop}), first at row {rows.start + int(bad[0])}"
        if source is not None:
            raise ValidationError(f"{source}: non-finite values {where}")
        raise NumericalError(f"non-finite input {where}")
    return sums


def center_panel(panel: DataPanel, mean) -> DataPanel:
    """A view of ``panel`` whose rows read as the stored rows minus ``mean``.

    No pass, copy or file is made: ``read_rows``, ``iter_slices`` and
    ``to_array`` subtract the mean from each block as it is read. Centering
    a view again subtracts both means.
    """
    mean = np.asarray(mean, dtype=np.float64)
    return replace(panel, mean=mean if panel.mean is None else panel.mean + mean)


class ReadDigest:
    """SHA-256 of an LFPB file taken from the bytes its row reads return.

    Seeded with the header and offset table; a block read from where the
    digest stands (``start == rows``) is fed in as it was read from the
    file, any other read is not. After one pass in row order it equals the
    SHA-256 of the whole file, with no read of its own beyond the header.
    It takes no lock: ``stream`` reads, and so feeds it, in the calling thread.
    """

    def __init__(self, panel: DataPanel):
        with open(panel._path, "rb") as fh:
            self._sha = hashlib.sha256(fh.read(panel._payload_offset))
        self._path, self._p = panel._path, panel.p
        self.rows = 0

    def feed(self, start: int, block: np.ndarray) -> None:
        if start == self.rows:
            self._sha.update(memoryview(block))
            self.rows += block.shape[0]

    def hexdigest(self) -> str:
        """The file's digest; raises unless every row was fed exactly once."""
        if self.rows != self._p:
            raise RuntimeError(f"digest of {self._path} has seen {self.rows} "
                               f"of {self._p} rows in order")
        return self._sha.hexdigest()


def digest_panel(panel: DataPanel) -> DataPanel:
    """A view of a file-backed panel whose reads take the SHA-256 of its
    file (see :class:`ReadDigest`), available as ``view.digest``. Views made
    from it (``with_slices``, :func:`center_panel`) share the digest."""
    if not panel.file_backed:
        raise ValidationError("only a file-backed panel has a file to digest")
    return replace(panel, digest=ReadDigest(panel))


def panel_to_csv(panel: DataPanel, path) -> None:
    """Debug converter: one CSV row per panel row, 17 significant digits."""
    with open(path, "w") as fh:
        for _, block in panel.iter_slices():
            for row in block:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def panel_from_csv(path, n_slices: int = 1) -> DataPanel:
    """Debug converter: read a dense CSV written by :func:`panel_to_csv`."""
    if not Path(path).is_file():
        raise ValidationError(f"panel CSV not found: {path}")
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"cannot parse panel CSV {path}: {exc}") from None
    return DataPanel.from_array(arr, n_slices=n_slices)
