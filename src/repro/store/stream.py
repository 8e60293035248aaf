"""Chunked point streams: the out-of-core data interface.

A :class:`PointStream` is a finite sequence of points exposed as fixed-size
coordinate *chunks* plus their global row offsets.  It is the contract
between data that may not fit in memory (``.npy`` files, synthetic
generators) and the consumers that only ever need one block at a time (the
:class:`~repro.store.space.ChunkedMetricSpace` adapter, ``to_npy`` export,
chunk-aligned MapReduce partitioning).

The chunk grid is uniform: chunk ``i`` covers global rows
``[i * chunk_size, min((i + 1) * chunk_size, n))``, so any global index
maps to (chunk, offset-within-chunk) by integer division — random access
never needs an index structure.  Two access styles:

* **sequential** — ``for block, offset in stream:`` yields every chunk
  once, in order (the one-pass pattern of the streaming solver and of
  ``to_npy``);
* **random** — ``read_chunk(i)`` returns one chunk by number (the gather
  pattern of :class:`~repro.store.space.ChunkedMetricSpace`).

Implementations must be *deterministic*: ``read_chunk(i)`` returns the
same bits every call, so a stream can be re-read (second evaluation pass)
and cached chunk-by-chunk.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from repro.errors import DatasetError, InvalidParameterError
from repro.metric import kernels
from repro.utils.chunking import chunk_bounds, resolve_chunk_size

__all__ = [
    "PointStream",
    "ArrayStream",
    "MemmapStream",
    "SliceStream",
    "as_stream",
    "default_chunk_rows",
    "write_npy",
    "DEFAULT_CHUNK_BYTES",
]

#: Default byte budget for one stream chunk.  A chunk is *resident
#: coordinate data* (several live at once in the chunk LRU, plus copies
#: at the read boundary), not a transient kernel block, so it is sized
#: for read/generate overhead and out-of-core peak memory rather than
#: for cache: a 32 MiB chunk would make peak memory approach the file
#: size for medium inputs, while 4 MiB keeps peak O(a few chunks) and
#: still amortises read/generate overhead.
DEFAULT_CHUNK_BYTES = 4 * 2**20

#: What :func:`as_stream` accepts: an existing stream, a coordinate
#: array(-like), or a path to a ``.npy`` file.
StreamLike = Union["PointStream", np.ndarray, str, Path]


def default_chunk_rows(
    dim: int, itemsize: int = 8, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> int:
    """Rows per chunk so one ``(rows, dim)`` block stays under the budget."""
    if dim <= 0:
        raise InvalidParameterError(f"dim must be positive, got {dim}")
    return resolve_chunk_size(dim, itemsize=itemsize, block_bytes=chunk_bytes)


class PointStream(abc.ABC):
    """Abstract chunked view of an ``(n, dim)`` point set.

    Subclasses call ``super().__init__(n, dim, chunk_size)`` and implement
    :meth:`read_chunk`; everything else (iteration, bounds, export) is
    derived.  ``chunk_size`` defaults to :func:`default_chunk_rows` when
    the subclass passes ``None``.
    """

    def __init__(self, n: int, dim: int, chunk_size: int | None):
        if n < 0:
            raise InvalidParameterError(f"stream size must be >= 0, got {n}")
        if dim <= 0:
            raise InvalidParameterError(f"stream dim must be positive, got {dim}")
        if chunk_size is None:
            chunk_size = default_chunk_rows(dim)
        if chunk_size <= 0:
            raise InvalidParameterError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        self._n = int(n)
        self._dim = int(dim)
        self._chunk_size = int(chunk_size)

    # ------------------------------------------------------------------ #
    # geometry of the chunk grid
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Total number of points."""
        return self._n

    @property
    def dim(self) -> int:
        """Coordinate dimension."""
        return self._dim

    @property
    def chunk_size(self) -> int:
        """Nominal rows per chunk (the final chunk may be shorter)."""
        return self._chunk_size

    @property
    def n_chunks(self) -> int:
        """Number of chunks covering the stream."""
        return -(-self._n // self._chunk_size) if self._n else 0

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the chunks :meth:`read_chunk` returns."""
        return np.dtype(np.float64)

    def __len__(self) -> int:
        return self._n

    def chunk_span(self, i: int) -> tuple[int, int]:
        """Global ``(start, stop)`` row range of chunk ``i``."""
        if not 0 <= i < self.n_chunks:
            raise InvalidParameterError(
                f"chunk {i} out of range for a stream of {self.n_chunks} chunks"
            )
        start = i * self._chunk_size
        return start, min(start + self._chunk_size, self._n)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def read_chunk(self, i: int) -> np.ndarray:
        """Chunk ``i`` as a ``(rows, dim)`` array (deterministic per call)."""

    def __iter__(self) -> Iterator[tuple[np.ndarray, int]]:
        """Yield every ``(chunk_array, global_offset)`` pair, in order."""
        for i, (start, _stop) in enumerate(chunk_bounds(self._n, self._chunk_size)):
            yield self.read_chunk(i), start

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_npy(self, path: str | Path) -> Path:
        """Write the stream to ``path`` as a ``.npy`` file, one chunk at a
        time — peak extra memory is one chunk, never ``(n, dim)``."""
        return write_npy(self, path)


def write_npy(stream: PointStream, path: str | Path) -> Path:
    """Stream ``stream`` into a ``.npy`` file without materialising it.

    Uses :func:`numpy.lib.format.open_memmap` so only the chunk being
    written is ever resident.  Returns the path, ready for
    :class:`MemmapStream`.
    """
    path = Path(path)
    if stream.n == 0:
        raise DatasetError("refusing to write an empty stream to disk")
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=(stream.n, stream.dim)
    )
    try:
        for block, offset in stream:
            out[offset : offset + block.shape[0]] = block
        out.flush()
    finally:
        del out  # close the memmap promptly (Windows-safe file handling)
    return path


class ArrayStream(PointStream):
    """Stream view over an in-memory ``(n, dim)`` array.

    The adapter that lets everything written against :class:`PointStream`
    also run on ordinary arrays (and the reference implementation the
    out-of-core parity tests compare against).  Chunks are views — no
    copies.
    """

    def __init__(self, points, chunk_size: int | None = None):
        pts = kernels.as_points(points)
        super().__init__(pts.shape[0], pts.shape[1], chunk_size)
        self.points = pts

    def read_chunk(self, i: int) -> np.ndarray:
        start, stop = self.chunk_span(i)
        return self.points[start:stop]


class MemmapStream(PointStream):
    """Stream over an on-disk ``.npy`` file via :func:`numpy.load` memmap.

    Only the chunk being read is materialised (a copy of that block);
    the file itself is mapped read-only and never loaded wholesale.  The
    file must hold a 2-D real-valued array; chunks are converted to
    C-contiguous float64 at the read boundary.
    """

    def __init__(self, path: str | Path, chunk_size: int | None = None):
        self.path = Path(path)
        if not self.path.exists():
            raise DatasetError(f"no such dataset file: {self.path}")
        try:
            mm = np.load(self.path, mmap_mode="r")
        except ValueError as exc:
            raise DatasetError(f"not a loadable .npy file: {self.path} ({exc})") from None
        if not isinstance(mm, np.ndarray):
            # np.load returns an NpzFile for .npz archives
            raise DatasetError(
                f"{self.path} is an archive, not a single-array .npy file"
            )
        if mm.ndim != 2:
            raise DatasetError(
                f"{self.path} holds a {mm.ndim}-D array; point files must be (n, dim)"
            )
        if not np.issubdtype(mm.dtype, np.number) or np.issubdtype(mm.dtype, np.complexfloating):
            raise DatasetError(
                f"{self.path} has non-real dtype {mm.dtype}; point files must be numeric"
            )
        super().__init__(mm.shape[0], mm.shape[1], chunk_size)
        self._mm = mm
        self._file_dtype = mm.dtype

    @property
    def file_dtype(self) -> np.dtype:
        """Dtype as stored on disk (chunks are served as float64)."""
        return self._file_dtype

    def read_chunk(self, i: int) -> np.ndarray:
        start, stop = self.chunk_span(i)
        # np.ascontiguousarray copies exactly this block out of the map;
        # nothing outside [start, stop) is touched.
        return np.ascontiguousarray(self._mm[start:stop], dtype=np.float64)

    def __reduce__(self):
        # Memmaps do not pickle; re-open from the path (process-pool tasks).
        return (type(self), (str(self.path), self._chunk_size))


class SliceStream(PointStream):
    """Contiguous row-range view ``[start, stop)`` of another stream.

    This is the *machine view* of a larger dataset: a MapReduce reducer
    whose partition is a contiguous global row range can consume exactly
    its rows out-of-core, re-chunked onto the view's own grid (nominal
    chunk size inherited from the parent).  Chunks that straddle parent
    chunk boundaries are stitched from at most two parent reads; nothing
    beyond one parent chunk is ever resident here.

    Picklable whenever the parent stream is — a process-pool worker
    re-opens the parent backing (memmap, shard directory, generator) and
    slices it locally, so coordinate data never crosses the pickle
    boundary for file-backed parents.
    """

    def __init__(self, parent: PointStream, start: int, stop: int):
        if not 0 <= start <= stop <= parent.n:
            raise InvalidParameterError(
                f"slice [{start}, {stop}) out of range for a stream of {parent.n} rows"
            )
        super().__init__(stop - start, parent.dim, parent.chunk_size)
        self.parent = parent
        self.start = int(start)
        self.stop = int(stop)

    def read_chunk(self, i: int) -> np.ndarray:
        lo, hi = self.chunk_span(i)
        lo, hi = lo + self.start, hi + self.start
        cs = self.parent.chunk_size
        b_first, b_last = lo // cs, (hi - 1) // cs
        parts = []
        for b in range(b_first, b_last + 1):
            b_start = b * cs
            block = self.parent.read_chunk(b)
            parts.append(block[max(lo, b_start) - b_start : hi - b_start])
        if len(parts) == 1:
            # Real copy (a row slice is already contiguous, so
            # ascontiguousarray would alias): a cached view chunk must
            # not pin the whole parent chunk it was cut from.
            return parts[0].copy()
        return np.concatenate(parts, axis=0)


def as_stream(data: StreamLike, chunk_size: int | None = None) -> PointStream:
    """Coerce stream-like input into a :class:`PointStream`.

    * a stream passes through unchanged (``chunk_size`` must then be
      ``None`` or match — re-chunking an existing stream is not implicit);
    * a ``str`` / :class:`~pathlib.Path` to a ``.npy`` file opens a
      :class:`MemmapStream`; a directory (or its ``manifest.json``) opens
      a :class:`~repro.store.sharded.ShardedStream`;
    * anything array-like wraps in an :class:`ArrayStream`.
    """
    if isinstance(data, PointStream):
        if chunk_size is not None and chunk_size != data.chunk_size:
            raise InvalidParameterError(
                f"stream already has chunk_size={data.chunk_size}; "
                f"cannot implicitly re-chunk to {chunk_size}"
            )
        return data
    if isinstance(data, (str, Path)):
        path = Path(data)
        if path.is_dir() or path.name == "manifest.json":
            from repro.store.sharded import ShardedStream

            return ShardedStream(path, chunk_size=chunk_size)
        return MemmapStream(data, chunk_size=chunk_size)
    return ArrayStream(data, chunk_size=chunk_size)
