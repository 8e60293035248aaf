"""Out-of-core Euclidean metric space over a :class:`PointStream`.

:class:`ChunkedMetricSpace` implements the full
:class:`~repro.metric.base.MetricSpace` contract while holding at most a
handful of chunks in memory: every primitive that touches "all points"
iterates the stream's chunk grid, and index-array arguments are gathered
chunk-by-chunk through a small LRU.  Nothing here ever allocates an
``(n, dim)`` or ``(n, n)`` array — the only full-length temporaries are
1-D (running minima, assignment output), exactly as in the in-memory
kernels.

Numerical contract: results are **bit-identical** to
:class:`~repro.metric.euclidean.EuclideanSpace` over the materialised
points.  All heavy math goes through the same :mod:`repro.metric.kernels`
functions, and every kernel used here is row-independent (per-row GEMM
expansion / running minima), so chunk granularity cannot change a single
output bit.  Distance-evaluation accounting is likewise identical: each
primitive charges ``|I| * |J|`` scalar evaluations to the shared
:class:`~repro.metric.base.DistCounter`, the same tariff
``EuclideanSpace`` applies.

Access-pattern guidance (mirrors the in-memory space):

* pass ``i_idx=None`` for whole-space sweeps — they stream chunk by
  chunk with bounded memory;
* small, hot index sets (the current centers) are served from a
  dedicated row cache, so re-gathering them per batch costs nothing even
  on regenerating streams;
* :meth:`local` *materialises* its subset as an in-memory
  ``EuclideanSpace`` — intended for partition-sized machine views
  (``n/m`` points), the MapReduce contract, not for the whole space.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Union

import numpy as np

from repro.errors import MetricError
from repro.metric import kernels
from repro.metric.base import DistCounter, MetricSpace, TaskCounter
from repro.metric.euclidean import EuclideanSpace, kernels_fingerprint
from repro.store.stream import PointStream, SliceStream, StreamLike, as_stream
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, chunk_slices, resolve_chunk_size

__all__ = ["ChunkedMetricSpace", "as_space", "machine_view"]

SpaceLike = Union[MetricSpace, StreamLike]


class ChunkedMetricSpace(MetricSpace):
    """Euclidean :class:`MetricSpace` backed by a chunked point stream.

    Parameters
    ----------
    stream:
        A :class:`~repro.store.stream.PointStream` (or anything
        :func:`~repro.store.stream.as_stream` accepts: array, ``.npy``
        path).
    counter:
        Optional shared distance-evaluation counter.
    block_bytes:
        Memory budget per temporary distance block (forwarded to the
        chunked kernels, as in ``EuclideanSpace``).
    max_cached_chunks:
        Chunks kept hot in the LRU.  Two suffices for the sequential
        patterns; raise it for workloads that revisit a working set of
        chunks.
    max_cached_rows:
        Cap on the individual-row cache serving small hot index sets
        (centers).  Bounded, so memory stays O(chunks + rows), never O(n).
    """

    def __init__(
        self,
        stream: StreamLike,
        counter: DistCounter | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        max_cached_chunks: int = 2,
        max_cached_rows: int = 4096,
    ):
        stream = as_stream(stream)
        super().__init__(stream.n, counter)
        if max_cached_chunks < 1:
            raise MetricError(
                f"max_cached_chunks must be >= 1, got {max_cached_chunks}"
            )
        self.stream = stream
        self.block_bytes = int(block_bytes)
        self.max_cached_chunks = int(max_cached_chunks)
        self.max_cached_rows = int(max_cached_rows)
        # chunk index -> (coords float64 C-contiguous, per-row sq norms)
        self._chunks: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        # global row index -> (coords row, sq norm): the hot-center cache
        self._rows: OrderedDict[int, tuple[np.ndarray, float]] = OrderedDict()
        # Index sets at most this large are served row-by-row from the hot
        # cache (center snapshots, re-screened every batch); larger sets
        # (screening batches, partitions) go chunk-grouped instead.
        self._hot_threshold = min(256, self.max_cached_rows)
        # Re-entrant: _gather_hot holds the lock while _gather_bulk/_chunk
        # re-acquire it.  Shared (like the caches) across shallow copies,
        # so thread-pool batch runs serialise their cache mutations.
        self._lock = threading.RLock()

    @property
    def dim(self) -> int:
        """Coordinate dimension of the space."""
        return self.stream.dim

    def _compute_fingerprint(self) -> str:
        # Same tag family as EuclideanSpace: chunked results are
        # bit-identical to the in-memory kernels over the same points, so
        # equal data must fingerprint equally regardless of backing.
        # Reads every chunk once; the base class memoises the digest.
        return kernels_fingerprint(
            (self.n, self.dim),
            (self.stream.read_chunk(b) for b in range(self.stream.n_chunks)),
        )

    def range_view(
        self, start: int, stop: int, counter: DistCounter | None = None
    ) -> "ChunkedMetricSpace":
        """Out-of-core sub-space over the contiguous rows ``[start, stop)``.

        The machine-view twin of :meth:`local`: where ``local``
        materialises its subset, a range view stays chunked (a
        :class:`~repro.store.stream.SliceStream` over this space's
        stream), so a MapReduce reducer whose partition is a contiguous
        row range works out-of-core end to end.  The view has its own
        chunk caches and — unlike ``local`` — its *own* counter by
        default (reducer tasks report their evaluation counts back
        explicitly; see :class:`repro.mapreduce.tasks.TaskOutput`).
        """
        return ChunkedMetricSpace(
            SliceStream(self.stream, start, stop),
            counter=counter,
            block_bytes=self.block_bytes,
            max_cached_chunks=self.max_cached_chunks,
            max_cached_rows=self.max_cached_rows,
        )

    def release(self) -> None:
        """Drop the chunk and row caches (re-reads repopulate them).

        Reducer tasks call this when they finish so a round's worth of
        per-machine views does not pin one LRU of chunks each.
        """
        with self._lock:
            self._chunks.clear()
            self._rows.clear()

    def __copy__(self) -> "ChunkedMetricSpace":
        # Share the stream, caches and cache lock but allow the counter to
        # be swapped afterwards (the facade gives each batch run a private
        # counter).
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def __getstate__(self):
        # Locks do not pickle (process-pool tasks); caches are dropped too
        # — workers rebuild them from the (re-openable) stream.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_chunks"] = OrderedDict()
        state["_rows"] = OrderedDict()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # chunk & row plumbing
    # ------------------------------------------------------------------ #
    def _chunk(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Chunk ``b`` as (coords, squared norms), LRU-cached."""
        with self._lock:
            cached = self._chunks.get(b)
            if cached is not None:
                self._chunks.move_to_end(b)
                return cached
            coords = kernels.as_points(self.stream.read_chunk(b), f"chunk {b}")
            sq = np.einsum("ij,ij->i", coords, coords)
            self._chunks[b] = (coords, sq)
            while len(self._chunks) > self.max_cached_chunks:
                self._chunks.popitem(last=False)
            return coords, sq

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and squared norms for an arbitrary index array.

        Grouped by chunk so each needed chunk is read once.  Small index
        sets go through (and populate) the row cache — the hot path for
        center sets re-screened on every batch.
        """
        if idx.size == 0:
            return np.empty((0, self.dim)), np.empty(0)
        if idx.size <= self._hot_threshold:
            return self._gather_hot(idx)
        return self._gather_bulk(idx)

    def _gather_bulk(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cs = self.stream.chunk_size
        out = np.empty((idx.size, self.dim))
        sq_out = np.empty(idx.size)
        blocks = idx // cs
        for b in np.unique(blocks):
            mask = blocks == b
            coords, sq = self._chunk(int(b))
            local = idx[mask] - b * cs
            out[mask] = coords[local]
            sq_out[mask] = sq[local]
        return out, sq_out

    def _gather_hot(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.empty((idx.size, self.dim))
        sq_out = np.empty(idx.size)
        with self._lock:
            missing: list[int] = []
            for t, i in enumerate(idx):
                cached = self._rows.get(int(i))
                if cached is None:
                    missing.append(t)
                else:
                    out[t], sq_out[t] = cached
            if missing:
                miss_idx = idx[missing]
                coords, sq = self._gather_bulk(miss_idx)
                for t, i, row, s in zip(missing, miss_idx, coords, sq):
                    out[t], sq_out[t] = row, s
                    self._rows[int(i)] = (row.copy(), float(s))
                while len(self._rows) > self.max_cached_rows:
                    self._rows.popitem(last=False)
        return out, sq_out

    # ------------------------------------------------------------------ #
    # MetricSpace primitives
    # ------------------------------------------------------------------ #
    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        if not 0 <= int(j) < self.n:
            raise MetricError(f"point index {j} out of range for n={self.n}")
        p, _ = self._gather(np.asarray([int(j)], dtype=np.intp))
        p = p[0]
        if i_idx is None:
            out = np.empty(self.n)
            for b in range(self.stream.n_chunks):
                start, stop = self.stream.chunk_span(b)
                coords, _ = self._chunk(b)
                out[start:stop] = kernels.dists_to_point(coords, p)
        else:
            x, _ = self._gather(i_idx)
            out = kernels.dists_to_point(x, p)
        self.counter.add(out.shape[0])
        return out

    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        n_i, n_j = self._size(i_idx), self._size(j_idx)
        if n_i * n_j > kernels.MAX_DENSE_ELEMENTS:
            raise MetricError(
                f"cross({n_i}, {n_j}) exceeds the dense cap; "
                "use update_min_dists/nearest instead"
            )
        x, x_sq = self._gather_all() if i_idx is None else self._gather(i_idx)
        if j_idx is None:
            # one pass over the stream when both sides are "all points"
            y, y_sq = (x, x_sq) if i_idx is None else self._gather_all()
        else:
            y, y_sq = self._gather(j_idx)
        self.counter.add(n_i * n_j)
        out = kernels.sq_dists_block(x, y, x_sq, y_sq)
        np.sqrt(out, out=out)
        return out

    def _gather_all(self) -> tuple[np.ndarray, np.ndarray]:
        """All coordinates — only reachable under the dense-element cap
        (``cross`` on a small space, e.g. for distance-matrix caching)."""
        parts = [self._chunk(b) for b in range(self.stream.n_chunks)]
        if not parts:
            return np.empty((0, self.dim)), np.empty(0)
        coords = np.concatenate([c for c, _ in parts], axis=0)
        sq = np.concatenate([s for _, s in parts])
        return coords, sq

    def _x_segments(self, i_idx: np.ndarray | None):
        """Query points as (output slice, coords, sq norms) segments.

        ``None`` and contiguous row ranges (an evaluate task's rows)
        stream the chunk grid (bounded memory); any other index array
        materialises its ``(len(i_idx), dim)`` gather — the documented
        contract for explicit index sets.
        """
        span = (0, self.n) if i_idx is None else _contiguous_span(i_idx)
        if span is None:
            x, x_sq = self._gather(i_idx)
            yield slice(0, x.shape[0]), x, x_sq
            return
        lo, hi = span
        cs = self.stream.chunk_size
        for b in range(lo // cs, -(-hi // cs)):
            start, stop = self.stream.chunk_span(b)
            a, z = max(start, lo), min(stop, hi)
            coords, sq = self._chunk(b)
            part = slice(a - start, z - start)
            yield slice(a - lo, z - lo), coords[part], sq[part]

    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        n_i = self._size(i_idx)
        if current.shape != (n_i,):
            raise MetricError(
                f"current has shape {current.shape}, expected ({n_i},)"
            )
        n_j = self._size(j_idx)
        if n_j == 0:
            return current
        self.counter.add(n_i * n_j)
        if j_idx is None and self.stream.n_chunks > 1:
            # Full-space reference set: fold one reference chunk at a time
            # (running minima compose exactly) — never gathers (n, dim).
            # The fold computes through sq_dists_block directly rather
            # than kernels.update_min_dists, whose 1-row fused shortcut
            # would give a 1-row trailing chunk different bits than the
            # same column inside the in-memory space's whole-set GEMM.
            ws = kernels.workspace()  # blocks are folded before reuse
            for b in range(self.stream.n_chunks):
                y, y_sq = self._chunk(b)
                for out_sl, x, x_sq in self._x_segments(i_idx):
                    cur = current[out_sl]
                    x_rows = resolve_chunk_size(
                        y.shape[0], block_bytes=self.block_bytes
                    )
                    for sl in chunk_slices(x.shape[0], x_rows):
                        sq = kernels.sq_dists_block(x[sl], y, x_sq[sl], y_sq, ws=ws)
                        block_min = sq.min(axis=1, out=ws.take("rowmin", (sq.shape[0],)))
                        np.sqrt(block_min, out=block_min)
                        np.minimum(cur[sl], block_min, out=cur[sl])
            return current
        # Explicit reference set — or a single-chunk stream, where the
        # whole reference set reaches the kernel in one call exactly as
        # the in-memory space would pass it (1-row shortcut included).
        y, _ = (
            self._chunk(0) if j_idx is None else self._gather(j_idx)
        )
        for out_sl, x, _x_sq in self._x_segments(i_idx):
            kernels.update_min_dists(
                current[out_sl], x, y, block_bytes=self.block_bytes
            )
        return current

    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        n_j = self._size(j_idx)
        if n_j == 0:
            raise MetricError("nearest requires a non-empty reference set")
        n_i = self._size(i_idx)
        self.counter.add(n_i * n_j)
        pos = np.empty(n_i, dtype=np.intp)
        dist = np.empty(n_i, dtype=np.float64)

        ws = kernels.workspace()  # blocks are argmin-consumed before reuse

        def _scan(out_sl, x, x_sq, y, y_sq):
            """Positions/dists within one reference block (the in-memory
            space's inner loop, over gathered or chunked queries)."""
            x_chunk = resolve_chunk_size(y.shape[0], block_bytes=self.block_bytes)
            p_out, d_out = pos[out_sl], dist[out_sl]
            for sl in chunk_slices(x.shape[0], x_chunk):
                sq = kernels.sq_dists_block(x[sl], y, x_sq[sl], y_sq, ws=ws)
                p = sq.argmin(axis=1)
                p_out[sl] = p
                d = sq[np.arange(sq.shape[0]), p]
                np.sqrt(d, out=d)
                d_out[sl] = d

        if j_idx is not None:
            y, y_sq = self._gather(j_idx)
            for out_sl, x, x_sq in self._x_segments(i_idx):
                _scan(out_sl, x, x_sq, y, y_sq)
            return pos, dist

        # Full-space reference set: running argmin over reference chunks
        # (strict < keeps the earliest minimum, matching a whole-row
        # argmin) — never gathers (n, dim).
        best_sq = np.full(n_i, np.inf)
        pos.fill(0)
        for out_sl, x, x_sq in self._x_segments(i_idx):
            b_sq, b_pos = best_sq[out_sl], pos[out_sl]
            for b in range(self.stream.n_chunks):
                offset = b * self.stream.chunk_size
                y, y_sq = self._chunk(b)
                x_chunk = resolve_chunk_size(
                    y.shape[0], block_bytes=self.block_bytes
                )
                for sl in chunk_slices(x.shape[0], x_chunk):
                    sq = kernels.sq_dists_block(x[sl], y, x_sq[sl], y_sq, ws=ws)
                    p = sq.argmin(axis=1)
                    d = sq[np.arange(sq.shape[0]), p]
                    better = d < b_sq[sl]
                    b_sq[sl] = np.where(better, d, b_sq[sl])
                    b_pos[sl] = np.where(better, p + offset, b_pos[sl])
        np.sqrt(best_sq, out=dist)
        return pos, dist

    def local(self, i_idx: np.ndarray) -> EuclideanSpace:
        """Compact **in-memory** sub-space over ``i_idx``.

        Materialises ``(len(i_idx), dim)`` coordinates — the MapReduce
        machine-view contract (a partition must fit on its machine).
        Shares this space's counter.
        """
        i_idx = self._check(i_idx, "i_idx")
        coords, _ = self._gather(i_idx)
        return EuclideanSpace(
            coords, counter=self.counter, block_bytes=self.block_bytes
        )


def _contiguous_span(idx: np.ndarray) -> tuple[int, int] | None:
    """``(start, stop)`` when ``idx`` is exactly ``range(start, stop)``."""
    if not idx.size or idx[-1] - idx[0] + 1 != idx.size:
        return None
    return (int(idx[0]), int(idx[-1]) + 1) if np.all(np.diff(idx) == 1) else None


def machine_view(
    space: MetricSpace, idx: np.ndarray, counter: DistCounter | None = None
) -> MetricSpace:
    """The sub-space one simulated machine works on, with private accounting.

    A contiguous index range over a :class:`ChunkedMetricSpace` stays
    out-of-core (:meth:`ChunkedMetricSpace.range_view` over a stream
    slice — the sharded-input fast path, where the driver never gathers
    coordinate data); any other combination materialises via
    :meth:`~repro.metric.base.MetricSpace.local`.  Either way the view
    gets its own private counter (``counter``, or a fresh lock-free
    :class:`~repro.metric.base.TaskCounter` — the view is owned by one
    reducer task, so per-block locking buys nothing) instead of sharing
    the parent's, so a reducer task can run anywhere — including a
    process-pool worker — and report its evaluation count back
    explicitly, one locked fold per task.  Results are bit-identical
    between the two paths (the store layer's parity contract).
    """
    counter = TaskCounter() if counter is None else counter
    idx = np.asarray(idx, dtype=np.intp)
    span = _contiguous_span(idx) if isinstance(space, ChunkedMetricSpace) else None
    if span is not None:
        return space.range_view(*span, counter=counter)
    local = space.local(idx)
    local.counter = counter
    return local


def _bind_views_eagerly(space: MetricSpace, executor) -> bool:
    """Whether reducer tasks should carry a prebuilt machine view.

    Only worth it for in-memory spaces crossing a process boundary
    *without* a zero-copy route: pickling the prebuilt view ships just
    the shard's rows, where the parent space would ship the whole
    dataset to every worker.  Chunked spaces always bind lazily — they
    pickle by re-opening their backing (no data crosses) — and so do
    spaces published to shared memory (``space._shared`` set inside a
    :func:`repro.store.shm.shared_space` scope): they pickle as a
    ~100-byte handle, and the worker builds the view against the
    attached block, keeping even the shard-row copies off the driver.
    """
    return (
        executor.crosses_process_boundary
        and not isinstance(space, ChunkedMetricSpace)
        and getattr(space, "_shared", None) is None
    )


def as_space(data: SpaceLike, chunk_size: int | None = None) -> MetricSpace:
    """Coerce solve-facade input into a :class:`MetricSpace`.

    * a :class:`MetricSpace` passes through unchanged (``chunk_size``
      must then be left unset);
    * a :class:`~repro.store.stream.PointStream`, a ``.npy`` path, or a
      sharded directory (see :mod:`repro.store.sharded`) wraps in a
      :class:`ChunkedMetricSpace` (out-of-core);
    * anything array-like becomes an in-memory
      :class:`~repro.metric.euclidean.EuclideanSpace` — unless a
      ``chunk_size`` is given, which requests the chunked adapter over an
      :class:`~repro.store.stream.ArrayStream` instead.
    """
    if isinstance(data, MetricSpace):
        if chunk_size is not None:
            raise MetricError(
                "chunk_size cannot be applied to an existing MetricSpace"
            )
        return data
    from pathlib import Path

    if isinstance(data, (PointStream, str, Path)) or chunk_size is not None:
        return ChunkedMetricSpace(as_stream(data, chunk_size=chunk_size))
    return EuclideanSpace(data)
