"""Euclidean metric space over a dense coordinate array.

This is the space used by every experiment in the paper ("In all of the
experiments, the distance is Euclidean, computed as required from the
locations of the points", Section 7.2).  Squared norms are precomputed once
so each block distance is a single GEMM plus broadcasting.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import MetricError
from repro.metric import kernels
from repro.metric.base import DistCounter, MetricSpace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, chunk_slices, resolve_chunk_size

__all__ = ["EuclideanSpace"]


class EuclideanSpace(MetricSpace):
    """Finite Euclidean space over an ``(n, d)`` coordinate array.

    Parameters
    ----------
    points:
        ``(n, d)`` array-like; converted once to C-contiguous float64.
    counter:
        Optional shared distance-evaluation counter.
    block_bytes:
        Memory budget per temporary distance block (see
        :mod:`repro.utils.chunking`).
    """

    def __init__(
        self,
        points,
        counter: DistCounter | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        pts = kernels.as_points(points)
        super().__init__(pts.shape[0], counter)
        self.points = pts
        self.block_bytes = int(block_bytes)
        self._sq = np.einsum("ij,ij->i", pts, pts)
        # Zero-copy transport handle (repro.store.shm.shared_space): when
        # set, pickling ships the handle and the far side re-attaches the
        # published block instead of copying the rows.
        self._shared = None

    def __getstate__(self):
        state = self.__dict__.copy()
        if state.get("_shared") is not None:
            state["points"] = None
            state["_sq"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.points is None and self._shared is not None:
            self.points, self._sq = self._shared.attach_with_sq()

    @property
    def dim(self) -> int:
        """Coordinate dimension of the space."""
        return self.points.shape[1]

    def fingerprint(self) -> str:
        """Digest of the shape and the float64 coordinate bytes.

        Computed once per instance: a space's data is immutable by
        contract.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            tag = "points:{}x{}".format(*self.points.shape)
            digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16)
            digest.update(self.points.tobytes())
            fp = self._fingerprint = f"{tag}:{digest.hexdigest()}"
        return fp

    # ------------------------------------------------------------------ #
    def _coords(self, idx: np.ndarray | None) -> np.ndarray:
        return self.points if idx is None else self.points[idx]

    def _sqn(self, idx: np.ndarray | None) -> np.ndarray:
        return self._sq if idx is None else self._sq[idx]

    # ------------------------------------------------------------------ #
    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        if not 0 <= int(j) < self.n:
            raise MetricError(f"point index {j} out of range for n={self.n}")
        x = self._coords(i_idx)
        self.counter.add(x.shape[0])
        return kernels.dists_to_point(x, self.points[int(j)])

    def traversal(self, cols: int):
        """Column-major steps (:func:`~repro.metric.kernels.column_traversal`)
        where :func:`~repro.metric.kernels.column_traversal_pays`; the
        base :meth:`dists_to` step otherwise.  Same bits either way."""
        if kernels.column_traversal_pays(self.n, self.dim):
            return kernels.column_traversal(self.points, cols, self.counter)
        return super().traversal(cols)

    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x, y = self._coords(i_idx), self._coords(j_idx)
        n_el = x.shape[0] * y.shape[0]
        if n_el > kernels.MAX_DENSE_ELEMENTS:
            raise MetricError(
                f"cross({x.shape[0]}, {y.shape[0]}) exceeds the dense cap; "
                "use update_min_dists/nearest instead"
            )
        self.counter.add(n_el)
        out = kernels.sq_dists_block(x, y, self._sqn(i_idx), self._sqn(j_idx))
        np.sqrt(out, out=out)
        return out

    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x = self._coords(i_idx)
        y = self._coords(j_idx)
        if current.shape != (x.shape[0],):
            raise MetricError(
                f"current has shape {current.shape}, expected ({x.shape[0]},)"
            )
        if y.shape[0] == 0:
            return current
        self.counter.add(x.shape[0] * y.shape[0])
        return kernels.update_min_dists(
            current,
            x,
            y,
            block_bytes=self.block_bytes,
            x_sq=self._sqn(i_idx),
            y_sq=self._sqn(j_idx),
        )

    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x, y = self._coords(i_idx), self._coords(j_idx)
        if y.shape[0] == 0:
            raise MetricError("nearest requires a non-empty reference set")
        self.counter.add(x.shape[0] * y.shape[0])
        y_sq = self._sqn(j_idx)
        pos = np.empty(x.shape[0], dtype=np.intp)
        dist = np.empty(x.shape[0], dtype=np.float64)
        x_chunk = resolve_chunk_size(y.shape[0], block_bytes=self.block_bytes)
        x_sq_all = self._sqn(i_idx)
        ws = kernels.workspace()  # blocks are argmin-consumed before reuse
        for sl in chunk_slices(x.shape[0], x_chunk):
            sq = kernels.sq_dists_block(x[sl], y, x_sq_all[sl], y_sq, ws=ws)
            p = sq.argmin(axis=1)
            pos[sl] = p
            d = sq[np.arange(sq.shape[0]), p]
            np.sqrt(d, out=d)
            dist[sl] = d
        return pos, dist

    def _sub(self, rows, counter: DistCounter | None) -> "EuclideanSpace":
        """A space over ``self.points[rows]``: the rows were validated and
        their squared norms computed when this space was built, so
        neither is redone."""
        if isinstance(rows, slice):
            pts, sq = self.points[rows], self._sq[rows]
        else:
            pts, sq = self.points.take(rows, axis=0), self._sq.take(rows)
        sub = EuclideanSpace.__new__(EuclideanSpace)
        MetricSpace.__init__(sub, pts.shape[0], counter)
        sub.points, sub._sq = pts, sq
        sub.block_bytes = self.block_bytes
        sub._shared = None
        return sub

    def local(self, i_idx: np.ndarray) -> "EuclideanSpace":
        return self._sub(self._check(i_idx, "i_idx"), self.counter)

    def range_view(
        self, start: int, stop: int, counter: DistCounter | None = None
    ) -> "EuclideanSpace":
        """Zero-copy sub-space over the contiguous rows ``[start, stop)``.

        The machine view of a block-partitioned MRG shard (see
        :func:`repro.store.space.machine_view`), mirroring
        :meth:`repro.store.space.ChunkedMetricSpace.range_view`: its own
        counter by default, and the rows viewed in place, not copied.
        """
        if not 0 <= start <= stop <= self.n:
            raise MetricError(f"row range [{start}, {stop}) out of range for n={self.n}")
        return self._sub(slice(start, stop), counter)
