"""Minkowski (L_p) metric spaces.

The paper only evaluates Euclidean inputs, but the algorithms it studies are
metric algorithms: GON's 2-approximation and MRG's 4-approximation hold in
*any* metric (the proofs use only the triangle inequality).  This space lets
the test suite exercise that generality (L1, L-infinity, fractional-free
p >= 1) and lets downstream users cluster under city-block or Chebyshev
geometry.

Block distances go through :func:`scipy.spatial.distance.cdist`, chunked to
the same byte budget as the Euclidean GEMM path.  ``scipy`` is imported on
first use, so importing :mod:`repro` does not load it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metric import kernels
from repro.metric.base import DistCounter, MetricSpace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, chunk_slices, resolve_chunk_size

__all__ = ["MinkowskiSpace"]


class MinkowskiSpace(MetricSpace):
    """Finite L_p space over an ``(n, d)`` coordinate array, ``p >= 1``.

    ``p = np.inf`` gives the Chebyshev metric.  ``p < 1`` is rejected: it
    does not satisfy the triangle inequality, which every approximation
    guarantee in the paper relies on.
    """

    def __init__(
        self,
        points,
        p: float = 1.0,
        counter: DistCounter | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        pts = kernels.as_points(points)
        if not (p >= 1.0):  # also rejects NaN
            raise MetricError(f"Minkowski p must be >= 1 (triangle inequality), got {p}")
        super().__init__(pts.shape[0], counter)
        self.points = pts
        self.p = float(p)
        self.block_bytes = int(block_bytes)
        # Zero-copy transport handle (repro.store.shm.shared_space); see
        # EuclideanSpace — Minkowski has no cached norms to rebuild.
        self._shared = None

    def __getstate__(self):
        state = self.__dict__.copy()
        if state.get("_shared") is not None:
            state["points"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.points is None and self._shared is not None:
            self.points = self._shared.attach()

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _coords(self, idx: np.ndarray | None) -> np.ndarray:
        return self.points if idx is None else self.points[idx]

    def _cdist(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        try:
            from scipy.spatial.distance import cdist
        except ImportError as exc:
            raise MetricError(
                "MinkowskiSpace needs scipy (scipy.spatial.distance.cdist); "
                "install scipy to use it"
            ) from exc
        if np.isinf(self.p):
            return cdist(x, y, metric="chebyshev")
        if self.p == 1.0:
            return cdist(x, y, metric="cityblock")
        if self.p == 2.0:
            return cdist(x, y, metric="euclidean")
        return cdist(x, y, metric="minkowski", p=self.p)

    # ------------------------------------------------------------------ #
    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        if not 0 <= int(j) < self.n:
            raise MetricError(f"point index {j} out of range for n={self.n}")
        x = self._coords(i_idx)
        self.counter.add(x.shape[0])
        diff = np.abs(x - self.points[int(j)][None, :])
        if np.isinf(self.p):
            return diff.max(axis=1)
        if self.p == 1.0:
            return diff.sum(axis=1)
        return (diff**self.p).sum(axis=1) ** (1.0 / self.p)

    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x, y = self._coords(i_idx), self._coords(j_idx)
        n_el = x.shape[0] * y.shape[0]
        if n_el > kernels.MAX_DENSE_ELEMENTS:
            raise MetricError(
                f"cross({x.shape[0]}, {y.shape[0]}) exceeds the dense cap"
            )
        self.counter.add(n_el)
        return self._cdist(x, y)

    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x, y = self._coords(i_idx), self._coords(j_idx)
        if current.shape != (x.shape[0],):
            raise MetricError(
                f"current has shape {current.shape}, expected ({x.shape[0]},)"
            )
        if y.shape[0] == 0:
            return current
        self.counter.add(x.shape[0] * y.shape[0])
        x_chunk = resolve_chunk_size(y.shape[0], block_bytes=self.block_bytes)
        for sl in chunk_slices(x.shape[0], x_chunk):
            block = self._cdist(x[sl], y)
            np.minimum(current[sl], block.min(axis=1), out=current[sl])
        return current

    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        x, y = self._coords(i_idx), self._coords(j_idx)
        if y.shape[0] == 0:
            raise MetricError("nearest requires a non-empty reference set")
        self.counter.add(x.shape[0] * y.shape[0])
        pos = np.empty(x.shape[0], dtype=np.intp)
        dist = np.empty(x.shape[0], dtype=np.float64)
        x_chunk = resolve_chunk_size(y.shape[0], block_bytes=self.block_bytes)
        for sl in chunk_slices(x.shape[0], x_chunk):
            block = self._cdist(x[sl], y)
            p = block.argmin(axis=1)
            pos[sl] = p
            dist[sl] = block[np.arange(block.shape[0]), p]
        return pos, dist

    def local(self, i_idx: np.ndarray) -> "MinkowskiSpace":
        i_idx = self._check(i_idx, "i_idx")
        return MinkowskiSpace(
            self.points[i_idx],
            p=self.p,
            counter=self.counter,
            block_bytes=self.block_bytes,
        )
