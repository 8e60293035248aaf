"""Metric space backed by an explicit distance matrix.

Only sensible for small ``n`` (the matrix is O(n^2)); used by the exact
oracle, the Hochbaum–Shmoys bottleneck solver, metric-axiom tests, and any
user whose dissimilarities are not coordinate-derived (e.g. edit distances
between documents — the "least similar document" application from the
paper's introduction).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metric.base import DistCounter, MetricSpace

__all__ = ["PrecomputedSpace"]


class PrecomputedSpace(MetricSpace):
    """Finite metric space given by an ``(n, n)`` distance matrix.

    Parameters
    ----------
    dist_matrix:
        Square, symmetric, zero-diagonal, non-negative array-like.
    validate:
        When true (default) the matrix is checked for symmetry, zero
        diagonal and non-negativity.  Triangle-inequality checking is
        O(n^3) and left to :func:`repro.metric.validation.check_metric_axioms`.
    """

    def __init__(self, dist_matrix, counter: DistCounter | None = None, validate: bool = True):
        d = np.ascontiguousarray(dist_matrix, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricError(f"distance matrix must be square, got shape {d.shape}")
        if validate and d.size:
            if not np.isfinite(d).all():
                raise MetricError("distance matrix contains non-finite values")
            if (d < 0).any():
                raise MetricError("distance matrix contains negative entries")
            if not np.allclose(d, d.T, rtol=1e-10, atol=1e-12):
                raise MetricError("distance matrix is not symmetric")
            if not np.allclose(np.diag(d), 0.0, atol=1e-12):
                raise MetricError("distance matrix diagonal is not zero")
        super().__init__(d.shape[0], counter)
        self.matrix = d

    def _rows(self, idx: np.ndarray | None) -> np.ndarray:
        return self.matrix if idx is None else self.matrix[idx]

    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        if not 0 <= int(j) < self.n:
            raise MetricError(f"point index {j} out of range for n={self.n}")
        col = self.matrix[:, int(j)]
        out = col.copy() if i_idx is None else col[i_idx]
        self.counter.add(out.shape[0])
        return out

    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        i_idx = self._check(i_idx, "i_idx")
        j_idx = self._check(j_idx, "j_idx")
        block = self._rows(i_idx)
        block = block if j_idx is None else block[:, j_idx]
        self.counter.add(block.size)
        return np.ascontiguousarray(block)

    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        block = self.cross(i_idx, j_idx)
        if current.shape != (block.shape[0],):
            raise MetricError(
                f"current has shape {current.shape}, expected ({block.shape[0]},)"
            )
        if block.shape[1] == 0:
            return current
        np.minimum(current, block.min(axis=1), out=current)
        return current

    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        block = self.cross(i_idx, j_idx)
        if block.shape[1] == 0:
            raise MetricError("nearest requires a non-empty reference set")
        pos = block.argmin(axis=1)
        return pos, block[np.arange(block.shape[0]), pos]

    def local(self, i_idx: np.ndarray) -> "PrecomputedSpace":
        i_idx = self._check(i_idx, "i_idx")
        sub = self.matrix[np.ix_(i_idx, i_idx)]
        return PrecomputedSpace(sub, counter=self.counter, validate=False)
