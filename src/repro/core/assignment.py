"""Point-to-center assignment and objective evaluation.

The k-center objective (paper, Definition in Section 1.1) assigns every
point to its nearest chosen center; the solution value is the maximum
assignment distance (the covering radius).  Both operations here run
through the chunked space kernels, so they are safe at n = 10^6.

:func:`evaluate_on` is the MapReduce solvers' evaluate pass: the same
covering radius, computed as one task per pool worker over contiguous
row ranges and max-folded on the driver.  The kernels give every row
the same bits under any blocking, and ``max`` is exact, so the folded
radius equals :func:`covering_radius` bit for bit.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.errors import InvalidParameterError, TaskFailedError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.tasks import TaskOutput, TaskSpec, bind_round, commit
from repro.metric.base import MetricSpace, TaskCounter
from repro.obs import trace as _trace
from repro.store.space import _bind_views_eagerly, machine_view
from repro.utils.chunking import chunk_bounds

__all__ = ["assign", "covering_radius", "cluster_sizes", "evaluate_on"]


def assign(
    space: MetricSpace,
    centers: np.ndarray,
    i_idx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point to its nearest center.

    Parameters
    ----------
    space:
        The metric space.
    centers:
        Global indices of the chosen centers (non-empty).
    i_idx:
        Points to assign (default: all points of the space).

    Returns
    -------
    labels, dists:
        ``labels[t]`` is the *position within centers* of point ``t``'s
        nearest center (so ``centers[labels[t]]`` is its global index) and
        ``dists[t]`` the corresponding distance.
    """
    centers = np.asarray(centers, dtype=np.intp)
    if centers.size == 0:
        raise InvalidParameterError("assign requires at least one center")
    return space.nearest(i_idx, centers)


def covering_radius(
    space: MetricSpace,
    centers: np.ndarray,
    i_idx: np.ndarray | None = None,
) -> float:
    """The k-center objective: max distance to the nearest center."""
    centers = np.asarray(centers, dtype=np.intp)
    if centers.size == 0:
        raise InvalidParameterError("covering_radius requires at least one center")
    return space.covering_radius(centers, i_idx)


def _radius_task(
    space: MetricSpace, start: int, stop: int, centers: np.ndarray
) -> TaskOutput:
    """Covering radius of rows ``[start, stop)``, on a private counter."""
    shadow = copy.copy(space)
    shadow.counter = TaskCounter()
    rows = None if (start, stop) == (0, space.n) else np.arange(start, stop)
    radius = shadow.covering_radius(centers, rows)
    return TaskOutput(radius, shadow.counter.evals)


def evaluate_on(
    cluster: SimulatedCluster, space: MetricSpace, centers: np.ndarray
) -> float:
    """The covering radius of ``centers``, evaluated on ``cluster``'s pool.

    Issues one task per pool worker, each over a contiguous row range,
    and returns the maximum of their radii — bit-identical to
    :func:`covering_radius`.  ``space`` is the solver's task space (the
    shared-memory clone inside a :func:`repro.store.shm.shared_space`
    block), so workers reuse the segment they already attached.  The
    n·k evaluations travel back through
    :class:`~repro.mapreduce.tasks.TaskOutput` into the cluster's
    watched counter.  The pass is not a MapReduce round: it skips the
    capacity check, adds nothing to ``cluster.stats``, and it and its
    tasks trace as ``evaluate`` spans, not as ``round`` and ``task``.
    """
    centers = np.asarray(centers, dtype=np.intp)
    if centers.size == 0:
        raise InvalidParameterError("covering_radius requires at least one center")
    executor = cluster.executor
    eager = _bind_views_eagerly(space, executor)
    rows = max(1, math.ceil(space.n / getattr(executor, "workers", 1)))
    specs = []
    for start, stop in chunk_bounds(space.n, rows):
        if eager:
            # No zero-copy route into the workers: ship each task only its
            # rows plus the centers, as the reducers' machine views do.
            size = stop - start
            own_rows = np.concatenate([np.arange(start, stop), centers])
            view = machine_view(space, own_rows)
            args = (view, 0, size, np.arange(size, size + centers.size))
        else:
            args = (space, start, stop, centers)
        specs.append(TaskSpec(_radius_task, args=args, counting="output"))
    calls, sink = bind_round("evaluate", specs, executor=executor, cat="evaluate")
    with _trace.span("evaluate", cat="evaluate", tasks=len(calls)):
        try:
            results, _ = executor.run(calls)
        except TaskFailedError as exc:
            if exc.label is None:
                exc.label = "evaluate"
            raise
    radii = commit(results, specs, counter=cluster.dist_counter, sink=sink)
    return max(radii, default=0.0)


def cluster_sizes(labels: np.ndarray, n_centers: int) -> np.ndarray:
    """Histogram of assignment labels (diagnostics for the UNB data sets)."""
    if n_centers <= 0:
        raise InvalidParameterError(f"n_centers must be positive, got {n_centers}")
    return np.bincount(labels, minlength=n_centers)
