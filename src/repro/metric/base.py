"""Abstract metric-space interface used by every algorithm in :mod:`repro.core`.

Algorithms address points by **integer index** into a space.  A space knows
how to compute distances between indexed subsets with bounded memory, and it
counts every scalar distance evaluation it performs in a shared
:class:`DistCounter` — the raw material for validating the paper's Table 1
operation-count asymptotics.

Two access patterns matter:

* *global index arrays* — EIM keeps its sets R, S, H as index arrays into
  one parent space and computes cross-set distances;
* *local views* — MRG hands each simulated machine its own partition; the
  machine materialises a compact :meth:`MetricSpace.local` view once and
  then runs Gonzalez over contiguous local data (no repeated fancy
  indexing inside the O(kn) loop).
"""

from __future__ import annotations

import abc
import contextlib
import functools
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import MetricError

__all__ = [
    "DistCounter",
    "TaskCounter",
    "MetricSpace",
    "as_index_array",
]


@dataclass
class DistCounter:
    """Mutable tally of scalar distance evaluations.

    Shared between a parent space and all local views derived from it, so a
    whole algorithm run accumulates into one place.  Updates are
    lock-guarded: a space (and therefore its counter) may be shared by
    thread-pool tasks, and an unguarded ``+=`` loses increments when two
    threads interleave between the read and the write — totals must be
    exact, they are the paper's operation counts.  The lock is uncontended
    in sequential runs and is taken once per kernel *block*, not per
    scalar evaluation, so the guard costs nothing measurable.  Counters
    owned by exactly one task for their whole lifetime (machine views,
    per-run batch counters) use the lock-free :class:`TaskCounter`
    subclass instead and pay one lock acquisition per *task*, when the
    driver folds their total into the shared counter.
    """

    evals: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle (process-pool tasks)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.evals += int(n)

    def reset(self) -> None:
        with self._lock:
            self.evals = 0


class TaskCounter(DistCounter):
    """Lock-free :class:`DistCounter` for **single-owner** accounting.

    A reducer task's machine view (see :func:`repro.store.machine_view`)
    is only ever touched by the one task that owns it; its total travels
    back to the driver explicitly
    (:class:`~repro.mapreduce.tasks.TaskOutput`) and is folded into
    the shared counter there — **one** lock acquisition per task,
    instead of one per kernel block.  Dropping the per-block lock is
    safe precisely because of that ownership contract: nothing else can
    observe the counter while the task runs.  Every MapReduce solver's
    round tasks work this way (EIM's shadow-space tasks included, since
    the :class:`~repro.mapreduce.tasks.TaskSpec` refactor hoisted its
    closures to task-private bodies).

    Do *not* use a TaskCounter anywhere several threads can reach it.
    Tasks evaluating distances against one genuinely shared space need
    the locked parent class to keep
    totals exact — and so does a ``solve_many`` run's private counter
    (``_run_one`` deliberately creates a locked ``DistCounter``): a
    per-entry *thread* executor makes that run's own reducer tasks hit
    the run counter concurrently, the very race the lock closes.
    """

    def add(self, n: int) -> None:
        self.evals += int(n)

    def reset(self) -> None:
        self.evals = 0


def as_index_array(idx, n: int, name: str = "indices") -> np.ndarray:
    """Validate an index array against a space of size ``n``."""
    arr = np.asarray(idx, dtype=np.intp)
    if arr.ndim != 1:
        raise MetricError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= n:
            raise MetricError(
                f"{name} out of range: values in [{lo}, {hi}] for a space of size {n}"
            )
    return arr


class MetricSpace(abc.ABC):
    """A finite metric space over points addressed by index ``0..n-1``.

    Concrete subclasses implement the block primitives; all are required to
    honour the metric axioms (see :func:`repro.metric.validation.check_metric_axioms`).

    Index arguments ``i_idx`` / ``j_idx`` are 1-D integer arrays, or ``None``
    meaning *all points* (an important fast path: no fancy-indexing copy).
    """

    def __init__(self, n: int, counter: DistCounter | None = None):
        if n < 0:
            raise MetricError(f"space size must be >= 0, got {n}")
        self._n = int(n)
        self.counter = counter if counter is not None else DistCounter()

    # ------------------------------------------------------------------ #
    # size / identity
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of points in the space."""
        return self._n

    def __len__(self) -> int:
        return self._n

    def _check(self, idx, name: str) -> np.ndarray | None:
        if idx is None:
            return None
        return as_index_array(idx, self._n, name)

    def _size(self, idx: np.ndarray | None) -> int:
        return self._n if idx is None else len(idx)

    def fingerprint(self) -> str | None:
        """Content-based identity of this space, or ``None`` if unknowable.

        Two spaces with equal fingerprints produce bit-identical
        distances, so the serve layer coalesces requests over
        separately-constructed copies of one inline point set into one
        batch.  The base implementation returns ``None``, telling
        consumers to fall back to object identity;
        :class:`~repro.metric.euclidean.EuclideanSpace` digests its
        coordinates.
        """
        return None

    # ------------------------------------------------------------------ #
    # abstract block primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def dists_to(self, i_idx: np.ndarray | None, j: int) -> np.ndarray:
        """Distances from points ``i_idx`` (or all) to the single point ``j``."""

    @abc.abstractmethod
    def cross(self, i_idx: np.ndarray | None, j_idx: np.ndarray | None) -> np.ndarray:
        """Dense ``(|I|, |J|)`` distance matrix; guarded against blow-up."""

    @abc.abstractmethod
    def update_min_dists(
        self,
        current: np.ndarray,
        i_idx: np.ndarray | None,
        j_idx: np.ndarray | None,
    ) -> np.ndarray:
        """Fold reference points ``j_idx`` into the running minima ``current``.

        ``current[t] = min(current[t], d(I[t], j) for j in J)``, in place.
        """

    @abc.abstractmethod
    def nearest(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest reference for each query point.

        Returns ``(pos, dist)`` where ``pos[t]`` is the *position within
        j_idx* of the nearest reference to query ``t`` and ``dist[t]`` its
        distance.  ``j_idx`` must be non-empty.
        """

    @abc.abstractmethod
    def local(self, i_idx: np.ndarray) -> "MetricSpace":
        """Compact sub-space over ``i_idx`` (re-indexed ``0..len(i_idx)-1``).

        Shares this space's :class:`DistCounter`.
        """

    # ------------------------------------------------------------------ #
    # derived conveniences
    # ------------------------------------------------------------------ #
    def dist(self, i: int, j: int) -> float:
        """Scalar distance between points ``i`` and ``j``."""
        return float(
            self.dists_to(np.asarray([i], dtype=np.intp), int(j))[0]
        )

    def traversal(self, cols: int):
        """The distance step of a farthest-first traversal over all points.

        Returns ``(step, span)``: ``step(j)`` gives the distances from
        every point to point ``j`` as a fresh vector, charging ``n``
        evaluations per call, and ``span`` is a context manager the
        caller holds open around the steps.  ``cols`` is the number of
        centers the traversal asks for.  The base step is
        :meth:`dists_to` under no span; a space with a faster route to
        the same bits overrides this
        (:class:`~repro.metric.euclidean.EuclideanSpace`).
        """
        return functools.partial(self.dists_to, None), contextlib.nullcontext()

    def min_dists(
        self, i_idx: np.ndarray | None, j_idx: np.ndarray | None
    ) -> np.ndarray:
        """Distance from each point of I to its nearest point of J."""
        if self._size(self._check(j_idx, "j_idx")) == 0:
            raise MetricError("min_dists requires a non-empty reference set")
        out = np.full(self._size(self._check(i_idx, "i_idx")), np.inf)
        return self.update_min_dists(out, i_idx, j_idx)

    def covering_radius(
        self, center_idx: np.ndarray, i_idx: np.ndarray | None = None
    ) -> float:
        """Max over points (of I, default all) of distance to nearest center."""
        d = self.min_dists(i_idx, center_idx)
        return float(d.max()) if d.size else 0.0
