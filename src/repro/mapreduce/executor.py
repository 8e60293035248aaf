"""Task executors: how a round's reducer tasks actually run.

:class:`SequentialExecutor` (default) reproduces the paper's methodology —
tasks run one after another on the driver, each individually wall-clocked;
the round's *simulated parallel* time is the max.  This is also the honest
choice under CPython's GIL (repro note: "GIL hampers true multicore
speedup measurement"): simulated timing measures algorithmic work, not
interpreter contention.

:class:`ProcessPoolExecutorBackend` runs tasks in worker processes for real
multicore execution.  Tasks must then be picklable top-level callables —
which every solver's round tasks are by construction: each is a
:class:`~repro.mapreduce.tasks.TaskSpec` over a module-level function
whose space argument re-opens its backing (memmap, shard directory,
generator) or re-attaches its published shared-memory block (see
:mod:`repro.store.shm`) in the worker, and whose evaluation counts
return to the driver in a :class:`~repro.mapreduce.tasks.TaskOutput`.
The per-task times it reports include IPC overhead, so the
paper-reproduction *figures* stay on the sequential methodology, while
``benchmarks/bench_perf.py`` carries explicit process-backend cells so
that overhead is measured — the backend wins for downstream users with
many cores and large shards, where the BLAS-bound kernels dominate
pickling costs.

:class:`ThreadPoolExecutorBackend` runs tasks in a thread pool: shared
memory, no pickling, no process spawn.  CPython's GIL serialises the pure
Python parts, but the distance kernels spend their time inside NumPy/BLAS
calls that release the GIL, so BLAS-heavy shards overlap for real — the
sweet spot between the honest sequential methodology and full process
isolation.  Results are bit-identical to the other backends (seeds are
bound before scheduling); only the reported per-task times differ, as they
include whatever GIL contention the pure-Python sections see.  Tasks
sharing one space share its :class:`~repro.metric.base.DistCounter`;
its tally is lock-guarded, so hand-rolled task lists hammering one
counter stay exact (``solve_many`` additionally gives each run a private
counter so per-run records are scheduling-independent, not merely
race-free).

Lifecycle.  Both pool backends are **persistent** by default: the
underlying ``concurrent.futures`` pool is created lazily on the first
:meth:`run` (or eagerly via :meth:`open`) and *reused* by every
subsequent ``run`` until :meth:`close` — so a multi-round MapReduce job
(:class:`~repro.mapreduce.cluster.SimulatedCluster` calls ``run`` once
per round) and repeated ``solve_many`` batches pay the worker spawn cost
once, not once per round.  The backends are context managers
(``with ProcessPoolExecutorBackend(4) as ex: ...`` closes the pool on
exit, error paths included), ``close`` is idempotent and a closed
backend transparently re-opens on its next ``run``.  Pass
``persistent=False`` to restore the old spawn-per-``run`` behaviour —
the baseline the perf harness (``benchmarks/bench_perf.py``) measures
the persistent engine against.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Protocol, Sequence

__all__ = [
    "Executor",
    "SequentialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "run_task",
]


class Executor(Protocol):
    """Runs a batch of zero-argument tasks; returns (results, seconds) lists.

    ``run`` is the whole required surface.  Backends that hold resources
    (worker pools, connections) additionally expose the optional
    lifecycle — ``open()``, ``close()``, context-manager enter/exit — and
    backends whose tasks execute in another process advertise it with a
    truthy ``crosses_process_boundary`` class attribute, which the
    solvers use to decide when publishing a space to shared memory is
    worth it (:mod:`repro.store.shm`).  An optional ``workers`` count
    (default 1) sizes the evaluate pass's row ranges
    (:func:`repro.core.assignment.evaluate_on`).
    """

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]: ...


def run_task(task: Callable[[], Any]) -> tuple[Any, float]:
    """Execute one task, returning ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = task()
    return result, time.perf_counter() - t0


class SequentialExecutor:
    """Run tasks one by one on the calling thread (paper methodology).

    Holds no resources; ``open``/``close``/context-manager are provided
    as no-ops so callers can drive any backend through one lifecycle.
    """

    crosses_process_boundary = False
    workers = 1

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        results: list[Any] = []
        times: list[float] = []
        for task in tasks:
            result, seconds = run_task(task)
            results.append(result)
            times.append(seconds)
        return results, times

    def open(self) -> "SequentialExecutor":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "SequentialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _PoolBackend:
    """Shared lifecycle of the thread- and process-pool backends.

    Subclasses set :attr:`_pool_factory` (a ``concurrent.futures``
    executor class) and may override :meth:`_map` (the process backend
    adds chunked submission).
    """

    _pool_factory: type  # ThreadPoolExecutor | ProcessPoolExecutor
    crosses_process_boundary = False

    def __init__(self, max_workers: int | None = None, persistent: bool = True):
        self.max_workers = max_workers
        self.persistent = bool(persistent)
        self._pool = None

    @property
    def workers(self) -> int:
        """How many tasks the pool runs at once."""
        return self.max_workers or os.cpu_count() or 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(self):
        """Spawn the worker pool now (idempotent).  Returns ``self``."""
        if self._pool is None:
            self._pool = self._make_pool()
        return self

    def close(self) -> None:
        """Shut the pool down and join its workers (idempotent).

        The backend remains usable: the next :meth:`run` re-opens a
        fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def is_open(self) -> bool:
        """Whether a live worker pool is currently attached."""
        return self._pool is not None

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def __getstate__(self):
        # Live pools cannot cross a pickle boundary (nested fan-out, e.g.
        # a per-entry executor knob inside a process-pool batch); the
        # copy arrives closed and re-opens lazily on its side.
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _make_pool(self):
        return self._pool_factory(max_workers=self.max_workers)

    def _map(self, pool, tasks: Sequence[Callable[[], Any]]) -> list:
        return list(pool.map(run_task, tasks))

    def submit(self, task: Callable[[], Any]):
        """Submit one task to the persistent pool, without waiting.

        Returns a ``concurrent.futures.Future`` resolving to
        ``(result, wall_seconds)`` — the same pair :func:`run_task`
        produces under :meth:`run`.  This is the hook
        :class:`~repro.mapreduce.resilient.ResilientExecutor` drives
        per-task retries, timeouts and speculative copies through;
        ``run`` remains the batch path.  Always uses the persistent pool
        (opening it if needed) even for ``persistent=False`` backends:
        individual futures have no natural point to tear a throwaway
        pool down.
        """
        self.open()
        return self._pool.submit(run_task, task)

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        if not tasks:
            return [], []
        if not self.persistent:
            with self._make_pool() as pool:
                out = self._map(pool, tasks)
        else:
            self.open()
            try:
                out = self._map(self._pool, tasks)
            except BrokenExecutor:
                # A broken pool (killed worker, failed spawn) poisons
                # every later submission; drop it so the next run gets a
                # fresh pool instead of inheriting the corpse.
                self.close()
                raise
        results = [r for r, _ in out]
        times = [t for _, t in out]
        return results, times


class ThreadPoolExecutorBackend(_PoolBackend):
    """Run tasks in a thread pool (shared memory; BLAS kernels overlap).

    Tasks need not be picklable, and the input space is shared rather
    than copied into workers, so this backend has near-zero dispatch
    overhead.  Real speedup is bounded by how much time the tasks spend
    in GIL-releasing kernels (vector distance computations); pure-Python
    control flow serialises.

    Parameters
    ----------
    max_workers:
        Worker thread count; ``None`` lets the pool pick its default.
    persistent:
        Keep the pool alive across :meth:`run` calls (default).  See the
        module lifecycle notes.
    """

    _pool_factory = ThreadPoolExecutor


class ProcessPoolExecutorBackend(_PoolBackend):
    """Run tasks in a process pool (real parallelism; tasks must pickle).

    Task batches are submitted in *chunks* (``Executor.map(chunksize=)``),
    so a round of many small reducer tasks costs a handful of IPC
    round-trips instead of one per task; results still come back in task
    order, one wall-clock per task, measured inside the worker.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` lets the pool pick (CPU count).
    persistent:
        Keep the pool alive across :meth:`run` calls (default).  See the
        module lifecycle notes.
    chunksize:
        Tasks per IPC submission.  ``None`` (default) picks
        ``ceil(n_tasks / (4 * workers))`` — at most four waves per
        worker, small enough to keep the pool load-balanced, large
        enough to amortise the round-trip when hundreds of sub-second
        tasks are queued.
    """

    _pool_factory = ProcessPoolExecutor
    crosses_process_boundary = True

    def __init__(
        self,
        max_workers: int | None = None,
        persistent: bool = True,
        chunksize: int | None = None,
    ):
        super().__init__(max_workers, persistent=persistent)
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize

    def _resolve_chunksize(self, n_tasks: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(n_tasks / (4 * self.workers)))

    def _map(self, pool, tasks: Sequence[Callable[[], Any]]) -> list:
        return list(
            pool.map(run_task, tasks, chunksize=self._resolve_chunksize(len(tasks)))
        )
