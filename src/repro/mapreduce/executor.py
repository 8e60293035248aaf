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

Lifecycle.  Both pool backends are **persistent**: the underlying
``concurrent.futures`` pool is created lazily on the first :meth:`run`
or :meth:`submit` (or eagerly via :meth:`open`) and *reused* by every
later call until :meth:`close` — so a multi-round MapReduce job
(:class:`~repro.mapreduce.cluster.SimulatedCluster` calls ``run`` once
per round) and repeated ``solve_many`` batches pay the worker spawn cost
once, not once per round.  The backends are context managers
(``with ProcessPoolExecutorBackend(4) as ex: ...`` closes the pool on
exit, error paths included), ``close`` is idempotent and a closed
backend transparently re-opens on its next call.

Every backend, the sequential one included, has the same surface:
``run``, ``submit``, ``open``, ``close``, ``workers`` and
``crosses_process_boundary``.  ``run`` returns the task results and the
round's one :class:`~repro.mapreduce.accounting.RoundStats` record (the
bare backends leave its fault fields zero; the resilient wrapper fills
them).  ``submit`` is the per-task hook the resilient wrapper drives its
one futures loop through; the sequential backend runs the task inline
and hands back an already-completed future.  Nothing outside
:func:`repro.mapreduce.tasks.dispatch` calls ``run``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Protocol, Sequence

from repro.mapreduce.accounting import RoundStats

__all__ = [
    "Executor",
    "SequentialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "run_task",
]


class Executor(Protocol):
    """Runs a batch of zero-argument tasks; returns ``(results, round)``.

    ``round`` is the batch's :class:`~repro.mapreduce.accounting.RoundStats`
    (see :meth:`RoundStats.of_tasks`): per-task wall-clock in
    ``task_times`` plus the fault accounting a
    :class:`~repro.mapreduce.resilient.ResilientExecutor` fills in, zero
    from the bare backends.  ``submit`` runs one task and returns a
    ``concurrent.futures.Future`` of :func:`run_task`'s
    ``(result, seconds)``.  ``open``/``close`` (and the context manager)
    manage whatever the backend holds; ``workers`` sizes the evaluate
    pass's row ranges (:func:`repro.core.assignment.evaluate_on`); a
    truthy ``crosses_process_boundary`` tells the solvers that publishing
    a space to shared memory is worth it (:mod:`repro.store.shm`).
    """

    crosses_process_boundary: bool
    workers: int

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], RoundStats]: ...

    def submit(self, task: Callable[[], Any]) -> Future: ...

    def open(self) -> "Executor": ...

    def close(self) -> None: ...


def run_task(task: Callable[[], Any]) -> tuple[Any, float]:
    """Execute one task, returning ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = task()
    return result, time.perf_counter() - t0


def _run_chunk(tasks: Sequence[Callable[[], Any]]) -> list[tuple[Any, float]]:
    """Run a chunk of tasks in one pool round-trip (module-level: picklable)."""
    return [run_task(task) for task in tasks]


def _round(out: list[tuple[Any, float]]) -> tuple[list[Any], RoundStats]:
    """Split ``(result, seconds)`` pairs into results and a round record."""
    return [r for r, _ in out], RoundStats.of_tasks([t for _, t in out])


class SequentialExecutor:
    """Run tasks one by one on the calling thread (paper methodology).

    Holds no resources; ``open``/``close``/context-manager are provided
    as no-ops so callers can drive any backend through one lifecycle.
    """

    crosses_process_boundary = False
    workers = 1

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], RoundStats]:
        return _round(_run_chunk(tasks))

    def submit(self, task: Callable[[], Any]) -> Future:
        """Run ``task`` now; return a completed future of ``(result, seconds)``.

        A task that raises leaves its exception in the future instead,
        exactly as a pool worker's failure would arrive.
        """
        future: Future = Future()
        try:
            future.set_result(run_task(task))
        except Exception as exc:  # noqa: BLE001 - delivered through the future
            future.set_exception(exc)
        return future

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
    executor class) and may override :meth:`_chunksize` (the process
    backend batches tasks per IPC round-trip).
    """

    _pool_factory: type  # ThreadPoolExecutor | ProcessPoolExecutor
    crosses_process_boundary = False

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
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

    def _chunksize(self, n_tasks: int) -> int:
        """Tasks per pool submission in :meth:`run`."""
        return 1

    def submit(self, task: Callable[[], Any]) -> Future:
        """Submit one task to the pool (opening it if needed), without waiting.

        Returns a ``concurrent.futures.Future`` resolving to
        ``(result, wall_seconds)`` — the same pair :func:`run_task`
        produces under :meth:`run`.  This is the hook
        :class:`~repro.mapreduce.resilient.ResilientExecutor` drives
        per-task retries, timeouts and speculative copies through;
        ``run`` remains the batch path.
        """
        self.open()
        return self._pool.submit(run_task, task)

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], RoundStats]:
        if not tasks:
            return _round([])
        self.open()
        size = self._chunksize(len(tasks))
        chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
        try:
            out = [
                pair for chunk in self._pool.map(_run_chunk, chunks) for pair in chunk
            ]
        except BrokenExecutor:
            # A broken pool (killed worker, failed spawn) poisons every
            # later submission; drop it so the next run gets a fresh
            # pool instead of inheriting the corpse.
            self.close()
            raise
        return _round(out)


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
    """

    _pool_factory = ThreadPoolExecutor


class ProcessPoolExecutorBackend(_PoolBackend):
    """Run tasks in a process pool (real parallelism; tasks must pickle).

    :meth:`run` submits a batch in *chunks* of
    ``ceil(n_tasks / (4 * workers))`` tasks — at most four waves per
    worker, small enough to keep the pool load-balanced, large enough
    that a round of hundreds of sub-second tasks costs a handful of IPC
    round-trips instead of one per task; results still come back in task
    order, one wall-clock per task, measured inside the worker.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` lets the pool pick (CPU count).
    """

    _pool_factory = ProcessPoolExecutor
    crosses_process_boundary = True

    def _make_pool(self):
        # Workers forked before the driver's resource tracker starts each
        # start their own on their first shared-memory attach; at worker
        # exit that tracker unlinks the driver's still-published segments
        # (Python < 3.13).  Started first, the tracker is shared instead.
        if os.name == "posix":
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        return super()._make_pool()

    def _chunksize(self, n_tasks: int) -> int:
        return max(1, math.ceil(n_tasks / (4 * self.workers)))
