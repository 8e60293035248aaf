"""The simulated MapReduce cluster.

A :class:`SimulatedCluster` is ``m`` machines of capacity ``c`` elements.
Algorithms submit *rounds*: a list of reducer tasks — each a
:class:`~repro.mapreduce.tasks.TaskSpec` declaring its input size.  The
cluster

* enforces the capacity constraint per task (a task whose declared input
  exceeds ``c`` raises :class:`~repro.errors.CapacityError` — this is the
  mechanism that forces MRG into its multi-round regime);
* refuses rounds with more tasks than machines;
* wall-clocks every task through its :class:`Executor` and records a
  :class:`~repro.mapreduce.accounting.RoundStats` whose ``parallel_time``
  is the slowest task (paper Section 7.1);
* attributes distance-evaluation deltas to the round when given a
  :class:`~repro.metric.base.DistCounter` to watch — either observed
  directly (tasks sharing the watched counter) or reported explicitly by
  tasks returning :class:`~repro.mapreduce.tasks.TaskOutput`, which is
  how per-shard reducer tasks with private counters stay exactly
  accounted on *every* executor backend, including process pools where
  worker-side counter mutations never reach the driver.

The task contract itself — what a round task may be, how it is traced,
run and committed — lives in :mod:`repro.mapreduce.tasks`, whose one
:func:`~repro.mapreduce.tasks.dispatch` function ``run_round`` calls;
``run_round`` adds only the capacity and machine-count checks, the
round's place in :attr:`SimulatedCluster.stats` and the round metrics.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CapacityError, InvalidParameterError
from repro.mapreduce.accounting import JobStats
from repro.mapreduce.executor import Executor, SequentialExecutor
from repro.mapreduce.tasks import TaskOutput, TaskSpec, dispatch
from repro.metric.base import DistCounter
from repro.obs import metrics as _metrics

__all__ = ["SimulatedCluster", "TaskOutput", "TaskSpec"]

_M_ROUNDS = _metrics.counter(
    "repro_rounds_total", "MapReduce rounds executed", ("round",)
)
_M_ROUND_PARALLEL = _metrics.histogram(
    "repro_round_parallel_seconds",
    "Simulated parallel time per round (slowest task)",
    ("round",),
)
_M_ROUND_TASKS = _metrics.histogram(
    "repro_round_tasks",
    "Tasks dispatched per round",
    ("round",),
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)


class SimulatedCluster:
    """``m`` simulated machines of per-machine capacity ``c``.

    Parameters
    ----------
    m:
        Number of machines (the paper fixes m = 50 in its experiments).
    capacity:
        Per-machine capacity in *elements* (points).  ``None`` means
        unbounded — useful for unit tests of the round mechanics.
    executor:
        Task execution backend; defaults to the faithful sequential one.
    dist_counter:
        When provided, the cluster snapshots the counter around each round
        and attributes the delta to that round's stats.
    """

    def __init__(
        self,
        m: int,
        capacity: int | None = None,
        executor: Executor | None = None,
        dist_counter: DistCounter | None = None,
    ):
        if m <= 0:
            raise InvalidParameterError(f"machine count must be positive, got {m}")
        if capacity is not None and capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self.m = int(m)
        self.capacity = None if capacity is None else int(capacity)
        self.executor: Executor = executor if executor is not None else SequentialExecutor()
        self.dist_counter = dist_counter
        self.stats = JobStats()

    # ------------------------------------------------------------------ #
    def check_fits(self, size: int, what: str = "input") -> None:
        """Raise :class:`CapacityError` if ``size`` exceeds one machine."""
        if self.capacity is not None and size > self.capacity:
            raise CapacityError(
                f"{what} of {size} elements exceeds machine capacity {self.capacity}"
            )

    def run_round(
        self,
        label: str,
        tasks: Sequence[TaskSpec],
        task_sizes: Sequence[int],
        shuffle_elements: int | None = None,
    ) -> list:
        """Execute one MapReduce round; record stats; return task results.

        Parameters
        ----------
        label:
            Human-readable round name ("mrg.round1", "eim.sample", ...).
        tasks:
            One :class:`~repro.mapreduce.tasks.TaskSpec` per participating
            machine.  Bare callables are rejected — the contract keeps
            every round task picklable on every backend.
        task_sizes:
            Declared input sizes (elements) per task; checked against
            capacity *before* any task runs, so a capacity violation never
            leaves partial work recorded.
        shuffle_elements:
            Elements moved by the mapper into this round; defaults to the
            sum of task sizes.

        Tasks may return a bare value or a
        :class:`~repro.mapreduce.tasks.TaskOutput`; the latter's
        ``dist_evals`` is folded into the watched counter before the
        round's delta is taken, and callers always receive the unwrapped
        values.
        """
        if len(tasks) != len(task_sizes):
            raise InvalidParameterError(
                f"{len(tasks)} tasks but {len(task_sizes)} sizes for round {label!r}"
            )
        if len(tasks) > self.m:
            raise CapacityError(
                f"round {label!r} needs {len(tasks)} machines but the cluster has {self.m}"
            )
        for size in task_sizes:
            self.check_fits(int(size), what=f"round {label!r} task input")

        results, round_stats = dispatch(
            label, tasks, self.executor, counter=self.dist_counter, tasks=len(tasks)
        )
        round_stats.task_sizes = [int(s) for s in task_sizes]
        round_stats.shuffle_elements = (
            int(sum(task_sizes)) if shuffle_elements is None else int(shuffle_elements)
        )
        self.stats.add(round_stats)
        if _metrics.REGISTRY.enabled:
            # Bracketed suffixes ("mrg.round1[3]") are stripped so the
            # label set stays bounded for scrapers.
            series = label.partition("[")[0]
            _M_ROUNDS.labels(round=series).inc()
            _M_ROUND_PARALLEL.labels(round=series).observe(round_stats.parallel_time)
            _M_ROUND_TASKS.labels(round=series).observe(len(tasks))
        return results

    def reset_stats(self) -> None:
        """Discard accumulated job statistics (the machine pool is reusable)."""
        self.stats = JobStats()
