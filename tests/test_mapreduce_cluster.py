"""Unit tests for the simulated cluster and the task executors.

Round tasks are built as :class:`~repro.mapreduce.tasks.TaskSpec`s over
the module-level helpers at the bottom — the task contract rejects
lambdas and closures at the ``run_round`` boundary (covered in
``tests/test_mapreduce_tasks.py``).
"""

import time

import pytest

from repro.errors import CapacityError, InvalidParameterError
from repro.mapreduce.accounting import RoundStats
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    run_task,
)
from repro.mapreduce.tasks import TaskSpec
from repro.metric.base import DistCounter


def _const(value):
    return value


def _noop():
    return None


def _append(sink, value):
    sink.append(value)


def _count(counter, n):
    counter.add(n)


def _sleep(seconds):
    time.sleep(seconds)


def _spec(fn=_noop, *args):
    return TaskSpec(fn, args=args)


class TestSimulatedCluster:
    def test_round_results_in_task_order(self):
        cluster = SimulatedCluster(m=4)
        results = cluster.run_round(
            "r", [_spec(_const, i * 10) for i in range(3)], task_sizes=[1, 1, 1]
        )
        assert results == [0, 10, 20]

    def test_round_stats_recorded(self):
        cluster = SimulatedCluster(m=2)
        cluster.run_round("first", [_spec()], task_sizes=[5])
        cluster.run_round("second", [_spec(), _spec()], task_sizes=[3, 4])
        assert cluster.stats.n_rounds == 2
        assert [r.label for r in cluster.stats.rounds] == ["first", "second"]
        assert cluster.stats.rounds[1].task_sizes == [3, 4]
        assert cluster.stats.rounds[1].shuffle_elements == 7

    def test_explicit_shuffle_elements(self):
        cluster = SimulatedCluster(m=1)
        cluster.run_round("r", [_spec()], task_sizes=[5], shuffle_elements=2)
        assert cluster.stats.rounds[0].shuffle_elements == 2

    def test_capacity_enforced_before_any_task_runs(self):
        cluster = SimulatedCluster(m=2, capacity=10)
        ran = []
        with pytest.raises(CapacityError, match="exceeds machine capacity"):
            cluster.run_round(
                "r",
                [_spec(_append, ran, 1), _spec(_append, ran, 2)],
                task_sizes=[5, 11],
            )
        assert ran == [], "no partial work on capacity violation"
        assert cluster.stats.n_rounds == 0

    def test_more_tasks_than_machines(self):
        cluster = SimulatedCluster(m=2)
        with pytest.raises(CapacityError, match="machines"):
            cluster.run_round("r", [_spec()] * 3, task_sizes=[1, 1, 1])

    def test_mismatched_sizes(self):
        cluster = SimulatedCluster(m=2)
        with pytest.raises(InvalidParameterError, match="sizes"):
            cluster.run_round("r", [_spec()], task_sizes=[1, 2])

    def test_dist_counter_attribution(self):
        counter = DistCounter()
        cluster = SimulatedCluster(m=2, dist_counter=counter)
        cluster.run_round("r", [_spec(_count, counter, 7)], task_sizes=[1])
        cluster.run_round("r2", [_spec(_count, counter, 5)], task_sizes=[1])
        assert cluster.stats.rounds[0].dist_evals == 7
        assert cluster.stats.rounds[1].dist_evals == 5

    def test_parallel_time_is_slowest_task(self):
        cluster = SimulatedCluster(m=2)
        cluster.run_round(
            "r",
            [_spec(_sleep, 0.02), _spec()],
            task_sizes=[1, 1],
        )
        stats = cluster.stats.rounds[0]
        assert stats.parallel_time >= 0.02
        assert stats.parallel_time == max(stats.task_times)

    def test_reset_stats(self):
        cluster = SimulatedCluster(m=1)
        cluster.run_round("r", [_spec()], task_sizes=[1])
        cluster.reset_stats()
        assert cluster.stats.n_rounds == 0

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            SimulatedCluster(m=0)
        with pytest.raises(InvalidParameterError):
            SimulatedCluster(m=2, capacity=0)

    def test_unbounded_capacity(self):
        cluster = SimulatedCluster(m=1, capacity=None)
        cluster.run_round("r", [_spec()], task_sizes=[10**12])
        assert cluster.stats.rounds[0].max_task_size == 10**12


class TestExecutors:
    def test_run_task_times(self):
        result, seconds = run_task(lambda: 42)
        assert result == 42 and seconds >= 0.0

    def test_sequential_order_and_times(self):
        results, stats = SequentialExecutor().run([lambda: "a", lambda: "b"])
        assert results == ["a", "b"] and stats.task_retries == [0, 0]
        assert stats.n_tasks == 2 and all(t >= 0 for t in stats.task_times)

    def test_sequential_empty(self):
        assert SequentialExecutor().run([]) == ([], RoundStats.of_tasks([]))

    def test_process_pool_empty(self):
        assert ProcessPoolExecutorBackend().run([]) == ([], RoundStats.of_tasks([]))

    def test_process_pool_runs_picklable_tasks(self):
        backend = ProcessPoolExecutorBackend(max_workers=2)
        results, stats = backend.run([_picklable_task_3, _picklable_task_4])
        assert results == [9, 16]
        assert stats.n_tasks == 2


def _picklable_task_3():
    return 3 * 3


def _picklable_task_4():
    return 4 * 4
