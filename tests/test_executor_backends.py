"""Executor-backend parity: same tasks, same results, any backend.

The contract (docs/architecture.md): an executor may reorder or
parallelise execution, but because every task's randomness is bound
before scheduling, results must be bit-identical across backends —
Sequential, ThreadPool and ProcessPool.
"""

from functools import partial

import numpy as np
import pytest

from repro.mapreduce.accounting import RoundStats
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.metric.euclidean import EuclideanSpace
from repro.solvers import solve_many

BACKENDS = [
    ("sequential", SequentialExecutor),
    ("thread", lambda: ThreadPoolExecutorBackend(max_workers=4)),
    ("process", lambda: ProcessPoolExecutorBackend(max_workers=2)),
]


@pytest.fixture(scope="module")
def space():
    points = np.random.default_rng(23).normal(size=(400, 3))
    return EuclideanSpace(points)


def _double(x):
    return 2 * x


class TestProtocolContract:
    @pytest.mark.parametrize("name,factory", BACKENDS)
    def test_results_preserve_task_order(self, name, factory):
        # partial over a module-level function: picklable, so the same
        # task list drives all three backends.
        tasks = [partial(_double, i) for i in range(20)]
        results, stats = factory().run(tasks)
        assert results == [2 * i for i in range(20)] and stats.retries == 0
        assert stats.n_tasks == 20 and stats.task_retries == [0] * 20
        assert all(t >= 0 for t in stats.task_times)

    @pytest.mark.parametrize("name,factory", BACKENDS)
    def test_empty_batch(self, name, factory):
        assert factory().run([]) == ([], RoundStats.of_tasks([]))

    def test_thread_backend_runs_unpicklable_tasks(self):
        # Closures over local state cannot cross a process boundary but
        # must be fine on the shared-memory thread backend.
        acc = []
        tasks = [lambda i=i: acc.append(i) or i for i in range(8)]
        results, _ = ThreadPoolExecutorBackend(max_workers=4).run(tasks)
        assert results == list(range(8))
        assert sorted(acc) == list(range(8))


class TestSolveManyParity:
    #: One batch mixing every solver kind: sequential (gon, stream),
    #: mapreduce (mrg, eim) and deterministic (hs).
    GRID = dict(
        algorithms=("gon", "mrg", "eim", "stream", "hs"),
        seeds=(0, 1, 2),
        m=5,
    )

    @pytest.fixture(scope="class")
    def reference(self, space):
        return solve_many(space, 4, executor=SequentialExecutor(), **self.GRID)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ThreadPoolExecutorBackend(max_workers=4),
            lambda: ProcessPoolExecutorBackend(max_workers=2),
        ],
        ids=["thread", "process"],
    )
    def test_bit_identical_to_sequential(self, space, reference, factory):
        batch = solve_many(space, 4, executor=factory(), **self.GRID)
        assert batch.keys() == reference.keys()
        for key in reference:
            assert (batch[key].centers == reference[key].centers).all(), key
            assert batch[key].radius == reference[key].radius, key
            assert batch[key].algorithm == reference[key].algorithm
            # Accounting parity too: each run owns a private DistCounter,
            # so operation counts must not depend on the backend.
            ref_stats, got_stats = reference[key].stats, batch[key].stats
            if ref_stats is not None:
                assert got_stats.dist_evals == ref_stats.dist_evals, key
                assert got_stats.n_rounds == ref_stats.n_rounds, key

    def test_thread_backend_repeatable(self, space):
        runs = [
            solve_many(
                space, 4, executor=ThreadPoolExecutorBackend(max_workers=3),
                **self.GRID,
            )
            for _ in range(2)
        ]
        for key in runs[0]:
            assert (runs[0][key].centers == runs[1][key].centers).all()
            assert runs[0][key].radius == runs[1][key].radius


class TestSharedCounterUnderThreads:
    def test_hammered_counter_total_is_exact(self):
        """ISSUE regression: a DistCounter shared by hand-rolled thread
        tasks must tally exactly — the old plain ``+=`` lost increments
        when threads interleaved between the read and the write."""
        from repro.metric.base import DistCounter

        counter = DistCounter()
        adds_per_task, tasks = 2_000, 16

        def hammer():
            for _ in range(adds_per_task):
                counter.add(1)
            return True

        results, _ = ThreadPoolExecutorBackend(max_workers=8).run(
            [hammer for _ in range(tasks)]
        )
        assert all(results)
        assert counter.evals == adds_per_task * tasks

    def test_shared_space_counter_total_is_exact(self, space):
        # The realistic shape of the race: many tasks evaluating
        # distances against one shared space.
        space.counter.reset()
        idx = np.arange(space.n, dtype=np.intp)

        def task():
            space.dists_to(idx, 0)
            return True

        tasks = [task for _ in range(64)]
        ThreadPoolExecutorBackend(max_workers=8).run(tasks)
        assert space.counter.evals == 64 * space.n
        space.counter.reset()

    def test_counter_pickles_without_its_lock(self):
        import pickle

        from repro.metric.base import DistCounter

        counter = DistCounter()
        counter.add(7)
        clone = pickle.loads(pickle.dumps(counter))
        assert clone.evals == 7
        clone.add(3)  # the restored counter has a working lock
        assert clone.evals == 10


class TestExports:
    def test_thread_backend_exported(self):
        from repro.mapreduce import ThreadPoolExecutorBackend as exported

        assert exported is ThreadPoolExecutorBackend
