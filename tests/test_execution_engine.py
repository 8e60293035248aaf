"""The persistent execution engine: pool lifecycle, batched accounting,
workspace kernels and the batch roll-up.

Contracts under test (docs/architecture.md, "Execution engine"):

* pool backends spawn their workers once and reuse them across ``run``
  calls (worker-PID stability);
* the context manager closes the pool on *every* exit path, and a closed
  backend transparently re-opens;
* per-task private counters (lock-free ``TaskCounter``) keep totals
  exactly equal to the locked shared-counter path;
* ``solve_many`` returns a ``BatchResults`` whose summary matches the
  per-run ground truth on every backend;
* the per-thread kernel :class:`~repro.metric.kernels.Workspace` recycles
  buffers without changing a bit, even under concurrent thread tasks.
"""

import os
import threading
import time
from functools import partial

import numpy as np
import pytest

import repro
from repro.mapreduce.accounting import BatchSummary, RoundStats
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.metric import kernels
from repro.metric.base import DistCounter, TaskCounter
from repro.metric.euclidean import EuclideanSpace
from repro.solvers import BatchResults
from repro.store import machine_view
from repro.utils.chunking import DEFAULT_BLOCK_BYTES


@pytest.fixture(scope="module")
def space():
    return EuclideanSpace(np.random.default_rng(5).normal(size=(300, 3)))


def _sleep_pid(seconds: float = 0.01) -> int:
    time.sleep(seconds)
    return os.getpid()


def _ident() -> int:
    return threading.get_ident()


class TestPoolLifecycle:
    def test_process_workers_stable_across_runs(self):
        """The tentpole claim: one spawn per job, not per round.  Three
        rounds' worth of tasks on one backend must see at most
        ``max_workers`` distinct worker PIDs in total."""
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            pids = set()
            for _ in range(3):
                results, _ = ex.run([partial(_sleep_pid, 0.02)] * 4)
                pids.update(results)
        assert 1 <= len(pids) <= 2, pids

    def test_thread_workers_stable_across_runs(self):
        with ThreadPoolExecutorBackend(max_workers=2) as ex:
            idents = set()
            for _ in range(3):
                results, _ = ex.run([_ident] * 4)
                idents.update(results)
        assert 1 <= len(idents) <= 2, idents

    def test_open_close_idempotent_and_reopenable(self):
        ex = ThreadPoolExecutorBackend(max_workers=1)
        assert not ex.is_open
        ex.open()
        ex.open()
        assert ex.is_open
        ex.close()
        ex.close()
        assert not ex.is_open
        results, _ = ex.run([_ident])  # transparently re-opens
        assert ex.is_open and len(results) == 1
        ex.close()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ThreadPoolExecutorBackend(max_workers=2),
            lambda: ProcessPoolExecutorBackend(max_workers=1),
        ],
        ids=["thread", "process"],
    )
    def test_context_manager_closes_on_error(self, factory):
        ex = factory()
        with pytest.raises(RuntimeError, match="boom"):
            with ex:
                ex.run([os.getpid])
                assert ex.is_open
                raise RuntimeError("boom")
        assert not ex.is_open

    def test_sequential_lifecycle_is_noop(self):
        ex = SequentialExecutor()
        with ex as inner:
            assert inner is ex
        ex.open()
        ex.close()
        assert ex.run([]) == ([], RoundStats.of_tasks([]))

    def test_backend_pickles_without_its_pool(self):
        import pickle

        ex = ProcessPoolExecutorBackend(max_workers=2)
        ex.open()
        try:
            clone = pickle.loads(pickle.dumps(ex))
        finally:
            ex.close()
        assert not clone.is_open
        assert clone.max_workers == 2

    def test_chunksize_heuristic(self):
        ex = ProcessPoolExecutorBackend(max_workers=4)
        assert ex._chunksize(3) == 1
        assert ex._chunksize(160) == 10

    def test_chunked_submission_preserves_task_order(self):
        # 23 tasks on 2 workers go out in chunks of 3, the last one short.
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            results, stats = ex.run([partial(int, i) for i in range(23)])
        assert results == list(range(23))
        assert stats.n_tasks == 23 and all(t >= 0 for t in stats.task_times)

    def test_mrg_job_spawns_one_pool_across_rounds(self, space):
        """A multi-round MRG job must not respawn between rounds."""
        spawns = []

        class CountingBackend(ProcessPoolExecutorBackend):
            def _make_pool(self):
                spawns.append(1)
                return super()._make_pool()

        with CountingBackend(max_workers=2) as ex:
            # k*m = 64 > capacity = 40 >= ceil(n/m): the multi-round
            # regime — at least reduce[1], reduce[2] and the final round.
            result = repro.solve(
                space, 8, "mrg", m=8, capacity=40, seed=0, executor=ex
            )
        assert result.stats.n_rounds >= 3
        assert sum(spawns) == 1


class TestTaskCounter:
    def test_machine_view_counter_is_lock_free_and_exact(self, space):
        parent_before = space.counter.evals
        view = machine_view(space, np.arange(100))
        assert isinstance(view.counter, TaskCounter)
        view.min_dists(None, np.array([0, 1]))
        assert view.counter.evals == 100 * 2
        assert space.counter.evals == parent_before  # private: parent untouched

    def test_task_counter_roundtrips_through_pickle(self):
        import pickle

        counter = TaskCounter()
        counter.add(5)
        clone = pickle.loads(pickle.dumps(counter))
        clone.add(2)
        assert clone.evals == 7
        clone.reset()
        assert clone.evals == 0

    def test_shared_counter_keeps_its_lock(self):
        # The shared-space counter must stay the locked base class: EIM's
        # closure tasks hammer it from concurrent threads.
        assert type(EuclideanSpace(np.zeros((2, 1))).counter) is DistCounter

    def test_batched_fold_totals_match_locked_path(self, space):
        """One lock acquisition per task (TaskOutput fold) must tally the
        same total as per-block locking on the shared counter."""
        idx = np.arange(space.n)
        expected = space.n * 3  # dists_to charges |I| per reference point

        shared = DistCounter()
        shared_view = space.local(idx)
        shared_view.counter = shared
        for j in (0, 1, 2):
            shared_view.dists_to(None, j)

        folded = DistCounter()
        view = machine_view(space, idx)
        for j in (0, 1, 2):
            view.dists_to(None, j)
        folded.add(view.counter.evals)  # the single per-task fold

        assert shared.evals == folded.evals == expected


class TestBatchSummary:
    GRID = dict(algorithms=("gon", "mrg", "stream"), seeds=(0, 1), m=4)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: None,
            lambda: ThreadPoolExecutorBackend(max_workers=3),
            lambda: ProcessPoolExecutorBackend(max_workers=2),
        ],
        ids=["sequential", "thread", "process"],
    )
    def test_summary_matches_per_run_ground_truth(self, space, factory):
        executor = factory()
        try:
            batch = repro.solve_many(space, 4, executor=executor, **self.GRID)
        finally:
            if executor is not None:
                executor.close()
        assert isinstance(batch, BatchResults)
        assert isinstance(batch.summary, BatchSummary)
        summary = batch.summary
        assert summary.runs == len(batch) == 6
        # Ground truth: re-run each cell alone with a private counter.
        total = 0
        for key, result in batch.items():
            solo = repro.solve_many(
                space, 4, key.algorithm, seeds=(key.seed,), m=4
            )
            total += solo.summary.dist_evals
            assert (solo[list(solo)[0]].centers == result.centers).all()
        assert summary.dist_evals == total
        assert summary.solver_rounds == sum(
            r.stats.n_rounds for r in batch.values() if r.stats is not None
        )
        assert 0.0 < summary.parallel_time <= summary.cpu_time
        assert summary.summary()["runs"] == 6


class TestWorkspace:
    def test_take_recycles_buffers(self):
        ws = kernels.Workspace()
        a = ws.take("gemm", (8, 4))
        b = ws.take("gemm", (6, 4))
        # same backing allocation, no realloc
        assert a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        c = ws.take("gemm", (64, 64))  # growth reallocates once
        assert c.shape == (64, 64) and ws.nbytes >= c.nbytes
        ws.release()
        assert ws.nbytes == 0

    def test_oversized_requests_are_not_retained(self):
        """A dataset-sized temporary (whole-space dists_to_point on a big
        in-memory set) must not be pinned by the thread-local workspace:
        held scratch stays O(block budget), never O(n*d)."""
        ws = kernels.Workspace()
        rows = kernels.MAX_RETAINED_BYTES // 8 + 1
        big = ws.take("diff", (rows, 1))
        assert big.shape == (rows, 1)
        assert ws.nbytes == 0  # transient allocation, nothing held
        small = ws.take("diff", (16, 4))
        assert ws.nbytes == small.nbytes

    def test_gon_shard_scratch_is_retained(self):
        """The retention cap is not the L2-sized block budget: Gonzalez's
        (rows, d) difference buffer on a 10^4 x 8 MRG shard (640 KB)
        must be recycled across dists_to_point calls, not reallocated."""
        assert kernels.MAX_RETAINED_BYTES > DEFAULT_BLOCK_BYTES
        ws = kernels.Workspace()
        shard = np.random.default_rng(3).normal(size=(10_000, 8))
        kernels.dists_to_point(shard, shard[0], ws=ws)
        held = ws.take("diff", shard.shape)
        assert ws.nbytes == shard.nbytes == 640_000
        kernels.dists_to_point(shard, shard[1], ws=ws)
        again = ws.take("diff", shard.shape)
        assert again.__array_interface__["data"] == held.__array_interface__["data"]

    def test_workspace_is_per_thread(self):
        seen = {}

        def grab(tag):
            seen[tag] = kernels.workspace()

        t = threading.Thread(target=grab, args=("other",))
        t.start()
        t.join()
        grab("main")
        assert seen["main"] is kernels.workspace()
        assert seen["main"] is not seen["other"]

    def test_workspace_kernels_bit_identical_to_fresh_buffers(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(157, 5))
        y = rng.normal(size=(23, 5))
        ws = kernels.Workspace()
        expected = kernels.sq_dists_block(x, y)  # fresh allocation path
        for _ in range(3):  # reuse must not leak state between calls
            got = kernels.sq_dists_block(x, y, ws=ws)
            assert np.array_equal(got, expected)
        assert np.array_equal(
            kernels.min_dists(x, y, ws=ws), kernels.min_dists(x, y)
        )
        current = np.full(x.shape[0], np.inf)
        reference = np.full(x.shape[0], np.inf)
        kernels.update_min_dists(current, x, y, ws=ws)
        kernels.update_min_dists(reference, x, y)
        assert np.array_equal(current, reference)
        assert np.array_equal(
            kernels.dists_to_point(x, y[0], ws=ws), kernels.dists_to_point(x, y[0])
        )

    def test_concurrent_thread_tasks_do_not_corrupt_each_other(self):
        """Each thread gets its own workspace: hammering the kernels from
        a pool must reproduce the single-thread bits exactly."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 4))
        y = rng.normal(size=(37, 4))
        expected = kernels.min_dists(x, y)

        def task():
            return kernels.min_dists(x, y)

        results, _ = ThreadPoolExecutorBackend(max_workers=8).run([task] * 32)
        for got in results:
            assert np.array_equal(got, expected)

    def test_solver_parity_sequential_vs_thread_with_workspaces(self, space):
        ref = repro.solve(space, 5, "mrg", m=6, seed=1)
        with ThreadPoolExecutorBackend(max_workers=4) as ex:
            got = repro.solve(space, 5, "mrg", m=6, seed=1, executor=ex)
        assert (ref.centers == got.centers).all()
        assert ref.radius == got.radius
        assert ref.stats.dist_evals == got.stats.dist_evals
