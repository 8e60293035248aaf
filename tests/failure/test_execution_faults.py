"""Execution faults: infrastructure failures across every backend.

Data-level failures live in :mod:`tests.failure.test_malformed`; here
the *tasks* are fine and the world around them breaks — crashes, hangs,
stragglers, lost results, dead workers.  The contract under test is
:class:`repro.mapreduce.resilient.ResilientExecutor`'s: absorbable
faults cost latency but never correctness or accounting, and an
unabsorbable fault surfaces as a structured ``TaskFailedError`` in
bounded time instead of a hang or a half-finished round.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.errors import InvalidParameterError, TaskFailedError
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import ALWAYS, Fault, FaultSchedule, RandomFaults
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor

BACKENDS = ("sequential", "thread", "process")


def make_backend(name: str):
    if name == "sequential":
        return SequentialExecutor()
    if name == "thread":
        return ThreadPoolExecutorBackend(max_workers=2)
    return ProcessPoolExecutorBackend(max_workers=2)


def square(i: int) -> int:
    """Module-level so the process backend can pickle it."""
    return i * i


def slow_square(i: int, seconds: float) -> int:
    time.sleep(seconds)
    return i * i


def make_tasks(n: int = 4):
    return [partial(square, i) for i in range(n)]


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    return request.param


def run_resilient(backend_name, faults, policy=None, n_tasks=4, rounds=1):
    """Run ``rounds`` rounds of squaring tasks under ``faults``; return
    (per-round results, per-round stats, executor totals)."""
    results, stats = [], []
    with ResilientExecutor(
        make_backend(backend_name), policy or FaultPolicy(), faults
    ) as executor:
        for _ in range(rounds):
            values, faults_seen = executor.run(make_tasks(n_tasks))
            assert len(values) == faults_seen.n_tasks == n_tasks
            results.append(values)
            stats.append(faults_seen)
        totals = executor.totals
    return results, stats, totals


class TestRetries:
    def test_transient_crash_is_absorbed(self, backend_name):
        faults = FaultSchedule({(0, 1): Fault("crash")})
        (values,), (stats,), _ = run_resilient(backend_name, faults)
        assert values == [0, 1, 4, 9]
        assert stats.retries == 1
        assert stats.task_retries == [0, 1, 0, 0]
        assert stats.faults_injected == 1

    def test_dropped_result_is_not_leaked(self, backend_name):
        # "drop" runs the task then discards the result: the retry must
        # supply the answer and the lost attempt must count as waste —
        # at least the 0.05 s the dropped task slept, on every backend
        # (an inline attempt stamped after it ran would be charged ~0 s).
        faults = FaultSchedule({(0, 2): Fault("drop")})
        tasks = make_tasks()
        tasks[2] = partial(slow_square, 2, 0.05)
        with ResilientExecutor(
            make_backend(backend_name), FaultPolicy(), faults
        ) as executor:
            values, stats = executor.run(tasks)
        assert values == [0, 1, 4, 9]
        assert stats.retries == 1
        assert stats.wasted_task_seconds >= 0.05
        assert stats.task_wasted_seconds[2] >= 0.05

    def test_every_task_crashing_once_still_completes(self, backend_name):
        faults = FaultSchedule({(None, None): Fault("crash")})
        (values,), (stats,), _ = run_resilient(backend_name, faults)
        assert values == [0, 1, 4, 9]
        assert stats.retries == 4

    def test_exhausted_budget_raises_structured_error(self, backend_name):
        faults = FaultSchedule({(None, 2): Fault("crash", times=ALWAYS)})
        policy = FaultPolicy(max_retries=2)
        started = time.perf_counter()
        with ResilientExecutor(
            make_backend(backend_name), policy, faults
        ) as executor:
            with pytest.raises(TaskFailedError) as excinfo:
                executor.run(make_tasks())
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, "exhausted budget must fail in bounded time"
        assert excinfo.value.task_index == 2
        assert excinfo.value.attempts == policy.max_retries + 1
        assert "retry budget" in str(excinfo.value)

    def test_backoff_delays_accumulate(self):
        faults = FaultSchedule({(0, 0): Fault("crash", times=2)})
        policy = FaultPolicy(max_retries=3, backoff=0.05, backoff_factor=2.0)
        started = time.perf_counter()
        (values,), (stats,), _ = run_resilient(
            "sequential", faults, policy=policy, n_tasks=1
        )
        elapsed = time.perf_counter() - started
        assert values == [0]
        assert stats.retries == 2
        # Two retries at 0.05 then 0.10 seconds of backoff.
        assert elapsed >= 0.15


class TestTimeouts:
    def test_hang_trips_timeout_and_retries(self, backend_name):
        faults = FaultSchedule({(0, 0): Fault("hang", seconds=1.0)})
        policy = FaultPolicy(max_retries=1, task_timeout=0.2)
        with ResilientExecutor(
            make_backend(backend_name), policy, faults
        ) as executor:
            started = time.perf_counter()
            values, stats = executor.run(make_tasks())
            elapsed = time.perf_counter() - started
            # Timed inside the context: closing a pool waits for the
            # abandoned attempt's worker, and that wait is not latency
            # the round's caller sees.
        assert values == [0, 1, 4, 9]
        assert stats.retries == 1
        if backend_name != "sequential":
            # Pooled backends abandon the hung attempt at the deadline
            # and relaunch; sequential can only discard it post-hoc, so
            # it necessarily sits through the sleep.
            assert elapsed < 1.0, "timeout must cut the hang short"

    def test_sequential_post_hoc_timeout_discards_late_result(self):
        # The sequential path cannot interrupt a task, but a result that
        # arrives past the deadline is still rejected and retried so the
        # semantics match the pooled backends.
        faults = FaultSchedule({(0, 1): Fault("delay", seconds=0.3)})
        policy = FaultPolicy(max_retries=1, task_timeout=0.05)
        (values,), (stats,), _ = run_resilient(
            "sequential", faults, policy=policy
        )
        assert values == [0, 1, 4, 9]
        assert stats.retries == 1
        assert stats.wasted_task_seconds >= 0.3


class TestSpeculation:
    def test_duplicate_fault_is_deduplicated(self, backend_name):
        faults = FaultSchedule({(0, 3): Fault("duplicate")})
        (values,), (stats,), _ = run_resilient(backend_name, faults)
        assert values == [0, 1, 4, 9], "dedup must keep exactly one result"
        assert stats.speculative_launches >= 1
        if backend_name == "sequential":
            # The clone completes at submit, after its primary, and each
            # batch is handled in (task, attempt) order: it always loses.
            assert stats.speculative_wins == 0
            assert stats.task_wasted_seconds[3] > 0.0

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_speculative_clone_beats_straggler(self, pool):
        faults = FaultSchedule({(0, 0): Fault("delay", seconds=1.5)})
        policy = FaultPolicy(max_retries=1, speculate_after=0.1)
        with ResilientExecutor(
            make_backend(pool), policy, faults
        ) as executor:
            started = time.perf_counter()
            values, stats = executor.run(make_tasks(2))
            elapsed = time.perf_counter() - started
        assert values == [0, 1]
        assert stats.speculative_launches >= 1
        assert stats.speculative_wins >= 1
        assert elapsed < 1.5, "the clone should win before the straggler"


class TestWorkerDeath:
    def test_dead_worker_is_replaced_and_round_completes(self):
        # os._exit in a worker breaks the whole pool; the executor must
        # drop the corpse, re-open, re-dispatch, and stay warm after.
        faults = FaultSchedule({(0, 1): Fault("die")})
        results, stats, totals = run_resilient(
            "process", faults, policy=FaultPolicy(max_retries=2), rounds=2
        )
        assert results == [[0, 1, 4, 9], [0, 1, 4, 9]]
        assert stats[0].retries >= 1
        assert stats[1].retries == 0, "round 2 runs clean on the new pool"
        assert totals.retries == stats[0].retries

    def test_die_in_driver_degrades_to_crash(self):
        # On the sequential backend the task runs in the driver process;
        # "die" must not take the test runner down with it.
        faults = FaultSchedule({(0, 0): Fault("die")})
        (values,), (stats,), _ = run_resilient("sequential", faults, n_tasks=2)
        assert values == [0, 1]
        assert stats.retries == 1


class TestConcurrentCallers:
    def test_each_caller_gets_its_own_round_stats(self):
        # The serve scheduler drives one wrapper from several dispatch
        # threads: every run must hand back its own round's stats, and
        # the stats handed back must add up to the wrapper's totals.
        faults = RandomFaults(
            seed=3, rate=0.5, kinds=("crash", "delay", "drop", "duplicate")
        )
        executor = ResilientExecutor(
            ThreadPoolExecutorBackend(max_workers=2), FaultPolicy(), faults
        )

        def caller(n_tasks: int) -> list:
            returned = []
            for _ in range(4):
                values, stats = executor.run(make_tasks(n_tasks))
                assert values == [i * i for i in range(n_tasks)]
                assert len(stats.task_retries) == n_tasks
                assert len(stats.task_speculative_wins) == n_tasks
                assert len(stats.task_wasted_seconds) == n_tasks
                assert sum(stats.task_retries) == stats.retries
                returned.append(stats)
            return returned

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers' bookkeeping
        try:
            with executor, ThreadPoolExecutor(max_workers=4) as callers:
                returned = [
                    stats
                    for per_caller in callers.map(caller, (1, 3, 5, 7), timeout=60)
                    for stats in per_caller
                ]
        finally:
            sys.setswitchinterval(interval)
        assert len(returned) == 16
        totals = executor.totals
        assert totals.retries == sum(s.retries for s in returned) > 0
        assert totals.speculative_launches == sum(
            s.speculative_launches for s in returned
        )
        assert totals.speculative_wins == sum(s.speculative_wins for s in returned)
        assert totals.faults_injected == sum(s.faults_injected for s in returned)
        assert totals.wasted_task_seconds == pytest.approx(
            sum(s.wasted_task_seconds for s in returned)
        )


class TestDeterminism:
    def test_random_faults_are_a_pure_function_of_seed(self):
        a = RandomFaults(seed=7, rate=0.5, kinds=("crash", "delay", "drop"))
        b = RandomFaults(seed=7, rate=0.5, kinds=("crash", "delay", "drop"))
        grid = [(r, t) for r in range(6) for t in range(10)]
        decisions_a = [a.fault_for(r, t) for r, t in grid]
        decisions_b = [b.fault_for(r, t) for r, t in grid]
        assert decisions_a == decisions_b
        assert any(f is not None for f in decisions_a)
        assert any(f is None for f in decisions_a)

    def test_different_seeds_give_different_schedules(self):
        grid = [(r, t) for r in range(4) for t in range(16)]
        a = [RandomFaults(seed=1, rate=0.5).fault_for(r, t) for r, t in grid]
        b = [RandomFaults(seed=2, rate=0.5).fault_for(r, t) for r, t in grid]
        assert a != b

    def test_schedule_wildcard_precedence(self):
        schedule = FaultSchedule(
            {
                (0, 1): Fault("crash"),
                (None, 1): Fault("delay", seconds=0.01),
                (0, None): Fault("drop"),
                (None, None): Fault("duplicate"),
            }
        )
        assert schedule.fault_for(0, 1).kind == "crash"
        assert schedule.fault_for(5, 1).kind == "delay"
        assert schedule.fault_for(0, 9).kind == "drop"
        assert schedule.fault_for(5, 9).kind == "duplicate"


class TestGuardRails:
    def test_nesting_resilient_executors_is_refused(self):
        with pytest.raises(InvalidParameterError, match="nesting"):
            ResilientExecutor(ResilientExecutor())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"task_timeout": 0.0},
            {"backoff": -0.1},
            {"speculate_after": -1.0},
            {"max_clones": -1},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FaultPolicy(**kwargs)

    def test_totals_fold_across_rounds(self):
        faults = FaultSchedule({(None, 0): Fault("crash")})
        _, stats, totals = run_resilient("sequential", faults, rounds=3)
        assert [s.retries for s in stats] == [1, 1, 1]
        assert totals.retries == 3
        assert totals.faults_injected == 3
