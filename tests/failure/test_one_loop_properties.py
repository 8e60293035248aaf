"""Property tests for the resilient executor's one futures loop.

Hypothesis draws a :class:`~repro.mapreduce.faults.FaultSchedule` over
all six fault kinds (exact and wildcard ``(round, task)`` keys, leading
``times``, short sleeps) and a :class:`~repro.mapreduce.resilient.FaultPolicy`,
then runs two rounds of squaring tasks through
:class:`~repro.mapreduce.resilient.ResilientExecutor` on each backend.
Whatever the draw, a round ends in one of two ways: the fault-free
values, or a structured :class:`~repro.errors.TaskFailedError` after
exactly ``max_retries + 1`` attempts, in bounded time.  Its stats stay
self-consistent, and on the sequential backend (inline attempts, no
races) two runs of one draw account identically.

Sleeps and timeouts are kept apart (an over-budget sleep is twice the
timeout, a clean attempt takes microseconds), so which attempts time out
does not depend on host load.  Process pools pay real IPC per attempt,
so their profile is a handful of examples.
"""

import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaskFailedError
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import ALWAYS, FAULT_KINDS, Fault, FaultSchedule
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor

ROUNDS = 2
MAX_TASKS = 3
TIMEOUT = 0.03
SLEEP = 2 * TIMEOUT
#: A round that fails must fail well before this (seconds).
BOUND = 10.0

PROFILES = {
    "sequential": settings(max_examples=100, deadline=None),
    "thread": settings(max_examples=150, deadline=None),
    # The small ci profile: every attempt crosses a process boundary.
    "process": settings(max_examples=20, deadline=None),
}


def square(i: int) -> int:
    return i * i


def make_backend(name: str):
    if name == "sequential":
        return SequentialExecutor()
    if name == "thread":
        return ThreadPoolExecutorBackend(max_workers=2)
    return ProcessPoolExecutorBackend(max_workers=2)


faults = st.builds(
    Fault,
    kind=st.sampled_from(FAULT_KINDS),
    times=st.sampled_from([1, 2, ALWAYS]),
    seconds=st.sampled_from([0.0, SLEEP]),
)
schedules = st.dictionaries(
    st.tuples(
        st.one_of(st.none(), st.integers(0, ROUNDS - 1)),
        st.one_of(st.none(), st.integers(0, MAX_TASKS - 1)),
    ),
    faults,
    max_size=3,
).map(FaultSchedule)
policies = st.builds(
    FaultPolicy,
    max_retries=st.integers(0, 2),
    task_timeout=st.sampled_from([None, TIMEOUT]),
    speculate_after=st.sampled_from([None, TIMEOUT / 3]),
    max_clones=st.integers(0, 1),
)


def run_rounds(backend, schedule, policy, n_tasks):
    """Run up to ``ROUNDS`` rounds; return (per-round stats, error).

    A round that fails must have spent the failed task's whole retry
    budget first.
    """
    executor = ResilientExecutor(backend, policy, schedule)
    seen = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        try:
            values, stats = executor.run(
                [partial(square, i) for i in range(n_tasks)]
            )
        except TaskFailedError as exc:
            assert time.perf_counter() - started < BOUND
            assert exc.attempts == policy.max_retries + 1
            assert 0 <= exc.task_index < n_tasks
            failed_round_retries = executor.totals.retries - sum(
                s.retries for s in seen
            )
            assert failed_round_retries >= policy.max_retries
            return seen, exc
        assert values == [i * i for i in range(n_tasks)]
        assert stats.n_tasks == n_tasks
        seen.append(stats)
    return seen, None


def check_stats(stats, n_tasks):
    assert len(stats.task_retries) == n_tasks
    assert sum(stats.task_retries) == stats.retries
    assert sum(stats.task_speculative_wins) == stats.speculative_wins
    assert sum(stats.task_wasted_seconds) == pytest.approx(
        stats.wasted_task_seconds
    )
    assert stats.speculative_wins <= stats.speculative_launches
    assert all(w >= 0.0 for w in stats.task_wasted_seconds)


def deterministic_part(stats):
    """Everything but the measured seconds (whose sign is still fixed)."""
    return (
        stats.retries,
        stats.speculative_launches,
        stats.speculative_wins,
        stats.faults_injected,
        stats.task_retries,
        stats.task_speculative_wins,
        [w > 0.0 for w in stats.task_wasted_seconds],
    )


@pytest.mark.parametrize("backend_name", list(PROFILES))
def test_rounds_absorb_or_fail_structurally(backend_name):
    backend = make_backend(backend_name)

    @PROFILES[backend_name]
    @given(
        schedule=schedules,
        policy=policies,
        n_tasks=st.integers(1, MAX_TASKS),
    )
    def check(schedule, policy, n_tasks):
        seen, error = run_rounds(backend, schedule, policy, n_tasks)
        for stats in seen:
            check_stats(stats, n_tasks)
        if backend_name == "sequential":
            again, error_again = run_rounds(backend, schedule, policy, n_tasks)
            assert [deterministic_part(s) for s in again] == [
                deterministic_part(s) for s in seen
            ]
            assert (error is None) == (error_again is None)
            if error is not None:
                assert error_again.task_index == error.task_index

    with backend:
        check()


# Shrunk counterexamples, pinned.  Both are a primary and its speculative
# copy timing out back to back: the copy's failure used to count against
# the retry budget, so the error over-counted attempts and a task could
# give up without spending its retries.
STRAGGLERS = FaultSchedule({(None, None): Fault("delay", times=ALWAYS, seconds=SLEEP)})


def _speculating(max_retries: int) -> FaultPolicy:
    return FaultPolicy(
        max_retries=max_retries,
        task_timeout=TIMEOUT,
        speculate_after=TIMEOUT / 3,
        max_clones=1,
    )


def test_failed_clone_is_not_counted_as_an_attempt():
    with ThreadPoolExecutorBackend(max_workers=2) as backend:
        seen, error = run_rounds(backend, STRAGGLERS, _speculating(0), 3)
    assert seen == [] and error.attempts == 1


def test_failed_clone_does_not_spend_the_retry_budget():
    with ThreadPoolExecutorBackend(max_workers=2) as backend:
        executor = ResilientExecutor(backend, _speculating(1), STRAGGLERS)
        with pytest.raises(TaskFailedError) as excinfo:
            executor.run([partial(square, 0)])
    assert excinfo.value.attempts == 2
    assert executor.totals.retries == 1
    assert executor.totals.speculative_launches == 1
