"""Fault-tolerant task execution: retries, timeouts, speculation.

:class:`ResilientExecutor` wraps any backend satisfying the
:class:`~repro.mapreduce.executor.Executor` protocol — Sequential,
ThreadPool or ProcessPool — and enforces a :class:`FaultPolicy` on every
batch it runs:

* a failed task (exception, per-attempt timeout, lost result, broken
  worker pool) is **re-dispatched** up to ``max_retries`` times, with
  optional backoff, *without* poisoning the underlying persistent pool;
* a **straggler** task still running after ``speculate_after`` seconds
  gets a concurrent speculative copy; the first attempt to finish wins
  and the loser's result is discarded — results are **deduplicated by
  task index**, so exactly one result (and exactly one
  :class:`~repro.mapreduce.tasks.TaskOutput` with its evaluation
  count) survives per task, keeping round accounting exact;
* a task that exhausts its budget raises a structured
  :class:`~repro.errors.TaskFailedError` in bounded time — never a hang,
  never partial results.

Correctness rests on the repo-wide task contract: reducer tasks are pure
and pre-seeded (randomness bound before scheduling), so re-execution —
even concurrent double execution — produces bit-identical values.  Under
any fault schedule the policy can absorb, a job's output is therefore
bit-identical to its fault-free run; only the timing fields differ.

Fault *injection* is strictly opt-in: pass a
:class:`~repro.mapreduce.faults.FaultInjector` (a
:class:`~repro.mapreduce.faults.FaultSchedule` or
:class:`~repro.mapreduce.faults.RandomFaults`) and the executor consults
it at dispatch time, wrapping the affected attempts.  Without one, the
wrapper reacts only to real failures and adds one dictionary lookup per
task to the happy path.

One loop serves every backend: attempts go through the inner backend's
``submit`` and come back as ``concurrent.futures`` futures.  Pool
backends return live futures, so timeouts preempt (the round moves on at
the deadline) and stragglers can be speculated against; the sequential
backend runs each attempt inline and returns it already completed, so
its timeouts are post-hoc (an over-budget result is discarded and
retried) and its ``duplicate`` clones always lose the dedup race.

Accounting: each :meth:`ResilientExecutor.run` call is one *round*, and
returns the same :class:`~repro.mapreduce.accounting.RoundStats` record
as every backend, with its fault fields filled in (retries, speculative
launches/wins, wasted task-seconds, injected faults, and the per-task
breakdowns ``solve_many`` reads for exact per-run summaries).  When the
round ends, failed or not, :meth:`ResilientExecutor._fold` adds it to
``totals`` and to the ``repro_*`` fault counters: one fold feeds both.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import InvalidParameterError, TaskFailedError
from repro.mapreduce.accounting import RoundStats
from repro.mapreduce.executor import Executor, SequentialExecutor
from repro.mapreduce.faults import Fault, FaultInjector, apply_fault
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["FaultPolicy", "ResilientExecutor"]

_M_RETRIES = _metrics.counter(
    "repro_task_retries_total", "Task attempts re-dispatched after a failure"
)
_M_SPEC_LAUNCHES = _metrics.counter(
    "repro_speculative_launches_total",
    "Speculative / duplicate task copies launched",
)
_M_SPEC_WINS = _metrics.counter(
    "repro_speculative_wins_total", "Rounds won by a speculative copy"
)
_M_WASTED = _metrics.counter(
    "repro_wasted_task_seconds_total",
    "Wall-clock seconds spent on attempts whose results were discarded",
)
_M_FAULTS = _metrics.counter(
    "repro_faults_injected_total", "Faults injected by a configured injector"
)
_M_POOL_RESTARTS = _metrics.counter(
    "repro_pool_restarts_total", "Worker pools dropped and reopened after breaking"
)
#: The round fields :meth:`ResilientExecutor._fold` adds up, and the
#: counter each one feeds.
_FOLDED = (
    ("retries", _M_RETRIES),
    ("speculative_launches", _M_SPEC_LAUNCHES),
    ("speculative_wins", _M_SPEC_WINS),
    ("wasted_task_seconds", _M_WASTED),
    ("faults_injected", _M_FAULTS),
)


@dataclass(frozen=True)
class FaultPolicy:
    """What the executor tolerates, and how hard it fights back.

    Parameters
    ----------
    max_retries:
        Re-dispatches allowed per task after its first attempt fails
        (so a task runs at most ``1 + max_retries`` times *due to
        failures*; speculative copies are budgeted separately).  ``0``
        turns retries off — the first failure is final.
    task_timeout:
        Per-attempt wall-clock budget in seconds.  An attempt running
        longer is abandoned and counted as a failure; on pool backends
        the retry dispatches immediately (the stuck attempt keeps its
        worker until it finishes — workers are never killed mid-task).
        ``None`` (default) disables timeouts.
    backoff, backoff_factor:
        Delay before the ``i``-th retry: ``backoff * backoff_factor**i``
        seconds.  Default no delay (local pools fail fast; backoff
        matters for a future remote transport).
    speculate_after:
        Straggler threshold in seconds: a task whose only attempt has
        been running this long gets a concurrent speculative copy.
        ``None`` (default) disables speculation.
    max_clones:
        Speculative copies allowed per task (on top of retries).
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff: float = 0.0
    backoff_factor: float = 2.0
    speculate_after: float | None = None
    max_clones: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff < 0 or self.backoff_factor < 0:
            raise InvalidParameterError("backoff terms must be >= 0")
        if self.speculate_after is not None and self.speculate_after <= 0:
            raise InvalidParameterError(
                f"speculate_after must be positive, got {self.speculate_after}"
            )
        if self.max_clones < 0:
            raise InvalidParameterError(
                f"max_clones must be >= 0, got {self.max_clones}"
            )

    def retry_delay(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        return self.backoff * self.backoff_factor**retry_index


class _Attempt(NamedTuple):
    """One in-flight execution attempt of one task."""

    index: int
    attempt: int
    started: float
    speculative: bool


def _abandoned_span(
    tracer: "_trace.Tracer | None",
    index: int,
    attempt: int,
    started: float,
    seconds: float,
    reason: str,
    speculative: bool,
) -> None:
    """Record one losing attempt on the driver timeline.

    Losing attempts never fold their worker-side spans (their results are
    discarded before the commit point), so this driver-side ``attempt``
    span — annotated ``abandoned=True`` — is the only trace they leave.
    """
    if tracer is None:
        return
    tracer.emit(
        f"attempt[{index}]#{attempt}",
        cat="attempt",
        start=started,
        duration=seconds,
        task=index,
        attempt=attempt,
        abandoned=True,
        speculative=speculative,
        reason=reason,
    )


class ResilientExecutor:
    """Fault-tolerant wrapper composing with any :class:`Executor` backend.

    Has the ``Executor`` surface callers use (``run``, lifecycle,
    ``workers``, ``crosses_process_boundary``; not ``submit``, which
    only this wrapper drives, and wrappers do not nest), so it drops
    into every slot a bare backend fits: a MapReduce solver's
    ``executor=`` knob, the ``solve_many`` fan-out, the serve
    scheduler's warm pool.

    Parameters
    ----------
    inner:
        The backend that actually executes tasks (default
        :class:`~repro.mapreduce.executor.SequentialExecutor`), driven
        one attempt at a time through its ``submit``.
    policy:
        The :class:`FaultPolicy` to enforce (default: 2 retries, no
        timeout, no speculation).
    faults:
        Optional :class:`~repro.mapreduce.faults.FaultInjector` for
        deterministic chaos testing.  ``None`` in production.
    """

    def __init__(
        self,
        inner: Executor | None = None,
        policy: FaultPolicy | None = None,
        faults: FaultInjector | None = None,
    ):
        if isinstance(inner, ResilientExecutor):
            raise InvalidParameterError(
                "nesting ResilientExecutor inside ResilientExecutor would "
                "multiply retry budgets; wrap the innermost backend once"
            )
        self.inner: Executor = inner if inner is not None else SequentialExecutor()
        self.policy = policy if policy is not None else FaultPolicy()
        self.faults = faults
        #: Running fold of every round's fault counts (failed rounds
        #: included).  Only the scalar fields grow; its per-task lists
        #: stay empty, so a long-lived server holds a fixed-size record.
        self.totals = RoundStats("totals")
        # The serve scheduler drives one wrapper from several dispatch
        # threads at once: round numbering is an atomic counter and each
        # run returns its own stats, so concurrent batches cannot swap
        # accounting.  ``totals`` folds under a lock.
        self._round_counter = itertools.count()
        self._totals_lock = threading.Lock()
        self._driver_pid = os.getpid()

    # ------------------------------------------------------------------ #
    # lifecycle: delegate to the wrapped backend
    # ------------------------------------------------------------------ #
    @property
    def crosses_process_boundary(self) -> bool:
        return self.inner.crosses_process_boundary

    @property
    def workers(self) -> int:
        return self.inner.workers

    def open(self) -> "ResilientExecutor":
        self.inner.open()
        return self

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "ResilientExecutor":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], RoundStats]:
        round_index = next(self._round_counter)
        stats = RoundStats.of_tasks([0.0] * len(tasks))
        if not tasks:
            return [], stats
        try:
            results = self._run(list(tasks), round_index, stats)
        finally:
            self._fold(stats)
        return results, stats

    def _fold(self, stats: RoundStats) -> None:
        """Close one round's books and fold them into ``totals`` and the
        fault counters — the only place either is written."""
        stats.retries = sum(stats.task_retries)
        stats.speculative_wins = sum(stats.task_speculative_wins)
        stats.wasted_task_seconds = sum(stats.task_wasted_seconds)
        emit = _metrics.REGISTRY.enabled
        with self._totals_lock:
            for name, metric in _FOLDED:
                value = getattr(stats, name)
                setattr(self.totals, name, getattr(self.totals, name) + value)
                if emit and value:
                    metric.inc(value)

    def _fault_for(self, round_index: int, task_index: int) -> Fault | None:
        if self.faults is None:
            return None
        return self.faults.fault_for(round_index, task_index)

    def _wrapped(
        self, task: Callable, fault: Fault | None, attempt: int, stats: RoundStats
    ) -> Callable:
        """The callable for one attempt, fault applied if scheduled.

        The wrapper is a plain ``partial`` over a module-level function,
        so it is picklable whenever ``task`` is — injection works
        identically on process pools.  ``duplicate`` faults act at
        dispatch (a clone is launched), never on the callable.
        """
        if fault is None or fault.kind == "duplicate" or not fault.affects(attempt):
            return task
        stats.faults_injected += 1
        return partial(
            apply_fault, task, fault.kind, fault.seconds, self._driver_pid
        )

    def _exhausted(
        self,
        task_index: int,
        attempts: int,
        label_exc: BaseException,
    ) -> TaskFailedError:
        error = TaskFailedError(
            f"task {task_index} failed after {attempts} attempt(s), "
            f"retry budget {self.policy.max_retries} exhausted: "
            f"{type(label_exc).__name__}: {label_exc}",
            task_index=task_index,
            attempts=attempts,
        )
        error.__cause__ = label_exc
        return error

    # ------------------------------------------------------------------ #
    # the futures loop
    # ------------------------------------------------------------------ #
    def _submit(self, call: Callable):
        """Submit through the inner pool, recovering once from a corpse."""
        try:
            return self.inner.submit(call)
        except BrokenExecutor:
            self.inner.close()
            _M_POOL_RESTARTS.inc()
            return self.inner.submit(call)

    def _run(self, tasks: list, round_index: int, stats: RoundStats) -> list[Any]:
        """Dispatch every task, then react to attempts as they complete.

        Each ``wait`` batch is handled in (task, attempt) order, so the
        round's outcome does not depend on set iteration order.  Winners'
        seconds land in ``stats.task_times``, the rest in its per-task
        fault lists.
        """
        policy = self.policy
        tracer = _trace.current_tracer()
        n = len(tasks)
        results: list[Any] = [None] * n
        resolved = [False] * n
        faults = [self._fault_for(round_index, i) for i in range(n)]
        attempts_launched = [0] * n
        clones = [0] * n
        inflight: dict[Any, _Attempt] = {}
        inflight_count = [0] * n
        unresolved = n
        # When each attempt's future completed: a failed attempt is
        # charged dispatch-to-completion, not dispatch-to-handling (an
        # inline attempt completes long before its batch is handled).
        finished: dict[Any, float] = {}

        def stamp(future) -> None:
            finished[future] = time.perf_counter()

        def launch(idx: int, speculative: bool = False) -> None:
            attempt = attempts_launched[idx]
            attempts_launched[idx] += 1
            call = self._wrapped(tasks[idx], faults[idx], attempt, stats)
            # Stamped before submit: an inline backend runs the attempt
            # inside the call.
            started = time.perf_counter()
            future = self._submit(call)
            future.add_done_callback(stamp)
            inflight[future] = _Attempt(idx, attempt, started, speculative)
            inflight_count[idx] += 1

        def abandon_all() -> None:
            for future in inflight:
                future.cancel()
            inflight.clear()

        def waste(idx: int, seconds: float) -> None:
            stats.task_wasted_seconds[idx] += seconds

        def attempt_failed(att: _Attempt, seconds: float, exc: BaseException) -> None:
            """One attempt is gone; retry, defer to a live clone, or give up.

            Only a task left with no attempt in flight spends its retry
            budget, so a failed speculative copy never costs a retry.
            """
            idx = att.index
            waste(idx, seconds)
            _abandoned_span(
                tracer, idx, att.attempt, att.started, seconds,
                type(exc).__name__, speculative=att.speculative,
            )
            if resolved[idx]:
                return  # a clone already won; this loser just cost time
            if inflight_count[idx] > 0:
                return  # another attempt is still running; let it race
            retries = stats.task_retries[idx]
            if retries >= policy.max_retries:
                abandon_all()
                raise self._exhausted(idx, retries + 1, exc) from exc
            stats.task_retries[idx] += 1
            delay = policy.retry_delay(retries)
            if delay > 0:
                time.sleep(delay)
            launch(idx)

        for idx in range(n):
            launch(idx)
            fault = faults[idx]
            if fault is not None and fault.kind == "duplicate":
                stats.speculative_launches += 1
                clones[idx] += 1
                launch(idx, speculative=True)

        while unresolved:
            done, _ = wait(
                set(inflight),
                timeout=self._next_event_delay(inflight, resolved, clones),
                return_when=FIRST_COMPLETED,
            )
            broken: list[tuple[_Attempt, BaseException]] = []
            for future in sorted(done, key=lambda f: inflight[f][:2]):
                att = inflight.pop(future)
                inflight_count[att.index] -= 1
                try:
                    value, seconds = future.result()
                except BrokenExecutor as exc:
                    broken.append((att, exc))
                    continue
                except Exception as exc:  # noqa: BLE001 - policy decides
                    ended = finished.get(future, time.perf_counter())
                    attempt_failed(att, ended - att.started, exc)
                    continue
                idx = att.index
                if resolved[idx]:
                    waste(idx, seconds)  # duplicate result: deduplicated
                    _abandoned_span(
                        tracer, idx, att.attempt, att.started, seconds,
                        "deduplicated", speculative=att.speculative,
                    )
                elif (
                    policy.task_timeout is not None
                    and seconds > policy.task_timeout
                ):
                    # Completed, but over budget — the timeout contract
                    # says its result must not count (the only check an
                    # inline attempt gets: it cannot be preempted).
                    attempt_failed(
                        att,
                        seconds,
                        TimeoutError(
                            f"attempt took {seconds:.4g}s, over the per-task "
                            f"timeout of {policy.task_timeout:.4g}s"
                        ),
                    )
                else:
                    resolved[idx] = True
                    unresolved -= 1
                    results[idx] = value
                    stats.task_times[idx] = seconds
                    if att.speculative:
                        stats.task_speculative_wins[idx] = 1

            if broken:
                # The pool is a corpse: every other in-flight future is
                # doomed with it.  Drop the pool (the next submit opens a
                # fresh one) and route every casualty through the normal
                # failure path — retries re-dispatch, exhausted budgets
                # raise.
                self.inner.close()
                _M_POOL_RESTARTS.inc()
                casualties = list(inflight.items())
                inflight.clear()
                for _, att in casualties:
                    inflight_count[att.index] -= 1
                now = time.perf_counter()
                for att, exc in broken:
                    attempt_failed(att, now - att.started, exc)
                for future, att in casualties:
                    if not resolved[att.index]:
                        attempt_failed(
                            att,
                            now - att.started,
                            BrokenExecutor(
                                "worker pool broke while the attempt was queued"
                            ),
                        )

            now = time.perf_counter()
            # Per-attempt timeouts: abandon over-budget attempts.  The
            # future is cancelled (a no-op if already running — workers
            # are never killed mid-task); a still-running attempt keeps
            # its worker busy until its (finite) work ends, which is why
            # retries dispatch immediately instead of waiting for it.
            # Completed attempts are left to the next batch, which
            # judges them by their own measured seconds.
            if policy.task_timeout is not None:
                for future, att in list(inflight.items()):
                    if (
                        now - att.started > policy.task_timeout
                        and not future.done()
                    ):
                        future.cancel()
                        del inflight[future]
                        inflight_count[att.index] -= 1
                        if resolved[att.index]:
                            waste(att.index, now - att.started)
                            _abandoned_span(
                                tracer, att.index, att.attempt, att.started,
                                now - att.started, "overtaken",
                                speculative=att.speculative,
                            )
                        else:
                            attempt_failed(
                                att,
                                now - att.started,
                                TimeoutError(
                                    f"attempt exceeded the per-task timeout "
                                    f"of {policy.task_timeout:.4g}s"
                                ),
                            )
            # Speculative re-execution: clone lone stragglers.
            if policy.speculate_after is not None:
                for future, att in list(inflight.items()):
                    idx = att.index
                    if (
                        not resolved[idx]
                        and inflight_count[idx] == 1
                        and clones[idx] < policy.max_clones
                        and now - att.started > policy.speculate_after
                        and not future.done()
                    ):
                        stats.speculative_launches += 1
                        clones[idx] += 1
                        launch(idx, speculative=True)
            # Safety: every unresolved task must have an attempt in
            # flight (covers pool-breakage orderings where the retry
            # could not be dispatched inline).
            for idx in range(n):
                if not resolved[idx] and inflight_count[idx] == 0:
                    launch(idx)

        # All tasks answered: losing attempts still in flight are
        # abandoned, not awaited — a straggler must not delay the round
        # it already lost.
        now = time.perf_counter()
        for future, att in inflight.items():
            future.cancel()
            waste(att.index, now - att.started)
            _abandoned_span(
                tracer, att.index, att.attempt, att.started,
                now - att.started, "outpaced", speculative=att.speculative,
            )
        inflight.clear()
        return results

    def _next_event_delay(
        self, inflight: dict, resolved: list[bool], clones: list[int]
    ) -> float | None:
        """Seconds until the earliest timeout/speculation event, or None."""
        policy = self.policy
        horizon: float | None = None
        for att in inflight.values():
            candidates = []
            if policy.task_timeout is not None:
                candidates.append(att.started + policy.task_timeout)
            if (
                policy.speculate_after is not None
                and not resolved[att.index]
                and clones[att.index] < policy.max_clones
            ):
                candidates.append(att.started + policy.speculate_after)
            for when in candidates:
                if horizon is None or when < horizon:
                    horizon = when
        if horizon is None:
            return None
        return max(0.0, horizon - time.perf_counter())
