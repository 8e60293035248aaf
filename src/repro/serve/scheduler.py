"""Admission control and batch coalescing over one warm executor.

The scheduler is the serving layer's core loop, and it is deliberately a
thin consumer of machinery that already exists:

* **one persistent executor** (:mod:`repro.mapreduce.executor`) is opened
  at startup and reused by every batch — the PR-5 engine contract (pool
  spawned once, shared-memory space transport for process workers);
* queued requests are **coalesced** into heterogeneous
  :func:`repro.solve_many` batches: requests sharing a ``space_key``
  (content fingerprint for inline points, resolved path for on-disk
  data) become entries of one fan-out, each with its own ``k`` / seed /
  options and its own exact accounting (``BatchResults.run_summaries``);
* **admission control** caps outstanding requests (``max_queue``),
  concurrent batch dispatches (``max_inflight``) and request size
  (``max_points``) — over-limit submissions raise a structured
  :class:`~repro.serve.protocol.ServeError` instead of queueing unbounded
  work or crashing the loop.

Cancellation is cooperative and cheap: a request whose asyncio future is
cancelled (client gone, deadline passed) is dropped at dispatch time if
it is still queued; if its batch is already running, the batch completes
on the pool — workers are never killed mid-task, so the shared pool
cannot be poisoned — and the orphaned result is discarded.

Fault tolerance rides on :mod:`repro.mapreduce.resilient`: the warm
executor is wrapped in a
:class:`~repro.mapreduce.resilient.ResilientExecutor`, so a batch task
that crashes (a dying worker, a poisoned process pool) is retried
transparently under the config's
:class:`~repro.mapreduce.resilient.FaultPolicy` and the re-run answers
bit-identically (seeds bind per entry before dispatch).  A batch the
policy cannot absorb is **isolation-split**: every coalesced request is
re-dispatched alone, so one genuinely poisoned request fails with a
structured error while its batch-mates still succeed — and the pool
stays warm for the next batch either way.  A failure names its unit of
work (``solve_many`` for a coalesced batch) in the ``E_INTERNAL``
message.  The ``stats`` op's fault numbers read the warm executor's
``totals``, the same fold that feeds the ``repro_task_retries_total``
family of counters, so a scrape reports them once, as those counters.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvalidParameterError
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import FaultInjector
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor
from repro.obs import logs as _logs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve.protocol import (
    E_INTERNAL,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_TOO_LARGE,
    ServeError,
    SolveRequest,
)
from repro.solvers.facade import BatchKey, solve_many

__all__ = ["ServeConfig", "BatchScheduler", "BACKENDS"]

#: Executor backends the server can host, by CLI/config name.
BACKENDS = ("sequential", "thread", "process")

_LOG = _logs.get_logger("repro.serve")

_M_REQUESTS = _metrics.counter(
    "repro_serve_requests_total",
    "Requests by final disposition",
    ("outcome",),  # received / answered / rejected / failed / abandoned
)
_M_BATCHES = _metrics.counter(
    "repro_serve_batches_total", "Coalesced batches dispatched to the pool"
)
_M_QUEUE_WAIT = _metrics.histogram(
    "repro_serve_queue_wait_seconds",
    "Admission-to-dispatch wait per answered request",
)
_M_BATCH_SIZE = _metrics.histogram(
    "repro_serve_batch_size",
    "Requests coalesced per dispatched batch",
    buckets=(1, 2, 4, 8, 16, 32, 64),
)
_M_BATCH_SECONDS = _metrics.histogram(
    "repro_serve_batch_seconds", "Wall time of one dispatched batch"
)
_M_ISOLATION = _metrics.counter(
    "repro_serve_isolation_splits_total",
    "Failed coalesced batches re-dispatched one request at a time",
)
# Scrape-time snapshot gauges, set by BatchScheduler.observe_scrape just
# before every render so a Prometheus scrape agrees with the stats op.
_M_G_UPTIME = _metrics.gauge(
    "repro_serve_uptime_seconds", "Seconds since the scheduler started"
)
_M_G_PENDING = _metrics.gauge(
    "repro_serve_pending", "Requests admitted and not yet answered"
)


@dataclass
class ServeConfig:
    """Everything a server/scheduler pair needs, in one picklable bag.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` asks the OS for an ephemeral port (the
        bound address is reported by :meth:`KCenterServer.start`).
    metrics_port:
        When set, the server additionally binds a plain-HTTP listener on
        this port (same host) answering ``GET /metrics`` with the
        Prometheus text exposition of :data:`repro.obs.metrics.REGISTRY`
        — ``0`` again means ephemeral.  ``None`` (default) disables the
        scrape listener; the NDJSON ``metrics`` op is always available.
    backend, pool_size:
        The one warm executor every batch runs on: ``"thread"``
        (default; BLAS kernels overlap, zero pickling), ``"process"``
        (true multicore; spaces cross via shared memory) or
        ``"sequential"``.
    max_queue:
        Admission cap on *outstanding* requests (queued + inflight).
    max_inflight:
        Concurrent coalesced batches in flight on the executor.
    max_points:
        Largest admissible request (points per space).
    max_batch, batch_window:
        Coalescing shape: after the first pending request, wait up to
        ``batch_window`` seconds for company, then dispatch at most
        ``max_batch`` requests grouped by space.
    default_timeout:
        Per-request deadline (seconds) when the request carries none.
    max_line_bytes:
        Wire-framing cap: one request line may be this long at most.
    fault_retries, fault_timeout, speculate_after:
        The :class:`~repro.mapreduce.resilient.FaultPolicy` the warm
        executor enforces on every batch task: a run that crashes (or
        exceeds ``fault_timeout`` seconds) is re-dispatched up to
        ``fault_retries`` times, and a lone straggler running past
        ``speculate_after`` seconds gets a speculative copy.  Runs bind
        their seeds up-front, so a re-run answers bit-identically.  The
        default (one retry, no timeouts) means a transiently dying
        worker costs latency, not a failed response.
    fault_injector:
        Deterministic chaos hook
        (:class:`~repro.mapreduce.faults.FaultSchedule` /
        :class:`~repro.mapreduce.faults.RandomFaults`) consulted per
        batch task — test/staging only; leave ``None`` in production.
    """

    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = None
    backend: str = "thread"
    pool_size: int | None = None
    max_queue: int = 256
    max_inflight: int = 4
    max_points: int = 200_000
    max_batch: int = 64
    batch_window: float = 0.002
    default_timeout: float | None = None
    max_line_bytes: int = 64 * 1024 * 1024
    fault_retries: int = 1
    fault_timeout: float | None = None
    speculate_after: float | None = None
    fault_injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        for name in ("max_queue", "max_inflight", "max_points", "max_batch"):
            if int(getattr(self, name)) < 1:
                raise InvalidParameterError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if int(self.fault_retries) < 0:
            raise InvalidParameterError(
                f"fault_retries must be >= 0, got {self.fault_retries!r}"
            )

    def make_fault_policy(self) -> FaultPolicy:
        return FaultPolicy(
            max_retries=int(self.fault_retries),
            task_timeout=self.fault_timeout,
            speculate_after=self.speculate_after,
        )

    def make_executor(self) -> ResilientExecutor:
        if self.backend == "sequential":
            inner = SequentialExecutor()
        elif self.backend == "thread":
            inner = ThreadPoolExecutorBackend(max_workers=self.pool_size)
        else:
            inner = ProcessPoolExecutorBackend(max_workers=self.pool_size)
        return ResilientExecutor(
            inner, self.make_fault_policy(), self.fault_injector
        )


class _Pending:
    """One admitted request waiting for (or riding in) a batch."""

    __slots__ = ("request", "future", "enqueued", "tracer")

    def __init__(
        self,
        request: SolveRequest,
        future: asyncio.Future,
        tracer: "_trace.Tracer | None" = None,
    ):
        self.request = request
        self.future = future
        self.enqueued = time.perf_counter()
        self.tracer = tracer


class BatchScheduler:
    """Coalesce admitted requests into ``solve_many`` batches on one pool.

    Owns the warm executor, the pending queue and the dispatch thread
    pool.  Must be created and driven from inside a running asyncio
    event loop (:meth:`start`); submissions and result delivery all
    happen on that loop, while the batches themselves run on dispatch
    threads so the loop never blocks on a solve.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self._loop = asyncio.get_running_loop()
        self._executor = config.make_executor()
        self._queue: list[_Pending] = []
        self._wakeup = asyncio.Event()
        self._inflight = asyncio.Semaphore(config.max_inflight)
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=config.max_inflight,
            thread_name_prefix="repro-serve-batch",
        )
        self._pending = 0  # admitted and not yet answered/abandoned
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False
        self._batcher: asyncio.Task | None = None
        self._group_tasks: set[asyncio.Task] = set()
        self._ids = itertools.count(1)
        # counters for the stats op / bench
        self.received = 0
        self.answered = 0
        self.rejected = 0
        self.failed = 0
        self.abandoned = 0
        self.batches = 0
        self.coalesced_requests = 0
        self.isolation_splits = 0
        self._started = time.monotonic()

    def _count(self, outcome: str, amount: int = 1) -> None:
        """Bump one disposition counter and its metric series together."""
        setattr(self, outcome, getattr(self, outcome) + amount)
        _M_REQUESTS.labels(outcome=outcome).inc(amount)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Open the warm pool eagerly and start the batcher task."""
        # A serving process is the canonical long-lived scrape target:
        # turn the process-wide registry on for its lifetime.
        _metrics.REGISTRY.enable()
        self._started = time.monotonic()
        self._executor.open()
        self._batcher = self._loop.create_task(
            self._run(), name="repro-serve-batcher"
        )

    async def drain(self) -> None:
        """Stop admitting, finish every admitted request, release pools.

        The clean-shutdown contract: everything already admitted gets a
        real answer (result or structured error) before the executor and
        dispatch pool close.  Idempotent.
        """
        self._closed = True
        self._wakeup.set()  # let the batcher observe the flag even if idle
        await self._idle.wait()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        for task in list(self._group_tasks):
            await task
        self._dispatch_pool.shutdown(wait=True)
        self._executor.close()

    def next_id(self) -> str:
        """A server-assigned request id (used when the client sent none)."""
        return f"r{next(self._ids)}"

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: SolveRequest,
        tracer: "_trace.Tracer | None" = None,
    ) -> asyncio.Future:
        """Admit one request; returns the future its response resolves.

        Raises :class:`ServeError` (``shutting-down`` / ``overloaded`` /
        ``too-large``) instead of queueing inadmissible work.  A request
        carrying a ``tracer`` (the ``progress`` op) is dispatched as its
        own batch — per-request span attribution cannot survive
        coalescing — with the tracer active for the whole solve.
        """
        self._count("received")
        if self._closed:
            self._count("rejected")
            raise ServeError(E_SHUTTING_DOWN, "server is draining; resubmit later")
        if self._pending >= self.config.max_queue:
            self._count("rejected")
            raise ServeError(
                E_OVERLOADED,
                f"{self._pending} requests outstanding, at the max_queue "
                f"cap of {self.config.max_queue}; retry later",
            )
        if request.space.n > self.config.max_points:
            self._count("rejected")
            raise ServeError(
                E_TOO_LARGE,
                f"request has {request.space.n} points, over the admission "
                f"cap of {self.config.max_points}",
            )
        future = self._loop.create_future()
        self._queue.append(_Pending(request, future, tracer))
        self._pending += 1
        self._idle.clear()
        self._wakeup.set()
        return future

    def _settle(self, count: int) -> None:
        self._pending -= count
        if self._pending <= 0:
            self._pending = 0
            self._idle.set()

    # ------------------------------------------------------------------ #
    # the batcher loop
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queue:
                continue
            # Give a burst a moment to pile up, then cut one batch.
            if self.config.batch_window > 0 and not self._closed:
                await asyncio.sleep(self.config.batch_window)
            batch = self._queue[: self.config.max_batch]
            del self._queue[: len(batch)]
            if self._queue:
                self._wakeup.set()  # more work already waiting

            live: list[_Pending] = []
            dropped = 0
            for pending in batch:
                if pending.future.cancelled():
                    dropped += 1
                else:
                    live.append(pending)
            if dropped:
                self._count("abandoned", dropped)
                self._settle(dropped)
            for group in self._group_by_space(live):
                # Backpressure: at most max_inflight batches on the pool.
                await self._inflight.acquire()
                task = self._loop.create_task(self._dispatch(group))
                self._group_tasks.add(task)
                task.add_done_callback(self._group_tasks.discard)

    @staticmethod
    def _group_by_space(batch: Sequence[_Pending]) -> list[list[_Pending]]:
        """Split one cut of the queue into per-space coalesced groups.

        Traced requests get a fresh unique key each: their spans must be
        attributable to exactly one request, so they never coalesce.
        """
        groups: dict[object, list[_Pending]] = {}
        for pending in batch:
            key = (
                object()
                if pending.tracer is not None
                else pending.request.space_key
            )
            groups.setdefault(key, []).append(pending)
        return list(groups.values())

    async def _dispatch(self, group: list[_Pending]) -> None:
        try:
            # A client may have vanished between grouping and dispatch.
            live = [p for p in group if not p.future.cancelled()]
            skipped = len(group) - len(live)
            if skipped:
                self._count("abandoned", skipped)
                self._settle(skipped)
            if not live:
                return
            self.batches += 1
            _M_BATCHES.inc()
            _M_BATCH_SIZE.observe(len(live))
            if len(live) > 1:
                self.coalesced_requests += len(live)
            started = time.perf_counter()
            try:
                batch = await self._loop.run_in_executor(
                    self._dispatch_pool, self._solve_group, live
                )
            except Exception as exc:  # noqa: BLE001 - answered, not crashed
                if len(live) == 1:
                    self._fail(live[0], exc)
                    self._settle(1)
                    return
                # Isolation split: one poisoned request must not take its
                # whole coalesced batch down.  Each request re-runs alone
                # (fresh exact summaries per run), so only the request
                # that genuinely cannot complete gets the error.
                self.isolation_splits += 1
                _M_ISOLATION.inc()
                await self._isolate(live)
                return
            batch_seconds = time.perf_counter() - started
            _M_BATCH_SECONDS.observe(batch_seconds)
            for pending in live:
                if pending.future.cancelled():
                    self._count("abandoned")
                    continue
                self._answer(pending, batch, started, batch_seconds, len(live))
            self._settle(len(live))
        finally:
            self._inflight.release()

    def _answer(
        self,
        pending: _Pending,
        batch,
        started: float,
        batch_seconds: float,
        batch_runs: int,
    ) -> None:
        key = BatchKey(pending.request.id, pending.request.seed)
        queue_s = started - pending.enqueued
        pending.future.set_result(
            {
                "result": batch[key],
                "summary": batch.run_summaries[key],
                "queue_s": queue_s,
                "batch_s": batch_seconds,
                "batch_runs": batch_runs,
            }
        )
        self._count("answered")
        _M_QUEUE_WAIT.observe(queue_s)
        _LOG.info(
            "request answered",
            extra={
                "fields": {
                    "request_id": pending.request.id,
                    "queue_ms": round(queue_s * 1e3, 3),
                    "batch_ms": round(batch_seconds * 1e3, 3),
                    "batch_runs": batch_runs,
                }
            },
        )

    def _fail(self, pending: _Pending, exc: Exception) -> None:
        error = ServeError(
            E_INTERNAL, f"batch failed: {type(exc).__name__}: {exc}"
        )
        if not pending.future.cancelled():
            pending.future.set_exception(error)
        else:
            self._count("abandoned")
        self._count("failed")
        _LOG.warning(
            "request failed",
            extra={
                "fields": {
                    "request_id": pending.request.id,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            },
        )

    async def _isolate(self, live: list[_Pending]) -> None:
        """Re-dispatch a failed coalesced batch one request at a time.

        The warm pool survives a poisoned task (the resilient executor
        drops a broken pool and reopens; thread/sequential pools are
        never poisoned), so sibling requests complete normally on their
        solo re-runs — only a request that fails *alone* is answered
        with the error.
        """
        for pending in live:
            if pending.future.cancelled():
                self._count("abandoned")
                self._settle(1)
                continue
            solo_start = time.perf_counter()
            try:
                batch = await self._loop.run_in_executor(
                    self._dispatch_pool, self._solve_group, [pending]
                )
            except Exception as exc:  # noqa: BLE001 - answered, not crashed
                self._fail(pending, exc)
                self._settle(1)
                continue
            if pending.future.cancelled():
                self._count("abandoned")
            else:
                self._answer(
                    pending, batch, solo_start,
                    time.perf_counter() - solo_start, 1,
                )
            self._settle(1)

    def _solve_group(self, group: list[_Pending]):
        """One coalesced group as a heterogeneous ``solve_many`` batch.

        Runs on a dispatch thread.  Every request becomes one entry with
        its own ``k``/seed/options, labelled by request id (ids are
        unique, so keys cannot collide); ``seeds=None`` selects the
        facade's entry-owned seeding mode.  The shared warm executor
        fans the runs out.

        Contextvars do not follow work onto pool threads, so a traced
        request's tracer (and log correlation) is re-activated here,
        where the solve actually runs.
        """
        space = group[0].request.space
        entries = [pending.request.entry() for pending in group]
        tracer = group[0].tracer if len(group) == 1 else None

        def run():
            return solve_many(
                space,
                group[0].request.k,
                entries,
                seeds=None,
                executor=self._executor,
            )

        if tracer is None:
            return run()
        with _trace.activate(tracer), _logs.bind(
            request_id=group[0].request.id, run_id=tracer.run_id
        ):
            return run()

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters for the ``stats`` op and the load bench.

        The schema is **stable for scrapers**: every key below is present
        in every response, so monitoring needs no existence checks.
        """
        from repro import __version__

        totals = self._executor.totals
        return {
            "server_version": __version__,
            "uptime_seconds": time.monotonic() - self._started,
            "backend": self.config.backend,
            "pool_size": self.config.pool_size,
            "received": self.received,
            "answered": self.answered,
            "rejected": self.rejected,
            "failed": self.failed,
            "abandoned": self.abandoned,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "isolation_splits": self.isolation_splits,
            "pending": self._pending,
            "draining": self._closed,
            "retries": totals.retries,
            "speculative_wins": totals.speculative_wins,
            "wasted_task_seconds": totals.wasted_task_seconds,
        }

    def observe_scrape(self) -> None:
        """Refresh the snapshot gauges from :meth:`stats`.

        Called by the server immediately before every metrics render
        (NDJSON op and HTTP scrape alike), so the gauges a scraper sees
        are exactly the stats-op numbers of the same instant.
        """
        snapshot = self.stats()
        _M_G_UPTIME.set(snapshot["uptime_seconds"])
        _M_G_PENDING.set(snapshot["pending"])
