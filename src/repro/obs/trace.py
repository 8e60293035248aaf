"""End-to-end tracing: contextvar-propagated spans over the whole stack.

A :class:`Tracer` collects :class:`SpanRecord` entries — name, category,
monotonic start (``time.perf_counter``), duration, pid/tid, free-form
args.  It is *ambient*: callers install one with :func:`activate` and
instrumented code discovers it through :func:`current_tracer`, so no
signature anywhere grows a ``tracer=`` parameter.  With no tracer
installed (the default), every instrumentation site is a single
contextvar read returning ``None`` — the zero-cost contract.

Span hierarchy and cross-boundary propagation
---------------------------------------------
The span tree is ``solve`` -> ``round`` -> ``task`` -> ``block``:

* driver-side spans (``solve``, ``round``) are recorded directly into
  the ambient tracer;
* **task** spans execute wherever the executor puts them — possibly a
  worker process whose contextvars and objects are unreachable.  The
  dispatch site wraps each task via :func:`wrap_task` with a picklable
  :class:`TaskTraceContext`; inside the worker, :func:`run_traced_task`
  activates a fresh worker-local tracer, runs the task under its task
  span, and returns a :class:`~repro.mapreduce.tasks.TaskOutput`
  carrying the collected spans.  The dispatch site folds those spans
  back into the driver tracer when it unwraps the result — exactly the
  route the worker-side ``dist_evals`` accounting already takes.

This fold-through-the-result design is what makes tracing exact under
fault tolerance: a retried / speculative / duplicated attempt whose
result the :class:`~repro.mapreduce.resilient.ResilientExecutor`
discards never gets its spans folded — **exactly one committed task
span per task**, the winning attempt's.  The resilient executor
separately emits driver-side ``attempt`` spans annotated
``abandoned=True`` for every losing attempt, so wasted work stays
visible on the timeline without polluting the committed accounting.

Timestamps are ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux,
shared across processes on one host, so worker-task spans land on the
same timeline as driver spans.  (On platforms with per-process
monotonic epochs the lanes may be offset; durations are always exact.)

Live streaming: a tracer built with ``on_span=callback`` invokes the
callback at every span close (and at fold time for spans that arrive
from process workers).  The serve layer's ``progress`` op uses this to
push per-round events to clients mid-solve.  Under retries a *live*
sink may see a losing attempt's span before the dedup discards its
result — sinks are advisory; ``Tracer.spans`` is the committed truth.

Export: :meth:`Tracer.export_chrome` writes Chrome trace-event JSON
(``{"traceEvents": [...]}`` with ``"X"`` complete events, microsecond
units) loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

__all__ = [
    "SpanRecord",
    "Tracer",
    "TaskTraceContext",
    "activate",
    "current_tracer",
    "span",
    "block_span",
    "wrap_task",
    "run_traced_task",
    "DETAIL_TASK",
    "DETAIL_BLOCK",
]

#: Detail levels: ``"task"`` (default) traces down to task spans;
#: ``"block"`` additionally records per-kernel-call block spans.
DETAIL_TASK = "task"
DETAIL_BLOCK = "block"
DETAIL_LEVELS = (DETAIL_TASK, DETAIL_BLOCK)


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: what ran, where, when, for how long.

    ``start`` is a raw ``time.perf_counter`` reading (seconds); export
    rebases onto the trace's earliest span.  ``args`` is free-form
    JSON-able metadata (round label, task index, ``abandoned`` flags...).
    """

    name: str
    cat: str  # "solve" | "round" | "task" | "evaluate" | "block" | "attempt" | ...
    start: float
    duration: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)


class _NullSpan:
    """The no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()

_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)


class Tracer:
    """A thread-safe collector of spans for one traced run.

    Parameters
    ----------
    run_id:
        Correlation id stamped into task contexts and the export; a
        fresh short id by default.
    detail:
        ``"task"`` (default) or ``"block"`` — whether
        :func:`block_span` sites inside the distance kernels record.
    on_span:
        Optional live sink called with each :class:`SpanRecord` as it
        closes (or folds in from a worker).  Exceptions in the sink are
        swallowed: observability must never fail the run.
    """

    def __init__(
        self,
        run_id: str | None = None,
        detail: str = DETAIL_TASK,
        on_span: Callable[[SpanRecord], None] | None = None,
    ):
        if detail not in DETAIL_LEVELS:
            raise ValueError(
                f"detail must be one of {DETAIL_LEVELS}, got {detail!r}"
            )
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self.detail = detail
        self.on_span = on_span
        self.origin = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, span: SpanRecord, notify: bool = True) -> None:
        with self._lock:
            self.spans.append(span)
        if notify and self.on_span is not None:
            try:
                self.on_span(span)
            except Exception:  # noqa: BLE001 - sinks are advisory
                pass

    def emit(
        self,
        name: str,
        *,
        cat: str = "span",
        start: float,
        duration: float,
        notify: bool = True,
        **args: Any,
    ) -> SpanRecord:
        """Record one already-measured span (used for abandoned attempts)."""
        record = SpanRecord(
            name, cat, start, duration, os.getpid(),
            threading.get_native_id(), args,
        )
        self.record(record, notify=notify)
        return record

    @contextmanager
    def span(self, name: str, cat: str = "span", **args: Any):
        """Time a ``with`` block as one span (recorded even on error)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.emit(
                name, cat=cat, start=start,
                duration=time.perf_counter() - start, **args,
            )

    def fold(self, spans: Sequence[SpanRecord], notify: bool = True) -> None:
        """Adopt spans collected elsewhere (a worker-local tracer).

        ``notify=False`` skips the live sink — used when the sink
        already saw these spans live (in-process workers share it).
        """
        for record in spans:
            self.record(record, notify=notify)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def chrome_events(self) -> list[dict]:
        """The collected spans as Chrome trace-event ``"X"`` entries."""
        with self._lock:
            spans = list(self.spans)
        origin = min((s.start for s in spans), default=self.origin)
        return [
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,  # microseconds
                "dur": s.duration * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": dict(s.args),
            }
            for s in spans
        ]

    def export_chrome(self, path: str | Path) -> Path:
        """Write the trace as Chrome trace-event JSON; returns the path."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "run_id": self.run_id,
                "detail": self.detail,
                "clock": "time.perf_counter (monotonic)",
            },
        }
        path = Path(path)
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
        return path


# -------------------------------------------------------------------------- #
# ambient propagation
# -------------------------------------------------------------------------- #
def current_tracer() -> Tracer | None:
    """The ambient tracer of this context, or ``None`` (tracing off)."""
    return _ACTIVE.get()


@contextmanager
def activate(tracer: Tracer):
    """Install ``tracer`` as the ambient tracer for the ``with`` block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str, cat: str = "span", **args: Any):
    """An ambient-tracer span, or a shared no-op when tracing is off."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat=cat, **args)


def block_span(name: str, **args: Any):
    """A kernel-block span — records only at ``detail="block"``.

    The guard is one contextvar read plus one attribute compare, cheap
    against the BLAS work every kernel block performs.
    """
    tracer = _ACTIVE.get()
    if tracer is None or tracer.detail != DETAIL_BLOCK:
        return NULL_SPAN
    return tracer.span(name, cat="block", **args)


# -------------------------------------------------------------------------- #
# cross-boundary task wrapping
# -------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TaskTraceContext:
    """The picklable span context stamped into a dispatched task.

    Carried inside the task partial across any executor boundary
    (thread or process); ``args`` is a tuple of extra ``(key, value)``
    pairs for the task span (everything must pickle).
    """

    run_id: str
    name: str
    index: int
    cat: str = "task"
    detail: str = DETAIL_TASK
    args: tuple = ()


def run_traced_task(
    task: Callable[[], Any],
    ctx: TaskTraceContext,
    sink: Callable[[SpanRecord], None] | None = None,
) -> Any:
    """Execute ``task`` under a worker-local tracer; spans ride the result.

    Module-level and driven by a picklable context, so
    ``partial(run_traced_task, task, ctx)`` crosses process boundaries
    whenever ``task`` does.  The return value is always a
    :class:`~repro.mapreduce.tasks.TaskOutput` whose ``spans`` carry
    everything recorded during the attempt (the task span itself plus
    any nested block spans); a task that already returned a
    ``TaskOutput`` keeps its value and ``dist_evals`` and gains the
    spans.  The dispatch site folds them into the driver tracer exactly
    when it commits the result — discarded (losing) attempts are never
    folded.
    """
    from repro.mapreduce.tasks import TaskOutput  # lazy: avoid cycle

    tracer = Tracer(run_id=ctx.run_id, detail=ctx.detail, on_span=sink)
    token = _ACTIVE.set(tracer)
    try:
        with tracer.span(ctx.name, cat=ctx.cat, task=ctx.index, **dict(ctx.args)):
            value = task()
    finally:
        _ACTIVE.reset(token)
    if isinstance(value, TaskOutput):
        inherited = list(value.spans) if value.spans else []
        return TaskOutput(value.value, value.dist_evals, inherited + tracer.spans)
    return TaskOutput(value, 0, tracer.spans)


def wrap_task(
    task: Callable[[], Any],
    ctx: TaskTraceContext,
    sink: Callable[[SpanRecord], None] | None = None,
) -> Callable[[], Any]:
    """The traced form of one dispatched task.

    Without a ``sink`` the wrapper is a picklable ``partial``; with one
    (live streaming — in-process backends only, callbacks don't pickle)
    it is a closure.
    """
    if sink is None:
        from functools import partial

        return partial(run_traced_task, task, ctx)

    def run() -> Any:
        return run_traced_task(task, ctx, sink)

    return run
