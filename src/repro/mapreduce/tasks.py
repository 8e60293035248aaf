"""The task contract: what may cross a ``run_round`` boundary.

Dispatched work follows one contract — tasks are picklable, bind their
randomness as seeds before scheduling, count distance work into
task-private counters, and report accounting through :class:`TaskOutput`
so only the committed attempt of a retried or speculated task is ever
folded.  This module makes the contract first-class and gives every
dispatch site one codepath:

* :class:`TaskSpec` — one unit of dispatched work: a **module-level**
  (hence picklable) callable plus bound arguments, an optional per-task
  seed, trace naming, and a counter policy.  Closures and lambdas are
  rejected at construction, so a task that cannot cross a process (or
  future remote) boundary fails loudly at the solver, not lazily inside
  a pool worker.
* :func:`dispatch` — the one path from a task list to committed values:
  validate and trace-stamp the specs, open the site's span, run them,
  label a :class:`~repro.errors.TaskFailedError`, commit, and return the
  values plus the round's :class:`~repro.mapreduce.accounting.RoundStats`.
  ``run_round``, the ``evaluate`` pass, ``solve_many`` and the facade's
  resilient solo path all call it; nothing else calls ``Executor.run``.
* :func:`commit` — its commit side.  Unwraps :class:`TaskOutput`
  results, folding worker-side distance counts into the watched counter
  and worker-side spans into the ambient tracer exactly once per task
  (the winning attempt's; losers are discarded upstream by
  :class:`~repro.mapreduce.resilient.ResilientExecutor` and never reach
  this point).

Fault injection composes untouched: the resilient executor wraps the
spec-derived callables in ``partial(apply_fault, ...)`` over a
module-level function, picklable exactly when the spec is.

The contract in one sentence: **a task is a pure, picklable, pre-seeded
function of its arguments** — re-executing it (retry, speculation,
duplication) reproduces the first execution bit for bit, on any backend.
"""

from __future__ import annotations

import pickle
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from repro.errors import InvalidParameterError, TaskFailedError
from repro.mapreduce.accounting import RoundStats
from repro.mapreduce.executor import Executor
from repro.obs import trace as _trace

__all__ = [
    "COUNTING",
    "TaskOutput",
    "TaskSpec",
    "capture_specs",
    "commit",
    "dispatch",
    "validate_task_callable",
]

#: Counter policies a :class:`TaskSpec` may declare:
#:
#: * ``"output"`` — the task does distance work and **must** report it by
#:   returning a :class:`TaskOutput` (enforced at commit);
#: * ``"none"``   — the task does no distance work and returns a bare value;
#: * ``"auto"``   — either is accepted (user-supplied reduce functions).
COUNTING = ("auto", "output", "none")


@dataclass
class TaskOutput:
    """A reducer task's return value plus its worker-side accounting.

    Tasks built over per-shard spaces (see
    :func:`repro.store.machine_view`) count their distance evaluations
    into a *private* counter — the space may live in another process, so
    in-place mutation of a shared counter cannot work in general.
    Wrapping the result in a ``TaskOutput`` tells the commit side
    (:func:`commit`, called by :func:`dispatch`) to fold
    ``dist_evals`` back into the watched counter on the driver; callers
    receive the unwrapped ``value``.  Round accounting is then identical
    on sequential, thread and process backends.

    ``spans`` rides worker-side trace spans back over the same route
    (see :mod:`repro.obs.trace`); it is ``None`` for untraced runs so
    existing pickles and equality semantics are unchanged.
    """

    value: Any
    dist_evals: int = 0
    spans: list | None = None


# Callables already proven picklable-by-reference; functions support
# weakrefs and live for the process, so validation is paid once per
# function, not once per task.
_VALIDATED: "weakref.WeakSet[Callable]" = weakref.WeakSet()


def validate_task_callable(fn: Callable) -> Callable:
    """Reject callables that cannot honour the pickling contract.

    ``functools.partial`` chains are unwrapped to their root function.
    Lambdas and nested (``<locals>``) functions are rejected by
    qualname — the historical failure mode this layer exists to kill —
    and anything else must pickle by reference (cheap: functions pickle
    as their import path, no state is serialised here).
    """
    root = fn
    while isinstance(root, partial):
        root = root.func
    try:
        if root in _VALIDATED:
            return fn
    except TypeError:
        pass
    qualname = getattr(root, "__qualname__", "")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise InvalidParameterError(
            f"task callable {qualname or root!r} is a lambda or closure; "
            "the task contract requires module-level callables so every "
            "task can cross a process (or future remote) boundary — hoist "
            "the function to module scope and bind its state through "
            "TaskSpec args"
        )
    try:
        pickle.dumps(root)
    except Exception as exc:
        raise InvalidParameterError(
            f"task callable {root!r} does not pickle ({exc}); the task "
            "contract requires reference-picklable callables"
        ) from None
    try:
        _VALIDATED.add(root)
    except TypeError:  # pragma: no cover - unweakreffable callables are rare
        pass
    return fn


@dataclass(frozen=True)
class TaskSpec:
    """One unit of dispatched work, picklable end to end.

    Attributes
    ----------
    fn:
        A module-level (reference-picklable) callable.  ``partial``s are
        accepted when their root function is; lambdas and closures raise
        :class:`~repro.errors.InvalidParameterError` at construction.
    args, kwargs:
        Bound arguments.  The solver's live local state — shards, seeds,
        maintained distance arrays — crosses the boundary *here*, as
        explicit picklable values, instead of being captured by a
        closure.
    seed:
        Optional per-task seed (anything :func:`numpy.random.default_rng`
        accepts, e.g. a picklable ``SeedSequence``).  When set, it is
        passed to ``fn`` as the keyword ``seed=``; keeping it a
        first-class field makes the pre-bound randomness of every task
        inspectable, which is what the determinism-under-duplication
        tests key on.
    counting:
        One of :data:`COUNTING`; enforced by :func:`commit`.
    name, trace_args:
        Optional span naming: ``name`` overrides the default
        ``"{label}[{index}]"`` task-span name and ``trace_args`` the
        default ``(("round", label),)`` span attributes (the
        ``solve_many`` fan-out names spans after batch keys, not round
        indices).
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seed: Any = None
    counting: str = "auto"
    name: str | None = None
    trace_args: tuple = ()

    def __post_init__(self) -> None:
        if self.counting not in COUNTING:
            raise InvalidParameterError(
                f"counting must be one of {COUNTING}, got {self.counting!r}"
            )
        validate_task_callable(self.fn)
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "trace_args", tuple(self.trace_args))

    def __call__(self) -> Any:
        """Execute the task.  Zero-argument, so a ``TaskSpec`` drops into
        every slot a bare task callable fits — the :class:`Executor`
        protocol, trace wrapping, fault injection."""
        if self.seed is not None:
            return self.fn(*self.args, seed=self.seed, **self.kwargs)
        return self.fn(*self.args, **self.kwargs)


# ------------------------------------------------------------------ #
# capture hook: lets tests observe every spec that crosses a boundary
# ------------------------------------------------------------------ #
_CAPTURE: ContextVar[list | None] = ContextVar("repro_task_capture", default=None)


@contextmanager
def capture_specs():
    """Record every ``(label, [TaskSpec, ...])`` round bound in the block.

    The pickle-round-trip acceptance test runs each solver under this
    hook and round-trips every captured spec — proving no closure crosses
    a ``run_round`` boundary for any registered solver.
    """
    records: list[tuple[str, list[TaskSpec]]] = []
    token = _CAPTURE.set(records)
    try:
        yield records
    finally:
        _CAPTURE.reset(token)


# ------------------------------------------------------------------ #
# dispatch side
# ------------------------------------------------------------------ #
def dispatch(
    label: str,
    specs: Sequence[TaskSpec],
    executor: Executor,
    *,
    cat: str | None = "round",
    task_cat: str = "task",
    counter: Any = None,
    **span_args: Any,
) -> tuple[list[Any], RoundStats]:
    """Run ``specs`` on ``executor``; return their values and the round record.

    Every element of ``specs`` must be a :class:`TaskSpec` — bare
    callables (the pre-contract closure style) raise
    :class:`~repro.errors.InvalidParameterError` before anything runs.
    When a tracer is ambient, each spec is wrapped with its picklable
    :class:`~repro.obs.trace.TaskTraceContext`: span ``"{label}[{i}]"``
    (unless the spec names its own) of category ``task_cat``, streamed
    live when the executor stays in-process.  The run sits inside span
    ``label`` of category ``cat`` with ``span_args`` (``cat=None`` opens
    none).  A :class:`~repro.errors.TaskFailedError` without a label
    gets ``label``.  With a watched ``counter``, committed evaluations
    fold into it and ``dist_evals`` is its delta over the run (tasks
    sharing the counter count too); without, ``dist_evals`` sums the
    tasks' :class:`TaskOutput` counts, which ``task_dist_evals`` holds
    per task either way.
    """
    specs = list(specs)
    for index, spec in enumerate(specs):
        if not isinstance(spec, TaskSpec):
            what = getattr(spec, "__qualname__", None) or repr(spec)
            raise InvalidParameterError(
                f"round {label!r} task {index} is a bare callable ({what}); "
                "the run_round boundary accepts only TaskSpec — wrap a "
                "module-level function with "
                "TaskSpec(fn, args=..., seed=...) so the task stays "
                "picklable on every backend"
            )
    captured = _CAPTURE.get()
    if captured is not None:
        captured.append((label, list(specs)))
    calls, sink = specs, None
    tracer = _trace.current_tracer()
    if tracer is not None:
        # Live sinks are closures: they cannot cross a pickle boundary.
        if tracer.on_span is not None and not executor.crosses_process_boundary:
            sink = tracer.on_span
        calls = [
            _trace.wrap_task(
                spec,
                _trace.TaskTraceContext(
                    run_id=tracer.run_id,
                    name=spec.name if spec.name is not None else f"{label}[{index}]",
                    index=index,
                    cat=task_cat,
                    detail=tracer.detail,
                    args=spec.trace_args if spec.trace_args else (("round", label),),
                ),
                sink,
            )
            for index, spec in enumerate(specs)
        ]
    evals_before = counter.evals if counter is not None else 0
    span = (
        tracer.span(label, cat=cat, **span_args)
        if tracer is not None and cat is not None
        else _trace.NULL_SPAN
    )
    try:
        with span:
            results, stats = executor.run(calls)
    except TaskFailedError as exc:
        if exc.label is None:
            exc.label = label
        raise
    stats.label = label
    stats.task_dist_evals = [
        r.dist_evals if isinstance(r, TaskOutput) else 0 for r in results
    ]
    values = commit(results, specs, counter=counter, sink=sink)
    stats.dist_evals = (
        counter.evals - evals_before
        if counter is not None
        else sum(stats.task_dist_evals)
    )
    return values, stats


# ------------------------------------------------------------------ #
# commit side
# ------------------------------------------------------------------ #
def commit(
    results: Sequence[Any],
    specs: Sequence[TaskSpec] | None = None,
    *,
    counter: Any = None,
    sink: Callable | None = None,
) -> list[Any]:
    """Unwrap :class:`TaskOutput` results at the commit point.

    For each ``TaskOutput``: ``dist_evals`` folds into ``counter`` (a
    watched :class:`~repro.metric.base.DistCounter`, when given) and
    ``spans`` fold into the ambient tracer — with ``notify`` suppressed
    when a live ``sink`` already streamed them.  Only winning attempts
    reach this loop (the resilient executor deduplicates first), so
    exactly one attempt per task is ever folded.

    When ``specs`` is given, the ``counting="output"`` policy is
    enforced: such a task returning a bare value means its distance work
    silently vanished from the books — an accounting bug, raised here.
    """
    tracer = _trace.current_tracer()
    values: list[Any] = []
    for index, result in enumerate(results):
        if isinstance(result, TaskOutput):
            if counter is not None:
                counter.add(result.dist_evals)
            if tracer is not None and result.spans:
                tracer.fold(result.spans, notify=sink is None)
            values.append(result.value)
            continue
        spec = specs[index] if specs is not None else None
        if spec is not None and spec.counting == "output":
            raise InvalidParameterError(
                f"task {spec.name or index} declares counting='output' but "
                "returned a bare value; distance-counting tasks must wrap "
                "their result in TaskOutput(value, counter.evals)"
            )
        values.append(result)
    return values
