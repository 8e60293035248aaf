"""`repro.solve` / `repro.solve_many`: the uniform solver entry points.

:func:`solve` resolves an algorithm through the registry, validates the
knobs against its :class:`~repro.solvers.registry.SolverSpec`, and calls
the underlying function with exactly the arguments the caller specified —
so ``solve(space, k, algorithm="mrg", seed=0)`` is bit-identical to
``mrg(space, k, seed=0)``.

:func:`solve_many` fans a (algorithms x seeds) grid out over the existing
:class:`~repro.mapreduce.executor.Executor` protocol and returns a result
map keyed by :class:`BatchKey`.  Each run's seed is fixed up-front, so the
batch is deterministic regardless of executor (sequential vs process
pool) and scheduling order.  The returned :class:`BatchResults` is a
plain ``dict`` plus a ``summary`` roll-up
(:class:`~repro.mapreduce.accounting.BatchSummary`: total distance
evaluations, parallel vs cpu time across the batch).
Pool backends are persistent, so back-to-back batches on one executor
reuse its workers; for process backends the input space's in-memory
coordinates are additionally published once per batch to shared memory
(:func:`repro.store.shm.shared_space`) and workers attach by name
instead of unpickling the rows per task.

Both entry points accept more than a ready-made space: a coordinate
array, a :class:`~repro.store.stream.PointStream`, a ``.npy`` file path,
or a sharded directory (``repro.store.write_shards`` output — solved
out-of-core through :class:`~repro.store.space.ChunkedMetricSpace`,
with MapReduce reducers consuming per-shard views so the driver never
gathers the coordinates) are coerced via :func:`repro.store.as_space`.
``solve`` additionally supports the algorithm-first calling form
``solve("stream", k, data="points.npy")`` and
``solve("mr_hs", k, data="shards/")``.

Every run the facade dispatches as a task — each :func:`solve_many`
entry, and the resilient :func:`solve` of a single-machine solver — goes
through :func:`_run_one`, which returns a
:class:`~repro.mapreduce.tasks.TaskOutput`, and through
:func:`~repro.mapreduce.tasks.dispatch`, which commits it like any
reducer task's and labels a failure ``solve_many`` or
``{algorithm}.solo``.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, Union

import repro.solvers.catalog  # noqa: F401  (side effect: populate REGISTRY)
from repro.core.result import KCenterResult
from repro.errors import InvalidParameterError
from repro.mapreduce.accounting import BatchSummary
from repro.mapreduce.executor import Executor, SequentialExecutor
from repro.mapreduce.tasks import TaskOutput, TaskSpec, dispatch
from repro.mapreduce.faults import FaultInjector
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor
from repro.metric.base import DistCounter, MetricSpace
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.solvers.config import SHARED_KNOBS, UNSET, SolveConfig
from repro.solvers.registry import SolverSpec, get_solver
from repro.store.shm import shared_space
from repro.store.space import SpaceLike, as_space

__all__ = ["solve", "solve_many", "BatchKey", "BatchResults", "AlgorithmLike"]

#: What :func:`solve_many` accepts per algorithm: a registry name/alias, a
#: ``(name, options)`` pair, or a resolved :class:`SolverSpec`.
AlgorithmLike = Union[str, SolverSpec, tuple]

# Commit-point metrics (see repro.obs.metrics): labelled by the canonical
# registry name — never by batch keys, whose labels are caller-chosen and
# would blow up series cardinality under the serve layer.
_M_SOLVES = _metrics.counter(
    "repro_solves_total", "Solver runs completed", ("algorithm",)
)
_M_SOLVE_SECONDS = _metrics.histogram(
    "repro_solve_duration_seconds",
    "End-to-end solver wall time",
    ("algorithm",),
)
_M_DIST_EVALS = _metrics.counter(
    "repro_dist_evals_total",
    "Distance evaluations charged to finished runs",
    ("algorithm",),
)


def _is_solver_name(name: str) -> bool:
    """Whether ``name`` resolves in the registry (used to catch the
    algorithm-first calling form with a forgotten ``data=``)."""
    try:
        get_solver(name)
    except InvalidParameterError:
        return False
    return True


class BatchKey(NamedTuple):
    """Key of one run in a :func:`solve_many` result map."""

    algorithm: str  # canonical registry name, or the entry's ``label``
    seed: Any

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.algorithm}[seed={self.seed}]"


def solve(
    space: SpaceLike,
    k: int,
    algorithm: str | None = None,
    *,
    data: SpaceLike | None = None,
    chunk_size: int | None = None,
    m: Any = UNSET,
    capacity: Any = UNSET,
    seed: Any = UNSET,
    executor: Any = UNSET,
    evaluate: Any = UNSET,
    fault_policy: FaultPolicy | None = None,
    fault_injector: FaultInjector | None = None,
    **options: Any,
) -> KCenterResult:
    """Run one registered k-center solver on ``space``.

    Parameters
    ----------
    space:
        Any :class:`~repro.metric.base.MetricSpace` — or anything
        :func:`repro.store.as_space` coerces into one: a coordinate
        array, a :class:`~repro.store.stream.PointStream`, a ``.npy``
        path, or a sharded directory (solved out-of-core, never
        materialising ``(n, d)``).
    k:
        Number of centers (positive).
    algorithm:
        Registry name or alias: ``"gon"``, ``"mrg"``, ``"eim"``, ``"hs"``,
        ``"mrhs"``, ``"stream"``, ``"exact"`` (case-insensitive; see
        :func:`repro.solvers.list_solvers`).  Default ``"eim"``.
    data:
        Alternative input slot enabling the algorithm-first form
        ``solve("stream", 25, data="points.npy")`` or
        ``solve("mr_hs", 25, data="shards/")`` — when given, the
        first positional argument is read as the algorithm name and
        ``data`` supplies the points.
    chunk_size:
        Chunk rows for file/stream inputs (default: the block byte
        budget); also forces the chunked adapter for in-memory arrays.
    m, capacity, seed, executor, evaluate:
        Shared knobs, forwarded only when explicitly given so each
        solver's own defaults apply.  Setting a knob the solver does not
        take raises :class:`~repro.errors.InvalidParameterError`
        (exception: ``seed`` is ignored by deterministic solvers).
    fault_policy, fault_injector:
        Fault tolerance (see :mod:`repro.mapreduce.resilient`).  When
        either is given the run executes under a
        :class:`~repro.mapreduce.resilient.ResilientExecutor` enforcing
        the policy (default :class:`FaultPolicy` when only an injector
        is passed): for MapReduce solvers the ``executor`` backend (or
        the sequential default) is wrapped so each *round's* tasks are
        retried / speculated individually; for single-machine solvers
        the whole run is one resilient task.  Results under any fault
        schedule the policy absorbs are bit-identical to the fault-free
        run — tasks bind their randomness before dispatch, so
        re-execution is exact, and accounting folds only winning
        attempts.  ``fault_injector`` is the deterministic chaos hook
        (:class:`~repro.mapreduce.faults.FaultSchedule` /
        :class:`~repro.mapreduce.faults.RandomFaults`) used by the test
        suite; production callers pass only a policy.
    **options:
        Solver-specific options (``phi=4.0``, ``partitioner="hash"``,
        ``first_center=0``, ...), validated against the registry spec.

    Returns
    -------
    KCenterResult
        Identical to calling the underlying free function directly with
        the same arguments.
    """
    if data is not None:
        if isinstance(space, str):
            if algorithm is not None:
                raise InvalidParameterError(
                    f"two algorithms given: {space!r} positionally and "
                    f"algorithm={algorithm!r}; pass one or the other"
                )
            algorithm = space
        elif space is not None:
            raise InvalidParameterError(
                "pass the input either as the first argument or as data=, "
                "not both"
            )
        space = as_space(data, chunk_size=chunk_size)
    else:
        if isinstance(space, str) and _is_solver_name(space):
            raise InvalidParameterError(
                f"{space!r} is an algorithm name, not an input; the "
                f"algorithm-first form needs the points via data= — "
                f"solve({space!r}, k, data=\"points.npy\")"
            )
        space = as_space(space, chunk_size=chunk_size)
    spec = get_solver(algorithm if algorithm is not None else "eim")
    solo_resilient: ResilientExecutor | None = None
    if fault_policy is not None or fault_injector is not None:
        policy = fault_policy if fault_policy is not None else FaultPolicy()
        if "executor" in spec.shared:
            # MapReduce solver: wrap its round executor, so individual
            # reducer tasks are retried/speculated and the result's
            # RoundStats carry the fault accounting.
            inner = executor if executor is not UNSET else None
            executor = ResilientExecutor(inner, policy, fault_injector)
        else:
            # Single-machine solver: the whole run is one resilient task.
            solo_resilient = ResilientExecutor(
                SequentialExecutor(), policy, fault_injector
            )
    config = SolveConfig(
        k=k,
        m=m,
        capacity=capacity,
        seed=seed,
        executor=executor,
        evaluate=evaluate,
        options=options,
    )
    kwargs = config.kwargs_for(spec)

    counter = getattr(space, "counter", None)
    evals_before = counter.evals if counter is not None else 0
    started = time.perf_counter()
    with _trace.span("solve", cat="solve", algorithm=spec.name, k=config.k):
        if solo_resilient is None:
            result = spec.fn(space, config.k, **kwargs)
        else:
            # The whole run is one task on the shared contract:
            # `_run_one` gives each attempt a shadow space with a private
            # counter, so a retried run leaves no failed-attempt
            # evaluations in the caller's books.  Only the winning
            # attempt commits, folding its evaluations into the caller's
            # counter — the side effect a bare `spec.fn(space, ...)` call
            # would have had.
            solo = TaskSpec(
                _run_one,
                args=(space, config.k, spec.name, kwargs),
                counting="output",
                name=f"{spec.name}.solo",
                trace_args=(("algorithm", spec.name),),
            )
            (result,), _ = dispatch(
                f"{spec.name}.solo",
                [solo],
                solo_resilient,
                cat=None,
                counter=space.counter,
            )
    if _metrics.REGISTRY.enabled:
        _M_SOLVES.labels(algorithm=spec.name).inc()
        _M_SOLVE_SECONDS.labels(algorithm=spec.name).observe(
            time.perf_counter() - started
        )
        if counter is not None:
            _M_DIST_EVALS.labels(algorithm=spec.name).inc(
                counter.evals - evals_before
            )
    return result


class BatchResults(dict):
    """``{BatchKey: KCenterResult}`` plus a batch-level accounting roll-up.

    Behaves exactly like the plain dict :func:`solve_many` used to
    return; the extra :attr:`summary` is the merged
    :class:`~repro.mapreduce.accounting.BatchSummary` of the whole batch
    (total dist_evals, parallel vs cpu time), and
    :attr:`run_summaries` keeps the same accounting *per run* — a
    single-run :class:`BatchSummary` under each :class:`BatchKey`, so
    consumers that answer for individual requests (the
    :mod:`repro.serve` scheduler streams one response per coalesced
    request) report exact per-run numbers, not a batch-wide smear.
    ``summary`` is precisely the fold of ``run_summaries`` (with
    ``parallel_time`` the max rather than the sum).
    """

    def __init__(
        self,
        items,
        summary: BatchSummary,
        run_summaries: dict[BatchKey, BatchSummary] | None = None,
    ):
        super().__init__(items)
        self.summary = summary
        self.run_summaries: dict[BatchKey, BatchSummary] = run_summaries or {}


def _run_one(space: MetricSpace, k: int, name: str, kwargs: dict) -> TaskOutput:
    """Top-level runner so batch tasks stay picklable for process pools.

    The run gets a shallow copy of the space with a *private*
    :class:`~repro.metric.base.DistCounter`: point data stays shared, but
    accounting state does not.  A shared counter would make each run's
    recorded ``dist_evals`` absorb whatever other tasks evaluated
    concurrently (the MapReduce solvers snapshot counter deltas per
    round), so per-run stats would depend on the executor's scheduling.
    With private counters, every field of every result — including the
    operation counts — is identical on sequential, thread and process
    backends.  The counter lives wherever the task ran — possibly a
    worker process — so its total travels back in the
    :class:`~repro.mapreduce.tasks.TaskOutput`, like a reducer task's.
    """
    task_space = copy.copy(space)
    task_space.counter = DistCounter()
    result = get_solver(name).fn(task_space, k, **kwargs)
    return TaskOutput(result, task_space.counter.evals)


def _normalise_algorithms(
    algorithms: Union[AlgorithmLike, Iterable[AlgorithmLike]],
) -> list[tuple[SolverSpec, dict[str, Any]]]:
    if isinstance(algorithms, (str, SolverSpec)) or (
        isinstance(algorithms, tuple)
        and len(algorithms) == 2
        and isinstance(algorithms[1], Mapping)
    ):
        algorithms = [algorithms]
    resolved: list[tuple[SolverSpec, dict[str, Any]]] = []
    for entry in algorithms:
        opts: dict[str, Any] = {}
        if isinstance(entry, (tuple, list)):
            if len(entry) != 2 or not isinstance(entry[1], Mapping):
                raise InvalidParameterError(
                    "algorithm entries must be a name, a SolverSpec, or a "
                    f"(name, options-dict) pair; got {entry!r}"
                )
            entry, opts = entry[0], dict(entry[1])
        if isinstance(entry, SolverSpec):
            resolved.append((entry, opts))
        else:
            resolved.append((get_solver(entry), opts))
    if not resolved:
        raise InvalidParameterError("solve_many needs at least one algorithm")
    return resolved


def solve_many(
    space: SpaceLike,
    k: int,
    algorithms: Union[AlgorithmLike, Iterable[AlgorithmLike]] = ("gon", "mrg", "eim"),
    seeds: Sequence[Any] | None = (None,),
    *,
    executor: Executor | None = None,
    chunk_size: int | None = None,
    m: Any = UNSET,
    capacity: Any = UNSET,
    evaluate: Any = UNSET,
    fault_policy: FaultPolicy | None = None,
    fault_injector: FaultInjector | None = None,
    **options: Any,
) -> BatchResults:
    """Run an (algorithms x seeds) batch; return ``{BatchKey: result}``.

    The returned mapping is a :class:`BatchResults` — an ordinary dict
    whose extra ``summary`` attribute carries the batch's merged
    accounting (:class:`~repro.mapreduce.accounting.BatchSummary`).

    Parameters
    ----------
    space, k:
        As for :func:`solve` (arrays, streams and ``.npy`` paths are
        coerced through :func:`repro.store.as_space`); the same instance
        is shared by every run.
    algorithms:
        Iterable of registry names, ``(name, options)`` pairs, or
        :class:`SolverSpec` objects.  Per-entry options override the
        batch-wide ``**options``; the reserved option ``label`` renames
        the entry's key (so one algorithm can appear several times with
        different options, e.g. an EIM phi sweep), and the reserved
        option ``k`` overrides the batch-wide ``k`` for that entry — so
        one batch can mix requests for different center counts
        (``[("gon", {"k": 5}), ("gon", {"k": 25, "label": "g25"})]``),
        which is how the :mod:`repro.serve` scheduler coalesces a mixed
        request queue into one fan-out.
    seeds:
        One run is scheduled per (algorithm, seed) pair.  Seeds are bound
        before scheduling, so results are identical under any executor.
        Passing ``seeds=None`` switches to *entry-owned seeding*: each
        entry runs exactly once with the ``seed`` from its own options
        dict (default ``None``), so heterogeneous per-request seeds can
        share a batch — the grid and the per-entry forms are mutually
        exclusive, never mixed.
    executor:
        Backend for the *batch fan-out* (default
        :class:`~repro.mapreduce.executor.SequentialExecutor`).  It is not
        forwarded to the individual solvers — nesting a process pool
        inside each run would oversubscribe the machine; a per-entry
        ``executor`` (see below) overrides this for one entry's runs.
    chunk_size:
        Chunk rows when ``space`` is a file path, stream or array to be
        solved out-of-core (see :func:`solve`).
    fault_policy, fault_injector:
        Fault tolerance for the *batch fan-out* (see :func:`solve`): the
        backend is wrapped in a
        :class:`~repro.mapreduce.resilient.ResilientExecutor`, so a run
        that crashes or stalls is re-executed — each run binds its seed
        up-front and evaluates into a private counter, so the re-run is
        bit-identical and only the winning attempt is accounted.  Retry /
        speculation / wasted-time numbers land in each run's
        ``run_summaries`` entry and the merged ``summary``.
    m, capacity, evaluate, **options:
        Batch-wide knobs/options, applied to each solver that accepts
        them and skipped for those that do not (so one batch can mix
        sequential and MapReduce solvers).  An option no solver in the
        batch accepts raises — a typo must not silently run defaults.
        Per-entry dicts may override both options and shared knobs
        (``("mrg", {"m": 8, "executor": SequentialExecutor()})``) and are
        strictly validated against that entry's solver; a per-entry
        ``seed`` is rejected — the ``seeds`` grid owns seeding.

    Raises
    ------
    InvalidParameterError
        Unknown algorithm, invalid per-entry option/knob, a batch-wide
        option accepted by no entry, or two entries producing the same
        ``(algorithm, seed)`` key.
    """
    space = as_space(space, chunk_size=chunk_size)
    entries = _normalise_algorithms(algorithms)
    entry_seeding = seeds is None
    if not entry_seeding:
        if not isinstance(seeds, (list, tuple, range)):
            seeds = list(seeds)
        if not seeds:
            raise InvalidParameterError("solve_many needs at least one seed")
    orphaned = sorted(
        key
        for key in options
        if not any(key in spec.options for spec, _ in entries)
    )
    if orphaned:
        raise InvalidParameterError(
            f"batch option(s) {', '.join(map(repr, orphaned))} accepted by "
            "no solver in this batch; check for typos or move them into a "
            "per-entry options dict"
        )

    backend = executor if executor is not None else SequentialExecutor()
    if fault_policy is not None or fault_injector is not None:
        backend = ResilientExecutor(
            backend,
            fault_policy if fault_policy is not None else FaultPolicy(),
            fault_injector,
        )
    keys: list[BatchKey] = []
    names: list[str] = []  # canonical registry names, aligned with keys
    tasks = []
    for spec, entry_opts in entries:
        # Batch-wide options apply only where accepted; per-entry options
        # and knobs are exact and validated below by kwargs_for.
        merged = {
            key: value for key, value in options.items() if key in spec.options
        }
        merged.update(entry_opts)
        label = str(merged.pop("label", spec.name))
        entry_k = merged.pop("k", k)
        if "seed" in merged and not entry_seeding:
            raise InvalidParameterError(
                "per-entry 'seed' is not allowed; the seeds grid assigns "
                "one run per (algorithm, seed) pair (pass seeds=None to "
                "switch to entry-owned seeding)"
            )
        entry_knobs = {
            knob: merged.pop(knob) for knob in SHARED_KNOBS if knob in merged
        }
        entry_seeds = (entry_knobs.pop("seed", None),) if entry_seeding else seeds
        for seed in entry_seeds:
            config = SolveConfig(
                k=entry_k,
                m=entry_knobs.get("m", m if "m" in spec.shared else UNSET),
                capacity=entry_knobs.get(
                    "capacity", capacity if "capacity" in spec.shared else UNSET
                ),
                seed=seed,
                executor=entry_knobs.get("executor", UNSET),
                evaluate=entry_knobs.get(
                    "evaluate", evaluate if "evaluate" in spec.shared else UNSET
                ),
                options=merged,
            )
            key = BatchKey(label, seed)
            if key in keys:
                raise InvalidParameterError(
                    f"duplicate batch entry {key}; list each "
                    "(algorithm, seed) pair at most once"
                )
            keys.append(key)
            names.append(spec.name)
            tasks.append((config.k, spec.name, config.kwargs_for(spec)))

    # Publish the space once per batch when the fan-out crosses a process
    # boundary: every task then pickles a shared-memory handle instead of
    # the coordinate rows (no-op for sequential/thread backends and
    # out-of-core spaces, which already cross by reference).
    with shared_space(space, backend) as task_space:
        specs = [
            TaskSpec(
                _run_one,
                args=(task_space, *args),
                counting="output",
                name=str(key),
                trace_args=(("algorithm", names[i]),),
            )
            for i, (args, key) in enumerate(zip(tasks, keys))
        ]
        results, batch = dispatch(
            "solve_many", specs, backend, cat="solve", runs=len(specs)
        )

    emit = _metrics.REGISTRY.enabled
    run_summaries: dict[BatchKey, BatchSummary] = {}
    for i, (key, result) in enumerate(zip(keys, results)):
        seconds, evals = batch.task_times[i], batch.task_dist_evals[i]
        if emit:
            _M_SOLVES.labels(algorithm=names[i]).inc()
            _M_SOLVE_SECONDS.labels(algorithm=names[i]).observe(seconds)
            _M_DIST_EVALS.labels(algorithm=names[i]).inc(evals)
        run_summaries[key] = BatchSummary(
            runs=1,
            parallel_time=seconds,
            cpu_time=seconds,
            dist_evals=evals,
            solver_rounds=result.n_rounds,
            retries=batch.task_retries[i],
            speculative_wins=batch.task_speculative_wins[i],
            wasted_task_seconds=batch.task_wasted_seconds[i],
        )
    summary = BatchSummary.merged(run_summaries.values())
    return BatchResults(zip(keys, results), summary, run_summaries)
