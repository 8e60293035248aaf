"""MRG — "MapReduce Gonzalez" (paper Algorithm 1, Sections 3.1-3.3).

Round structure::

    S <- V
    while |S| > c:
        partition S across machines (|V_i| <= ceil(n/m) in round 1;
        later rounds use the minimal machine count ceil(|S|/c), Eq. (1))
        each machine runs GON on its shard, emitting k centers
        S <- union of the emitted centers
    one machine runs GON on S  ->  the k final centers

In the standard regime (``n/m <= c`` and ``k*m <= c``) the while loop runs
once and the schedule is two MapReduce rounds with a 4-approximation
(Lemma 2).  When ``k*m > c`` the loop iterates; each extra round adds 2 to
the approximation factor (Lemma 3), and convergence requires ``2k < c``
(the Eq. (1) geometric tail must allow the surviving centers to fit on one
machine).

Timing follows the paper's methodology: each reducer's GON is individually
wall-clocked, the round's simulated parallel time is the slowest reducer,
and the final objective evaluation over all of V is *not* charged to the
algorithm (reported separately as ``eval_time``).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.assignment import evaluate_on
from repro.core.gonzalez import gonzalez_trace
from repro.core.result import KCenterResult
from repro.errors import CapacityError, InvalidParameterError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.tasks import TaskOutput, TaskSpec
from repro.mapreduce.executor import Executor
from repro.mapreduce.model import default_capacity, mrg_approximation_factor, validate_cluster
from repro.mapreduce.partition import PARTITIONERS, block_partition
from repro.metric.base import MetricSpace
from repro.store.shm import shared_space
from repro.store.space import _bind_views_eagerly, machine_view
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.timing import Timer

__all__ = ["mrg"]


def _gon_shard_task(
    space: MetricSpace, shard: np.ndarray | range, k: int, bound: bool = False, *, seed=None
) -> TaskOutput:
    """One reducer: GON over a machine view of ``shard``; global center ids.

    ``shard`` is an index array, or a ``range`` of rows (a block shard of
    round 1, viewed in place).  Top-level and argument-picklable (any
    executor backend); the machine view's private counter rides back in
    the :class:`TaskOutput`.  A contiguous shard of an out-of-core space
    stays out-of-core — the round-1 partition of a sharded dataset never
    gathers ``(n, d)`` anywhere, driver or worker.  ``bound=True`` means
    ``space`` is already this machine's view (see
    :func:`repro.store.space._bind_views_eagerly`); ``seed`` is
    keyword-only so :class:`~repro.mapreduce.tasks.TaskSpec` can bind it
    per task.
    """
    view = space if bound else machine_view(space, shard)
    try:
        trace = gonzalez_trace(view, k, seed=seed)
    finally:
        if hasattr(view, "release"):
            view.release()
    if isinstance(shard, range):
        return TaskOutput(trace.centers + shard.start, view.counter.evals)
    return TaskOutput(shard[trace.centers], view.counter.evals)


def _resolve_partitioner(partitioner) -> Callable:
    if callable(partitioner):
        return partitioner
    try:
        return PARTITIONERS[partitioner]
    except KeyError:
        raise InvalidParameterError(
            f"unknown partitioner {partitioner!r}; choose from {sorted(PARTITIONERS)}"
        ) from None


def _partition_indices(
    fn: Callable, current: np.ndarray | range, n_machines: int, seed
) -> list[np.ndarray | range]:
    """Partition positions of ``current`` into machine shards (global ids).

    A block partition of a row range (round 1's ``range(n)``) yields row
    ranges: each reducer then views its rows in place instead of
    gathering them through an index array.
    """
    if fn is block_partition or fn is PARTITIONERS["block"]:
        parts = fn(len(current), n_machines)
        if isinstance(current, range):
            return [current[int(p[0]) : int(p[-1]) + 1] for p in parts if len(p)]
    else:
        try:
            parts = fn(len(current), n_machines, seed)
        except TypeError:
            parts = fn(len(current), n_machines)
    if isinstance(current, range):
        current = np.arange(current.start, current.stop, dtype=np.intp)
    return [current[p] for p in parts if len(p)]


def mrg(
    space: MetricSpace,
    k: int,
    m: int = 50,
    capacity: int | None = None,
    partitioner="block",
    seed: SeedLike = None,
    executor: Executor | None = None,
    max_rounds: int = 64,
    evaluate: bool = True,
) -> KCenterResult:
    """Run MRG on ``space``; return centers, objective and round accounting.

    Parameters
    ----------
    space:
        The input metric space (all n points).
    k:
        Number of centers.
    m:
        Number of simulated machines (paper experiments fix m = 50).
    capacity:
        Per-machine capacity in points.  ``None`` chooses the smallest
        capacity for which the two-round regime applies
        (:func:`repro.mapreduce.model.default_capacity`), matching the
        paper's experimental setup, which never hits the capacity wall.
        Pass a small value to force the multi-round regime.
    partitioner:
        ``"block"`` (the paper's arbitrary partition), ``"random"``,
        ``"hash"``, or a callable ``(n, m[, seed]) -> list[index arrays]``.
    seed:
        Master seed; child seeds drive each machine's GON seeding and the
        partitioner, so runs are reproducible and executor-independent.
    executor:
        Task backend (sequential by default — the paper's methodology).
    max_rounds:
        Safety bound on while-loop iterations.
    evaluate:
        When true (default), compute the covering radius over all points
        (reported as ``radius``; timed separately in ``eval_time``).
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    n = space.n
    if n == 0:
        return KCenterResult(
            algorithm="MRG", centers=np.empty(0, dtype=np.intp), radius=0.0, k=k
        )
    c = default_capacity(n, k, m) if capacity is None else int(capacity)
    validate_cluster(n, k, m, c)
    part_fn = _resolve_partitioner(partitioner)

    cluster = SimulatedCluster(m, c, executor=executor, dist_counter=space.counter)
    wall = Timer()
    eval_timer = Timer()
    radius = float("nan")

    # Publish the in-memory coordinate block (once per space) when the
    # rounds run in a process pool: reducer tasks then pickle a
    # shared-memory handle instead of their shard's rows (repro.store.shm).
    # The segment lives as long as the space, so later solves reuse it.
    with wall, shared_space(space, cluster.executor) as task_space:
        current = range(n)
        reduction_rounds = 0
        shard_history: list[list[int]] = []
        while len(current) > c:
            reduction_rounds += 1
            if reduction_rounds > max_rounds:
                raise CapacityError(
                    f"MRG did not converge within {max_rounds} reduction rounds "
                    f"(k={k}, m={m}, c={c})"
                )
            # Machine count per round.  Capacity requires at least
            # ceil(|S|/c) machines; progress requires k * machines < |S|
            # (otherwise the union of per-machine centers does not shrink
            # — the paper's "we further assume that n/m > k: if this is
            # not the case, then we can reduce the number of machines").
            # Round 1 uses as many machines as useful (full parallelism);
            # later rounds use the minimal count of Eq. (1), m' = ceil(|S|/c).
            size = len(current)
            min_machines = math.ceil(size / c)
            max_useful = (size - 1) // k  # size > c >= k, so >= 1
            if reduction_rounds == 1:
                n_machines = min(m, max_useful)
            else:
                n_machines = min_machines
            if not (min_machines <= n_machines <= min(m, max_useful)):
                raise CapacityError(
                    f"MRG cannot make progress with |S|={size}, k={k}, m={m}, "
                    f"c={c}: need ceil(|S|/c)={min_machines} machines for "
                    f"capacity but at most {max_useful} for the center set to "
                    "shrink (the paper's convergence condition 2k < c fails)"
                )
            part_seed, *machine_seeds = spawn_seeds(seed, n_machines + 1)
            shards = _partition_indices(part_fn, current, n_machines, part_seed)
            shard_history.append([len(s) for s in shards])

            eager = _bind_views_eagerly(task_space, cluster.executor)
            tasks = [
                TaskSpec(
                    _gon_shard_task,
                    args=(
                        machine_view(task_space, shard) if eager else task_space,
                        shard,
                        k,
                        eager,
                    ),
                    seed=machine_seeds[i],
                    counting="output",
                )
                for i, shard in enumerate(shards)
            ]
            results = cluster.run_round(
                f"mrg.reduce[{reduction_rounds}]",
                tasks,
                task_sizes=[len(s) for s in shards],
            )
            current = np.concatenate(results)

        # Final round: GON on the surviving sample, on a single machine.
        final_seed = spawn_seeds(seed, 1)[0] if seed is not None else None

        eager = _bind_views_eagerly(task_space, cluster.executor)
        (centers,) = cluster.run_round(
            "mrg.final",
            [
                TaskSpec(
                    _gon_shard_task,
                    args=(
                        machine_view(task_space, current) if eager else task_space,
                        current,
                        k,
                        eager,
                    ),
                    seed=final_seed,
                    counting="output",
                )
            ],
            task_sizes=[len(current)],
        )

        # The evaluate pass runs on the pool while the segment is still
        # published; it is timed apart from the algorithm (eval_time).
        if evaluate:
            with wall.paused(), eval_timer:
                radius = evaluate_on(cluster, task_space, centers)

    total_rounds = reduction_rounds + 1
    # With zero reduction rounds (the whole input fit on one machine) the
    # schedule degenerated to a single round of sequential GON: factor 2.
    factor = 2.0 if total_rounds == 1 else float(mrg_approximation_factor(total_rounds))
    return KCenterResult(
        algorithm="MRG",
        centers=centers,
        radius=radius if evaluate else 0.0,
        k=k,
        stats=cluster.stats,
        wall_time=wall.elapsed,
        eval_time=eval_timer.elapsed,
        approx_factor=factor,
        extra={
            "m": m,
            "capacity": c,
            "reduction_rounds": reduction_rounds,
            "total_rounds": total_rounds,
            "shard_sizes": shard_history,
            "sample_size_final": len(current),
        },
    )
