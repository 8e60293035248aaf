"""MRHS — MapReduce Hochbaum-Shmoys (the paper's future-work proposal).

Section 9: "Currently all such approaches rely on the sequential
algorithm of Gonzalez.  It would be interesting to compare with similar
adaptations of alternative sequential algorithms, such as that of
Hochbaum & Shmoys."  This module is that adaptation: Algorithm 1 with the
per-machine and final sub-procedure swapped from GON to HS.

Approximation.  For any subset ``S`` of ``V``, ``OPT(S) <= 2 OPT(V)``:
map each optimal cluster of V that intersects S to one representative in
S; by the triangle inequality every point of S is within ``2 OPT(V)`` of
its cluster's representative.  Hence

* round 1: HS covers each shard ``V_i`` within ``2 OPT(V_i) <= 4 OPT(V)``
  (HS's factor 2 against the shard's own optimum);
* final round: HS on the union ``C`` covers C within
  ``2 OPT(C) <= 4 OPT(V)``;
* triangle inequality: every point of V is within ``4 + 4 = 8 OPT(V)``.

So the two-round MRHS guarantee is **8** where MRG's is 4 — GON's
farthest-first structure is what buys the tighter Lemma 1, which is a
nice theoretical argument *for* MRG.  Empirically, however, HS tends to
return better-than-guarantee solutions (its binary search stops at the
smallest feasible radius), so the comparison the authors asked for is
genuinely interesting — ``benchmarks/bench_future_work_mrhs.py`` runs it.

Practical caveat inherited from HS: each machine materialises its shard's
candidate radii (O((n/m)^2) distances), so the per-machine shard is
capped (:data:`repro.core.hochbaum_shmoys.MAX_POINTS`).  MRHS therefore
targets moderate n with many machines — exactly the regime where a
sequential HS would already be infeasible and parallelism is the point.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.assignment import evaluate_on
from repro.core.hochbaum_shmoys import MAX_POINTS, hochbaum_shmoys
from repro.core.result import KCenterResult
from repro.errors import CapacityError, InvalidParameterError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.tasks import TaskOutput, TaskSpec
from repro.mapreduce.executor import Executor
from repro.mapreduce.model import validate_cluster
from repro.mapreduce.partition import PARTITIONERS
from repro.metric.base import MetricSpace
from repro.store.shm import shared_space
from repro.store.space import _bind_views_eagerly, machine_view
from repro.utils.rng import SeedLike, SeedStream
from repro.utils.timing import Timer

__all__ = ["mr_hochbaum_shmoys"]


def _hs_shard_task(
    space: MetricSpace, shard: np.ndarray, k: int, bound: bool = False
) -> TaskOutput:
    """One reducer: HS over a machine view of ``shard``; global center ids.

    Top-level (not a closure) and argument-picklable, so the same task
    list runs on sequential, thread and process executors.  The machine
    view carries a private counter — an out-of-core shard gathers only
    its own rows wherever the task runs — and the evaluation count rides
    back in the :class:`TaskOutput` for exact round accounting.
    ``bound=True`` means ``space`` is already this machine's view
    (prebuilt at schedule time so a process-pool task ships only its
    shard's rows; see :func:`repro.store.space._bind_views_eagerly`).
    """
    view = space if bound else machine_view(space, shard)
    try:
        centers = shard[hochbaum_shmoys(view, k).centers]
    finally:
        if hasattr(view, "release"):
            view.release()
    return TaskOutput(centers, view.counter.evals)


def mr_hochbaum_shmoys(
    space: MetricSpace,
    k: int,
    m: int = 50,
    capacity: int | None = None,
    partitioner="block",
    seed: SeedLike = None,
    executor: Executor | None = None,
    evaluate: bool = True,
) -> KCenterResult:
    """Two-round MapReduce k-center with Hochbaum-Shmoys sub-procedures.

    Parameters mirror :func:`repro.core.mrg.mrg`.  Unlike MRG there is no
    multi-round regime: HS per shard returns at most ``k`` centers, so the
    union has at most ``k * m`` points and the schedule is always two
    rounds (the capacity must accommodate ``k * m`` on one machine, and
    each shard must fit HS's ``MAX_POINTS`` cap).
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    n = space.n
    if n == 0:
        return KCenterResult(
            algorithm="MRHS", centers=np.empty(0, dtype=np.intp), radius=0.0, k=k
        )
    capacity = max(math.ceil(n / m), k * m, 1) if capacity is None else int(capacity)
    validate_cluster(n, k, m, capacity)
    if k * m > capacity:
        raise CapacityError(
            f"MRHS has no multi-round fallback: k*m = {k * m} must fit the "
            f"final machine (capacity {capacity})"
        )
    shard_cap = math.ceil(n / m)
    if shard_cap > MAX_POINTS:
        raise CapacityError(
            f"HS materialises per-shard candidate radii: shard size "
            f"{shard_cap} exceeds its {MAX_POINTS}-point cap; use more "
            "machines or MRG"
        )

    try:
        part_fn = PARTITIONERS[partitioner] if not callable(partitioner) else partitioner
    except KeyError:
        raise InvalidParameterError(
            f"unknown partitioner {partitioner!r}; choose from {sorted(PARTITIONERS)}"
        ) from None

    cluster = SimulatedCluster(m, capacity, executor=executor, dist_counter=space.counter)
    seeds = SeedStream(seed)
    wall = Timer()
    eval_timer = Timer()
    radius = 0.0

    # Same zero-copy scope as MRG: in-memory coordinates published once
    # per space for process-pool rounds (repro.store.shm).
    with wall, shared_space(space, cluster.executor) as task_space:
        n_machines = min(m, n)
        try:
            parts = part_fn(n, n_machines, seeds.seeds(1)[0])
        except TypeError:
            parts = part_fn(n, n_machines)
        shards = [np.asarray(p, dtype=np.intp) for p in parts if len(p)]

        eager = _bind_views_eagerly(task_space, cluster.executor)

        def bind(shard: np.ndarray) -> TaskSpec:
            if eager:
                return TaskSpec(
                    _hs_shard_task,
                    args=(machine_view(task_space, shard), shard, k, True),
                    counting="output",
                )
            return TaskSpec(
                _hs_shard_task, args=(task_space, shard, k), counting="output"
            )

        results = cluster.run_round(
            "mrhs.reduce",
            [bind(shard) for shard in shards],
            task_sizes=[len(s) for s in shards],
        )
        union = np.concatenate(results)

        (centers,) = cluster.run_round(
            "mrhs.final", [bind(union)], task_sizes=[len(union)]
        )

        if evaluate:
            with wall.paused(), eval_timer:
                radius = evaluate_on(cluster, task_space, centers)

    return KCenterResult(
        algorithm="MRHS",
        centers=centers,
        radius=radius,
        k=k,
        stats=cluster.stats,
        wall_time=wall.elapsed,
        eval_time=eval_timer.elapsed,
        approx_factor=8.0,
        extra={"m": m, "capacity": capacity, "union_size": int(len(union))},
    )
