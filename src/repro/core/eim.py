"""EIM — the generalised Ene-Im-Moseley iterative-sampling algorithm
(paper Algorithms 2-3, Sections 4-6).

One iteration of the main loop is three MapReduce rounds:

1. **Sample** — each machine independently adds each of its points of R to
   the sample S with probability ``9 k n^eps log n / |R|`` and to the pivot
   pool H with probability ``4 n^eps log n / |R|``.
2. **Select** — a single machine receives H and S (plus the H-to-S
   distances) and picks the pivot ``v``: the ``phi * log(n)``-th farthest
   point of H from S.  The original Ene et al. scheme is ``phi = 8``; the
   paper's Section 6 shows the probabilistic guarantee survives for
   ``phi`` above a threshold (quoted as 5.15) and benchmarks
   ``phi in {1, 4, 6, 8}``.
3. **Remove** — every machine drops from its share of R the points whose
   distance to S is at most ``d(v, S)``.

The loop ends when ``|R| <= (4/eps) k n^eps log n``; the final candidate
set is ``C = S u R`` and one clean-up round runs a sequential k-center
algorithm (GON here, as in the paper) on C.

Termination fixes (paper Section 4.1), both on by default:

* removal uses ``<=`` (not ``<``) so points *at* the pivot distance — in
  particular freshly sampled points, which are at distance 0 from S — are
  removed;
* sampled points are removed from R explicitly even when the pivot pool H
  came up empty.

Setting ``legacy_removal=True`` restores the original strict-inequality
behaviour for the stall-reproduction ablation; the implementation then
detects stalled iterations and raises
:class:`~repro.errors.ConvergenceError` instead of looping forever.

The **fallback regime** of Figures 3b/4b is implicit: when the while
condition fails immediately (k too large relative to n), C = V and EIM
degenerates to one round of sequential GON on the whole input.

Distance maintenance is incremental: each point of R carries its current
distance to S, and each iteration folds only the *newly sampled* points
into that running minimum (total work ``sum_l |R_l| * |dS_l|``, the same
asymptotics as the paper's Round-3 count with a smaller constant).

Every round body is a **module-level function dispatched as a
:class:`~repro.mapreduce.tasks.TaskSpec`** — the repo-wide task contract
(see :mod:`repro.mapreduce.tasks`): randomness is bound as *seeds* before
dispatch and turned into a generator per call, distance work is counted
into a task-private counter reported via
:class:`~repro.mapreduce.tasks.TaskOutput`, and the Round-3 distance
min-fold returns its updated block (reassembled on the driver) instead of
mutating driver state from inside a task.  A retried or speculatively
duplicated task therefore reproduces its first execution bit for bit, the
round's ``dist_evals`` stay exact under any absorbed fault, and the same
task list runs unchanged on sequential, thread and process backends —
in-memory coordinates cross the process boundary once per space through
the shared-memory transport, exactly like MRG/MRHS.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import evaluate_on
from repro.core.gonzalez import gonzalez_trace
from repro.core.result import KCenterResult
from repro.errors import CapacityError, ConvergenceError, InvalidParameterError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.executor import Executor
from repro.mapreduce.partition import block_partition
from repro.mapreduce.tasks import TaskOutput, TaskSpec
from repro.metric.base import MetricSpace, TaskCounter
from repro.store.shm import shared_space
from repro.utils.rng import SeedLike, SeedStream
from repro.utils.timing import Timer

__all__ = ["EIMParams", "eim"]


@dataclass(frozen=True)
class EIMParams:
    """Tunable parameters of the EIM scheme.

    Attributes
    ----------
    eps:
        The ``epsilon`` of the scheme; the loop runs O(1/eps) iterations
        w.h.p.  The paper confirms Ene et al.'s choice 0.1.
    phi:
        Pivot rank multiplier: the pivot is the ``phi * log(n)``-th
        farthest point of H from S.  8.0 reproduces the original scheme.
    sample_coeff:
        The ``9`` in the S-sampling probability ``9 k n^eps log n / |R|``.
    pivot_coeff:
        The ``4`` in the H-sampling probability ``4 n^eps log n / |R|``.
    threshold_coeff:
        The ``4`` in the loop threshold ``(4/eps) k n^eps log n``.
    legacy_removal:
        Reproduce the original strict-``<`` removal (ablation only).
    max_iterations:
        Hard stop; the theory predicts O(1/eps) iterations, so the default
        ``10 * ceil(1/eps) + 10`` only trips on genuine stalls.
    """

    eps: float = 0.1
    phi: float = 8.0
    sample_coeff: float = 9.0
    pivot_coeff: float = 4.0
    threshold_coeff: float = 4.0
    legacy_removal: bool = False
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise InvalidParameterError(f"eps must be in (0, 1), got {self.eps}")
        if self.phi <= 0:
            raise InvalidParameterError(f"phi must be positive, got {self.phi}")
        if min(self.sample_coeff, self.pivot_coeff, self.threshold_coeff) <= 0:
            raise InvalidParameterError("all EIM coefficients must be positive")

    @property
    def iteration_cap(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * math.ceil(1.0 / self.eps) + 10

    def loop_threshold(self, n: int, k: int) -> float:
        """|R| threshold below which the while loop stops."""
        if n <= 1:
            return float(n)
        return (self.threshold_coeff / self.eps) * k * n**self.eps * math.log(n)

    def sample_probability(self, n: int, k: int, r_size: int) -> float:
        """Per-point probability of joining S this iteration (clamped)."""
        if r_size <= 0:
            return 0.0
        p = self.sample_coeff * k * n**self.eps * math.log(n) / r_size
        return min(1.0, p)

    def pivot_probability(self, n: int, r_size: int) -> float:
        """Per-point probability of joining H this iteration (clamped)."""
        if r_size <= 0:
            return 0.0
        p = self.pivot_coeff * n**self.eps * math.log(n) / r_size
        return min(1.0, p)

    def pivot_rank(self, n: int) -> int:
        """0-based rank of the pivot in the farthest-first ordering of H."""
        return max(0, math.ceil(self.phi * math.log(max(n, 2))) - 1)


# ------------------------------------------------------------------------ #
# round task bodies — module-level (the task contract: picklable on every
# backend), all solver state bound explicitly through TaskSpec args
# ------------------------------------------------------------------------ #
def _task_shadow(space: MetricSpace) -> MetricSpace:
    """A shallow clone of ``space`` with a task-private counter.

    Distance work done through the shadow never touches the watched
    counter directly — it rides back in the :class:`TaskOutput`, so a
    re-executed (retried, speculated, duplicated) task cannot
    double-count and the round's ``dist_evals`` stay exact on every
    backend, process pools included.
    """
    shadow = copy.copy(space)
    shadow.counter = TaskCounter()
    return shadow


def _sample_task(shard: np.ndarray, p_s: float, p_h: float, *, seed):
    """Round 1 on one machine: Bernoulli-draw S and H members of ``shard``.

    ``seed`` (keyword-only, bound per task by :class:`TaskSpec`) builds a
    fresh generator per call: a stateful generator would make a retried /
    speculatively duplicated task draw different samples on its second
    execution.  Bit-identical to the historical generator binding, since
    ``SeedStream.generators`` is exactly ``default_rng`` over
    ``SeedStream.seeds``.  No distance work happens here.
    """
    rng = np.random.default_rng(seed)
    draw_s = rng.random(len(shard)) < p_s
    draw_h = rng.random(len(shard)) < p_h
    return shard[draw_s], shard[draw_h]


def _select_task(
    space: MetricSpace,
    d_h: np.ndarray,
    pivot_pool: np.ndarray,
    new_sample: np.ndarray,
    rank: int,
) -> TaskOutput:
    """Round 2 on one machine: fold new sample into the H distances, pick
    the pivot distance (the ``rank``-th farthest point of H from S).

    ``d_h`` is the maintained H-to-S_old distances; copied before the
    min-fold so the task is a pure function of its arguments even when
    two attempts run concurrently against the same driver-side array.
    """
    shadow = _task_shadow(space)
    d_h = np.array(d_h, copy=True)
    if len(new_sample):
        shadow.update_min_dists(d_h, pivot_pool, new_sample)
    rank = min(rank, len(d_h) - 1)
    # phi*log(n)-th farthest = descending order statistic.
    kth = len(d_h) - 1 - rank
    return TaskOutput(float(np.partition(d_h, kth)[kth]), shadow.counter.evals)


def _remove_task(
    space: MetricSpace,
    indices: np.ndarray,
    dists: np.ndarray,
    new_sample: np.ndarray,
    in_new_sample: np.ndarray,
    pivot_dist: float,
    has_pivot: bool,
    legacy_removal: bool,
) -> TaskOutput:
    """Round 3 on one machine: min-fold the new sample into this block's
    maintained distances, decide which points of the block survive.

    Returns ``(updated_dists, keep)`` for the driver to reassemble —
    tasks never mutate driver state in place, so the same body runs in a
    process worker, and re-execution trivially reproduces the first
    attempt (the min-fold against a fixed reference set is a pure
    function of the incoming block).
    """
    shadow = _task_shadow(space)
    dists = np.array(dists, copy=True)
    if len(new_sample):
        shadow.update_min_dists(dists, indices, new_sample)
    if legacy_removal:
        # Original rule: remove strictly-closer points only, and do not
        # force sampled points out of R.
        keep = dists >= pivot_dist if has_pivot else np.ones(len(dists), dtype=bool)
        return TaskOutput((dists, keep), shadow.counter.evals)
    keep = dists > pivot_dist if has_pivot else np.ones(len(dists), dtype=bool)
    keep &= ~in_new_sample
    return TaskOutput((dists, keep), shadow.counter.evals)


def _final_task(
    space: MetricSpace, candidates: np.ndarray, k: int, *, seed
) -> TaskOutput:
    """Clean-up round: sequential GON over the candidate set C = S u R.

    ``local`` shares its parent's counter, so the clean-up runs over a
    shadow copy with a private one — same re-execution safety as the
    loop rounds.
    """
    shadow = _task_shadow(space)
    local = shadow.local(candidates)
    trace = gonzalez_trace(local, k, seed=seed)
    return TaskOutput(candidates[trace.centers], shadow.counter.evals)


def eim(
    space: MetricSpace,
    k: int,
    m: int = 50,
    params: EIMParams | None = None,
    capacity: int | None = None,
    seed: SeedLike = None,
    executor: Executor | None = None,
    evaluate: bool = True,
    **param_overrides,
) -> KCenterResult:
    """Run EIM on ``space``; return centers, objective and round accounting.

    Parameters
    ----------
    space, k, m, capacity, seed, executor, evaluate:
        As for :func:`repro.core.mrg.mrg`.  ``capacity=None`` leaves the
        machines unbounded, matching the paper's experiments (they check
        the *sample* fits rather than engineering c); when a capacity is
        given, the Select and clean-up rounds enforce it.
    params:
        An :class:`EIMParams`; keyword overrides (``eps=0.2``, ``phi=4``,
        ...) may be passed directly instead.

    Notes
    -----
    With GON as the clean-up procedure and a feasible ``phi`` the result
    is a 10-approximation with sufficient probability (paper Lemma 7 with
    alpha = 2); ``approx_factor`` is set accordingly, or ``None`` when
    ``phi`` is below the paper's quoted 5.15 threshold.
    """
    if params is None:
        params = EIMParams(**param_overrides)
    elif param_overrides:
        raise InvalidParameterError(
            "pass either a params object or keyword overrides, not both"
        )
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    n = space.n
    if n == 0:
        return KCenterResult(
            algorithm="EIM", centers=np.empty(0, dtype=np.intp), radius=0.0, k=k
        )

    cluster = SimulatedCluster(m, capacity, executor=executor, dist_counter=space.counter)
    wall = Timer()
    eval_timer = Timer()
    radius = 0.0
    threshold = params.loop_threshold(n, k)
    iteration_sizes: list[dict[str, int]] = []
    seeds = SeedStream(seed)

    # Same zero-copy scope as MRG/MRHS: in-memory coordinates published
    # once per space for process-pool rounds (repro.store.shm); every task
    # below binds ``task_space``, which pickles as a ~100-byte handle
    # inside the scope and is the space itself otherwise.
    with wall, shared_space(space, cluster.executor) as task_space:
        remaining = np.arange(n, dtype=np.intp)  # R, as sorted global indices
        # d(x, S_old) for x in R, aligned with `remaining`; maintained
        # incrementally (each iteration folds only the new sample points).
        dist_to_sample = np.full(n, np.inf)
        sample = np.empty(0, dtype=np.intp)  # S
        iteration = 0

        while len(remaining) > threshold:
            iteration += 1
            if iteration > params.iteration_cap:
                raise ConvergenceError(
                    f"EIM exceeded {params.iteration_cap} iterations "
                    f"(|R|={len(remaining)}, threshold={threshold:.1f}); "
                    + ("legacy removal rule stalls on this input"
                       if params.legacy_removal else "unexpected stall")
                )
            r_size = len(remaining)
            p_s = params.sample_probability(n, k, r_size)
            p_h = params.pivot_probability(n, r_size)

            # ---- Round 1: per-machine Bernoulli sampling of S and H ----
            n_machines = min(m, r_size)
            shard_pos = [p for p in block_partition(r_size, n_machines) if len(p)]
            shards = [remaining[p] for p in shard_pos]
            shard_starts = np.cumsum([0] + [len(s) for s in shards])
            machine_seeds = seeds.seeds(len(shards))

            pairs = cluster.run_round(
                f"eim.sample[{iteration}]",
                [
                    TaskSpec(
                        _sample_task,
                        args=(shard, p_s, p_h),
                        seed=machine_seeds[i],
                        counting="none",
                    )
                    for i, shard in enumerate(shards)
                ],
                task_sizes=[len(s) for s in shards],
            )
            new_sample = np.concatenate([p[0] for p in pairs])
            pivot_pool = np.concatenate([p[1] for p in pairs])
            sample = np.concatenate([sample, new_sample])

            # ---- Round 2: Select the pivot on a single machine ----------
            # One machine receives H and S plus the maintained H-to-S_old
            # distances; it folds the new sample points into them and picks
            # the phi*log(n)-th farthest as the pivot v, returning d(v, S).
            pivot_dist = -np.inf
            if len(pivot_pool) and len(sample):
                # H subset of R, and `remaining` is sorted, so positions are exact.
                pool_positions = np.searchsorted(remaining, pivot_pool)
                (pivot_dist,) = cluster.run_round(
                    f"eim.select[{iteration}]",
                    [
                        TaskSpec(
                            _select_task,
                            args=(
                                task_space,
                                dist_to_sample[pool_positions],
                                pivot_pool,
                                new_sample,
                                params.pivot_rank(n),
                            ),
                            counting="output",
                        )
                    ],
                    task_sizes=[len(pivot_pool) + len(sample)],
                    shuffle_elements=len(pivot_pool) + len(sample),
                )

            # ---- Round 3: distance update + removal, sharded ------------
            in_new_sample = np.isin(remaining, new_sample, assume_unique=False)
            has_pivot = pivot_dist > -np.inf

            blocks = cluster.run_round(
                f"eim.remove[{iteration}]",
                [
                    TaskSpec(
                        _remove_task,
                        args=(
                            task_space,
                            shards[i],
                            dist_to_sample[shard_starts[i] : shard_starts[i + 1]],
                            new_sample,
                            in_new_sample[shard_starts[i] : shard_starts[i + 1]],
                            float(pivot_dist),
                            has_pivot,
                            params.legacy_removal,
                        ),
                        counting="output",
                    )
                    for i in range(len(shards))
                ],
                task_sizes=[len(s) for s in shards],
                shuffle_elements=len(new_sample) + len(shards),
            )
            # block_partition yields contiguous, ordered blocks, so
            # concatenating the per-task results reassembles both arrays
            # in `remaining` order.
            dist_to_sample = np.concatenate([b[0] for b in blocks])
            keep = np.concatenate([b[1] for b in blocks])

            iteration_sizes.append(
                {
                    "R": r_size,
                    "new_S": int(len(new_sample)),
                    "H": int(len(pivot_pool)),
                    "removed": int(r_size - keep.sum()),
                }
            )
            if keep.all():
                raise ConvergenceError(
                    f"EIM iteration {iteration} removed no points "
                    f"(|R|={r_size}, |H|={len(pivot_pool)}, "
                    f"legacy_removal={params.legacy_removal})"
                )
            remaining = remaining[keep]
            dist_to_sample = dist_to_sample[keep]

        # ---- Clean-up round: sequential GON on C = S u R ----------------
        candidates = np.union1d(sample, remaining)
        if capacity is not None and len(candidates) > capacity:
            raise CapacityError(
                f"EIM candidate set of {len(candidates)} points exceeds the "
                f"machine capacity {capacity}; increase eps or capacity"
            )
        final_seed = seeds.seeds(1)[0]

        (centers,) = cluster.run_round(
            "eim.final",
            [
                TaskSpec(
                    _final_task,
                    args=(task_space, candidates, k),
                    seed=final_seed,
                    counting="output",
                )
            ],
            task_sizes=[len(candidates)],
        )

        if evaluate:
            with wall.paused(), eval_timer:
                radius = evaluate_on(cluster, task_space, centers)

    # 4*alpha + 2 with alpha = 2 (GON) = 10, valid w.s.p. only above the
    # paper's phi threshold; no a-priori bound below it (Section 8.3).
    from repro.core.theory import PHI_PAPER_THRESHOLD

    factor = 10.0 if params.phi > PHI_PAPER_THRESHOLD else None
    return KCenterResult(
        algorithm="EIM",
        centers=centers,
        radius=radius,
        k=k,
        stats=cluster.stats,
        wall_time=wall.elapsed,
        eval_time=eval_timer.elapsed,
        approx_factor=factor,
        extra={
            "m": m,
            "params": params,
            "iterations": iteration,
            "loop_threshold": threshold,
            "sample_size": int(len(sample)),
            "candidate_size": int(len(candidates)),
            "iteration_sizes": iteration_sizes,
            "fallback_to_gon": iteration == 0,
        },
    )
