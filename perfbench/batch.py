"""The batch workloads: repeated ``repro.solve`` calls on one warm pool.

``mrg-proc`` runs MRG on a process pool over 5·10⁵ points; ``eim-thread``
runs EIM with the paper-default parameters on a thread pool over 5·10⁴
points.  Both follow the same plan:

1. **Set-up**, timed three times (median reported): generate the
   Gaussian mixture from the workload seed, build the space, open the
   pool and run one trivial task per worker so its workers exist.
2. **Reference**, untimed: ``greedy_lower_bound`` of the space.
3. **Measure**: whole passes over a fixed list of solver seeds derived
   from the workload seed, until the run's seconds are spent.  Every
   pass solves each seed once, so a run's mix of cheap and expensive
   seeds is the same whatever the host's speed.  In a traced run the
   passes alternate untraced and traced (``Tracer(detail="block")``);
   the layer figures come from the traced passes and the tracing
   overhead from the difference.
4. **Check**, untimed: every solve's radius equals ``covering_radius``
   of its centers bit for bit, its centers are distinct and in range,
   ``lb <= radius <= 2 * approx_factor * lb``, and each seed repeats its
   first pass's centers, radius and ``dist_evals``.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

import repro
import repro.store.shm as shm
from repro.core.assignment import covering_radius
from repro.core.bounds import greedy_lower_bound
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    ThreadPoolExecutorBackend,
)
from repro.obs import trace

from perfbench import arith, host
from perfbench.catalog import PER_LAYER, Outcome

WORKERS = 2
SETUPS = 5


@dataclass(frozen=True)
class BatchWorkload:
    algorithm: str
    n: int
    d: int
    k: int
    backend: type
    n_seeds: int
    options: dict = field(default_factory=dict)


WORKLOADS = {
    "mrg-proc": BatchWorkload(
        "mrg", n=500_000, d=8, k=50, backend=ProcessPoolExecutorBackend,
        n_seeds=4, options={"m": 50},
    ),
    "eim-thread": BatchWorkload(
        "eim", n=50_000, d=8, k=10, backend=ThreadPoolExecutorBackend,
        n_seeds=5, options={"m": 50},
    ),
}


def solver_seeds(seed: int, count: int) -> list[int]:
    """The run's fixed solver seeds, a pure function of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class _Solve:
    op: int
    seed: int
    wall: float
    result: object
    evals: int
    traced: bool
    layers: dict | None = None


@contextmanager
def _timed_publish(sink: list):
    """Time ``repro.store.shm.publish_points`` from outside the program."""
    original = shm.publish_points

    def timed(points):
        start = time.perf_counter()
        try:
            return original(points)
        finally:
            sink.append((time.perf_counter() - start, int(points.nbytes)))

    shm.publish_points = timed
    try:
        yield
    finally:
        shm.publish_points = original


def _setup(wl: BatchWorkload, seed: int):
    """One set-up: warm pool, inputs, space.  Returns its timings too.

    The pool opens first, so forked workers do not inherit (and count
    in their peak RSS) the driver's copy of the inputs.
    """
    start = time.perf_counter()
    backend = wl.backend(WORKERS)
    backend.open()
    backend.run([os.getpid] * (2 * WORKERS))
    opened = time.perf_counter()
    points = repro.gau(wl.n, dim=wl.d, seed=seed)
    space = repro.EuclideanSpace(points)
    return space, backend, time.perf_counter() - start, opened - start


def _solve_once(wl, space, backend, seed, tally, traced) -> _Solve | None:
    op = tally.attempt()
    tracer = trace.Tracer(detail=trace.DETAIL_BLOCK) if traced else None
    published: list = []
    before = space.counter.evals
    scope = trace.activate(tracer) if traced else nullcontext()
    patch = _timed_publish(published) if traced else nullcontext()
    try:
        with scope, patch:
            start = time.perf_counter()
            result = repro.solve(
                space, wl.k, wl.algorithm, seed=seed, executor=backend,
                **wl.options,
            )
            wall = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a failed solve is a result
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return None
    evals = space.counter.evals - before
    solve = _Solve(op, seed, wall, result, evals, traced)
    if traced:
        layers = arith.solve_layers(tracer.spans, result.eval_time, wall, WORKERS)
        blocks = [s for s in tracer.spans if s.cat == "block"]
        layers["bytes"] = arith.kernel_bytes(evals, blocks, wl.d)
        layers["publish_s"] = sum(t for t, _ in published)
        layers["published_bytes"] = sum(b for _, b in published)
        solve.layers = layers
    return solve


def _check(wl, space, solves, lower_bound, tally) -> dict[int, float]:
    """Untimed output checks; returns each seed's radius ratio."""
    first: dict[int, _Solve] = {}
    true_radius: dict[bytes, float] = {}
    for s in solves:
        r = s.result
        centers = np.asarray(r.centers)
        key = centers.tobytes()
        if key not in true_radius:
            true_radius[key] = covering_radius(space, centers)
        tally.check(s.op, r.radius == true_radius[key],
                    f"radius {r.radius!r} != covering_radius {true_radius[key]!r}")
        tally.check(
            s.op,
            len(np.unique(centers)) == len(centers) <= wl.k
            and bool(((centers >= 0) & (centers < space.n)).all()),
            "centers not distinct or out of range",
        )
        factor = r.approx_factor
        tally.check(
            s.op,
            factor is not None
            and lower_bound <= r.radius <= 2 * factor * lower_bound,
            f"radius {r.radius} outside [lb, 2*{factor}*lb] with lb={lower_bound}",
        )
        ref = first.setdefault(s.seed, s)
        tally.check(s.op, s.evals == ref.evals,
                    f"seed {s.seed}: dist_evals {s.evals} != first pass {ref.evals}")
        tally.check(
            s.op,
            r.radius == ref.result.radius
            and np.array_equal(centers, ref.result.centers),
            f"seed {s.seed}: result differs from its first pass",
        )
    return {seed: s.result.radius / lower_bound for seed, s in first.items()}


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    wl = WORKLOADS[name]
    # Started before any pool forks, so the workers share it instead of
    # each starting a tracker of their own that outlives them.
    resource_tracker.ensure_running()
    tally = arith.Tally()
    setups, pool_opens = [], []
    space = backend = None
    for _ in range(SETUPS):
        if backend is not None:
            backend.close()
            space = backend = None
        space, backend, setup_s, open_s = _setup(wl, seed)
        setups.append(setup_s)
        pool_opens.append(open_s)
    try:
        lower_bound = greedy_lower_bound(space, wl.k)
        seeds = solver_seeds(seed, wl.n_seeds)
        solves: list[_Solve] = []
        started = time.perf_counter()
        passes = None
        done = 0
        while passes is None or done < passes:
            trace_pass = traced and done % 2 == 1
            for s in seeds:
                out = _solve_once(wl, space, backend, s, tally, trace_pass)
                if out is not None:
                    solves.append(out)
            done += 1
            if passes is None:
                # Whole passes only, as many as fit the run's seconds,
                # and at least two, so every seed is checked for repeats
                # (and a traced run has an untraced and a traced pass).
                per_pass = time.perf_counter() - started
                passes = max(2, round(seconds / per_pass))
                if traced:
                    passes += passes % 2
        peak_rss = host.tree_peak_rss_mib(os.getpid())
    finally:
        backend.close()

    ratios = _check(wl, space, solves, lower_bound, tally)
    plain = [s.wall for s in solves if not s.traced]
    out = Outcome(tally)
    out.report.append(
        f"{name}: {wl.algorithm} n={wl.n} d={wl.d} k={wl.k} "
        f"{wl.backend.__name__}({WORKERS}) options={wl.options} "
        f"seeds={seeds} passes={done}"
    )
    if plain:
        out.report.append(
            f"solve_s_p50 = {statistics.median(plain):.6f} s "
            f"(n={len(plain)}; no tail percentile: fewer than "
            f"{arith.MIN_BEYOND} samples beyond p90)"
        )
    if not traced:
        out.metrics.update(
            setup_s=statistics.median(setups),
            latency_p50_ms=1e3 * statistics.median(plain) if plain else float("nan"),
            radius_ratio=statistics.fmean(ratios.values()) if ratios else float("nan"),
            peak_rss_mib=peak_rss,
        )
        out.notes.update(
            setup_s=f"median of {SETUPS} set-ups",
            latency_p50_ms=f"median repro.solve wall, n={len(plain)}",
            radius_ratio=f"mean over {len(ratios)} seeds",
            peak_rss_mib=f"driver + {WORKERS} workers, fresh process",
        )
        return out

    out.metrics.update(dict.fromkeys(PER_LAYER, 0.0))
    traced_solves = [s for s in solves if s.traced]
    if not traced_solves or not plain:
        return out

    def mean(key):
        return statistics.fmean(s.layers[key] for s in traced_solves)

    results = [s.result for s in solves]
    round_total = sum(s.layers["round_s"] for s in traced_solves)
    task_total = sum(s.layers["task_s"] for s in traced_solves)
    traced_p50 = statistics.median(s.wall for s in traced_solves)
    plain_p50 = statistics.median(plain)
    out.metrics.update({
        "kernels.dist_evals": statistics.fmean(s.evals for s in solves),
        "kernels.block_s": mean("block_s"),
        "kernels.bytes_computed": mean("bytes"),
        "core.rounds": statistics.fmean(r.n_rounds for r in results),
        "core.evaluate_s": mean("evaluate_s"),
        "core.driver_s": mean("driver_s"),
        "mapreduce.tasks": statistics.fmean(
            sum(rs.n_tasks for rs in r.stats.rounds) for r in results
        ),
        "mapreduce.round_s": mean("round_s"),
        "mapreduce.dispatch_s": mean("dispatch_s"),
        "mapreduce.slowest_task_s": mean("slowest_task_s"),
        "mapreduce.utilisation": (
            task_total / (round_total * WORKERS) if round_total else 0.0
        ),
        "mapreduce.retries": sum(r.stats.retries for r in results),
        "mapreduce.wasted_s": sum(r.stats.wasted_task_seconds for r in results),
        "mapreduce.pool_open_s": statistics.median(pool_opens),
        "store.publish_s": mean("publish_s"),
        "store.published_bytes": mean("published_bytes"),
        "solvers.facade_s": mean("facade_s"),
        "layers.unattributed_s": mean("unattributed_s"),
        "obs.overhead_frac": (traced_p50 - plain_p50) / plain_p50,
    })
    walls = statistics.fmean(s.wall for s in traced_solves)
    out.report.append(
        f"traced solve wall {walls:.6f} s = driver {mean('driver_s'):.6f} "
        f"+ dispatch {mean('dispatch_s'):.6f} + slowest task "
        f"{mean('slowest_task_s'):.6f} + evaluate {mean('evaluate_s'):.6f} "
        f"+ unattributed {mean('unattributed_s'):.6f} "
        f"(n={len(traced_solves)} traced, {len(plain)} untraced)"
    )
    return out
