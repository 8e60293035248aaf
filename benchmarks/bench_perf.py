"""Perf harness — the machine-readable trajectory of the execution engine.

Times the canonical figure-style workloads on every executor backend and
writes ``BENCH_9.json`` into ``benchmarks/output/`` (or the directory
given by ``--bench-out``; committed files are never overwritten):
wall-clock, distance
evaluations, peak RSS and per-round parallel/cpu time for each
(workload, executor) cell.  Future PRs append ``BENCH_<n>.json`` files
and get a trajectory to beat; ``benchmarks/baseline/BENCH_ref.json``
holds the committed PR-over-PR reference that CI diffs against.

The ``mrg-obs`` cells run the same MRG workload with full observability
on — an activated tracer plus the enabled metrics registry — and must
stay bit-identical to the plain cells; ``test_obs_overhead_gate``
bounds the instrumentation overhead through the ``bench_diff`` wall
gate.

Workloads (sizes capped by ``REPRO_BENCH_MAX_N`` for the CI smoke):

* ``gon`` — a 3-seed Gonzalez batch at n=2·10^5 fanned out through
  ``solve_many`` (the executor parallelises across *runs*);
* ``mrg`` / ``mrhs`` — the MapReduce solvers, where the executor runs
  the *reducer tasks* of every round, each over an in-memory space
  (process backends attach its published shared-memory block) and over
  the sharded on-disk layout (workers re-open their shard files);
* ``eim`` — the iterative-sampling solver over the in-memory space,
  with options that keep its loop threshold below the smoke sizes so
  the sampling rounds (not the GON fallback) are what gets timed.
  Since the TaskSpec refactor its rounds are module-level tasks, so the
  process cells exercise the same shared-memory transport as ``mrg``.

Shape claims asserted (the engine contract, CI-enforced):

* every cell — persistent pools, shared-memory transport, workspace
  kernels, batched counters — reproduces **bit-identical** centers,
  radius and dist_evals against the sequential in-memory reference.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time

import numpy as np

import repro
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.metric.euclidean import EuclideanSpace
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.store import ChunkedMetricSpace, GeneratorStream, write_shards

BENCH_NAME = "BENCH_9.json"

K = 10
DIM = 3
N_GON = 200_000
N_MR = 120_000
N_MRHS = 30_000  # HS materialises O((n/m)^2) per shard; keep shards modest
M_MR = 16
SHARDS = 4

#: EIM options for the bench cells: pull the iterative loop's threshold
#: below the (capped) instance so the sampling rounds run instead of the
#: small-input GON fallback.
EIM_OPTS = {"eps": 0.3, "threshold_coeff": 0.05}

_cap = int(os.environ.get("REPRO_BENCH_MAX_N", "0"))
if _cap:
    N_GON = min(N_GON, _cap)
    N_MR = min(N_MR, _cap)
    N_MRHS = min(N_MRHS, _cap)

#: Generation/chunk granularity scales with the instance so the capped
#: smoke still crosses chunk boundaries.
CHUNK = max(256, min(8_192, N_MR // 8))

EXECUTORS = {
    "sequential": lambda: SequentialExecutor(),
    "thread": lambda: ThreadPoolExecutorBackend(max_workers=4),
    "process": lambda: ProcessPoolExecutorBackend(max_workers=2),
}


def _peak_rss_kb() -> int:
    """Peak RSS of driver + reaped children so far, in KiB (monotone)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(self_kb, child_kb))


def _round_rows(stats) -> list[dict]:
    if stats is None:
        return []
    return [
        {
            "label": r.label,
            "tasks": r.n_tasks,
            "parallel_s": r.parallel_time,
            "cpu_s": r.cpu_time,
            "dist_evals": r.dist_evals,
        }
        for r in stats.rounds
    ]


def _fingerprint(result) -> tuple:
    """What bit-parity means for one run: centers, radius, op count."""
    evals = result.stats.dist_evals if result.stats is not None else None
    return (result.centers.tolist(), result.radius, evals)


def _run_gon(space, executor):
    """A 3-seed GON batch through solve_many; returns (record, parity key)."""
    t0 = time.perf_counter()
    batch = repro.solve_many(space, K, "gon", seeds=(0, 1, 2), executor=executor)
    wall = time.perf_counter() - t0
    record = {
        "wall_s": wall,
        "dist_evals": batch.summary.dist_evals,
        "radius": max(r.radius for r in batch.values()),
        "batch": batch.summary.summary(),
        "rounds": [],
    }
    per_run = tuple(
        (key.seed, *_fingerprint(result)) for key, result in sorted(batch.items())
    )
    # GON runs carry no round stats; the batch-total evaluation count is
    # the operation-count side of the parity claim for this workload.
    return record, (batch.summary.dist_evals, per_run)


def _run_mr(algorithm, **opts):
    def run(space, executor):
        t0 = time.perf_counter()
        result = repro.solve(
            space, K, algorithm, m=M_MR, seed=0, executor=executor, **opts
        )
        wall = time.perf_counter() - t0
        record = {
            "wall_s": wall,
            "dist_evals": result.stats.dist_evals,
            "radius": result.radius,
            "rounds": _round_rows(result.stats),
        }
        return record, _fingerprint(result)

    return run


def _run_mr_obs(algorithm):
    """The same MR workload with the full observability stack enabled."""
    inner = _run_mr(algorithm)

    def run(space, executor):
        tracer = obs_trace.Tracer()
        with obs_metrics.capture(), obs_trace.activate(tracer):
            record, parity = inner(space, executor)
        record["spans"] = len(tracer.spans)
        return record, parity

    return run


def test_perf_trajectory(artifact_dir, bench_out, tmp_path_factory):
    """Time every (workload, executor) cell; enforce bit-parity; write
    ``BENCH_9.json``."""
    tmp = tmp_path_factory.mktemp("perf")
    rng = np.random.default_rng(2016)
    gon_points = rng.normal(size=(N_GON, DIM))

    mr_gen = GeneratorStream(
        "gau", N_MR, seed=5, chunk_size=CHUNK, gen_block=CHUNK, k_prime=10
    )
    mr_path = mr_gen.to_npy(tmp / "mr.npy")
    mr_points = np.load(mr_path)
    mr_shards = write_shards(mr_gen, tmp / "mr-shards", shards=SHARDS)

    mrhs_gen = GeneratorStream(
        "gau",
        N_MRHS,
        seed=7,
        chunk_size=max(256, min(CHUNK, N_MRHS // 4)),
        gen_block=max(256, min(CHUNK, N_MRHS // 4)),
        k_prime=10,
    )
    mrhs_path = mrhs_gen.to_npy(tmp / "mrhs.npy")
    mrhs_points = np.load(mrhs_path)
    mrhs_shards = write_shards(mrhs_gen, tmp / "mrhs-shards", shards=SHARDS)

    workloads = [
        # (name, backing, n, make_space, runner)
        ("gon", "in-memory", N_GON, lambda: EuclideanSpace(gon_points), _run_gon),
        ("mrg", "in-memory", N_MR, lambda: EuclideanSpace(mr_points), _run_mr("mrg")),
        (
            "mrg-obs",
            "in-memory",
            N_MR,
            lambda: EuclideanSpace(mr_points),
            _run_mr_obs("mrg"),
        ),
        ("mrg", "sharded", N_MR, lambda: ChunkedMetricSpace(mr_shards), _run_mr("mrg")),
        (
            "eim",
            "in-memory",
            N_MR,
            lambda: EuclideanSpace(mr_points),
            _run_mr("eim", **EIM_OPTS),
        ),
        (
            "mrhs",
            "in-memory",
            N_MRHS,
            lambda: EuclideanSpace(mrhs_points),
            _run_mr("mrhs"),
        ),
        (
            "mrhs",
            "sharded",
            N_MRHS,
            lambda: ChunkedMetricSpace(mrhs_shards),
            _run_mr("mrhs"),
        ),
    ]

    records: list[dict] = []
    references: dict[str, tuple] = {}
    for name, backing, n, make_space, runner in workloads:
        for exec_name, make_executor in EXECUTORS.items():
            executor = make_executor()
            try:
                record, parity = runner(make_space(), executor)
            finally:
                if hasattr(executor, "close"):
                    executor.close()
            record.update(
                workload=name,
                backing=backing,
                executor=exec_name,
                n=n,
                d=DIM,
                k=K,
                m=M_MR if name != "gon" else None,
                peak_rss_kb=_peak_rss_kb(),
            )
            records.append(record)
            # The engine contract: the sequential in-memory cell is the
            # reference; every other (executor, backing) combination of
            # the same workload must reproduce its exact bits — the
            # obs-on cells included (tracing must be result-neutral).
            base = name.removesuffix("-obs")
            if name == base and backing == "in-memory" and exec_name == "sequential":
                references[name] = parity
            else:
                assert parity == references[base], (
                    f"{name}[{backing}/{exec_name}] diverged from the "
                    "sequential in-memory reference"
                )

    payload = {
        "bench": 9,
        "schema": "repro-perf-v1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cap": _cap or None,
        "executors": sorted(EXECUTORS),
        "records": records,
    }
    bench_path = bench_out / BENCH_NAME
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[perf trajectory: {bench_path} — {len(records)} cells]")

    from benchmarks.conftest import write_artifact
    from repro.utils.tables import format_table

    rows = [
        [
            f"{r['workload']}[{r['backing']}]",
            r["executor"],
            r["n"],
            r["wall_s"],
            r["dist_evals"],
            r["peak_rss_kb"] / 1024,
        ]
        for r in records
    ]
    write_artifact(
        artifact_dir,
        "perf",
        format_table(
            ["workload", "executor", "n", "wall (s)", "dist evals", "peak RSS (MiB)"],
            rows,
            title="execution-engine perf trajectory (BENCH_9)",
        ),
    )


def test_obs_overhead_gate():
    """Full observability must cost <3% wall on the MRG workload.

    Runs the same in-memory MRG solve with observability off and on
    (activated tracer + enabled metrics registry), min-of-5 each, and
    pushes the pair through the ``bench_diff`` wall gate at 1.03x —
    the exact comparison CI applies across trajectory files.  Timings
    are floored at 250ms before the ratio: below that, smoke-size runs
    are scheduler noise and a 3% relative gate would be vacuous flake
    (the uncapped bench run is where the floor never engages).
    """
    from benchmarks.bench_diff import diff_cells

    n = min(20_000, N_MR)
    points = np.random.default_rng(13).normal(size=(n, DIM))
    floor = 0.25

    def timed(obs: bool) -> tuple[float, tuple]:
        best, parity = float("inf"), None
        runner = (_run_mr_obs if obs else _run_mr)("mrg")
        for _ in range(5):
            record, parity = runner(EuclideanSpace(points), SequentialExecutor())
            best = min(best, record["wall_s"])
        return best, parity

    wall_off, parity_off = timed(obs=False)
    wall_on, parity_on = timed(obs=True)
    assert parity_on == parity_off, "observability perturbed the result"

    cell_key = ("mrg", "in-memory", "sequential", n, K, M_MR)
    cell = dict(zip(("workload", "backing", "executor", "n", "k", "m"), cell_key))
    off = {cell_key: {**cell, "wall_s": max(wall_off, floor)}}
    on = {cell_key: {**cell, "wall_s": max(wall_on, floor)}}
    lines, failures = diff_cells(off, on, wall_tol=1.03)
    assert not failures, (
        f"obs overhead above 3%: off={wall_off:.4f}s on={wall_on:.4f}s "
        f"({failures})"
    )
    print(f"\n[obs overhead: off={wall_off:.4f}s on={wall_on:.4f}s "
          f"({wall_on / wall_off - 1:+.2%})]")
