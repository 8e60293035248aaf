"""Serving-layer load bench — latency/throughput trajectory of repro.serve.

Boots a real :class:`~repro.serve.server.ServerHandle` (TCP, thread-pool
backend) and drives it with the serving workload: **thousands of small concurrent solve requests plus a few large
ones**, from concurrent client threads.  Writes ``BENCH_6.json`` into
``benchmarks/output/`` (or the directory given by ``--bench-out``):
request counts, wall time, throughput, p50/p99 latency per phase, plus
the server's own accounting counters.

Contracts asserted (CI-enforced):

* **zero dropped-but-unreported requests** — every request the clients
  sent got exactly one response, and the server's counters balance:
  ``received == answered + rejected + failed + abandoned`` with nothing
  failed or silently lost;
* **coalescing works** — the small-burst phase coalesces requests over
  the repeated space into multi-run batches;
* **large solves stay bit-exact** — the big requests' served results
  must equal the direct in-process ``repro.solve()`` bits.

Sizes are capped by ``REPRO_BENCH_MAX_N`` for the CI smoke.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time

import numpy as np

import repro
from repro.serve import ServeConfig, ServerHandle

BENCH_NAME = "BENCH_6.json"

N_SMALL = 256  # points per small request's space
N_LARGE = 20_000  # points per large request
K_SMALL = 8
K_LARGE = 25
N_REQUESTS = 2_000  # small solves in the burst
N_LARGE_REQUESTS = 3
WORKERS = 8  # concurrent client threads

_cap = int(os.environ.get("REPRO_BENCH_MAX_N", "0"))
if _cap:
    N_SMALL = min(N_SMALL, max(64, _cap))
    N_LARGE = min(N_LARGE, _cap)
    N_REQUESTS = min(N_REQUESTS, max(64, _cap // 10))


def _percentiles(latencies_ms: list[float]) -> dict:
    arr = np.asarray(latencies_ms)
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "max_ms": float(arr.max()),
        "mean_ms": float(arr.mean()),
    }


def test_serve_load(artifact_dir, bench_out):
    rng = np.random.default_rng(2016)
    small_rows = rng.normal(size=(N_SMALL, 3))
    large_rows = rng.normal(size=(N_LARGE, 3))

    config = ServeConfig(
        backend="thread",
        pool_size=4,
        max_queue=4 * N_REQUESTS,  # the burst must never be load-shed here
        max_inflight=4,
        max_points=max(N_LARGE, N_SMALL),
        batch_window=0.002,
    )

    records: list[dict] = []
    with ServerHandle(config) as handle:
        # ------------------------------------------------------------ #
        # phase 1: the small burst — N_REQUESTS solves over one hot
        # space from WORKERS concurrent clients, coalescing on.
        # ------------------------------------------------------------ #
        latencies_ms: list[float] = []
        responses: list[dict] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        counter = iter(range(N_REQUESTS))

        def small_worker() -> None:
            try:
                with handle.client() as client:
                    while True:
                        with lock:
                            i = next(counter, None)
                        if i is None:
                            return
                        t0 = time.perf_counter()
                        resp = client.solve(
                            "gon",
                            K_SMALL,
                            points=small_rows,
                            seed=i % 17,
                            raise_on_error=False,
                        )
                        ms = (time.perf_counter() - t0) * 1e3
                        with lock:
                            latencies_ms.append(ms)
                            responses.append(resp)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    failures.append(exc)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=small_worker) for _ in range(WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        small_wall = time.perf_counter() - t0

        assert not failures, failures[:1]
        # Zero dropped-but-unreported: every request has a response.
        assert len(responses) == N_REQUESTS
        assert all(r.get("ok") for r in responses), next(
            r for r in responses if not r.get("ok")
        )
        records.append(
            {
                "phase": "small-burst",
                "algo": "gon",
                "n": N_SMALL,
                "k": K_SMALL,
                "requests": N_REQUESTS,
                "workers": WORKERS,
                "wall_s": small_wall,
                "throughput_rps": N_REQUESTS / small_wall,
                **_percentiles(latencies_ms),
            }
        )

        # ------------------------------------------------------------ #
        # phase 2: a few large solves, checked bit-for-bit against
        # direct in-process solves.
        # ------------------------------------------------------------ #
        large_latencies: list[float] = []
        with handle.client() as client:
            for i in range(N_LARGE_REQUESTS):
                t0 = time.perf_counter()
                resp = client.solve(
                    "mrg",
                    K_LARGE,
                    points=large_rows,
                    seed=i,
                    options={"m": 8},
                )
                large_latencies.append((time.perf_counter() - t0) * 1e3)
                direct = repro.solve(large_rows, K_LARGE, "mrg", seed=i, m=8)
                assert resp["result"]["centers"] == [
                    int(c) for c in direct.centers
                ], f"large solve {i} diverged from the direct bits"
                assert resp["result"]["radius"] == direct.radius
                assert resp["result"]["dist_evals"] == direct.stats.dist_evals
            stats = client.stats()
        records.append(
            {
                "phase": "large-solves",
                "algo": "mrg",
                "n": N_LARGE,
                "k": K_LARGE,
                "requests": N_LARGE_REQUESTS,
                "workers": 1,
                "wall_s": sum(large_latencies) / 1e3,
                "throughput_rps": N_LARGE_REQUESTS
                / (sum(large_latencies) / 1e3),
                **_percentiles(large_latencies),
            }
        )

    # ---------------------------------------------------------------- #
    # the server's books must balance: nothing dropped unreported
    # ---------------------------------------------------------------- #
    total = N_REQUESTS + N_LARGE_REQUESTS
    assert stats["received"] == total
    assert stats["answered"] == total
    assert stats["failed"] == 0
    assert stats["rejected"] == 0
    assert stats["abandoned"] == 0
    assert (
        stats["received"]
        == stats["answered"]
        + stats["rejected"]
        + stats["failed"]
        + stats["abandoned"]
    )
    # Coalescing: the burst over one hot space shares batches.
    assert stats["batches"] < total, "no coalescing happened at all"
    assert stats["coalesced_requests"] > 0

    payload = {
        "bench": 6,
        "schema": "repro-serve-v1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cap": _cap or None,
        "config": {
            "backend": config.backend,
            "pool_size": config.pool_size,
            "max_inflight": config.max_inflight,
            "batch_window": config.batch_window,
        },
        "records": records,
        "server_stats": stats,
    }
    bench_path = bench_out / BENCH_NAME
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[serve trajectory: {bench_path} — {len(records)} phases]")

    from benchmarks.conftest import write_artifact
    from repro.utils.tables import format_table

    rows = [
        [
            r["phase"],
            r["requests"],
            r["workers"],
            r["wall_s"],
            r["throughput_rps"],
            r["p50_ms"],
            r["p99_ms"],
        ]
        for r in records
    ]
    write_artifact(
        artifact_dir,
        "serve",
        format_table(
            ["phase", "requests", "workers", "wall (s)", "req/s", "p50 (ms)",
             "p99 (ms)"],
            rows,
            title="serving-layer load bench (BENCH_6)",
        ),
    )
