"""What one run reports: every metric's name and unit, and the record
a workload hands back to ``run.py``.

``BENCHMARK.json`` lists the same names; ``test_perfbench_arith.py``
checks that the two agree.  A layer metric that is not on a workload's
path (``serve.*`` on the batch workloads, ``mapreduce.*`` on the served
stream) reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.arith import Tally


@dataclass
class Outcome:
    """One run of one workload.

    ``metrics`` maps a catalogue name to its value; ``notes`` holds the
    sample count or derivation printed beside it.  ``report`` carries
    extra human-readable lines (figures the JSON line does not hold,
    such as ``error_rate`` and the batch workloads' ``solve_s_p50``).
    ``invalid`` is set when the run measured the harness rather than the
    program (the load generator fell behind its schedule).
    """

    tally: Tally
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    invalid: str | None = None

#: Reported by the untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "radius_ratio": "ratio",
    "peak_rss_mib": "MiB",
}

#: Reported by the traced run (``--trace 1``), per solve or request.
PER_LAYER = {
    "kernels.dist_evals": "count",
    "kernels.block_s": "s",
    "kernels.bytes_computed": "bytes",
    "core.rounds": "count",
    "core.evaluate_s": "s",
    "core.driver_s": "s",
    "mapreduce.tasks": "count",
    "mapreduce.round_s": "s",
    "mapreduce.dispatch_s": "s",
    "mapreduce.slowest_task_s": "s",
    "mapreduce.utilisation": "ratio",
    "mapreduce.retries": "count",
    "mapreduce.wasted_s": "s",
    "mapreduce.pool_open_s": "s",
    "store.publish_s": "s",
    "store.published_bytes": "bytes",
    "solvers.facade_s": "s",
    "layers.unattributed_s": "s",
    "serve.latency_p99_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.solve_ms": "ms",
    "serve.batch_runs": "count",
    "serve.wire_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.request_bytes": "bytes",
    "gen.lag_p99_ms": "ms",
    "obs.overhead_frac": "ratio",
}
