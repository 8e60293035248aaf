"""The program's side of the benchmark interface (``perfbench/``).

``perfbench/run.py --trace 1`` splits every traced solve into layers
with ``perfbench.arith``; a run that cannot be split exits non-zero.
These tests drive the same calls at small sizes, so a change that
breaks the interface fails here, before any benchmark run:

* a traced solve carries exactly one ``cat="solve"`` span (a second one,
  e.g. a nested ``solve_many`` span, makes ``solve_layers`` raise);
* every block span carries integer ``rows``/``cols``
  (``kernel_bytes`` reads them);
* a served success line encodes and carries every key
  ``perfbench/serve_open.py`` reads.

``perfbench`` is only read here, never changed.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import repro
from perfbench import arith
from repro.mapreduce.accounting import BatchSummary
from repro.mapreduce.executor import ProcessPoolExecutorBackend
from repro.obs import trace
from repro.serve.protocol import encode, ok_response


def _traced_solve(space, k, algorithm, **kwargs):
    """One ``repro.solve`` under a block-detail tracer, the way perfbench
    runs it; returns (result, evals, wall, spans)."""
    tracer = trace.Tracer(detail=trace.DETAIL_BLOCK)
    before = space.counter.evals
    with trace.activate(tracer):
        start = time.perf_counter()
        result = repro.solve(space, k, algorithm, **kwargs)
        wall = time.perf_counter() - start
    return result, space.counter.evals - before, wall, list(tracer.spans)


def _check_layers(result, evals, wall, spans, d, workers):
    solves = [s for s in spans if s.cat == "solve"]
    assert len(solves) == 1, [s.name for s in solves]
    blocks = [s for s in spans if s.cat == "block"]
    for block in blocks:
        assert type(block.args["rows"]) is int, block
        assert type(block.args["cols"]) is int, block
    layers = arith.solve_layers(spans, result.eval_time, wall, workers)
    assert all(math.isfinite(value) for value in layers.values()), layers
    assert arith.kernel_bytes(evals, blocks, d) > 0
    return layers, blocks


def test_traced_mrg_on_a_process_pool_splits_into_layers():
    workers = 2
    space = repro.EuclideanSpace(repro.gau(4000, dim=4, seed=1))
    backend = ProcessPoolExecutorBackend(workers)
    try:
        result, evals, wall, spans = _traced_solve(
            space, 6, "mrg", seed=3, m=4, executor=backend
        )
    finally:
        backend.close()
    layers, _ = _check_layers(result, evals, wall, spans, 4, workers)
    assert any(s.cat == "round" for s in spans)
    assert layers["round_s"] > 0


def test_traced_gon_on_the_serve_shape_splits_into_layers():
    space = repro.EuclideanSpace(repro.gau(256, dim=8, seed=2))
    result, evals, wall, spans = _traced_solve(space, 8, "gon", seed=5)
    _check_layers(result, evals, wall, spans, 8, 1)
    assert evals > 0


def test_success_line_carries_what_serve_open_reads():
    space = repro.EuclideanSpace(repro.gau(256, dim=8, seed=4))
    result = repro.solve(space, 8, "gon", seed=0)
    evals = int(space.counter.evals)
    line = encode(
        ok_response(
            "r1",
            result,
            BatchSummary(runs=1, dist_evals=evals),
            queue_ms=0.0,
            solve_ms=0.0,
            batch_runs=1,
        )
    )
    assert line.endswith(b"\n")
    response = json.loads(line)
    accounting = response["accounting"]
    assert accounting["summary"]["dist_evals"] == evals
    assert accounting["queue_ms"] == 0.0
    assert accounting["solve_ms"] == 0.0
    assert accounting["batch_runs"] == 1
    assert response["result"]["eval_time"] == result.eval_time
    assert response["result"]["approx_factor"] == result.approx_factor
    assert np.array_equal(response["result"]["centers"], result.centers)
