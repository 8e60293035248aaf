"""Ablation A5 — distance-kernel micro-benchmarks (the HPC guide's
"measure, don't guess").

Times the three hot kernels at experiment-realistic shapes and sweeps the
chunk-size budget to document why DEFAULT_BLOCK_BYTES is a sane default
(cache effects: too-small blocks pay per-block call overhead, blocks
past the per-core L2 stream every elementwise pass through L3, and
large GEMMs start OpenBLAS threads that oversubscribe pool workers).
"""

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.data import gau
from repro.metric import kernels
from repro.utils.chunking import DEFAULT_BLOCK_BYTES
from repro.utils.timing import timed
from repro.utils.tables import format_table

RNG = np.random.default_rng(0)
X = RNG.normal(size=(100_000, 3))
Y = RNG.normal(size=(2_000, 3))
CURRENT = np.full(len(X), np.inf)

#: The MapReduce evaluate pass: every point of a GAU mixture against
#: k = 50 centers drawn from the points themselves (so near-zero
#: distances take the refine path), in d = 8, as in the ``mrg-proc``
#: benchmark workload.
EVAL_X = gau(200_000, dim=8, seed=0)
EVAL_Y = EVAL_X[RNG.choice(len(EVAL_X), 50, replace=False)]

SWEEP = (2**16, 2**18, 2**19, 2**20, 2**23, 2**25, 2**27)


def test_dists_to_point(benchmark):
    """GON's inner loop: one fused pass over all points."""
    benchmark(kernels.dists_to_point, X, Y[0])


def test_update_min_dists_default_blocks(benchmark):
    """EIM Round 3's inner loop at a realistic (100k x 2k) shape."""
    benchmark(lambda: kernels.update_min_dists(CURRENT.copy(), X, Y))


def test_pairwise_small_block(benchmark):
    """EIM Select's H-by-S distances (small dense block)."""
    benchmark(kernels.pairwise_dists, Y[:200], Y)


def _best_of(x, y, block_bytes, repeats=3):
    return min(
        timed(
            kernels.update_min_dists, np.full(len(x), np.inf), x, y,
            block_bytes=block_bytes,
        )[1]
        for _ in range(repeats)
    )


def test_chunk_size_sweep(artifact_dir):
    assert DEFAULT_BLOCK_BYTES in SWEEP
    shapes = {"100k x 2k x 3": (X, Y), "200k x 50 x 8 (evaluate)": (EVAL_X, EVAL_Y)}
    times = {name: {} for name in shapes}
    rows = []
    for block_bytes in SWEEP:
        row = [f"{block_bytes // 1024} KiB"]
        for name, (x, y) in shapes.items():
            seconds = _best_of(x, y, block_bytes)
            times[name][block_bytes] = seconds
            row.append(f"{seconds * 1e3:.1f} ms")
        rows.append(row)
    text = format_table(
        ["block budget", *(f"update_min_dists({name})" for name in shapes)],
        rows,
        title="A5: chunk-size sweep for the running-min kernel",
    )
    write_artifact(artifact_dir, "kernels_chunk_sweep", text)

    # The default budget must not be badly off the best on either shape.
    for name, by_budget in times.items():
        best = min(by_budget.values())
        assert by_budget[DEFAULT_BLOCK_BYTES] <= 5.0 * best, name
