"""The column-major Gonzalez traversal against the row-major ``einsum`` one.

:func:`~repro.metric.kernels.column_traversal` is a fast path with a
bit-for-bit contract: every center, selection radius and final distance
must equal what the row-major step (:func:`dists_to_point`, the slow and
readable reference) produces.  These tests sweep the dimensions and the
row-block boundaries, throw adversarial clouds at it, check the distances
against an exactly rounded per-row sum, and force the run-time probe to
fail to show the fallback keeps the bits.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gonzalez import gonzalez_trace
from repro.metric import kernels
from repro.metric.base import MetricSpace
from repro.metric.euclidean import EuclideanSpace
from repro.obs import trace
from repro.store.space import ChunkedMetricSpace

_spec = importlib.util.spec_from_file_location(
    "regenerate_bits", pathlib.Path(__file__).parent / "golden" / "regenerate_bits.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def threshold(d: int) -> int:
    return kernels.COLUMN_ROWS_PER_DIM2 * d * d


def _column_major(self, cols):
    if kernels.column_fold_exact(self.dim):
        return kernels.column_traversal(self.points, cols, self.counter)
    return MetricSpace.traversal(self, cols)


def runs_column_major(space, cols: int = 4) -> bool:
    with mock.patch.object(kernels, "column_traversal", wraps=kernels.column_traversal) as spy:
        space.traversal(cols)
    return spy.called


def both_paths(x: np.ndarray, k: int, first: int):
    """(fast, reference) traces of one traversal: column-major wherever the
    probe allows (whatever the size), and always row-major."""
    space = EuclideanSpace(x)
    with mock.patch.object(EuclideanSpace, "traversal", _column_major):
        fast = gonzalez_trace(space, k, first_center=first)
        fast_evals = space.counter.evals
    with mock.patch.object(EuclideanSpace, "traversal", MetricSpace.traversal):
        ref = gonzalez_trace(space, k, first_center=first)
    assert space.counter.evals == 2 * fast_evals
    return fast, ref


def assert_same_bits(fast, ref):
    np.testing.assert_array_equal(fast.centers, ref.centers)
    for a, b in ((fast.selection_radii, ref.selection_radii), (fast.final_dists, ref.final_dists)):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def block_rows(d: int) -> int:
    return kernels.COLUMN_BLOCK_BYTES // (8 * d)


@pytest.mark.parametrize("d", range(1, 17))
def test_sweep_d_and_block_boundaries(d):
    rng = np.random.default_rng(d)
    block = block_rows(d)
    for n in (threshold(d), threshold(d) + 1, block - 1, block + 1, 3 * block + 7):
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        assert_same_bits(*both_paths(x, 5, first=n // 2))


@pytest.mark.parametrize(
    "n,d,fast",
    [
        (256, 8, False),  # serve's shape stays on einsum
        (10_000, 8, True),  # an MRG reducer on mrg-proc
        (2_500, 8, True),  # MRG's final round there
        (threshold(3) - 1, 3, False),
        (threshold(3), 3, True),
        (10**5, 1, False),  # nothing to fold at d = 1
    ],
)
def test_which_shapes_run_column_major(n, d, fast):
    space = EuclideanSpace(np.zeros((n, d)))
    assert runs_column_major(space) == (fast and kernels.column_fold_exact(d))


def test_probe_enables_every_d_on_the_recorded_build():
    mismatch = regen.build_mismatch(json.loads(regen.MANIFEST.read_text()))
    if mismatch:
        pytest.skip(f"the fold order is pinned only on the recorded build: {mismatch}")
    # A numpy upgrade that reorders einsum must fail here, not quietly
    # send every traversal back to the slow path.
    assert [d for d in range(1, 17) if not kernels.column_fold_exact(d)] == []


def _cloud(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "duplicates":
        base = rng.normal(size=(int(rng.integers(1, 4)), d))
        return base[rng.integers(len(base), size=n)]
    if kind == "near-dup-far":
        base = rng.normal(size=(3, d))
        return 1e8 + base[rng.integers(3, size=n)] + 1e-9 * rng.normal(size=(n, d))
    if kind == "subnormal":
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-165, -150, size=(n, 1))
        x[::3] = rng.normal(size=(len(x[::3]), d)) * 1e-310
        return x
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


def _fsum_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-row distance to the nearest center, each sum exactly rounded."""
    return np.array(
        [
            min(math.sqrt(math.fsum((row - x[c]) * (row - x[c]))) for c in centers)
            for row in x
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["duplicates", "near-dup-far", "subnormal", "mixed"]),
    n=st.integers(1, 60),
    d=st.integers(1, 8),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_adversarial_clouds_keep_the_bits(kind, n, d, k, seed):
    x = _cloud(kind, n, d, seed)
    fast, ref = both_paths(x, k, first=seed % n)
    assert_same_bits(fast, ref)
    # Few-ulp agreement with an exactly rounded sum of the same squares.
    want = _fsum_dists(x, fast.centers)
    assert np.all(np.abs(fast.final_dists - want) <= 4 * np.spacing(want))


def _front_to_back(d: int) -> tuple[int, ...]:
    return tuple(range(0, d, 2))


def test_probe_mismatch_falls_back_to_einsum(monkeypatch):
    x = np.random.default_rng(5).normal(size=(threshold(8) + 100, 8)) + 1e8
    space = EuclideanSpace(x)
    want = gonzalez_trace(space, 6, first_center=0)
    monkeypatch.setattr(kernels, "_FOLD_EXACT", {})
    monkeypatch.setattr(kernels, "_pair_order", _front_to_back)
    assert not kernels.column_fold_exact(8)
    assert not runs_column_major(space, 6)
    assert_same_bits(gonzalez_trace(space, 6, first_center=0), want)


def _block_spans(space, k):
    tracer = trace.Tracer(detail=trace.DETAIL_BLOCK)
    with trace.activate(tracer):
        gonzalez_trace(space, k, first_center=0)
    return [s for s in tracer.spans if s.cat == "block"]


def test_one_block_span_per_fast_traversal_and_none_on_einsum():
    x = np.random.default_rng(6).normal(size=(threshold(8), 8))
    spans = _block_spans(EuclideanSpace(x), 9)
    if kernels.column_fold_exact(8):
        assert [(s.name, s.args) for s in spans] == [
            ("kernels.gonzalez", {"rows": threshold(8), "cols": 9})
        ]
    assert _block_spans(EuclideanSpace(x[:256]), 8) == []


def test_other_spaces_keep_the_row_major_step():
    x = np.random.default_rng(7).normal(size=(threshold(3), 3))
    chunked = ChunkedMetricSpace(x)
    assert not runs_column_major(chunked)
    assert_same_bits(
        gonzalez_trace(chunked, 4, first_center=1),
        gonzalez_trace(EuclideanSpace(x), 4, first_center=1),
    )


def test_no_probe_at_import_or_on_small_solves():
    code = (
        "import numpy as np, repro\n"
        "from repro.metric import kernels\n"
        "assert kernels._FOLD_EXACT == {}\n"
        "repro.solve(np.random.default_rng(0).normal(size=(256, 8)), 8, 'gon', seed=0)\n"
        "assert kernels._FOLD_EXACT == {}\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
