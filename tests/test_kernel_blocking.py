"""Bit-level blocking invariance of the distance kernels (hypothesis).

The fused covering kernel (:func:`repro.metric.kernels.update_min_dists`)
reduces each block to its row minima first and refines only the rows
that can hold a cancellation-dominated entry.  It must give exactly the
bits of the slow, readable path — ``sq_dists_block(x, y).min(axis=1)``,
whose per-entry refinement is unchanged — for any block budget, any row
split and any backing.  Every comparison here is ``np.array_equal`` or
``==``, never a tolerance.

Inputs are drawn to hit the hard cases: centers taken from the points
(zero distances), 1e8-scale offsets (every row takes the refine path),
magnitudes near 1e±150, and 1e-160 coordinates whose products are
subnormal (where scaling by a power of two stops being exact).  Block
budgets run from below the 16-row minimum (so blocks are 16 rows and a
trailing chunk can be a single row) to many times the data.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.assignment import covering_radius, evaluate_on
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.executor import SequentialExecutor
from repro.metric import kernels
from repro.metric.euclidean import EuclideanSpace
from repro.store import ArrayStream, ChunkedMetricSpace

#: Coordinate scales: plain, far from the origin (refine path), near the
#: over/underflow limits of the squared norms, and subnormal products.
#: "mixed" puts the points in a wide cloud far from the origin and some
#: centers near it, so rows sit between CANCEL_RTOL*(|x|^2 + min |y|^2)
#: and CANCEL_RTOL*(|x|^2 + max |y|^2): only a row cut taken at the
#: largest center norm finds their cancellation-dominated entries.
SCALES = (1.0, 1e8, 1e150, 1e-150, 1e-160, "mixed")

block_budgets = st.one_of(
    st.integers(1, 2048),  # below 16 rows x 8 bytes x cols: 16-row blocks
    st.integers(2048, 2**20),
)


def _place(u, scale, near_origin=False):
    if scale == "mixed":
        return u if near_origin else 1e4 + 12.0 * u
    if scale == 1e8:
        # Far from the origin, tightly clustered: cancellation everywhere.
        return scale + u
    return u * scale


@st.composite
def point_sets(draw, max_n=70, max_d=6, max_k=12):
    """``(x, y)`` with ``y`` partly drawn from ``x`` and ``len(y) >= 2``."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    scale = draw(st.sampled_from(SCALES))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=64)
    x = _place(draw(arrays(np.float64, (n, d), elements=unit)), scale)
    picks = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=max_k))
    extra = draw(arrays(np.float64, (draw(st.integers(0, max_k)), d), elements=unit))
    y = np.concatenate([x[picks], _place(extra, scale, near_origin=True)])
    if len(y) < 2:
        y = np.concatenate([y, x[:1], x[-1:]])
    return x, y


def block_reference(x, y):
    """The readable path: dense block, per-entry refinement, row min."""
    return np.sqrt(kernels.sq_dists_block(x, y).min(axis=1))


@settings(max_examples=150, deadline=None)
@given(point_sets(), block_budgets)
@example((np.full((17, 3), 1e-160), np.full((2, 3), -1e-160)), 1)
@example((1e8 + np.arange(34.0).reshape(17, 2), 1e8 + np.eye(2)), 1)
def test_fused_min_dists_equal_block_reference(xy, block_bytes):
    x, y = xy
    ref = block_reference(x, y)
    assert np.array_equal(kernels.min_dists(x, y, block_bytes=block_bytes), ref)
    # Precomputed norms (a space's cached _sq) give the same bits.
    current = np.full(len(x), np.inf)
    kernels.update_min_dists(
        current, x, y, block_bytes=block_bytes,
        x_sq=np.einsum("ij,ij->i", x, x), y_sq=np.einsum("ij,ij->i", y, y),
    )
    assert np.array_equal(current, ref)
    # Folding into existing minima is a plain elementwise min.
    start = np.linspace(0.0, 2.0 * float(ref.max()) + 1.0, len(x))
    folded = kernels.update_min_dists(start.copy(), x, y, block_bytes=block_bytes)
    assert np.array_equal(folded, np.minimum(start, ref))


class _Workers(SequentialExecutor):
    """A sequential executor that sizes the evaluate pass like a pool."""

    def __init__(self, workers):
        self.workers = workers


@settings(max_examples=100, deadline=None)
@given(point_sets(), block_budgets, st.data())
def test_covering_radius_is_a_max_fold_over_any_row_split(xy, block_bytes, data):
    x, y = xy
    space = EuclideanSpace(np.concatenate([x, y]), block_bytes=block_bytes)
    centers = np.arange(len(x), space.n)
    radius = covering_radius(space, centers)
    assert radius == float(block_reference(space.points, y).max())
    cuts = sorted(data.draw(st.lists(st.integers(0, space.n), max_size=6)))
    bounds = [0, *cuts, space.n]
    parts = [
        covering_radius(space, centers, np.arange(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    assert max(parts) == radius
    # The pool-shaped evaluate pass folds the same bits and counts n*k.
    cluster = SimulatedCluster(
        1, executor=_Workers(data.draw(st.integers(1, 5))),
        dist_counter=space.counter,
    )
    before = space.counter.evals
    assert evaluate_on(cluster, space, centers) == radius
    assert space.counter.evals - before == space.n * len(centers)
    assert cluster.stats.rounds == []


@settings(max_examples=100, deadline=None)
@given(point_sets(), block_budgets)
def test_nearest_equals_block_argmin(xy, block_bytes):
    x, y = xy
    space = EuclideanSpace(np.concatenate([x, y]), block_bytes=block_bytes)
    centers = np.arange(len(x), space.n)
    pos, dist = space.nearest(None, centers)
    sq = kernels.sq_dists_block(space.points, y)
    assert np.array_equal(pos, sq.argmin(axis=1))
    assert np.array_equal(dist, np.sqrt(sq.min(axis=1)))
    assert np.array_equal(dist, space.min_dists(None, centers))


@settings(max_examples=80, deadline=None)
@given(point_sets(), st.integers(1, 40), st.data())
def test_chunked_space_matches_in_memory_at_default_budget(xy, chunk, data):
    x, y = xy
    pts = np.concatenate([x, y])
    mem = EuclideanSpace(pts)
    cms = ChunkedMetricSpace(ArrayStream(pts, chunk_size=chunk))
    centers = np.arange(len(x), len(pts))
    assert np.array_equal(cms.min_dists(None, centers), mem.min_dists(None, centers))
    assert cms.covering_radius(centers) == mem.covering_radius(centers)
    for got, want in zip(cms.nearest(None, centers), mem.nearest(None, centers)):
        assert np.array_equal(got, want)
    # Full-space reference set: folded one reference chunk at a time.
    assert np.array_equal(cms.min_dists(None, None), mem.min_dists(None, None))
    # A contiguous row range streams the chunk grid instead of gathering.
    lo = data.draw(st.integers(0, len(pts) - 1))
    hi = data.draw(st.integers(lo + 1, len(pts)))
    rows = np.arange(lo, hi)
    assert np.array_equal(
        cms.min_dists(rows, centers), mem.min_dists(None, centers)[lo:hi]
    )
    assert cms.covering_radius(centers, rows) == mem.covering_radius(centers, rows)
