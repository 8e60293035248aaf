"""Hypothesis property tests for the metric layer.

The chunked kernels must agree with the dense scipy oracle for *any*
input shapes and scales, and every space type must satisfy the metric
axioms — these are the invariants the approximation proofs stand on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from repro.metric import kernels
from repro.metric.euclidean import EuclideanSpace
from repro.metric.minkowski import MinkowskiSpace
from repro.metric.validation import check_metric_axioms

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


def points_strategy(max_n=40, max_d=5):
    return st.integers(1, max_d).flatmap(
        lambda d: arrays(
            np.float64,
            st.tuples(st.integers(1, max_n), st.just(d)),
            elements=finite,
        )
    )


@st.composite
def two_point_sets(draw, max_n=40, max_d=5):
    d = draw(st.integers(1, max_d))
    x = draw(arrays(np.float64, (draw(st.integers(1, max_n)), d), elements=finite))
    y = draw(arrays(np.float64, (draw(st.integers(1, max_n)), d), elements=finite))
    return x, y


def _scale_atol(x, y):
    """Honest error bound of the GEMM expansion: |x|^2 + |y|^2 - 2 x.y
    carries absolute error of a few ulps of the squared magnitude, so the
    distance error scales with the coordinate magnitude when the true
    distance is near zero (sqrt of the squared-distance error)."""
    m = max(1.0, np.abs(x).max(), np.abs(y).max())
    return 4e-7 * m


@settings(max_examples=60, deadline=None)
@given(two_point_sets())
def test_pairwise_matches_cdist(xy):
    x, y = xy
    ours = kernels.pairwise_dists(x, y)
    oracle = cdist(x, y)
    np.testing.assert_allclose(ours, oracle, atol=_scale_atol(x, y), rtol=1e-7)


@settings(max_examples=60, deadline=None)
@given(two_point_sets())
def test_min_dists_matches_cdist(xy):
    x, y = xy
    np.testing.assert_allclose(
        kernels.min_dists(x, y),
        cdist(x, y).min(axis=1),
        atol=_scale_atol(x, y),
        rtol=1e-7,
    )


@settings(max_examples=40, deadline=None)
@given(two_point_sets(), st.integers(1024, 2**18))
def test_chunking_is_invisible(xy, block_bytes):
    """Block size must never change results (only memory traffic): the
    same bits, not merely close values."""
    x, y = xy
    a = kernels.min_dists(x, y)
    b = kernels.min_dists(x, y, block_bytes=block_bytes)
    assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(points_strategy(max_n=24))
def test_euclidean_space_is_a_metric(pts):
    # Scale-aware tolerance: see _scale_atol on the GEMM expansion error.
    assert check_metric_axioms(
        EuclideanSpace(pts), rtol=1e-6, atol=_scale_atol(pts, pts)
    )


@settings(max_examples=25, deadline=None)
@given(points_strategy(max_n=16), st.sampled_from([1.0, 1.5, 2.0, 4.0, np.inf]))
def test_minkowski_space_is_a_metric(pts, p):
    assert check_metric_axioms(MinkowskiSpace(pts, p=p), rtol=1e-6, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(two_point_sets(max_n=30))
def test_update_min_dists_is_running_minimum(xy):
    """Folding references in two batches equals folding them at once."""
    x, y = xy
    if len(y) < 2:
        return
    split = len(y) // 2
    once = kernels.min_dists(x, y)
    twice = kernels.min_dists(x, y[:split])
    kernels.update_min_dists(twice, x, y[split:])
    np.testing.assert_allclose(once, twice, atol=_scale_atol(x, y), rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(points_strategy(max_n=30), st.data())
def test_nearest_consistent_with_min_dists(pts, data):
    space = EuclideanSpace(pts)
    n = space.n
    j = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    j = np.asarray(j, dtype=np.intp)
    pos, dist = space.nearest(None, j)
    np.testing.assert_allclose(
        dist, space.min_dists(None, j), atol=_scale_atol(pts, pts)
    )
    assert ((0 <= pos) & (pos < len(j))).all()
