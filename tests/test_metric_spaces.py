"""Unit tests for the three MetricSpace implementations.

Every space type is pushed through the same conformance suite (the
algorithms only ever talk to the MetricSpace interface, so all concrete
spaces must behave identically up to the metric itself).
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.errors import MetricError
from repro.metric.base import DistCounter, as_index_array
from repro.metric.euclidean import EuclideanSpace
from repro.metric.minkowski import MinkowskiSpace
from repro.metric.precomputed import PrecomputedSpace


def _make_space(kind: str, points: np.ndarray):
    if kind == "euclidean":
        return EuclideanSpace(points), cdist(points, points)
    if kind == "l1":
        return MinkowskiSpace(points, p=1.0), cdist(points, points, "cityblock")
    if kind == "linf":
        return MinkowskiSpace(points, p=np.inf), cdist(points, points, "chebyshev")
    if kind == "p3":
        return (
            MinkowskiSpace(points, p=3.0),
            cdist(points, points, "minkowski", p=3.0),
        )
    if kind == "precomputed":
        d = cdist(points, points)
        return PrecomputedSpace(d), d
    raise AssertionError(kind)


SPACE_KINDS = ["euclidean", "l1", "linf", "p3", "precomputed"]


@pytest.fixture(params=SPACE_KINDS)
def space_and_oracle(request, rng):
    points = rng.normal(size=(30, 3))
    return _make_space(request.param, points)


class TestConformance:
    def test_len_and_n(self, space_and_oracle):
        space, oracle = space_and_oracle
        assert len(space) == space.n == oracle.shape[0]

    def test_dist_scalar(self, space_and_oracle):
        space, oracle = space_and_oracle
        assert space.dist(3, 17) == pytest.approx(oracle[3, 17], abs=1e-7)
        assert space.dist(5, 5) == pytest.approx(0.0, abs=1e-7)

    def test_dists_to(self, space_and_oracle):
        space, oracle = space_and_oracle
        idx = np.array([0, 4, 9], dtype=np.intp)
        np.testing.assert_allclose(space.dists_to(idx, 7), oracle[idx, 7], atol=1e-7)
        np.testing.assert_allclose(space.dists_to(None, 7), oracle[:, 7], atol=1e-7)

    def test_cross(self, space_and_oracle):
        space, oracle = space_and_oracle
        i = np.array([1, 2], dtype=np.intp)
        j = np.array([5, 6, 7], dtype=np.intp)
        np.testing.assert_allclose(space.cross(i, j), oracle[np.ix_(i, j)], atol=1e-7)

    def test_min_dists(self, space_and_oracle):
        space, oracle = space_and_oracle
        j = np.array([2, 11, 19], dtype=np.intp)
        np.testing.assert_allclose(
            space.min_dists(None, j), oracle[:, j].min(axis=1), atol=1e-7
        )

    def test_update_min_dists_monotone(self, space_and_oracle):
        space, oracle = space_and_oracle
        j1 = np.array([0], dtype=np.intp)
        j2 = np.array([8, 9], dtype=np.intp)
        current = space.min_dists(None, j1)
        space.update_min_dists(current, None, j2)
        expect = oracle[:, [0, 8, 9]].min(axis=1)
        np.testing.assert_allclose(current, expect, atol=1e-7)

    def test_nearest(self, space_and_oracle):
        space, oracle = space_and_oracle
        j = np.array([3, 12, 21], dtype=np.intp)
        pos, dist = space.nearest(None, j)
        block = oracle[:, j]
        np.testing.assert_array_equal(pos, block.argmin(axis=1))
        np.testing.assert_allclose(dist, block.min(axis=1), atol=1e-7)

    def test_local_view(self, space_and_oracle):
        space, oracle = space_and_oracle
        idx = np.array([4, 7, 15, 22], dtype=np.intp)
        local = space.local(idx)
        assert local.n == 4
        np.testing.assert_allclose(
            local.cross(None, None), oracle[np.ix_(idx, idx)], atol=1e-7
        )

    def test_local_shares_counter(self, space_and_oracle):
        space, _ = space_and_oracle
        local = space.local(np.array([0, 1, 2], dtype=np.intp))
        assert local.counter is space.counter

    def test_counter_counts(self, space_and_oracle):
        space, _ = space_and_oracle
        space.counter.reset()
        space.min_dists(None, np.array([0, 1], dtype=np.intp))
        assert space.counter.evals == 2 * space.n

    def test_covering_radius(self, space_and_oracle):
        space, oracle = space_and_oracle
        centers = np.array([0, 15], dtype=np.intp)
        expect = oracle[:, centers].min(axis=1).max()
        assert space.covering_radius(centers) == pytest.approx(expect, abs=1e-7)

    def test_out_of_range_index(self, space_and_oracle):
        space, _ = space_and_oracle
        with pytest.raises(MetricError, match="out of range"):
            space.dists_to(np.array([space.n], dtype=np.intp), 0)

    def test_empty_reference_errors(self, space_and_oracle):
        space, _ = space_and_oracle
        with pytest.raises(MetricError):
            space.min_dists(None, np.empty(0, dtype=np.intp))
        with pytest.raises(MetricError):
            space.nearest(None, np.empty(0, dtype=np.intp))


class TestEuclideanSpecifics:
    def test_dim(self, rng):
        assert EuclideanSpace(rng.normal(size=(5, 7))).dim == 7

    def test_1d_input(self):
        space = EuclideanSpace([0.0, 3.0, 7.0])
        assert space.dim == 1
        assert space.dist(0, 2) == pytest.approx(7.0)

    def test_chunked_matches_dense(self, rng):
        pts = rng.normal(size=(300, 2))
        a = EuclideanSpace(pts)
        b = EuclideanSpace(pts, block_bytes=2048)
        j = np.arange(40, dtype=np.intp)
        np.testing.assert_allclose(a.min_dists(None, j), b.min_dists(None, j), atol=1e-12)
        pa, da = a.nearest(None, j)
        pb, db = b.nearest(None, j)
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_allclose(da, db, atol=1e-12)


class TestMinkowskiSpecifics:
    def test_p_below_one_rejected(self, rng):
        with pytest.raises(MetricError, match="triangle"):
            MinkowskiSpace(rng.normal(size=(4, 2)), p=0.5)

    def test_p_nan_rejected(self, rng):
        with pytest.raises(MetricError):
            MinkowskiSpace(rng.normal(size=(4, 2)), p=float("nan"))

    def test_p2_matches_euclidean(self, rng):
        pts = rng.normal(size=(25, 3))
        e = EuclideanSpace(pts)
        m = MinkowskiSpace(pts, p=2.0)
        j = np.array([1, 5], dtype=np.intp)
        np.testing.assert_allclose(e.min_dists(None, j), m.min_dists(None, j), atol=1e-7)

    def test_import_loads_no_scipy(self):
        # scipy is MinkowskiSpace's alone: importing the package and its
        # CLI (the server's start-up path) must not pay for it.
        code = (
            "import sys, repro, repro.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded[:5]\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_missing_scipy_is_a_metric_error(self, rng, monkeypatch):
        space = MinkowskiSpace(rng.normal(size=(6, 2)), p=1.0)
        monkeypatch.setitem(sys.modules, "scipy.spatial.distance", None)
        with pytest.raises(MetricError, match="scipy"):
            space.cross(np.arange(2), np.arange(2, 4))


class TestPrecomputedSpecifics:
    def test_validation_catches_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="symmetric"):
            PrecomputedSpace(d)

    def test_validation_catches_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(MetricError, match="negative"):
            PrecomputedSpace(d)

    def test_validation_catches_nonzero_diagonal(self):
        d = np.array([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="diagonal"):
            PrecomputedSpace(d)

    def test_non_square_rejected(self):
        with pytest.raises(MetricError, match="square"):
            PrecomputedSpace(np.zeros((2, 3)))

    def test_validate_false_skips_checks(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        space = PrecomputedSpace(d, validate=False)
        assert space.dist(0, 1) == 1.0


class TestIndexValidation:
    def test_as_index_array_bounds(self):
        with pytest.raises(MetricError, match="out of range"):
            as_index_array([-1], 5)
        with pytest.raises(MetricError, match="out of range"):
            as_index_array([5], 5)

    def test_as_index_array_2d_rejected(self):
        with pytest.raises(MetricError, match="1-D"):
            as_index_array(np.zeros((2, 2), dtype=int), 5)

    def test_counter_add_and_reset(self):
        c = DistCounter()
        c.add(5)
        c.add(2)
        assert c.evals == 7
        c.reset()
        assert c.evals == 0
