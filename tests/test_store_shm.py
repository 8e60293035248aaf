"""Zero-copy shared-memory space transport (`repro.store.shm`).

The contract: inside a :func:`~repro.store.shm.shared_space` scope an
in-memory space pickles as a ~100-byte handle, workers attach the
published block by name and see the *exact* float64 bytes, the segment
dies with the scope — and none of it changes a single output bit.
"""

import os
import pickle

import numpy as np
import pytest

import repro
from repro.core.mr_hochbaum_shmoys import mr_hochbaum_shmoys
from repro.core.mrg import _bind_views_eagerly, mrg
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.metric.euclidean import EuclideanSpace
from repro.metric.minkowski import MinkowskiSpace
from repro.store.shm import SharedPoints, publish_points, shared_space, transport_mode


@pytest.fixture
def points():
    return np.random.default_rng(17).normal(size=(400, 3))


def _attach_shape(handle: SharedPoints):
    return handle.attach().shape


class TestPublishAttach:
    def test_roundtrip_is_bit_identical_and_readonly(self, points):
        handle = publish_points(points)
        try:
            attached = handle.attach()
            assert attached.dtype == np.float64
            assert np.array_equal(attached, points)
            assert not attached.flags.writeable
            # squared norms match the in-memory space's einsum bit-for-bit
            _, sq = handle.attach_with_sq()
            assert np.array_equal(sq, np.einsum("ij,ij->i", points, points))
        finally:
            handle.unpublish()

    def test_handle_pickles_small(self, points):
        handle = publish_points(points)
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < 512  # a handle, not the rows
            clone = pickle.loads(blob)
            assert np.array_equal(clone.attach(), points)
        finally:
            handle.unpublish()

    def test_unpublish_is_idempotent_and_blocks_new_attach(self, points):
        handle = publish_points(points)
        handle.unpublish()
        handle.unpublish()
        fresh = SharedPoints(handle.kind, handle.token, handle.shape)
        with pytest.raises((FileNotFoundError, OSError)):
            fresh.attach()

    def test_spill_fallback_roundtrip_and_cleanup(self, points, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_TRANSPORT", "spill")
        assert transport_mode() == "spill"
        handle = publish_points(points)
        assert handle.kind == "spill"
        path = handle.token
        try:
            assert os.path.exists(path)
            assert np.array_equal(handle.attach(), points)
        finally:
            handle.unpublish()
        assert not os.path.exists(path)

    def test_transport_off_publishes_nothing(self, points, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_TRANSPORT", "off")
        assert publish_points(points) is None

    def test_unknown_transport_mode_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_TRANSPORT", "disabled")  # typo for off
        with pytest.warns(RuntimeWarning, match="shm/spill/off"):
            assert transport_mode() == "shm"

    def test_worker_attachment_is_cached_per_process(self, points):
        handle = publish_points(points)
        try:
            first = handle.attach()
            second = pickle.loads(pickle.dumps(handle)).attach()
            assert second is first  # one mapping per process, not per task
        finally:
            handle.unpublish()


class TestSharedSpaceScope:
    def test_noop_for_sequential_and_thread_backends(self, points):
        space = EuclideanSpace(points)
        for executor in (SequentialExecutor(), ThreadPoolExecutorBackend(2)):
            with shared_space(space, executor) as out:
                assert out is space

    def test_process_backend_gets_a_published_clone(self, points):
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with shared_space(space, executor) as out:
            assert out is not space
            assert out._shared is not None
            assert out.counter is space.counter  # shallow clone: shared state
            # pickling the clone ships the handle, not the (400, 3) rows
            blob = pickle.dumps(out)
            assert len(blob) < points.nbytes / 4
            revived = pickle.loads(blob)
            assert np.array_equal(revived.points, points)
            assert np.array_equal(revived._sq, space._sq)
            # eager view prebuilding is then pointless and skipped
            assert not _bind_views_eagerly(out, executor)
            assert _bind_views_eagerly(space, executor)
        assert space._shared is None  # original untouched

    def test_scope_cleans_up_on_error(self, points):
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with pytest.raises(RuntimeError, match="boom"):
            with shared_space(space, executor) as out:
                handle = out._shared
                raise RuntimeError("boom")
        fresh = SharedPoints(handle.kind, handle.token, handle.shape)
        with pytest.raises((FileNotFoundError, OSError)):
            fresh.attach()

    def test_minkowski_ships_by_handle(self, points):
        space = MinkowskiSpace(points, p=1.0)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with shared_space(space, executor) as out:
            revived = pickle.loads(pickle.dumps(out))
            assert revived.p == 1.0
            assert np.array_equal(revived.points, points)
            ref = space.cross(np.arange(10), np.arange(10, 20))
            assert np.array_equal(revived.cross(np.arange(10), np.arange(10, 20)), ref)

    def test_off_mode_reverts_to_eager_views(self, points, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_TRANSPORT", "off")
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with shared_space(space, executor) as out:
            assert out is space
            assert _bind_views_eagerly(out, executor)


class TestEndToEndParity:
    """The acceptance claim: every transport path reproduces the
    sequential in-memory bits — centers, radius, dist_evals."""

    @pytest.fixture(scope="class")
    def big(self):
        return np.random.default_rng(23).normal(size=(3000, 4))

    @pytest.fixture(scope="class")
    def reference(self, big):
        return {
            "mrg": mrg(EuclideanSpace(big), 8, m=6, seed=3),
            "mrhs": mr_hochbaum_shmoys(EuclideanSpace(big), 8, m=6, seed=3),
        }

    @pytest.mark.parametrize("mode", ["shm", "spill", "off"])
    def test_process_pool_solvers_bit_identical(
        self, big, reference, mode, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_TRANSPORT", mode)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = {
                "mrg": mrg(EuclideanSpace(big), 8, m=6, seed=3, executor=ex),
                "mrhs": mr_hochbaum_shmoys(
                    EuclideanSpace(big), 8, m=6, seed=3, executor=ex
                ),
            }
        for name, ref in reference.items():
            assert (got[name].centers == ref.centers).all(), (mode, name)
            assert got[name].radius == ref.radius, (mode, name)
            assert got[name].stats.dist_evals == ref.stats.dist_evals, (mode, name)

    def test_solve_many_process_fanout_bit_identical(self, big):
        grid = dict(algorithms=("gon", "mrg"), seeds=(0, 1), m=6)
        ref = repro.solve_many(EuclideanSpace(big), 6, **grid)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            got = repro.solve_many(EuclideanSpace(big), 6, executor=ex, **grid)
        assert got.keys() == ref.keys()
        for key in ref:
            assert (got[key].centers == ref[key].centers).all(), key
            assert got[key].radius == ref[key].radius, key
        assert got.summary.dist_evals == ref.summary.dist_evals
