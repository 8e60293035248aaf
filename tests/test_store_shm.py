"""Zero-copy shared-memory space transport (`repro.store.shm`).

The contract: inside a :func:`~repro.store.shm.shared_space` scope an
in-memory space pickles as a ~100-byte handle, workers attach the
published block by name and see the *exact* float64 bytes, the block is
published once per space and dies with the space — and none of it
changes a single output bit.
"""

import gc
import os
import pathlib
import pickle
import subprocess
import sys
import time

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
from repro.store import shm
from repro.store.shm import SharedPoints, publish_points, shared_space, transport_mode


@pytest.fixture
def points():
    return np.random.default_rng(17).normal(size=(400, 3))


def _attach_shape(handle: SharedPoints):
    return handle.attach().shape


def _worker_attachments():
    """Pool task: the tokens this worker process keeps attached."""
    time.sleep(0.05)  # long enough that every worker picks up a probe
    return os.getpid(), tuple(shm._attached)


def _is_published(handle: SharedPoints) -> bool:
    """Whether a fresh attach to ``handle``'s block still succeeds."""
    fresh = SharedPoints(handle.kind, handle.token, handle.shape)
    try:
        fresh._entry()
    except (FileNotFoundError, OSError):
        return False
    shm._detach(shm._attached.pop(fresh.token))
    return True


@pytest.fixture
def publications(monkeypatch):
    """Every handle ``publish_points`` returns, in order (through the
    module global the driver calls, as perfbench's timer does)."""
    made = []
    original = shm.publish_points

    def recording(points):
        handle = original(points)
        made.append(handle)
        return handle

    monkeypatch.setattr(shm, "publish_points", recording)
    return made


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
        # The segment belongs to the space, not to the scope: an error
        # inside the scope leaves no segment once the space is gone.
        space = EuclideanSpace(points)
        executor = ProcessPoolExecutorBackend(max_workers=1)
        with pytest.raises(RuntimeError, match="boom"):
            with shared_space(space, executor) as out:
                handle = out._shared
                raise RuntimeError("boom")
        assert _is_published(handle)  # the space lives, so does its block
        del space, out
        gc.collect()
        assert not _is_published(handle)
        assert handle.token not in shm._published

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


class TestPublicationLifetime:
    """One publication per space, reused by every solve on it and gone
    with it — in the driver and in every worker's attachment cache."""

    def test_repeated_solves_publish_once_with_the_same_bits(
        self, points, publications
    ):
        space = EuclideanSpace(points)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            runs = [mrg(space, 5, m=4, seed=3, executor=ex) for _ in range(3)]
            # the evaluate pass and a batch on the same space reuse it too
            repro.solve_many(space, 5, algorithms=("mrg",), seeds=(3,), m=4, executor=ex)
        assert len(publications) == 1
        for run in runs[1:]:
            assert (run.centers == runs[0].centers).all()
            assert run.radius == runs[0].radius
            assert run.stats.dist_evals == runs[0].stats.dist_evals

    def test_workers_hold_only_live_segments(self, publications):
        rng = np.random.default_rng(5)
        a = EuclideanSpace(rng.normal(size=(600, 3)))
        b = EuclideanSpace(rng.normal(size=(600, 3)))
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            for _ in range(5):
                for space in (a, b):
                    mrg(space, 4, m=4, seed=1, executor=ex)
            assert len(publications) == 2
            del b, space
            gc.collect()
            assert not _is_published(publications[1])
            # a worker drops the dead block at its next new attach
            c = EuclideanSpace(rng.normal(size=(600, 3)))
            mrg(c, 4, m=4, seed=1, executor=ex)
            results, _ = ex.run([_worker_attachments] * 4)
        live = {publications[0].token, publications[2].token}
        for pid, tokens in results:
            assert set(tokens) <= live, (pid, tokens)

    def test_dropping_the_space_unlinks_its_segment(self, points):
        space = EuclideanSpace(points)
        with shared_space(space, ProcessPoolExecutorBackend(max_workers=1)) as out:
            handle = out._shared
        del out
        assert _is_published(handle)
        del space
        gc.collect()
        assert not _is_published(handle)
        assert handle.token not in shm._published

    def test_closing_a_pool_forked_after_publication_keeps_the_segment(
        self, points, publications
    ):
        space = EuclideanSpace(points)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            first = mrg(space, 5, m=4, seed=2, executor=ex)
        time.sleep(0.2)  # let the workers' exit run its course
        assert _is_published(publications[0])
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            second = mrg(space, 5, m=4, seed=2, executor=ex)
        assert len(publications) == 1
        assert (second.centers == first.centers).all()
        assert second.radius == first.radius

    def test_closing_a_pool_forked_before_publication_keeps_the_segment(self):
        # Needs a fresh interpreter: the resource tracker must not be
        # running yet when the pool forks.
        code = (
            "import os, time, numpy as np, repro\n"
            "from repro.mapreduce.executor import ProcessPoolExecutorBackend\n"
            "ex = ProcessPoolExecutorBackend(2)\n"
            "ex.run([os.getpid] * 4)\n"
            "space = repro.EuclideanSpace(np.random.default_rng(0).normal(size=(600, 3)))\n"
            "first = repro.solve(space, 4, 'mrg', m=4, seed=1, executor=ex)\n"
            "ex.close()\n"
            "time.sleep(0.2)\n"
            "ex = ProcessPoolExecutorBackend(2)\n"
            "second = repro.solve(space, 4, 'mrg', m=4, seed=1, executor=ex)\n"
            "ex.close()\n"
            "assert second.radius == first.radius\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_SHM_TRANSPORT", None)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert "leaked" not in done.stderr, done.stderr[-2000:]

    def test_switching_transport_mode_between_solves_takes_effect(
        self, points, publications, monkeypatch
    ):
        space = EuclideanSpace(points)
        ref = mrg(space, 5, m=4, seed=4)
        with ProcessPoolExecutorBackend(max_workers=2) as ex:
            runs = {}
            for mode in ("shm", "spill", "off", "spill"):
                monkeypatch.setenv("REPRO_SHM_TRANSPORT", mode)
                with shared_space(space, ex) as out:
                    if mode == "off":
                        assert out is space
                    else:
                        assert out._shared.kind == mode
                runs[mode] = mrg(space, 5, m=4, seed=4, executor=ex)
        assert [h.kind for h in publications] == ["shm", "spill"]
        assert not _is_published(publications[0])  # replaced, not leaked
        for mode, run in runs.items():
            assert (run.centers == ref.centers).all(), mode
            assert run.radius == ref.radius, mode
            assert run.stats.dist_evals == ref.stats.dist_evals, mode
        del space
        gc.collect()
        assert not os.path.exists(publications[1].token)
