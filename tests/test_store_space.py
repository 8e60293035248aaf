"""ChunkedMetricSpace: out-of-core parity with the in-memory space.

The acceptance bar for the store layer: every primitive, and every solver
run on top of them, must be **bit-identical** between a
ChunkedMetricSpace (over any backing stream, at any chunk size) and an
EuclideanSpace over the materialised points — including the distance
evaluation counts, which validate the paper's operation-count claims.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.streaming import stream_kcenter, stream_kcenter_from_stream
from repro.core.mrg import mrg
from repro.errors import MetricError
from repro.mapreduce.partition import block_partition
from repro.metric import EuclideanSpace, check_metric_axioms
from repro.store import (
    ArrayStream,
    ChunkedMetricSpace,
    GeneratorStream,
    MemmapStream,
    as_space,
    machine_view,
)

CHUNK_SIZES = (1, 17, 64, 200, 1000)  # includes chunk=1 and chunk > n


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(42).uniform(0.0, 100.0, size=(300, 3))


@pytest.fixture(scope="module")
def reference(points):
    return EuclideanSpace(points)


def chunked(points, chunk_size):
    return ChunkedMetricSpace(ArrayStream(points, chunk_size=chunk_size))


class TestPrimitiveParity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_all_primitives_bit_identical(self, points, chunk_size):
        ref = EuclideanSpace(points)
        cms = chunked(points, chunk_size)
        rng = np.random.default_rng(1)
        idx = rng.choice(300, 80, replace=False).astype(np.intp)
        jdx = rng.choice(300, 7, replace=False).astype(np.intp)

        assert np.array_equal(ref.dists_to(None, 13), cms.dists_to(None, 13))
        assert np.array_equal(ref.dists_to(idx, 13), cms.dists_to(idx, 13))
        assert np.array_equal(ref.cross(idx, jdx), cms.cross(idx, jdx))

        cur_r = np.full(300, np.inf)
        cur_c = np.full(300, np.inf)
        ref.update_min_dists(cur_r, None, jdx)
        cms.update_min_dists(cur_c, None, jdx)
        assert np.array_equal(cur_r, cur_c)

        pos_r, d_r = ref.nearest(None, jdx)
        pos_c, d_c = cms.nearest(None, jdx)
        assert np.array_equal(pos_r, pos_c)
        assert np.array_equal(d_r, d_c)

        pos_r, d_r = ref.nearest(idx, jdx)
        pos_c, d_c = cms.nearest(idx, jdx)
        assert np.array_equal(pos_r, pos_c)
        assert np.array_equal(d_r, d_c)

        loc_r, loc_c = ref.local(idx), cms.local(idx)
        assert np.array_equal(loc_r.points, loc_c.points)

        # identical accounting, call for call
        assert ref.counter.evals == cms.counter.evals

    def test_satisfies_metric_axioms(self, points):
        # unit-scale coordinates: at scale ~100 the GEMM expansion's
        # documented round-off (~1e-8 * max|coord|) exceeds the checker's
        # self-distance atol for the in-memory space just the same
        check_metric_axioms(chunked(points[:40] / 100.0, 7), max_points=40)

    def test_dense_cap_enforced(self, points, monkeypatch):
        # same guard as the in-memory space; cap it down to force the path
        import repro.metric.kernels as kernels

        monkeypatch.setattr(kernels, "MAX_DENSE_ELEMENTS", 100)
        cms = chunked(points, 64)
        with pytest.raises(MetricError):
            cms.cross(None, None)

    def test_rejects_out_of_range(self, points):
        cms = chunked(points, 50)
        with pytest.raises(MetricError):
            cms.dists_to(None, 300)
        with pytest.raises(MetricError):
            cms.cross(np.array([300]), None)


class TestStreamSolverParity:
    """ISSUE acceptance: stream solver over Memmap/Generator streams is
    bit-identical to the in-memory path across chunk sizes."""

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_memmap_parity(self, points, chunk_size, tmp_path):
        path = tmp_path / "pts.npy"
        np.save(path, points)
        ref_space = EuclideanSpace(points)
        want = stream_kcenter(ref_space, 9, seed=0)

        cms = ChunkedMetricSpace(MemmapStream(path, chunk_size=chunk_size))
        got = stream_kcenter(cms, 9, seed=0)

        assert np.array_equal(want.centers, got.centers)
        assert want.radius == got.radius
        assert want.extra["threshold"] == got.extra["threshold"]
        assert want.extra["doublings"] == got.extra["doublings"]
        assert ref_space.counter.evals == cms.counter.evals

    @pytest.mark.parametrize("chunk_size", (1, 29, 128, 700))
    def test_generator_parity(self, chunk_size):
        gen = GeneratorStream(
            "gau", 400, seed=5, chunk_size=chunk_size, gen_block=97, k_prime=6
        )
        pts = np.concatenate([b for b, _ in gen])
        ref_space = EuclideanSpace(pts)
        want = stream_kcenter(ref_space, 7, seed=0)

        cms = ChunkedMetricSpace(gen)
        got = stream_kcenter(cms, 7, seed=0)

        assert np.array_equal(want.centers, got.centers)
        assert want.radius == got.radius
        assert ref_space.counter.evals == cms.counter.evals

    def test_from_stream_entry_point(self, points, tmp_path):
        path = tmp_path / "pts.npy"
        np.save(path, points)
        want = stream_kcenter(EuclideanSpace(points), 5, seed=1)
        got = stream_kcenter_from_stream(str(path), 5, chunk_size=64, seed=1)
        assert np.array_equal(want.centers, got.centers)
        assert want.radius == got.radius

    def test_shuffled_arrival_also_identical(self, points):
        want = stream_kcenter(EuclideanSpace(points), 6, seed=3, shuffle=True)
        got = stream_kcenter(chunked(points, 41), 6, seed=3, shuffle=True)
        assert np.array_equal(want.centers, got.centers)
        assert want.radius == got.radius


class TestMapReduceOverStreams:
    def test_mrg_with_chunk_aligned_partition(self, points):
        """MapReduce solvers consume streams via chunk-aligned block
        partitioning: each machine's local view loads whole chunks."""
        chunk_size = 50

        def aligned(n, m):
            return block_partition(n, m, align=chunk_size)

        # capacity covers the relaxed chunk-granular cap (2 chunks/machine)
        want = mrg(
            EuclideanSpace(points), 6, m=4, capacity=150, seed=0, partitioner=aligned
        )
        got = mrg(
            chunked(points, chunk_size), 6, m=4, capacity=150, seed=0,
            partitioner=aligned,
        )
        assert np.array_equal(want.centers, got.centers)
        assert want.radius == got.radius
        assert want.stats.dist_evals == got.stats.dist_evals


class TestBoundedMemory:
    def test_no_full_size_allocation(self):
        """A solve over a stream must allocate nothing of shape (n, d) or
        (n, n): peak traced allocation stays far below the full array."""
        n, dim, chunk = 60_000, 8, 1024
        gen = GeneratorStream(
            "unif", n, seed=0, chunk_size=chunk, dim=dim, gen_block=2048
        )
        full_bytes = n * dim * 8

        # dataset (3.8 MB) deliberately exceeds the configured budget
        cms = ChunkedMetricSpace(gen, block_bytes=2**20)
        tracemalloc.start()
        result = stream_kcenter(cms, 8, seed=0)  # includes full-eval pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert 0 < result.n_centers <= 8 and result.radius > 0
        # generous bound: chunks, 1-D temporaries and the kernels' retained
        # per-thread Workspace scratch (O(block_bytes), not O(n d)) —
        # never the (n, d) array itself.
        assert peak < 0.6 * full_bytes, f"peak {peak} vs full array {full_bytes}"

    def test_as_space_array_stays_in_memory(self, points):
        assert isinstance(as_space(points), EuclideanSpace)
        assert isinstance(as_space(points, chunk_size=32), ChunkedMetricSpace)


class TestFullReferenceSweeps:
    """j_idx=None reference sets stream chunk-wise (no (n, d) gather)."""

    def test_update_min_dists_full_reference(self, points):
        ref = EuclideanSpace(points)
        cms = chunked(points, 41)
        idx = np.arange(30, dtype=np.intp)
        a = np.full(30, np.inf)
        b = np.full(30, np.inf)
        ref.update_min_dists(a, idx, None)
        cms.update_min_dists(b, idx, None)
        assert np.array_equal(a, b)
        assert ref.counter.evals == cms.counter.evals

    def test_nearest_full_reference(self, points):
        ref = EuclideanSpace(points)
        cms = chunked(points, 41)
        idx = np.arange(25, dtype=np.intp)
        for i in (idx, None):
            pa, da = ref.nearest(i, None)
            pb, db = cms.nearest(i, None)
            assert np.array_equal(pa, pb)
            assert np.array_equal(da, db)
        assert ref.counter.evals == cms.counter.evals


class TestConcurrencyAndPickling:
    def test_thread_pool_batch_over_stream(self, points):
        """Shared chunk/row caches are lock-guarded: a thread-pool batch
        over one chunked space must not race (and stays bit-identical)."""
        import repro
        from repro.mapreduce.executor import ThreadPoolExecutorBackend

        cms = chunked(points, 23)
        plain = repro.solve_many(cms, 6, algorithms=("stream",), seeds=range(6))
        threaded = repro.solve_many(
            cms, 6, algorithms=("stream",), seeds=range(6),
            executor=ThreadPoolExecutorBackend(max_workers=4),
        )
        for key in plain:
            assert np.array_equal(plain[key].centers, threaded[key].centers)
            assert plain[key].radius == threaded[key].radius

    def test_chunked_space_pickles(self, points, tmp_path):
        import pickle

        path = tmp_path / "pts.npy"
        np.save(path, points)
        cms = ChunkedMetricSpace(MemmapStream(path, chunk_size=64))
        cms.dists_to(None, 0)  # warm the caches
        clone = pickle.loads(pickle.dumps(cms))
        assert np.array_equal(clone.dists_to(None, 3), cms.dists_to(None, 3))

    def test_generator_stream_pickles(self):
        import pickle

        gen = GeneratorStream("gau", 200, seed=2, chunk_size=32, k_prime=3)
        want = np.concatenate([b for b, _ in gen])
        clone = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(want, np.concatenate([b for b, _ in clone]))


class TestSingleRowReferenceChunks:
    """1-row reference chunks (chunk_size=1, or n % chunk_size == 1) must
    keep the full-reference sweeps bit-identical to the in-memory space."""

    @pytest.mark.parametrize("chunk_size", (1, 13, 299))  # 300 % 13 == 1
    def test_full_reference_parity_with_singleton_chunks(self, points, chunk_size):
        ref = EuclideanSpace(points)
        cms = chunked(points, chunk_size)
        idx = np.arange(35, dtype=np.intp)

        a = np.full(35, np.inf)
        b = np.full(35, np.inf)
        ref.update_min_dists(a, idx, None)
        cms.update_min_dists(b, idx, None)
        assert np.array_equal(a, b)

        pa, da = ref.nearest(idx, None)
        pb, db = cms.nearest(idx, None)
        assert np.array_equal(pa, pb)
        assert np.array_equal(da, db)
        assert ref.counter.evals == cms.counter.evals

    def test_single_point_space(self):
        pts = np.array([[3.0, 4.0]])
        ref = EuclideanSpace(pts)
        cms = chunked(pts, 1)
        a = np.full(1, np.inf)
        b = np.full(1, np.inf)
        ref.update_min_dists(a, None, None)
        cms.update_min_dists(b, None, None)
        assert np.array_equal(a, b)


def test_range_machine_view_is_an_in_place_slice():
    """A block shard passed as a ``range`` views its rows in place; an
    index array over the same rows gathers them.  Same rows, same norms."""
    space = EuclideanSpace(np.random.default_rng(3).normal(size=(100, 3)))
    view = machine_view(space, range(10, 40))
    gathered = machine_view(space, np.arange(10, 40))
    assert np.shares_memory(view.points, space.points)
    assert not np.shares_memory(gathered.points, space.points)
    np.testing.assert_array_equal(view.points, gathered.points)
    assert np.array_equal(view._sq.view(np.int64), gathered._sq.view(np.int64))
    assert view.counter is not space.counter
    with pytest.raises(MetricError):
        machine_view(space, range(90, 110))
