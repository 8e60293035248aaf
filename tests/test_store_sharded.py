"""Sharded directory store: manifest round-trips, per-shard streams.

The layout contract: ``write_shards`` splits a stream into chunk-aligned
``.npy`` groups + a JSON manifest; ``ShardedStream`` re-serves the exact
chunk grid of the source stream (sharding is layout, not identity), each
shard opens and pickles independently, and coercion from a directory
path flows through ``as_stream``/``as_space`` into the solvers.
"""

import json
import pickle

import numpy as np
import pytest

from repro.errors import DatasetError, InvalidParameterError
from repro.store import (
    ArrayStream,
    ChunkedMetricSpace,
    GeneratorStream,
    MemmapStream,
    ShardedStream,
    SliceStream,
    as_space,
    as_stream,
    write_shards,
)
from repro.store.sharded import MANIFEST_NAME


@pytest.fixture
def gen():
    return GeneratorStream("gau", 3000, seed=11, chunk_size=500, k_prime=6)


@pytest.fixture
def materialised(gen):
    return np.concatenate([block for block, _ in gen])


class TestWriteShards:
    def test_round_trips_every_chunk_bitwise(self, gen, materialised, tmp_path):
        sh = write_shards(gen, tmp_path / "s", 4)
        assert (sh.n, sh.dim, sh.chunk_size) == (gen.n, gen.dim, gen.chunk_size)
        assert sh.n_chunks == gen.n_chunks
        for i in range(gen.n_chunks):
            np.testing.assert_array_equal(sh.read_chunk(i), gen.read_chunk(i))
        np.testing.assert_array_equal(
            np.concatenate([b for b, _ in sh]), materialised
        )

    @pytest.mark.parametrize("shards", [1, 4, 6, 7, 11])
    def test_shard_table_is_a_chunk_aligned_cover(self, gen, tmp_path, shards):
        sh = write_shards(gen, tmp_path / "s", shards)
        bounds = sh.shard_bounds
        assert bounds[0] == 0 and bounds[-1] == gen.n
        assert (np.diff(bounds) >= 0).all()
        # Non-final cuts land on the chunk grid; balance is in chunks.
        sizes = np.diff(bounds)
        assert all(b % gen.chunk_size == 0 for b in bounds[:-1])
        full = -(-gen.n // gen.chunk_size)
        per = [-(-s // gen.chunk_size) for s in sizes]
        assert sum(per) >= full and max(per) - min(p for p in per) <= full

    def test_more_shards_than_chunks_leaves_trailing_empties(self, gen, tmp_path):
        # 6 chunks, 11 shards: some entries must be empty but the cover
        # and the bits are unchanged.
        sh = write_shards(gen, tmp_path / "s", 11)
        sizes = [sh.shard_span(j)[1] - sh.shard_span(j)[0] for j in range(11)]
        assert sizes.count(0) == 11 - gen.n_chunks
        np.testing.assert_array_equal(
            np.concatenate([b for b, _ in sh]),
            np.concatenate([b for b, _ in gen]),
        )

    def test_refuses_overwrite_without_flag(self, gen, tmp_path):
        write_shards(gen, tmp_path / "s", 2)
        with pytest.raises(DatasetError, match="already exists"):
            write_shards(gen, tmp_path / "s", 3)
        sh = write_shards(gen, tmp_path / "s", 3, overwrite=True)
        assert sh.n_shards == 3

    def test_invalid_shard_count(self, gen, tmp_path):
        with pytest.raises(InvalidParameterError, match="positive"):
            write_shards(gen, tmp_path / "s", 0)

    def test_refuses_empty_stream(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            write_shards(ArrayStream(np.empty((0, 2)), chunk_size=4), tmp_path, 2)


class TestShardedStream:
    def test_per_shard_streams_open_and_pickle_independently(
        self, gen, materialised, tmp_path
    ):
        sh = write_shards(gen, tmp_path / "s", 5)
        for j in range(sh.n_shards):
            start, stop = sh.shard_span(j)
            shard = pickle.loads(pickle.dumps(sh.shard(j)))
            assert shard.n == stop - start
            if shard.n:
                assert isinstance(shard, MemmapStream)
                np.testing.assert_array_equal(
                    np.concatenate([b for b, _ in shard]),
                    materialised[start:stop],
                )

    def test_whole_stream_pickles_by_reopening(self, gen, tmp_path):
        sh = write_shards(gen, tmp_path / "s", 3)
        clone = pickle.loads(pickle.dumps(sh))
        np.testing.assert_array_equal(clone.read_chunk(2), sh.read_chunk(2))
        assert clone.shard_bounds.tolist() == sh.shard_bounds.tolist()

    def test_accepts_manifest_path_and_rejects_rechunk(self, gen, tmp_path):
        write_shards(gen, tmp_path / "s", 2)
        via_manifest = ShardedStream(tmp_path / "s" / MANIFEST_NAME)
        assert via_manifest.n == gen.n
        with pytest.raises(InvalidParameterError, match="re-chunk"):
            ShardedStream(tmp_path / "s", chunk_size=gen.chunk_size + 1)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            ShardedStream(tmp_path)

    def test_corrupt_manifest_rejected(self, gen, tmp_path):
        sh = write_shards(gen, tmp_path / "s", 2)
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        manifest["shards"][0]["rows"] += 1  # no longer a contiguous cover
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="contiguous"):
            ShardedStream(tmp_path / "s")
        del sh

    def test_shard_file_shape_validated_against_manifest(self, gen, tmp_path):
        write_shards(gen, tmp_path / "s", 2)
        manifest = json.loads((tmp_path / "s" / MANIFEST_NAME).read_text())
        entry = manifest["shards"][0]
        np.save(
            tmp_path / "s" / entry["file"],
            np.zeros((entry["rows"] + 5, manifest["dim"])),
        )
        manifest["shards"][0]["rows"] = entry["rows"]  # manifest left stale
        sh = ShardedStream(tmp_path / "s")
        with pytest.raises(DatasetError, match="shape"):
            sh.read_chunk(0)


class TestCoercion:
    def test_as_stream_and_as_space_accept_directories(self, gen, tmp_path):
        write_shards(gen, tmp_path / "s", 3)
        stream = as_stream(str(tmp_path / "s"))
        assert isinstance(stream, ShardedStream)
        space = as_space(tmp_path / "s")
        assert isinstance(space, ChunkedMetricSpace)
        assert space.n == gen.n

    def test_slice_stream_over_shards(self, gen, materialised, tmp_path):
        sh = write_shards(gen, tmp_path / "s", 4)
        view = SliceStream(sh, 700, 2300)
        np.testing.assert_array_equal(
            np.concatenate([b for b, _ in view]), materialised[700:2300]
        )
        clone = pickle.loads(pickle.dumps(view))
        np.testing.assert_array_equal(clone.read_chunk(0), view.read_chunk(0))

    def test_slice_chunks_never_alias_parent_chunks(self):
        # A view chunk that would be a plain row slice of a parent chunk
        # must still be a copy: caching it may not pin the parent array.
        parent = ArrayStream(np.arange(40.0).reshape(20, 2), chunk_size=5)
        view = SliceStream(parent, 5, 15)  # aligned: 1 part per chunk
        chunk = view.read_chunk(0)
        assert not np.shares_memory(chunk, parent.points)
