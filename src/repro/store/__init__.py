"""Out-of-core dataset layer (system S7): chunked streams, mapped spaces.

The paper's premise is inputs too large for one machine, yet coordinate
arrays are the one thing the rest of the package assumed to be resident.
``repro.store`` removes that assumption:

:class:`~repro.store.stream.PointStream`
    The chunked-data contract — ``(chunk_array, global_offset)`` blocks
    over a uniform chunk grid with known ``n``/``dim``/``dtype``.
:class:`~repro.store.stream.ArrayStream` /
:class:`~repro.store.stream.MemmapStream` /
:class:`~repro.store.generate.GeneratorStream`
    In-memory, on-disk (``.npy`` via memmap, one block resident at a
    time), and never-materialised synthetic backings.
:class:`~repro.store.sharded.ShardedStream` / :func:`~repro.store.sharded.write_shards`
    The MapReduce input layout: a directory of chunk-aligned per-shard
    ``.npy`` groups + JSON manifest; each shard independently openable
    and picklable, the whole directory solvable as one stream
    (``solve(k=..., data="shards/")``), with reducers consuming
    per-shard views (:func:`~repro.store.space.machine_view`).
:class:`~repro.store.space.ChunkedMetricSpace`
    Full :class:`~repro.metric.base.MetricSpace` over any stream —
    bit-identical results and identical distance accounting to the
    in-memory Euclidean space, with bounded memory.
:func:`~repro.store.shm.shared_space` / :class:`~repro.store.shm.SharedPoints`
    Zero-copy transport of *in-memory* spaces into process-pool
    workers: coordinates published once per space to ``multiprocessing``
    shared memory (temp-``.npy`` spill fallback), workers attach by
    name instead of unpickling the rows per task.

Typical use::

    import repro
    from repro.store import GeneratorStream

    stream = GeneratorStream("gau", n=2_000_000, seed=0)   # never materialised
    path = stream.to_npy("gau2m.npy")                       # chunked write
    result = repro.solve(path, k=25, algorithm="stream")    # out-of-core solve
"""

from repro.store.generate import DEFAULT_GEN_BLOCK, GeneratorStream
from repro.store.sharded import ShardedStream, write_shards
from repro.store.shm import SharedPoints, publish_points, shared_space
from repro.store.space import ChunkedMetricSpace, as_space, machine_view
from repro.store.stream import (
    ArrayStream,
    MemmapStream,
    PointStream,
    SliceStream,
    as_stream,
    default_chunk_rows,
    write_npy,
)

__all__ = [
    "PointStream",
    "ArrayStream",
    "MemmapStream",
    "SliceStream",
    "GeneratorStream",
    "ShardedStream",
    "ChunkedMetricSpace",
    "SharedPoints",
    "as_stream",
    "as_space",
    "machine_view",
    "publish_points",
    "shared_space",
    "write_shards",
    "write_npy",
    "default_chunk_rows",
    "DEFAULT_GEN_BLOCK",
]
