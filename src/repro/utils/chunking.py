"""Bounded-memory block iteration.

All pairwise-distance work in :mod:`repro.metric.kernels` is blocked so that
no intermediate exceeds a configurable byte budget, per the cache-effects
guidance in the HPC guides: grouped, contiguous access beats both an n×n
materialisation (memory blow-up) and per-row Python loops (interpreter
overhead).
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "chunk_bounds",
    "chunk_slices",
    "resolve_chunk_size",
    "DEFAULT_BLOCK_BYTES",
]

#: Default byte budget for one temporary distance block.  256 KiB keeps a
#: block resident in a per-core L2, so the elementwise passes over it
#: (scale, norm adds, reduction) run from cache instead of streaming
#: through L3; at k = 50 reference rows and d = 8 each block's GEMM also
#: stays under OpenBLAS's threading threshold, so pool workers do not
#: oversubscribe the cores.  ``benchmarks/bench_kernels.py::
#: test_chunk_size_sweep`` sweeps this choice.
DEFAULT_BLOCK_BYTES = 256 * 2**10


def chunk_bounds(total: int, chunk: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` pairs covering ``range(total)`` in steps of ``chunk``.

    The final pair may span fewer than ``chunk`` elements.  ``total == 0``
    yields nothing.  This is the offset-based twin of :func:`chunk_slices`
    for consumers that need plain integers (the :mod:`repro.store` layer
    keys chunks and global offsets on them) rather than slice objects.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    for start in range(0, total, chunk):
        yield start, min(start + chunk, total)


def chunk_slices(total: int, chunk: int) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(total)`` in steps of ``chunk``.

    The final slice may be shorter.  ``total == 0`` yields nothing.
    """
    for start, stop in chunk_bounds(total, chunk):
        yield slice(start, stop)


def resolve_chunk_size(
    other_rows: int,
    itemsize: int = 8,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    minimum: int = 16,
) -> int:
    """Rows per block so a ``rows x other_rows`` temp stays under the budget.

    Parameters
    ----------
    other_rows:
        Number of columns of the temporary (e.g. the current number of
        centers when computing a points-by-centers distance block).
    itemsize:
        Bytes per element of the temporary (8 for float64).
    block_bytes:
        Byte budget for the temporary block.
    minimum:
        Never return fewer rows than this, even if the budget is exceeded —
        degenerate tiny blocks would drown in per-call overhead.
    """
    if other_rows < 0:
        raise ValueError(f"other_rows must be >= 0, got {other_rows}")
    if itemsize <= 0 or block_bytes <= 0 or minimum <= 0:
        raise ValueError("itemsize, block_bytes and minimum must be positive")
    if other_rows == 0:
        return max(minimum, block_bytes // itemsize)
    return max(minimum, block_bytes // (itemsize * other_rows))
