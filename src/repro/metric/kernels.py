"""Chunked pairwise-distance kernels.

These are the only functions in the package that touch O(|X| * |Y|) work,
and they do it in bounded-memory blocks whose inner operation is a BLAS
GEMM (squared-Euclidean expansion ``|x|^2 + |y|^2 - 2 x.y``).  Per the HPC
guides: vectorise the loop, block for cache, and prefer in-place running
minima over materialised temporaries.

All kernels take and return ``float64`` C-contiguous arrays.  Inputs with
other dtypes are converted once at the boundary.

Scratch reuse: the chunked kernels allocate the same block-sized
temporaries (GEMM output, row minima, difference blocks) over and over —
once per block, thousands of times per solve.  A :class:`Workspace` keeps
those buffers alive between calls and hands out resized views, and each
kernel writes into them with ``out=`` instead of allocating: same BLAS
routines, same bits, no per-block allocator traffic.  Workspaces are
**per thread** (see :func:`workspace`), so concurrent thread-pool tasks
never share scratch; only buffers that cannot escape a call (consumed by
a reduction before the kernel returns) are ever served from a workspace
— an array a caller may hold onto, such as :func:`sq_dists_block`'s
return value at the API boundary, is always freshly allocated unless the
caller explicitly opts in by passing its own workspace.

Gonzalez's traversal: a farthest-first step is "distances from every
row to one point".  :func:`dists_to_point` does it row-major (broadcast
difference, then ``einsum`` per row); :func:`column_traversal` does it on
a once-transposed copy, folding columns in ``einsum``'s own summation
order so the bits match — where :func:`column_traversal_pays` says the
shape is past the measured crossover and :func:`column_fold_exact`'s
run-time probe confirms that order on this numpy build.

Accuracy note: the GEMM expansion trades a little absolute accuracy for a
large constant-factor speedup — the squared distance carries absolute error
of a few ulps of the squared coordinate magnitude.  Left alone, that error
is *catastrophic* for nearly-coincident points far from the origin: the
cancellation noise survives the square root at roughly
``1e-8 * max|coordinate|``, large relative to a near-zero distance.
:func:`sq_dists_block` therefore detects cancellation-dominated entries
(squared distance below :data:`CANCEL_RTOL` of the operands' squared
magnitudes) and recomputes exactly those through the direct
difference-then-square path, which is accurate to machine precision in the
*distance*.  Entries above the threshold keep the GEMM value, whose
relative error there is bounded by ``~eps / sqrt(CANCEL_RTOL)`` — far
below anything a selection could notice.  The refinement is per-entry
(row norms, not block extrema), so results remain independent of how
callers block their rows — the store layer's bit-parity contract.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from repro.errors import MetricError
from repro.obs import trace as _trace
from repro.utils.chunking import DEFAULT_BLOCK_BYTES, chunk_slices, resolve_chunk_size

__all__ = [
    "as_points",
    "sq_dists_block",
    "pairwise_dists",
    "min_dists",
    "update_min_dists",
    "dists_to_point",
    "Workspace",
    "workspace",
    "column_traversal",
    "column_fold_exact",
    "column_traversal_pays",
    "COLUMN_ROWS_PER_DIM2",
    "COLUMN_BLOCK_BYTES",
    "MAX_DENSE_ELEMENTS",
    "MAX_RETAINED_BYTES",
    "CANCEL_RTOL",
]

#: Hard cap on elements of a *fully materialised* distance matrix requested
#: through :func:`pairwise_dists`.  128M float64 entries = 1 GiB; anything
#: larger is a programming error — use the chunked kernels instead.
MAX_DENSE_ELEMENTS = 128 * 2**20

#: Cap on a single retained :class:`Workspace` buffer.  Deliberately its
#: own constant, far above the L2-sized block budget: besides the blocks,
#: the workspace recycles per-call scratch that scales with the rows a
#: task owns — :func:`dists_to_point`'s ``(rows, d)`` difference buffer
#: (the row-major Gonzalez step below the column-major crossover,
#: chunked spaces' traversals) and the covering pass's per-row minima —
#: and those must stay recycled.  The cap only stops dataset-sized
#: temporaries (a full-space ``dists_to_point`` on a huge in-memory set)
#: from being pinned by the thread-local workspace after the call ends.
#: :func:`column_traversal` draws its row block from the same ``diff``
#: role, capped at :data:`COLUMN_BLOCK_BYTES` whatever the row count.
MAX_RETAINED_BYTES = 32 * 2**20

#: Squared distances below this fraction of ``|x|^2 + |y|^2`` are
#: cancellation-dominated in the GEMM expansion and are recomputed through
#: the direct difference path.  At 1e-6, unrefined entries keep at least
#: half their significant digits (relative squared-distance error
#: ``<~ eps / 1e-6 = 2e-10``), while the refined set stays tiny for
#: non-degenerate data (only pairs closer than ~0.1% of their distance
#: from the origin qualify).
CANCEL_RTOL = 1e-6


def as_points(x: np.ndarray, name: str = "points") -> np.ndarray:
    """Validate and normalise a point array to 2-D C-contiguous float64."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise MetricError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise MetricError(f"{name} contains non-finite values")
    return arr


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


class Workspace:
    """Reusable scratch buffers for the chunked kernels.

    A workspace owns one flat ``float64`` buffer per *role* ("gemm",
    "rowmin", "diff", ...); :meth:`take` grows the buffer when needed and
    returns a C-contiguous view of the requested shape.  Buffers are
    recycled call-to-call, so a hot loop (Gonzalez's k passes, a round of
    reducer blocks) performs zero block-sized allocations after warm-up.

    Contract: a view obtained from :meth:`take` is valid only until the
    next ``take`` of the same role — callers must fully consume it (fold
    it into a running minimum, copy the reduction out) before the next
    kernel call on the same workspace.  The kernels in this module uphold
    that internally; the public entry points never return workspace
    memory unless the caller passed the workspace in explicitly.

    Retention is bounded: requests above :data:`MAX_RETAINED_BYTES`
    are served as plain transient allocations instead of growing the
    held buffer, so a workspace that once saw a dataset-sized temporary
    (e.g. a whole-space ``dists_to_point`` pass) does not pin it for the
    life of the thread — held scratch stays bounded, never O(n·d).

    One workspace must not be shared between threads; use
    :func:`workspace` for a per-thread instance.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A ``shape``-d float64 view of the scratch buffer for ``role``.

        Oversized requests (beyond :data:`MAX_RETAINED_BYTES`) fall back
        to a fresh transient allocation — correct either way, it is just
        not recycled.
        """
        size = math.prod(shape)
        if size * 8 > MAX_RETAINED_BYTES:
            return np.empty(shape, dtype=np.float64)
        buf = self._bufs.get(role)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=np.float64)
            self._bufs[role] = buf
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all roles (introspection)."""
        return sum(buf.nbytes for buf in self._bufs.values())

    def release(self) -> None:
        """Drop every held buffer (the next take re-allocates)."""
        self._bufs.clear()


_tls = threading.local()


def workspace() -> Workspace:
    """The calling thread's shared :class:`Workspace` (created on demand).

    Thread-local, so concurrent executor tasks each reuse their own
    scratch and never race on a buffer — the kernels default to this
    workspace for temporaries that cannot escape the call.
    """
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def sq_dists_block(
    x: np.ndarray,
    y: np.ndarray,
    x_sq: np.ndarray | None = None,
    y_sq: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Dense squared Euclidean distances between two *small* blocks.

    Uses the GEMM expansion; negative round-off is clipped to zero in
    place, and cancellation-dominated entries (below :data:`CANCEL_RTOL`
    of the operands' squared magnitudes) are recomputed through the
    numerically stable difference path — see the module accuracy note.
    Callers are responsible for keeping ``len(x) * len(y)`` within
    their memory budget — this function does not chunk.

    Parameters
    ----------
    x, y:
        ``(nx, d)`` and ``(ny, d)`` float64 arrays.
    x_sq, y_sq:
        Optional precomputed squared norms (saves a pass when the caller
        reuses them across many blocks).
    ws:
        Optional :class:`Workspace` the GEMM output is served from — the
        BLAS call then writes into recycled scratch via ``out=`` (same
        routine, same bits, no allocation).  Passing a workspace hands
        over ownership of the result: it is only valid until the next
        workspace-backed kernel call, so only callers that fully consume
        the block (running minima, argmin scans) may opt in.
    """
    if x.shape[1] != y.shape[1]:
        raise MetricError(
            f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}"
        )
    if x.shape[0] == 1 and y.shape[0] > 1:
        # A single-row GEMM dispatches to a different BLAS microkernel
        # (gemv-style) whose rounding can differ from the multi-row path
        # by an ulp.  Duplicate the row so every block shape runs the
        # same kernel: results are then independent of how callers block
        # their rows — the store layer's bit-parity contract, down to
        # chunk-size-1 streams.
        out = sq_dists_block(
            np.concatenate([x, x], axis=0),
            y,
            None if x_sq is None else np.concatenate([x_sq, x_sq]),
            y_sq,
            ws=ws,
        )
        return np.ascontiguousarray(out[:1])
    if y.shape[0] == 1 and x.shape[0] > 1:
        # Same stability fix on the reference side: a single-column GEMM
        # must produce the same bits as that column inside a wider block
        # (a 1-row trailing chunk of a streamed reference set).
        out = sq_dists_block(
            x,
            np.concatenate([y, y], axis=0),
            x_sq,
            None if y_sq is None else np.concatenate([y_sq, y_sq]),
            ws=ws,
        )
        return np.ascontiguousarray(out[:, :1])
    # The no-tracer (and detail="task") case is one contextvar read —
    # negligible against the GEMM this block performs.
    with _trace.block_span(
        "kernels.sq_dists_block", rows=int(x.shape[0]), cols=int(y.shape[0])
    ):
        if x_sq is None:
            x_sq = _sq_norms(x)
        if y_sq is None:
            y_sq = _sq_norms(y)
        # -2 x.y + |x|^2 + |y|^2, accumulated in place on the GEMM output.
        if ws is None:
            out = x @ y.T
        else:
            out = np.matmul(x, y.T, out=ws.take("gemm", (x.shape[0], y.shape[0])))
        out *= -2.0
        out += x_sq[:, None]
        out += y_sq[None, :]
        np.maximum(out, 0.0, out=out)
        _refine_cancelled(out, x, y, x_sq, y_sq)
        return out


def _refine_cancelled(
    out: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    x_sq: np.ndarray,
    y_sq: np.ndarray,
) -> None:
    """Recompute cancellation-dominated entries of ``out`` in place.

    The refinement criterion uses only per-row squared norms, and each
    refined entry is recomputed from its own coordinate pair, so the
    output is independent of block shape (the bit-parity contract) and
    matches :func:`dists_to_point` bit-for-bit on the refined entries.
    The scalar pre-check below keeps the common (non-degenerate) case
    allocation-free; it only skips blocks in which *no* entry can be
    below its own per-pair threshold, so skipping never changes bits.
    """
    if out.size == 0:
        return
    if out.min() >= CANCEL_RTOL * (x_sq.max() + y_sq.max()):
        return
    thresh = x_sq[:, None] + y_sq[None, :]
    thresh *= CANCEL_RTOL
    ii, jj = np.nonzero(out < thresh)
    if ii.size:
        diff = x[ii] - y[jj]
        out[ii, jj] = np.einsum("ij,ij->i", diff, diff)


def pairwise_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full dense Euclidean distance matrix (guarded against blow-up).

    Intended for small index sets — e.g. the union of per-machine centers
    in MRG's final round, or the H-by-S matrix in EIM's Select step.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    n_elements = x.shape[0] * y.shape[0]
    if n_elements > MAX_DENSE_ELEMENTS:
        raise MetricError(
            f"refusing to materialise a {x.shape[0]} x {y.shape[0]} distance "
            f"matrix ({n_elements} elements > cap {MAX_DENSE_ELEMENTS}); "
            "use min_dists/update_min_dists instead"
        )
    out = sq_dists_block(x, y)
    np.sqrt(out, out=out)
    return out


def dists_to_point(
    x: np.ndarray, p: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Euclidean distances from every row of ``x`` to the single point ``p``.

    This is the inner step of Gonzalez's traversal; it is a single fused
    vector pass with no temporary larger than ``x`` itself — and that one
    ``(n, d)`` difference temporary is recycled through the calling
    thread's :class:`Workspace` (it is consumed by the reduction before
    the call returns, so reuse cannot escape).  The returned vector is
    always freshly allocated.
    """
    ws = workspace() if ws is None else ws
    diff = ws.take("diff", x.shape)
    np.subtract(x, p[None, :], out=diff)
    out = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(out, out=out)
    return out


#: A traversal over ``n`` rows of dimension ``d >= 2`` runs column-major
#: (:func:`column_traversal`) from ``COLUMN_ROWS_PER_DIM2 * d**2`` rows
#: up.  The crossover is not one row count: below it the one-off
#: transpose and the per-column ufunc calls (about ``d`` per step) cost
#: more than the steps save, and ``einsum`` gets relatively faster on
#: longer rows.  Measured (best of 30 traversals, k in {2, 8, 50}), the
#: column-major path first won for good at 128-256 rows at d = 2,
#: 384-512 at d = 3-4, 512-1,024 at d = 6, 1,536-2,048 at d = 8 and
#: about 4,096 at d = 16; ``32 * d**2`` tracks that within a grid step
#: (conservatively from d = 10 up).  It keeps serve's
#: 256 x 8 solves on :func:`dists_to_point` and puts MRG's 10^4 x 8
#: reducers and 2,500 x 8 final round (threshold 2,048) on the
#: column-major path.  At d = 1 there is nothing to fold and the
#: column-major path measured 0-19% slower at every size, so it never
#: runs there.
COLUMN_ROWS_PER_DIM2 = 32

#: Scratch budget of one :func:`column_traversal` row block.  Measured,
#: not the GEMM budget: at 10^4 x 8 a 256 KiB block (4,096 rows) lost
#: most of the gain, and 1 MiB (16,384 rows at d = 8) was fastest from
#: 10^4 to 5 * 10^5 rows.
COLUMN_BLOCK_BYTES = 2**20

# Per-dimension verdicts of the fold probe (see column_fold_exact).
_FOLD_EXACT: dict[int, bool] = {}


@functools.lru_cache(maxsize=None)
def _pair_order(d: int) -> tuple[int, ...]:
    """The column pairs, by first column, in ``einsum``'s summation order.

    numpy's baseline x86 build reduces a contiguous row of
    ``einsum("ij,ij->i")`` with two SSE lanes: lane 0 takes the even
    columns, lane 1 the odd ones.  Each full block of 8 columns lands on
    the lane accumulators as the pairs ``(6, 7), (4, 5), (2, 3), (0, 1)``
    — lane 0 sums ``((c6 + c4) + c2) + c0`` — the leftover columns are
    added in pairs front to back (an odd last column alone), and the
    result is lane 0 plus lane 1.  Other builds may differ;
    :func:`column_fold_exact` checks rather than trusts this.
    """
    full = d - d % 8
    return tuple(
        [b + c for b in range(0, full, 8) for c in (6, 4, 2, 0)]
        + list(range(full, d, 2))
    )


def _fold_plan(sq: np.ndarray):
    """How to sum the rows of a ``(d, b)`` squared-difference block.

    Returns ``(adds, lanes)``: the in-place adds, in :func:`_pair_order`'s
    order, that fold each row pair of ``sq`` onto its two accumulator
    rows, and those rows (lane 0 and lane 1; one row when ``d = 1``),
    whose sum is the fold.  Both lanes advance together.  Starting the
    accumulators from their first pair instead of ``0.0 + c`` changes no
    bit: squares are never ``-0.0``.
    """
    first, *rest = _pair_order(sq.shape[0])
    lanes = sq[first : first + 2]
    adds = [(lanes[: len(pair)], pair) for pair in (sq[c : c + 2] for c in rest)]
    return adds, lanes


def _column_step(x: np.ndarray, counter=None):
    """The step of a column-major traversal over the rows of ``x``.

    Gonzalez's step is "distances from every row to row ``j``".  Row-major
    (:func:`dists_to_point`) it broadcasts ``x - p`` over ``(n, d)`` and
    reduces each short row with ``einsum``; here the rows are transposed
    once to ``(d, n)``, and each step subtracts, squares and folds whole
    columns over an L2-sized ``(d, rows)`` block
    (:data:`COLUMN_BLOCK_BYTES`), in ``einsum``'s own summation order —
    so every distance is bit-identical to :func:`dists_to_point`'s.  Only
    use it where :func:`column_fold_exact` holds for ``d``.

    The transposed copy lives as long as the returned ``step``.  The
    block is taken once from the calling thread's :class:`Workspace` (the
    ``diff`` role the row-major difference buffer is recycled through),
    so the thread retains at most :data:`COLUMN_BLOCK_BYTES` afterwards
    rather than ``n * d`` floats; each step overwrites every element of
    it that it reads, so another take of the role between steps cannot
    change a result.  The views each step works on are built here, once:
    at MRG's reducer sizes the step is a handful of ufunc calls, and
    per-step Python would be a large share of it.  Each step charges
    ``n`` evaluations to ``counter`` (the fold probe passes none).  One
    traversal, one thread.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    rows = min(n, max(1, COLUMN_BLOCK_BYTES // (8 * d)))
    sq = workspace().take("diff", (d, rows))
    plan = []
    for sl in chunk_slices(n, rows):
        block = sq[:, : sl.stop - sl.start]
        plan.append((sl, xt[:, sl], block, *_fold_plan(block)))

    def step(j: int) -> np.ndarray:
        if counter is not None:
            counter.add(n)
        p = xt[:, j : j + 1]
        out = np.empty(n, dtype=np.float64)
        for sl, cols, block, adds, lanes in plan:
            np.subtract(cols, p, out=block)
            np.multiply(block, block, out=block)
            for acc, pair in adds:
                np.add(acc, pair, out=acc)
            if len(lanes) == 2:
                np.add(lanes[0], lanes[1], out=out[sl])
            else:
                np.copyto(out[sl], lanes[0])
        np.sqrt(out, out=out)
        return out

    return step


def column_traversal(x: np.ndarray, cols: int, counter=None):
    """A farthest-first traversal over ``x``, column-major.

    Returns ``(step, span)``: :func:`_column_step`'s ``step(j)`` and the
    traversal's ``kernels.gonzalez`` block span (``rows`` = n, ``cols`` =
    the centers the traversal asks for), to hold open around the steps.
    """
    span = _trace.block_span("kernels.gonzalez", rows=x.shape[0], cols=int(cols))
    return _column_step(x, counter), span


def column_traversal_pays(n: int, d: int) -> bool:
    """Whether a traversal over ``n`` rows of dimension ``d`` should run
    column-major: past the crossover (:data:`COLUMN_ROWS_PER_DIM2`) and
    proven bit-equal at ``d`` (:func:`column_fold_exact`)."""
    return d > 1 and n >= COLUMN_ROWS_PER_DIM2 * d * d and column_fold_exact(d)


def column_fold_exact(d: int) -> bool:
    """Whether the column-major step reproduces ``einsum``'s bits at ``d``.

    The fold order is a fact about the numpy build, not a guarantee, so
    the first call per ``d`` in a process runs a fixed-seed probe — mixed
    magnitudes, near-duplicates and points offset by 1e8 — through both
    steps and caches the verdict.  The probe has as many rows as the
    smallest column-major traversal at ``d``.  Lazy by design: nothing
    runs at import, and a process whose traversals all stay below the
    crossover never probes.
    """
    verdict = _FOLD_EXACT.get(d)
    if verdict is None:
        rng = np.random.default_rng(d)
        n = COLUMN_ROWS_PER_DIM2 * d * d
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        x[1::4] = x[0] + 1e-9 * rng.normal(size=(len(x[1::4]), d))
        x[2::4] += 1e8
        step = _column_step(x)
        verdict = _FOLD_EXACT[d] = all(
            np.array_equal(step(j).view(np.int64), dists_to_point(x, x[j]).view(np.int64))
            for j in (0, 1, 2, n - 1)
        )
    return verdict


def update_min_dists(
    current: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    ws: Workspace | None = None,
    x_sq: np.ndarray | None = None,
    y_sq: np.ndarray | None = None,
) -> np.ndarray:
    """In-place ``current[i] = min(current[i], d(x[i], y))`` for all rows.

    ``current`` holds each point's distance to some existing reference set;
    this folds a batch of new reference points ``y`` into it.  It is the
    workhorse of the covering-radius pass, EIM's Round 3 (removal) and
    incremental assignment.  Work is blocked over ``x`` so each GEMM block
    stays under ``block_bytes`` (L2-sized by default, so the elementwise
    passes over a block hit cache); block temporaries are recycled
    through the calling thread's :class:`Workspace`.  ``x_sq``/``y_sq``
    are optional precomputed squared norms (a space's cached ``_sq``).

    The pass is fused: each block is reduced to its row minima first,
    and only rows whose minimum lies below ``CANCEL_RTOL * (x_sq[i] +
    max y_sq)`` — the only rows that can hold a cancellation-dominated
    entry — go through :func:`sq_dists_block`'s per-entry refinement
    rule.  The same entries are refined, so the minima are bit-identical
    to ``sq_dists_block(x, y).min(axis=1)`` under any blocking.

    Returns ``current`` (modified in place) for chaining.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if current.shape != (x.shape[0],):
        raise MetricError(
            f"current has shape {current.shape}, expected ({x.shape[0]},)"
        )
    if y.shape[0] == 0:
        return current
    ws = workspace() if ws is None else ws
    if y.shape[0] == 1:
        np.minimum(current, dists_to_point(x, y[0], ws=ws), out=current)
        return current

    if y_sq is None:
        y_sq = _sq_norms(y)
    if x_sq is None:
        x_sq = _sq_norms(x)
    n, k = x.shape[0], y.shape[0]
    sq_min = ws.take("rowmin", (n,))
    x_chunk = resolve_chunk_size(k, block_bytes=block_bytes)
    for sl in chunk_slices(n, x_chunk):
        rows = sl.stop - sl.start
        # Traced under sq_dists_block's name: the same squared-distance
        # block, reduced in place instead of returned.
        with _trace.block_span("kernels.sq_dists_block", rows=rows, cols=k):
            if rows == 1:
                # The 1-row duplication of sq_dists_block: same GEMM kernel.
                xb = np.concatenate([x[sl], x[sl]])
                xb_sq = np.concatenate([x_sq[sl], x_sq[sl]])
            else:
                xb, xb_sq = x[sl], x_sq[sl]
            # sq_dists_block's expansion, in its operation order.
            out = np.matmul(xb, y.T, out=ws.take("gemm", (xb.shape[0], k)))
            out *= -2.0
            out += xb_sq[:, None]
            out += y_sq[None, :]
            out[:rows].min(axis=1, out=sq_min[sl])
    # Row-local refinement: entry (i, j) is cancellation-dominated when
    # below CANCEL_RTOL * (x_sq[i] + y_sq[j]), a bound no larger than the
    # row cut here, so only rows whose minimum falls under it can hold
    # one.  Those rows go through sq_dists_block's per-entry rule (and
    # its clipping; a negative minimum is always under the cut), so the
    # minima keep its bits.
    cut = x_sq + y_sq.max()
    cut *= CANCEL_RTOL
    suspect = np.flatnonzero(sq_min < cut)
    for sl in chunk_slices(suspect.size, x_chunk):
        idx = suspect[sl]
        sq = sq_dists_block(x[idx], y, x_sq[idx], y_sq, ws=ws)
        sq_min[idx] = sq.min(axis=1)
    np.sqrt(sq_min, out=sq_min)
    np.minimum(current, sq_min, out=current)
    return current


def min_dists(
    x: np.ndarray,
    y: np.ndarray,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    ws: Workspace | None = None,
) -> np.ndarray:
    """For each row of ``x``, the Euclidean distance to its nearest row of ``y``.

    ``y`` must be non-empty.  Equivalent to ``cdist(x, y).min(axis=1)`` but
    with bounded memory (block temporaries recycled through the thread's
    :class:`Workspace`; the returned vector is freshly allocated).
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if y.shape[0] == 0:
        raise MetricError("min_dists requires a non-empty reference set y")
    out = np.full(x.shape[0], np.inf, dtype=np.float64)
    return update_min_dists(out, x, y, block_bytes=block_bytes, ws=ws)
