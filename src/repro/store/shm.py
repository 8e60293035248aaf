"""Zero-copy transport of in-memory spaces into process-pool workers.

The process backend pickles every task, and a task over an in-memory
:class:`~repro.metric.euclidean.EuclideanSpace` used to drag the space's
``(rows, d)`` coordinate bytes through the pipe — once per task, every
round.  This module removes the copy: the driver **publishes** the
coordinate block once per space into a named
:mod:`multiprocessing.shared_memory` segment, and the space then pickles
as a tiny :class:`SharedPoints` *handle*; workers attach to the segment
by name and map the same physical pages read-only.  Out-of-core spaces
never needed this — their streams already pickle by re-opening files
(``MemmapStream.__reduce__``, shard directories) — so the transport
composes with, rather than replaces, that path: each backing crosses the
boundary by reference, never by value.

Mechanics and guarantees:

* **Publish once per space, attach once per worker.**  The first
  process-pool solve on a space publishes its block; later solves, the
  evaluate pass and batches on the same space reuse that publication,
  which lives as long as the space does.  Workers cache attachments per
  process, so a 50-task round costs 50 handle pickles (~100 bytes each)
  and at most one attach + one squared-norm pass per worker per space —
  not 50 coordinate copies, and not one publication per solve.
* **Immutable once published.**  The segment is a snapshot of
  ``space.points`` taken at the first process-pool solve; coordinates
  must not change afterwards (``EuclideanSpace`` may share the caller's
  array, and its cached norms and ``fingerprint`` assume the same).
* **Same bits.**  The segment holds the exact float64 bytes of
  ``space.points``; workers recompute the cached squared norms with the
  same ``einsum`` the driver ran, so every kernel sees identical inputs
  and the executor-parity contract (bit-identical centers, radius,
  dist_evals) is untouched.
* **Spill fallback.**  Hosts where POSIX shared memory is unavailable or
  exhausted (tiny ``/dev/shm`` in containers) fall back to spilling the
  block into a temporary ``.npy`` that workers memory-map — still one
  copy on disk instead of one per task.  ``REPRO_SHM_TRANSPORT=spill``
  forces the fallback; ``REPRO_SHM_TRANSPORT=off`` disables publishing
  entirely (the solvers then revert to shipping prebuilt machine views).
  A publication made under another mode is replaced at the next solve.
* **Cleanup.**  The driver owns the segment: a ``weakref.finalize`` on
  the space unpublishes it when the space dies, and an ``atexit`` sweep
  catches anything left at interpreter exit.  Attached workers keep
  their mapping valid after the unlink (POSIX semantics); each time a
  worker attaches a new block it first drops cached attachments whose
  backing is gone, so a dead segment stays mapped in a long-lived pool
  only until that worker's next new attach.
"""

from __future__ import annotations

import atexit
import copy
import os
import tempfile
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["SharedPoints", "publish_points", "shared_space", "transport_mode"]

#: Environment switch: ``shm`` (default), ``spill`` (always use the
#: temp-file fallback) or ``off`` (never publish).
_ENV = "REPRO_SHM_TRANSPORT"

#: Worker-side attachment cache size (segments, not bytes).  A worker
#: sees one segment per live space; dead ones are dropped at the next
#: new attach, so this bound only caps how many *live* spaces a worker
#: keeps mapped at once (least recently used goes first).
_MAX_ATTACHED = 8

# name/path -> cache entry {"points": ndarray, "sq": ndarray | None, "seg": ...}
_attached: OrderedDict[str, dict] = OrderedDict()

# token -> SharedMemory segment published (and so owned) by this process.
_published: dict[str, object] = {}

# id(space) -> (mode, handle, finalizer) for each space this process has
# published; the finalizer removes the entry when the space dies, so an
# id is never looked up after it could be reused.
_by_space: dict[int, tuple[str, "SharedPoints", weakref.finalize]] = {}
_by_space_lock = threading.RLock()


def transport_mode() -> str:
    """The active transport mode: ``shm``, ``spill`` or ``off``.

    Unrecognised ``REPRO_SHM_TRANSPORT`` values fall back to the default
    with a warning — silently re-enabling the transport someone tried to
    disable with a typo ("none", "disabled") would be worse than noise.
    """
    raw = os.environ.get(_ENV)
    if raw is None:
        return "shm"
    mode = raw.strip().lower()
    if mode not in ("shm", "spill", "off"):
        import warnings

        warnings.warn(
            f"{_ENV}={raw!r} is not one of shm/spill/off; using 'shm'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "shm"
    return mode


def _attach_segment(token: str):
    """Open an existing segment *without* claiming ownership of it.

    Python 3.13's ``track=False`` tells the resource tracker this process
    merely attaches.  On older interpreters attaching registers the name
    a second time; with fork-started pools (Linux default) workers share
    the driver's tracker process and the set-typed registry makes the
    duplicate harmless — the driver's ``unlink`` unregisters it exactly
    once.  (Spawn-started workers on old interpreters own a separate
    tracker and may print a benign "leaked shared_memory" notice at
    exit; there is no portable pre-3.13 fix that does not race the
    owner's registration.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=token, track=False)
    except TypeError:  # Python < 3.13: no track= keyword
        return shared_memory.SharedMemory(name=token)


class SharedPoints:
    """Picklable handle to one published ``(n, d)`` float64 block.

    ``kind`` is ``"shm"`` (a named shared-memory segment) or ``"spill"``
    (a temporary ``.npy`` file).  The handle is plain data — pickling it
    moves ~100 bytes regardless of ``n`` — and both sides resolve it
    through a per-process cache, so repeated attachment is free.
    """

    __slots__ = ("kind", "token", "shape")

    def __init__(self, kind: str, token: str, shape: tuple[int, int]):
        self.kind = kind
        self.token = token
        self.shape = (int(shape[0]), int(shape[1]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedPoints({self.kind}:{self.token}, shape={self.shape})"

    def __getstate__(self):
        return (self.kind, self.token, self.shape)

    def __setstate__(self, state):
        self.kind, self.token, self.shape = state

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def attach(self) -> np.ndarray:
        """The published block, mapped read-only (cached per process)."""
        return self._entry()["points"]

    def attach_with_sq(self) -> tuple[np.ndarray, np.ndarray]:
        """The block plus its per-row squared norms (both cached).

        The norms are computed once per process with the same
        ``einsum("ij,ij->i")`` the in-memory space runs at construction,
        over the same bytes — bit-identical inputs for the GEMM kernels.
        """
        entry = self._entry()
        if entry["sq"] is None:
            pts = entry["points"]
            entry["sq"] = np.einsum("ij,ij->i", pts, pts)
        return entry["points"], entry["sq"]

    def _entry(self) -> dict:
        entry = _attached.get(self.token)
        if entry is not None:
            _attached.move_to_end(self.token)
            return entry
        _drop_dead_attachments()
        if self.kind == "shm":
            seg = _attach_segment(self.token)
            points = np.ndarray(self.shape, dtype=np.float64, buffer=seg.buf)
        else:
            seg = None
            points = np.load(self.token, mmap_mode="r")
        points.flags.writeable = False
        entry = {"points": points, "sq": None, "seg": seg}
        _attached[self.token] = entry
        while len(_attached) > _MAX_ATTACHED:
            _detach(_attached.popitem(last=False)[1])
        return entry

    # ------------------------------------------------------------------ #
    # owner side
    # ------------------------------------------------------------------ #
    def unpublish(self) -> None:
        """Release the published block (owner side; idempotent).

        Unlinks the shared-memory segment or deletes the spill file.
        Workers that already attached keep a valid mapping (POSIX keeps
        the pages until the last map closes); new attachments fail, and
        each worker drops its stale attachment at its next new attach.
        """
        if self.kind == "shm":
            seg = _published.pop(self.token, None)
            if seg is not None:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        else:
            _published.pop(self.token, None)
            try:
                os.unlink(self.token)
            except FileNotFoundError:
                pass
        # Drop any local attachment too (the driver may have round-tripped
        # its own handle through a sequential fallback).
        entry = _attached.pop(self.token, None)
        if entry is not None:
            _detach(entry)


def _backing_exists(token: str, entry: dict) -> bool:
    """Whether the owner still publishes ``token`` (a cached attachment)."""
    if entry["seg"] is None:
        return os.path.exists(token)
    try:
        _attach_segment(token).close()
    except FileNotFoundError:
        return False
    return True


def _drop_dead_attachments() -> None:
    """Forget cached attachments whose owner has unpublished them."""
    for token in [t for t, e in _attached.items() if not _backing_exists(t, e)]:
        _detach(_attached.pop(token))


def _detach(entry: dict) -> None:
    """Release one cached attachment's views and mapping."""
    seg = entry["seg"]
    entry.clear()  # drop this cache's views first so the mapping can close
    if seg is not None:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - a task still holds views
            pass  # GC closes the mapping with the last view


def publish_points(points: np.ndarray) -> SharedPoints | None:
    """Publish a coordinate block for zero-copy worker attachment.

    Copies ``points`` once into a fresh named segment (or, on failure or
    under ``REPRO_SHM_TRANSPORT=spill``, into a temporary ``.npy``) and
    returns the handle — or ``None`` when the transport is disabled.
    The caller owns the handle and must :meth:`~SharedPoints.unpublish`
    it (:func:`shared_space` ties it to a space's lifetime instead).
    """
    mode = transport_mode()
    if mode == "off":
        return None
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {arr.shape}")
    if mode == "shm":
        try:
            return _publish_shm(arr)
        except (OSError, ValueError):  # no /dev/shm, or segment too large
            pass
    return _publish_spill(arr)


def _publish_shm(arr: np.ndarray) -> SharedPoints:
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    try:
        view = np.ndarray(arr.shape, dtype=np.float64, buffer=seg.buf)
        view[...] = arr
    except BaseException:  # pragma: no cover - copy cannot realistically fail
        seg.close()
        seg.unlink()
        raise
    _published[seg.name] = seg
    return SharedPoints("shm", seg.name, arr.shape)


def _publish_spill(arr: np.ndarray) -> SharedPoints:
    fd, path = tempfile.mkstemp(prefix="repro-shm-spill-", suffix=".npy")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, arr)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
    _published[path] = None  # owned token; value unused for spill files
    return SharedPoints("spill", path, arr.shape)


@atexit.register
def _cleanup_published() -> None:  # pragma: no cover - interpreter teardown
    """Last-chance sweep: unlink anything a run failed to unpublish."""
    for token, seg in list(_published.items()):
        try:
            if seg is not None:
                seg.close()
                seg.unlink()
            else:
                os.unlink(token)
        except Exception:
            pass
        _published.pop(token, None)


def _publishable(space) -> bool:
    """Whether ``space`` carries an in-memory block we know how to ship."""
    from repro.metric.euclidean import EuclideanSpace
    from repro.metric.minkowski import MinkowskiSpace

    return isinstance(space, (EuclideanSpace, MinkowskiSpace))


def _publication(space) -> SharedPoints | None:
    """``space``'s publication under the active mode, made on first use.

    A publication made under another mode is retired and replaced; one
    made under the active mode is reused until the space dies.
    """
    mode = transport_mode()
    if mode == "off":
        return None
    key = id(space)
    with _by_space_lock:
        held = _by_space.get(key)
        if held is not None:
            if held[0] == mode:
                return held[1]
            held[2]()  # retire the other mode's publication now
        # Called through the module global so a wrapper patched onto
        # ``publish_points`` sees every publication.
        handle = publish_points(space.points)
        if handle is not None:
            done = weakref.finalize(space, _retire, key, handle, os.getpid())
            _by_space[key] = (mode, handle, done)
        return handle


def _retire(key: int, handle: SharedPoints, owner: int) -> None:
    """Unpublish a dead (or superseded) space's block, owner process only.

    A forked worker inherits the registry and the finalizers; the block
    is the driver's, so they must never unlink it.
    """
    if os.getpid() != owner:
        return
    with _by_space_lock:
        _by_space.pop(key, None)
    handle.unpublish()


@contextmanager
def shared_space(space, executor) -> Iterator:
    """Scope in which ``space`` crosses process boundaries by reference.

    When ``executor`` advertises ``crosses_process_boundary`` and
    ``space`` is a publishable in-memory space, yields a shallow clone
    whose pickling ships a :class:`SharedPoints` handle instead of the
    coordinate rows; otherwise yields ``space`` unchanged (sequential and
    thread backends share memory natively, out-of-core spaces re-open
    their backing).  The block is published at the first such scope and
    reused by every later one on the same space; it is unpublished when
    the space dies, not when the scope ends, so ``space`` itself still
    pickles its rows and its coordinates must not change once published.
    """
    out = space
    if (
        executor.crosses_process_boundary
        and _publishable(space)
        and getattr(space, "_shared", None) is None
    ):
        handle = _publication(space)
        if handle is not None:
            out = copy.copy(space)
            out._shared = handle
    yield out
