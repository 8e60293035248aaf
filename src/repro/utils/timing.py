"""Low-overhead wall-clock timing.

The MapReduce simulation (paper Section 7.1) wall-clocks each reducer's work
and takes the **maximum** per round as the simulated parallel time.  The
:class:`Timer` here is the single primitive used for all of that accounting,
so every measured number in the benchmarks flows through one code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Timer", "timed"]


@dataclass
class Timer:
    """Accumulating stopwatch based on :func:`time.perf_counter`.

    Usage::

        t = Timer()
        with t:
            work()
        with t:            # accumulates
            more_work()
        t.elapsed          # total seconds across both blocks

    A Timer may be re-entered any number of times but is not re-entrant
    (no nesting of the *same* instance).
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Timer":
        if self._started_at is not None:
            raise RuntimeError("Timer is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the clock; return the duration of the just-ended interval."""
        if self._started_at is None:
            raise RuntimeError("Timer is not running")
        interval = time.perf_counter() - self._started_at
        self._started_at = None
        self.elapsed += interval
        return interval

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def reset(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("cannot reset a running Timer")
        self.elapsed = 0.0

    @contextmanager
    def paused(self):
        """Stop the running clock for the ``with`` block, then restart it."""
        self.stop()
        try:
            yield self
        finally:
            self.start()

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return ``(result, seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
