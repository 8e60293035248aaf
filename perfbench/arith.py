"""The benchmark's own arithmetic, kept free of the program under test.

Everything here is a pure function over numbers or span-like records, so
``test_perfbench_arith.py`` can pin each rule on hand-made inputs:

* the percentile rule — a tail percentile is reported only when at least
  :data:`MIN_BEYOND` samples lie beyond it;
* failure counting — an operation fails on an exception, a non-``ok``
  response, a missing response or a failed output check, and every
  operation counts once however many of those it hits;
* the open loop — a seeded Poisson send schedule, how late the
  generator ran against it, and latency measured from the due time;
* the layer split of one traced solve — driver, dispatch, slowest task
  and evaluate, recovered from a span tree, plus what none of them
  covers.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q``-th percentile.

    The ``q``-th percentile sits at rank ``ceil(q * n / 100)``; every
    sample after that rank is beyond it.
    """
    if n < 0 or not 0.0 <= q <= 100.0:
        raise ValueError(f"need n >= 0 and 0 <= q <= 100, got n={n}, q={q}")
    return n - math.ceil(q * n / 100.0 - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, numpy's default).

    ``q`` above 50 is a tail: it is refused with :class:`TooFewSamples`
    unless :data:`MIN_BEYOND` samples lie beyond it.  The median is
    always reported when there is at least one sample.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 50.0 and samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --------------------------------------------------------------------------- #
# failures
# --------------------------------------------------------------------------- #
class Tally:
    """Attempted and failed operations of one run.

    An operation is counted once when it is attempted, and marked failed
    at most once, whatever the number of reasons (exception, non-``ok``
    response, failed checks).  ``reasons`` keeps the first few messages
    for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set = set()
        self.reasons: list[str] = []

    def attempt(self) -> int:
        """Register one operation; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise IndexError(f"operation {op} was never attempted")
        if op not in self._failed and len(self.reasons) < 20:
            self.reasons.append(f"op {op}: {reason}")
        self._failed.add(op)

    def check(self, op: int, ok: bool, reason: str) -> None:
        """Mark ``op`` failed unless ``ok``."""
        if not ok:
            self.fail(op, reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def served_failures(
    responses: Mapping[int, Mapping | None], tally: Tally
) -> None:
    """Mark every request whose response is missing or not ``ok``.

    ``responses`` maps an operation index (from :meth:`Tally.attempt`)
    to its decoded response line, or ``None`` when none arrived.
    """
    for op, response in responses.items():
        if response is None:
            tally.fail(op, "no response")
        elif not response.get("ok"):
            error = response.get("error") or {}
            tally.fail(op, f"not ok: {error.get('code', '?')}")


# --------------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------------- #
def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Send offsets (seconds from the start) of a Poisson arrival stream.

    Independent users: exponential gaps of mean ``1/rate``, drawn from
    ``seed`` alone, truncated at ``seconds``.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = np.random.default_rng(seed)
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 10 * int(math.sqrt(expected) + 10))
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def lateness(due: Sequence[float], sent: Sequence[float]) -> np.ndarray:
    """How late each send ran against its schedule (never negative)."""
    return np.maximum(np.asarray(sent, dtype=np.float64) - np.asarray(due), 0.0)


def due_latency(due: Sequence[float], received: Sequence[float]) -> np.ndarray:
    """Latency from each request's *scheduled* send time to its response.

    Timing from the due time, not the actual send, charges a stall in
    the generator or the server to every request queued behind it.
    """
    out = np.asarray(received, dtype=np.float64) - np.asarray(due, dtype=np.float64)
    if (out < 0).any():
        raise ValueError("a response arrived before its request was due")
    return out


# --------------------------------------------------------------------------- #
# layer split of one traced solve
# --------------------------------------------------------------------------- #
def _end(span) -> float:
    return span.start + span.duration


def _within(inner, outer) -> bool:
    return inner.start >= outer.start and _end(inner) <= _end(outer)


def solve_layers(
    spans: Iterable, eval_time: float, outer_wall: float, workers: int
) -> dict[str, float]:
    """Split one traced solve into layers, from its span tree.

    ``spans`` are span records (``name``, ``cat``, ``start``,
    ``duration``) of exactly one solve: one ``solve`` span, its
    ``round`` spans, the ``task`` spans folded into each round and any
    ``block`` spans.  ``eval_time`` is the result's evaluate pass and
    ``outer_wall`` the caller's own clock around the ``repro.solve``
    call.  Returns seconds per layer:

    * ``round_s`` — the round spans' sum;
    * ``slowest_task_s`` — per round, the longest task span inside it;
    * ``dispatch_s`` — per round, its span minus that slowest task
      (bind, pickle, IPC, queueing);
    * ``task_s`` — every task span's duration, summed;
    * ``block_s`` — every block span's duration, summed;
    * ``evaluate_s`` — ``eval_time``;
    * ``driver_s`` — the solve span minus rounds and evaluate
      (partitioning and reassembly), never below zero;
    * ``facade_s`` — ``outer_wall`` minus the solve span;
    * ``unattributed_s`` — ``outer_wall`` minus driver, dispatch,
      slowest task and evaluate: the facade's share plus anything the
      driver term had to clamp;
    * ``utilisation`` — task time over round wall times ``workers``.
    """
    spans = list(spans)
    solves = [s for s in spans if s.cat == "solve"]
    if len(solves) != 1:
        raise ValueError(f"expected one solve span, found {len(solves)}")
    (solve,) = solves
    rounds = [s for s in spans if s.cat == "round"]
    tasks = [s for s in spans if s.cat == "task"]
    blocks = [s for s in spans if s.cat == "block"]
    round_s = sum(r.duration for r in rounds)
    slowest = 0.0
    for rnd in rounds:
        inside = [t.duration for t in tasks if _within(t, rnd)]
        slowest += max(inside, default=0.0)
    dispatch = round_s - slowest
    driver = max(solve.duration - round_s - eval_time, 0.0)
    task_s = sum(t.duration for t in tasks)
    return {
        "round_s": round_s,
        "slowest_task_s": slowest,
        "dispatch_s": dispatch,
        "task_s": task_s,
        "block_s": sum(b.duration for b in blocks),
        "evaluate_s": eval_time,
        "driver_s": driver,
        "facade_s": outer_wall - solve.duration,
        "unattributed_s": outer_wall - (driver + dispatch + slowest + eval_time),
        "utilisation": task_s / (round_s * workers) if round_s > 0 else 0.0,
    }


def kernel_bytes(dist_evals: int, blocks: Iterable, d: int) -> int:
    """Bytes of coordinates the kernels read for one solve (computed).

    A block kernel over an ``(rows, d)`` by ``(cols, d)`` pair reads each
    operand row once; every other distance evaluation (the point-to-set
    loops without block spans) reads one row of ``d`` float64 values.
    """
    blocks = list(blocks)
    blocked = sum(b.args["rows"] * b.args["cols"] for b in blocks)
    read_rows = sum(b.args["rows"] + b.args["cols"] for b in blocks)
    return int((read_rows + max(dist_evals - blocked, 0)) * d * 8)
