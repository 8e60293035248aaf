"""Tests of the benchmark's own arithmetic (``perfbench/arith.py``) and
of its process clean-up (``perfbench/host.py``).

They need numpy only: the program under test is never imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import arith, host
from perfbench.catalog import END_TO_END, PER_LAYER


# --------------------------------------------------------------------------- #
# percentile rule
# --------------------------------------------------------------------------- #
def test_samples_beyond_counts_ranks_above_the_percentile():
    assert arith.samples_beyond(1000, 99) == 10
    assert arith.samples_beyond(999, 99) == 9
    assert arith.samples_beyond(100, 50) == 50
    assert arith.samples_beyond(10, 100) == 0


def test_tail_percentile_is_refused_below_ten_samples_beyond():
    with pytest.raises(arith.TooFewSamples):
        arith.percentile(list(range(999)), 99)
    with pytest.raises(arith.TooFewSamples):
        arith.percentile(list(range(30)), 90)  # 3 beyond


def test_tail_percentile_is_reported_at_ten_samples_beyond():
    values = np.arange(1000, dtype=float)
    assert arith.percentile(values, 99) == pytest.approx(np.percentile(values, 99))


def test_median_needs_one_sample_only():
    assert arith.percentile([4.0], 50) == 4.0
    assert arith.percentile([1.0, 2.0, 9.0], 50) == 2.0
    with pytest.raises(arith.TooFewSamples):
        arith.percentile([], 50)


# --------------------------------------------------------------------------- #
# error_rate
# --------------------------------------------------------------------------- #
def test_error_rate_counts_non_ok_and_missing_responses():
    tally = arith.Tally()
    ops = [tally.attempt() for _ in range(4)]
    responses = {
        ops[0]: {"ok": True},
        ops[1]: {"ok": False, "error": {"code": "overloaded"}},
        ops[2]: None,
        ops[3]: {"ok": True},
    }
    arith.served_failures(responses, tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5


def test_error_rate_counts_failed_checks_once_per_operation():
    tally = arith.Tally()
    a, b, c = (tally.attempt() for _ in range(3))
    tally.check(a, False, "radius mismatch")
    tally.check(a, False, "dist_evals mismatch")  # same op: still one failure
    tally.check(b, True, "fine")
    arith.served_failures({c: {"ok": False}}, tally)
    tally.check(c, False, "bit parity")  # non-ok and a failed check: one failure
    assert tally.failed == 2
    assert tally.error_rate == pytest.approx(2 / 3)
    assert len(tally.reasons) == 2


def test_failing_an_unattempted_operation_is_an_error():
    tally = arith.Tally()
    with pytest.raises(IndexError):
        tally.fail(0, "never sent")
    assert tally.error_rate == 0.0


# --------------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------------- #
def test_poisson_schedule_is_seeded_and_has_the_offered_rate():
    a = arith.poisson_schedule(200.0, 30.0, seed=3)
    b = arith.poisson_schedule(200.0, 30.0, seed=3)
    c = arith.poisson_schedule(200.0, 30.0, seed=4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert (np.diff(a) > 0).all() and 0 < a[0] and a[-1] < 30.0
    assert abs(len(a) - 6000) < 4 * np.sqrt(6000)


def test_lateness_and_due_time_latency_on_a_synthetic_schedule():
    # Requests due every 10 ms; the generator stalls 25 ms before the
    # second send, and the server answers each 2 ms after it arrives.
    due = np.array([0.000, 0.010, 0.020, 0.030])
    sent = np.array([0.000, 0.035, 0.0351, 0.0352])
    received = sent + 0.002
    assert arith.lateness(due, sent) == pytest.approx([0.0, 0.025, 0.0151, 0.0052])
    # Timed from the due time, the stall is charged to every request
    # queued behind it, not hidden in the generator.
    assert arith.due_latency(due, received) == pytest.approx(
        [0.002, 0.027, 0.0171, 0.0072]
    )
    assert arith.lateness([0.5], [0.4]) == pytest.approx([0.0])
    with pytest.raises(ValueError):
        arith.due_latency([1.0], [0.5])


# --------------------------------------------------------------------------- #
# layer split
# --------------------------------------------------------------------------- #
def _span(cat, start, duration, **args):
    return SimpleNamespace(name=cat, cat=cat, start=start, duration=duration, args=args)


def _tree():
    """One solve: two rounds of two tasks each, kernels, an evaluate pass.

    solve   [0.10, 1.10)
      round [0.20, 0.50)   tasks 0.12 and 0.25 (slowest 0.25)
      round [0.55, 0.75)   tasks 0.18 and 0.05 (slowest 0.18)
      evaluate 0.30 s (not a span: KCenterResult.eval_time)
    """
    return [
        _span("solve", 0.10, 1.00),
        _span("round", 0.20, 0.30),
        _span("task", 0.21, 0.12),
        _span("task", 0.22, 0.25),
        _span("block", 0.23, 0.10, rows=100, cols=10),
        _span("round", 0.55, 0.20),
        _span("task", 0.56, 0.18),
        _span("task", 0.57, 0.05),
        _span("block", 0.80, 0.20, rows=50, cols=4),
    ]


def test_solve_layers_on_a_hand_built_span_tree():
    layers = arith.solve_layers(_tree(), eval_time=0.30, outer_wall=1.02, workers=2)
    assert layers["round_s"] == pytest.approx(0.50)
    assert layers["slowest_task_s"] == pytest.approx(0.43)
    assert layers["dispatch_s"] == pytest.approx(0.07)
    assert layers["task_s"] == pytest.approx(0.60)
    assert layers["block_s"] == pytest.approx(0.30)
    assert layers["driver_s"] == pytest.approx(0.20)  # 1.00 - 0.50 - 0.30
    assert layers["facade_s"] == pytest.approx(0.02)
    assert layers["unattributed_s"] == pytest.approx(0.02)
    assert layers["utilisation"] == pytest.approx(0.60 / (0.50 * 2))
    # The attributed layers and the residual add back up to the wall.
    parts = ("driver_s", "dispatch_s", "slowest_task_s", "evaluate_s", "unattributed_s")
    assert sum(layers[p] for p in parts) == pytest.approx(1.02)


def test_solve_layers_shows_an_overlapping_evaluate_as_unattributed_time():
    # An evaluate pass longer than the time outside the rounds cannot be
    # charged to the driver; the excess shows up as a negative residual.
    layers = arith.solve_layers(_tree(), eval_time=0.70, outer_wall=1.00, workers=2)
    assert layers["driver_s"] == 0.0
    assert layers["unattributed_s"] == pytest.approx(1.00 - (0.07 + 0.43 + 0.70))


def test_solve_layers_needs_exactly_one_solve_span():
    with pytest.raises(ValueError):
        arith.solve_layers(_tree()[1:], 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        arith.solve_layers(_tree() + [_span("solve", 2.0, 1.0)], 0.0, 1.0, 2)


def test_kernel_bytes_charges_block_rows_once_and_other_evals_per_row():
    blocks = [_span("block", 0, 0, rows=100, cols=10), _span("block", 0, 0, rows=50, cols=4)]
    # 1200 evals in blocks read 164 rows; 800 more evals read one row each.
    assert arith.kernel_bytes(2000, blocks, d=8) == (164 + 800) * 8 * 8
    assert arith.kernel_bytes(10, [], d=2) == 10 * 2 * 8


# --------------------------------------------------------------------------- #
# the catalogue matches BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_catalogue_matches_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


# --------------------------------------------------------------------------- #
# no process outlives a run
# --------------------------------------------------------------------------- #
def test_reap_children_waits_for_ended_and_kills_lingering_children():
    quick = subprocess.Popen([sys.executable, "-c", "pass"])
    stuck = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert host.reap_children(grace=2.0) == [stuck.pid]
    assert host.child_pids(os.getpid()) == []
    assert quick.wait(timeout=1) == 0
    stuck.wait(timeout=1)
