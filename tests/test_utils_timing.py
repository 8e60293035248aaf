"""Unit tests for repro.utils.timing."""

import time

import pytest

from repro.utils.timing import Timer, timed


class TestTimer:
    def test_accumulates_across_blocks(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first >= 0.01

    def test_stop_returns_interval(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        interval = t.stop()
        assert interval == pytest.approx(t.elapsed)
        assert interval >= 0.005

    def test_double_start_rejected(self):
        t = Timer().start()
        with pytest.raises(RuntimeError, match="already running"):
            t.start()
        t.stop()

    def test_paused_excludes_the_block(self):
        t = Timer()
        with t:
            with t.paused():
                assert not t.running
                time.sleep(0.05)
            assert t.running
        assert t.elapsed < 0.05

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not running"):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_reset_while_running_rejected(self):
        t = Timer().start()
        with pytest.raises(RuntimeError, match="running"):
            t.reset()
        t.stop()

    def test_running_property(self):
        t = Timer()
        assert not t.running
        t.start()
        assert t.running
        t.stop()
        assert not t.running


def test_timed_returns_result_and_seconds():
    result, seconds = timed(lambda a, b=1: a + b, 2, b=3)
    assert result == 5
    assert seconds >= 0.0
