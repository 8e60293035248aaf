"""Smoke tests: every shipped example must run cleanly end to end.

Examples run in-process (runpy) at their shipped sizes — they are
written to finish in seconds — and the tests assert on their printed
output.  Each example runs at most once per session of this module: the
``example_output`` fixture caches its stdout, so the generic smoke test
and the example-specific checks share one run.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.fixture(scope="module")
def example_output():
    """``example_output(name)`` -> the example's stdout, run once."""
    outputs: dict[str, str] = {}

    def run(name: str) -> str:
        if name not in outputs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
            outputs[name] = buffer.getvalue()
        return outputs[name]

    return run


def test_at_least_three_examples_shipped():
    assert len(ALL_EXAMPLES) >= 3


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs(name, example_output):
    out = example_output(name)
    assert len(out) > 100, f"{name} produced almost no output"


def test_quickstart_reports_all_algorithms(example_output):
    out = example_output("quickstart.py")
    for algo in ("GON", "MRG", "EIM"):
        assert algo in out
    assert "speedup" in out


def test_phi_tradeoff_reports_thresholds(example_output):
    out = example_output("phi_tradeoff.py")
    assert "5.15" in out
    assert "no guarantee" in out and "guaranteed" in out
