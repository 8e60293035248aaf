"""Shared helpers for the benchmark suite.

Every bench regenerates one paper table or figure.  Conventions:

* experiments run at the **default (scaled-down) size** unless
  ``REPRO_SCALE=paper`` is set (see EXPERIMENTS.md for the mapping);
* each bench times one *representative* algorithm execution through
  pytest-benchmark (``rounds=1`` — these are experiments, not
  micro-kernels) and regenerates the full table/figure once;
* the regenerated artifact is printed and written to
  ``benchmarks/output/<experiment>.txt`` so EXPERIMENTS.md numbers can be
  traced to a file;
* each bench asserts the paper's qualitative *shape* claims (winners,
  runtime orderings, fallback regimes) — never absolute numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-out",
        default=str(OUTPUT_DIR),
        help="directory the perf and serve benches write BENCH_<n>.json "
        "into (default: benchmarks/output/, which git ignores)",
    )


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def bench_out(request) -> Path:
    """Where a bench writes its machine-readable trajectory."""
    path = Path(request.config.getoption("--bench-out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def scale() -> str:
    from repro.analysis.configs import resolve_scale

    return resolve_scale(os.environ.get("REPRO_SCALE"))


def write_artifact(artifact_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it to the console."""
    path = artifact_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[artifact: {path}]")


@pytest.fixture(scope="session")
def experiment_cache():
    """Session-wide cache so multiple benches can share one experiment run
    (e.g. table6 and table7 are the same grid, measured differently)."""
    cache: dict = {}
    return cache


def run_cached(cache: dict, exp: str, scale: str, seed: int = 2016):
    """Run (or fetch) the record set for an experiment id."""
    from repro.analysis.configs import experiment_config
    from repro.analysis.experiments import run_experiment

    key = (exp, scale, seed)
    if key not in cache:
        spec = experiment_config(exp, scale=scale)
        spec = type(spec)(**{**spec.__dict__, "master_seed": seed})
        cache[key] = (spec, run_experiment(spec))
    return cache[key]
