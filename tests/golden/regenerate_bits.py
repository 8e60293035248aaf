"""Regenerate ``tests/golden/bits.json``, the cross-version bits manifest.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate_bits.py

Each entry pins what a solver returns on a fixed cloud: the centers,
``radius.hex()`` and the per-round ``dist_evals``, plus the greedy lower
bound's ``hex()``.  ``tests/test_golden_bits.py`` recomputes every entry
on the sequential backend and compares.  Regenerate only when a change
is *meant* to move bits, and list each changed entry with its reason in
``CHANGES.md``.

The shapes straddle the kernels' code paths: d in {2, 3, 8, 13}; n below
and above the column-major traversal threshold and past one row block of
its scratch (70,000 rows exceeds a 1 MiB block at every d >= 2); one
near-duplicate cloud and one cloud offset by 1e8.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

import repro
from repro.core.bounds import greedy_lower_bound
from repro.mapreduce.executor import SequentialExecutor

MANIFEST = pathlib.Path(__file__).with_name("bits.json")
K = 10
EIM_OPTIONS = {"m": 4, "eps": 0.3, "threshold_coeff": 0.05}


def cloud(kind: str, n: int, d: int) -> np.ndarray:
    """A fixed-seed point cloud (drawn inline, independent of repro.data)."""
    rng = np.random.default_rng([n, d, sum(map(ord, kind))])
    if kind == "near-dup":
        base = rng.normal(size=(40, d))
        return base[rng.integers(40, size=n)] + 1e-9 * rng.normal(size=(n, d))
    centers = rng.uniform(0.0, 100.0, size=(25, d))
    x = centers[rng.integers(25, size=n)] + rng.normal(size=(n, d))
    return x + 1e8 if kind == "offset" else x


def _cases() -> list[tuple[str, str, int, int]]:
    """``(entry kind, cloud kind, n, d)`` for every manifest entry."""
    cases = []
    for d in (2, 3, 8, 13):
        for n in (200, 3000, 70_000):
            cases += [("gon", "gau", n, d), ("lower_bound", "gau", n, d)]
            cases.append(("mrg", "gau", n, d))
            if n < 70_000:
                cases.append(("eim", "gau", n, d))
    for kind, d in (("near-dup", 3), ("offset", 8)):
        cases += [(e, kind, 3000, d) for e in ("gon", "mrg", "eim", "lower_bound")]
    return cases


CASES = {f"{entry}/{kind}-{n}x{d}": (entry, kind, n, d) for entry, kind, n, d in _cases()}


def compute(case_id: str) -> dict:
    """Recompute one manifest entry on the sequential backend."""
    entry, kind, n, d = CASES[case_id]
    space = repro.EuclideanSpace(cloud(kind, n, d))
    if entry == "lower_bound":
        return {"lower_bound": greedy_lower_bound(space, K).hex()}
    options = {"gon": {}, "mrg": {"m": 4}, "eim": EIM_OPTIONS}[entry]
    if entry != "gon":
        options = dict(options, executor=SequentialExecutor())
    result = repro.solve(space, K, entry, seed=7, **options)
    rounds = [] if result.stats is None else result.stats.rounds
    return {
        "centers": [int(c) for c in result.centers],
        "radius": float(result.radius).hex(),
        "dist_evals": [[r.label, int(r.dist_evals)] for r in rounds]
        + [["total", int(space.counter.evals)]],
    }


def build() -> dict:
    """The whole manifest, plus the build facts radius bits depend on."""
    return {
        "numpy": np.__version__,
        "simd_baseline": simd_baseline(),
        "entries": {case_id: compute(case_id) for case_id in CASES},
    }


def simd_baseline() -> list[str]:
    """numpy's compiled-in SIMD baseline (``einsum``'s lane layout)."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return list(simd.get("baseline", []))


def build_mismatch(manifest: dict) -> str | None:
    """How this host's build differs from the one ``manifest`` records."""
    here = {"numpy": np.__version__, "simd_baseline": simd_baseline()}
    diffs = [
        f"{key} {manifest[key]!r} recorded, {value!r} here"
        for key, value in here.items()
        if manifest[key] != value
    ]
    return "; ".join(diffs) or None


def dump(manifest: dict) -> str:
    """JSON with one entry per line, so a regeneration diffs per entry."""
    entries = manifest["entries"]
    lines = [f"  {json.dumps(key)}: {json.dumps(entries[key])}" for key in sorted(entries)]
    head = {key: value for key, value in manifest.items() if key != "entries"}
    return (
        json.dumps(head, sort_keys=True)[:-1]
        + ', "entries": {\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )


if __name__ == "__main__":
    MANIFEST.write_text(dump(build()))
    print(f"wrote {len(CASES)} entries to {MANIFEST}")
