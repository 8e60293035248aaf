"""The committed bits manifest (``tests/golden/bits.json``) still holds.

Every other bit check compares two paths of the *same* numpy build; this
one compares against bits recorded once, so a kernel change that moves
a radius by one ulp fails here even when every same-build parity test
passes.  Centers, per-round ``dist_evals`` and nearest-center positions
are checked on every host.  Radius, lower-bound and kernel-distance bits
depend on how the numpy build rounds (``einsum``'s lane order follows
its SIMD baseline), so they are checked only where the recorded numpy
version and SIMD baseline match; elsewhere the test is skipped with the
mismatch named.

Regenerate with ``tests/golden/regenerate_bits.py`` — never from a
test.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "regenerate_bits", _HERE / "regenerate_bits.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

MANIFEST = json.loads(regen.MANIFEST.read_text())
ENTRIES = MANIFEST["entries"]


@functools.lru_cache(maxsize=None)
def recomputed(case_id: str) -> dict:
    return regen.compute(case_id)


def test_manifest_covers_every_case():
    assert sorted(ENTRIES) == sorted(regen.CASES)


@pytest.mark.parametrize("case_id", sorted(ENTRIES))
def test_centers_and_dist_evals(case_id):
    want, got = ENTRIES[case_id], recomputed(case_id)
    for key in ("centers", "dist_evals", "positions"):
        assert got.get(key) == want.get(key), key


@pytest.mark.parametrize("case_id", sorted(ENTRIES))
def test_float_bits(case_id):
    mismatch = regen.build_mismatch(MANIFEST)
    if mismatch:
        pytest.skip(f"float bits recorded on another build: {mismatch}")
    want, got = ENTRIES[case_id], recomputed(case_id)
    for key in ("radius", "lower_bound", "dists"):
        assert got.get(key) == want.get(key), key
