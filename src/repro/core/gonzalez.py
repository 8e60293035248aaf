"""GON — Gonzalez's greedy 2-approximation (farthest-first traversal).

"This algorithm chooses an arbitrary vertex from the graph, and marks it as
a center.  At each following step, the vertex farthest from the existing
centers is marked as a new center, until k centers have been chosen"
(paper, Section 3.1).  The triangle inequality makes the result a factor-2
approximation [Gonzalez 1985], and the runtime is O(k*n) distance
evaluations: one fused vector pass per selected center, maintaining the
running minimum distance to the chosen set in place.

The loop is written once, over any :class:`~repro.metric.base.MetricSpace`:
it takes its per-step distance function, and the span to hold open
around the steps, from :meth:`~repro.metric.base.MetricSpace.traversal`.
Most spaces step with ``dists_to`` under no span; a large in-memory
Euclidean space steps column-major
(:func:`~repro.metric.kernels.column_traversal`) with the same bits, so
MRG's reducers and final round, EIM's last GON, :func:`gonzalez` and the
greedy lower bound all take the fast path where it applies.

This module exposes both the low-level traversal (:func:`gonzalez_trace`,
returning the selection-radius trace that powers the certified lower bound
in :mod:`repro.core.bounds`) and the packaged :func:`gonzalez` entry point
returning a :class:`~repro.core.result.KCenterResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import KCenterResult
from repro.errors import InvalidParameterError
from repro.metric.base import MetricSpace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer

__all__ = ["GonzalezTrace", "gonzalez_trace", "gonzalez"]


@dataclass
class GonzalezTrace:
    """Raw outcome of a farthest-first traversal over a space.

    Attributes
    ----------
    centers:
        Indices (into the space the traversal ran on) of the selected
        centers, in selection order.
    selection_radii:
        ``selection_radii[t]`` is the distance of the ``t``-th selected
        center to the previously selected set, for ``t >= 1`` (entry 0 is
        ``inf`` by convention: the seed is "infinitely far" from the empty
        set).  This sequence is non-increasing.
    final_dists:
        Distance of every point of the space to the selected set — the
        in-place running minimum at termination.  ``final_dists.max()`` is
        the covering radius, and is also the ``(k+1)``-th selection radius
        the lower-bound argument uses.
    """

    centers: np.ndarray
    selection_radii: np.ndarray
    final_dists: np.ndarray

    @property
    def radius(self) -> float:
        return float(self.final_dists.max()) if self.final_dists.size else 0.0


def gonzalez_trace(
    space: MetricSpace,
    k: int,
    seed: SeedLike = None,
    first_center: int | None = None,
) -> GonzalezTrace:
    """Run the farthest-first traversal; return the full trace.

    Parameters
    ----------
    space:
        Metric space to traverse (typically a compact
        :meth:`~repro.metric.base.MetricSpace.local` view).
    k:
        Number of centers to select; capped at ``space.n``.
    seed:
        RNG for the arbitrary initial center (ignored when
        ``first_center`` is given).
    first_center:
        Deterministic seed vertex — used by tests and by the adversarial
        tightness example.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    n = space.n
    if n == 0:
        return GonzalezTrace(
            centers=np.empty(0, dtype=np.intp),
            selection_radii=np.empty(0),
            final_dists=np.empty(0),
        )
    k_eff = min(k, n)
    if first_center is None:
        first = int(as_generator(seed).integers(n))
    else:
        first = int(first_center)
        if not 0 <= first < n:
            raise InvalidParameterError(
                f"first_center {first} out of range for a space of size {n}"
            )

    centers = np.empty(k_eff, dtype=np.intp)
    radii = np.empty(k_eff, dtype=np.float64)
    centers[0] = first
    radii[0] = np.inf
    # Running min-distance of every point to the selected set, folded in
    # place after one distance step per center: O(k n) in all.
    step, span = space.traversal(k_eff)
    with span:
        dists = step(first)
        for t in range(1, k_eff):
            farthest = int(dists.argmax())
            radii[t] = dists[farthest]
            if radii[t] == 0.0:
                # All remaining points coincide with chosen centers;
                # selecting duplicates would violate the distinct-centers
                # contract.
                centers, radii = centers[:t], radii[:t]
                break
            centers[t] = farthest
            np.minimum(dists, step(farthest), out=dists)
    return GonzalezTrace(centers=centers, selection_radii=radii, final_dists=dists)


def gonzalez(
    space: MetricSpace,
    k: int,
    seed: SeedLike = None,
    first_center: int | None = None,
) -> KCenterResult:
    """GON: sequential greedy 2-approximation for k-center.

    Returns a :class:`KCenterResult` whose ``radius`` is exact (the
    traversal's running minima give it for free) and whose
    ``approx_factor`` is 2.
    """
    timer = Timer()
    with timer:
        trace = gonzalez_trace(space, k, seed=seed, first_center=first_center)
    return KCenterResult(
        algorithm="GON",
        centers=trace.centers,
        radius=trace.radius,
        k=k,
        wall_time=timer.elapsed,
        approx_factor=2.0,
        extra={"selection_radii": trace.selection_radii},
    )
