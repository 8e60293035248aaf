"""repro — parallel k-center clustering, reproducing McClintock & Wirth (ICPP 2016).

A production-quality implementation of the paper *Efficient Parallel
Algorithms for k-Center Clustering*: Gonzalez's sequential greedy
2-approximation (**GON**), its multi-round MapReduce parallelisation
(**MRG**, 4-approximation in two rounds), and the generalised
Ene-Im-Moseley iterative-sampling scheme (**EIM**, probabilistic
10-approximation with the paper's pivot-rank parameter ``phi``) — all on a
simulated-MapReduce substrate that reproduces the paper's timing
methodology.

Quickstart
----------
Every algorithm runs through the unified :func:`repro.solve` facade
(``algorithm`` is any name or alias from :func:`repro.list_solvers`):

>>> import numpy as np
>>> import repro
>>> points = np.random.default_rng(0).normal(size=(10_000, 3))
>>> space = repro.EuclideanSpace(points)
>>> result = repro.solve(space, k=10, algorithm="mrg", m=50, seed=0)
>>> result.algorithm, result.n_centers
('MRG', 10)
>>> result.radius > 0        # the k-center objective value
True
>>> batch = repro.solve_many(space, 10, algorithms=("gon", "eim"), seeds=(0,))
>>> sorted(key.algorithm for key in batch)
['eim', 'gon']
>>> repro.solve(space, k=10, algorithm="stream", seed=0).algorithm
'STREAM'

The per-algorithm entry points (:func:`gonzalez`, :func:`mrg`,
:func:`eim`, ...) remain available for direct calls with identical
results.  See README.md for the architecture overview and the registry
table, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.core import (
    EIMParams,
    KCenterResult,
    assign,
    covering_radius,
    eim,
    exact_kcenter,
    gonzalez,
    gonzalez_trace,
    greedy_lower_bound,
    hochbaum_shmoys,
    mr_hochbaum_shmoys,
    mrg,
    packing_lower_bound,
    stream_kcenter,
    stream_kcenter_from_stream,
)
from repro.data import (
    Dataset,
    gau,
    kddcup99,
    make_dataset,
    make_sharded,
    make_stream,
    poker_hand,
    unb,
    unif,
)
from repro.errors import (
    CapacityError,
    ConvergenceError,
    DatasetError,
    ExperimentError,
    InvalidParameterError,
    MetricError,
    ReproError,
)
from repro.mapreduce import SimulatedCluster
from repro.metric import EuclideanSpace, MetricSpace, MinkowskiSpace, PrecomputedSpace
from repro.store import (
    ArrayStream,
    ChunkedMetricSpace,
    GeneratorStream,
    MemmapStream,
    PointStream,
    as_space,
    as_stream,
)
from repro.solvers import (
    BatchKey,
    BatchResults,
    SolveConfig,
    SolverSpec,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solve_many,
    solver_names,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # solver facade & registry
    "solve",
    "solve_many",
    "BatchKey",
    "BatchResults",
    "SolveConfig",
    "SolverSpec",
    "register_solver",
    "get_solver",
    "list_solvers",
    "solver_names",
    # algorithms
    "gonzalez",
    "gonzalez_trace",
    "mrg",
    "eim",
    "EIMParams",
    "hochbaum_shmoys",
    "mr_hochbaum_shmoys",
    "stream_kcenter",
    "stream_kcenter_from_stream",
    "exact_kcenter",
    "assign",
    "covering_radius",
    "greedy_lower_bound",
    "packing_lower_bound",
    "KCenterResult",
    # spaces
    "MetricSpace",
    "EuclideanSpace",
    "MinkowskiSpace",
    "PrecomputedSpace",
    # store (out-of-core data layer)
    "PointStream",
    "ArrayStream",
    "MemmapStream",
    "GeneratorStream",
    "ChunkedMetricSpace",
    "as_stream",
    "as_space",
    # substrate
    "SimulatedCluster",
    # data
    "Dataset",
    "make_dataset",
    "make_sharded",
    "make_stream",
    "unif",
    "gau",
    "unb",
    "poker_hand",
    "kddcup99",
    # errors
    "ReproError",
    "InvalidParameterError",
    "CapacityError",
    "MetricError",
    "DatasetError",
    "ConvergenceError",
    "ExperimentError",
]
