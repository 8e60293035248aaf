"""The task contract, enforced: every registered solver's round tasks
pickle, re-execute deterministically, and closures cannot cross the
``run_round`` boundary.

These are the acceptance tests of the `repro.mapreduce.tasks` layer:

* **pickle round-trip** — run every registered solver under
  :func:`~repro.mapreduce.tasks.capture_specs` and round-trip every
  captured :class:`~repro.mapreduce.tasks.TaskSpec` through ``pickle``;
  the clone must execute to a bit-identical result.  This is the
  machine-checked form of "no closure crosses a run_round boundary for
  any registered solver".
* **per-task-seed determinism** — a seeded spec executed twice (the
  duplicate-fault / speculative-re-execution scenario) reproduces its
  first output exactly.
* **guard** — lambdas and locally-defined closures are rejected, both at
  ``TaskSpec`` construction and at the ``run_round`` boundary.
"""

import pickle

import numpy as np
import pytest

import repro
from repro.errors import InvalidParameterError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.tasks import TaskOutput, TaskSpec, capture_specs, commit
from repro.metric.euclidean import EuclideanSpace
from repro.solvers.registry import solver_names

# (n, k, extra options) per solver — sized so every MapReduce solver's
# round structure actually engages (EIM's options pull its loop threshold
# below n, so the iterative rounds run instead of the GON fallback).
CASES = {
    "eim": (400, 3, {"m": 4, "eps": 0.3, "threshold_coeff": 0.05}),
    "exact": (16, 2, {}),
    "gon": (120, 4, {}),
    "hs": (120, 4, {}),
    "mrg": (400, 3, {"m": 4}),
    "mrhs": (400, 3, {"m": 4}),
    "stream": (120, 4, {}),
}

MAPREDUCE = {"eim", "mrg", "mrhs"}


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(42).normal(size=(n, 3))


def _capture_all(algorithm: str):
    """Run one solve of ``algorithm``; return every (label, spec) bound.

    MapReduce solvers fan out through ``run_round``; single-machine
    solvers go through the ``solve_many`` batch path — both funnel into
    ``dispatch``, so the capture hook sees every task that would cross
    an executor boundary.
    """
    n, k, opts = CASES[algorithm]
    space = EuclideanSpace(_points(n))
    with capture_specs() as records:
        if algorithm in MAPREDUCE:
            repro.solve(space, k, algorithm=algorithm, seed=11, **opts)
        else:
            repro.solve_many(space, k, algorithms=[(algorithm, opts)], seeds=(11,))
    return [(label, spec) for label, specs in records for spec in specs]


def _flat(value):
    """Flatten a task result into comparable leaves."""
    if isinstance(value, TaskOutput):
        yield from _flat(value.value)
        yield value.dist_evals
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _flat(item)
    else:
        yield value


def _assert_bit_identical(a, b, context: str):
    la, lb = list(_flat(a)), list(_flat(b))
    assert len(la) == len(lb), context
    for x, y in zip(la, lb):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), context
        elif hasattr(x, "centers"):  # KCenterResult (solo / solve_many tasks)
            assert np.array_equal(x.centers, y.centers), context
            assert x.radius == y.radius, context
        else:
            assert x == y, context


class TestEverySolverHonoursTheContract:
    def test_cases_cover_the_whole_registry(self):
        assert sorted(CASES) == solver_names()

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_specs_pickle_and_round_trip_bit_identically(self, algorithm):
        captured = _capture_all(algorithm)
        assert captured, f"{algorithm}: no TaskSpec crossed a dispatch boundary"
        for label, spec in captured:
            clone = pickle.loads(pickle.dumps(spec))
            context = f"{algorithm}: task of round {label!r}"
            # Tasks are pure functions of their (copied-on-pickle) args,
            # so original and clone must agree bit for bit.
            _assert_bit_identical(spec(), clone(), context)

    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_specs_are_deterministic_under_duplication(self, algorithm):
        # The duplicate-fault / speculative re-execution scenario: the
        # same task object runs twice; both attempts must agree exactly.
        for label, spec in _capture_all(algorithm):
            context = f"{algorithm}: duplicated task of round {label!r}"
            _assert_bit_identical(spec(), spec(), context)

    @pytest.mark.parametrize("algorithm", ["eim", "mrg"])
    def test_randomised_rounds_bind_their_seed_in_the_spec(self, algorithm):
        # The randomised solvers must expose per-task randomness as the
        # first-class `seed` field — a live generator smuggled through
        # args would draw differently on its second execution.
        seeded = [s for _, s in _capture_all(algorithm) if s.seed is not None]
        assert seeded, f"{algorithm}: expected at least one seeded task"


def _module_level_ok():
    return "ok"


class TestContractGuards:
    def test_run_round_rejects_bare_callables(self):
        cluster = SimulatedCluster(m=2)
        with pytest.raises(InvalidParameterError, match="TaskSpec"):
            cluster.run_round("r", [lambda: 1], task_sizes=[1])
        assert cluster.stats.n_rounds == 0, "no partial work on rejection"

    def test_taskspec_rejects_lambdas_at_construction(self):
        with pytest.raises(InvalidParameterError, match="lambda or closure"):
            TaskSpec(lambda: 1)

    def test_taskspec_rejects_local_closures_at_construction(self):
        state = []

        def local_task():
            state.append(1)

        with pytest.raises(InvalidParameterError, match="lambda or closure"):
            TaskSpec(local_task)

    def test_taskspec_accepts_module_level_functions(self):
        spec = TaskSpec(_module_level_ok)
        assert pickle.loads(pickle.dumps(spec))() == "ok"

    def test_taskspec_rejects_unknown_counting_policy(self):
        with pytest.raises(InvalidParameterError, match="counting"):
            TaskSpec(_module_level_ok, counting="sometimes")

    def test_commit_enforces_output_counting_policy(self):
        spec = TaskSpec(_module_level_ok, counting="output")
        with pytest.raises(InvalidParameterError, match="counting='output'"):
            commit(["bare value"], [spec])

    def test_commit_folds_task_output_into_counter(self):
        from repro.metric.base import DistCounter

        counter = DistCounter()
        values = commit(
            [TaskOutput("a", 3), "b", TaskOutput("c", 4)],
            counter=counter,
        )
        assert values == ["a", "b", "c"]
        assert counter.evals == 7
