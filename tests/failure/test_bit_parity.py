"""Bit-parity under chaos: the ISSUE's acceptance gate.

For every registered solver, a seeded random fault schedule that stays
within the retry budget must leave the result *bit-identical* to the
fault-free sequential run — same centers, same radius, and the same
per-round ``dist_evals`` (retried work is re-executed, then deduplicated,
so the accounting never double-counts).  A schedule that exhausts the
budget must surface a structured :class:`~repro.errors.TaskFailedError`
in bounded time with no partial result escaping.
"""

import time

import numpy as np
import pytest

import repro
from repro.errors import TaskFailedError
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import ALWAYS, Fault, FaultSchedule, RandomFaults
from repro.mapreduce.resilient import FaultPolicy
from repro.solvers.registry import get_solver, solver_names

# An absorbable but mean schedule: nearly a third of all tasks crash,
# straggle, lose their result, or spawn a duplicate — and the policy
# has enough retries to soak all of it.
CHAOS = dict(rate=0.3, kinds=("crash", "delay", "drop", "duplicate"))
POLICY = FaultPolicy(max_retries=4, speculate_after=None)

# Per-solver workloads sized so every solver runs its real code path
# (eim's threshold must stay below n or it falls back to plain GON;
# exact's oracle refuses large C(n, k)).
CASES = {
    "eim": (600, 4, {"m": 4, "eps": 0.3, "threshold_coeff": 0.05}),
    "exact": (18, 2, {}),
    "gon": (400, 5, {}),
    "hs": (400, 5, {}),
    "mrg": (600, 4, {"m": 4}),
    "mrhs": (600, 4, {"m": 4}),
    "stream": (400, 5, {}),
}


@pytest.fixture(scope="module")
def spaces():
    rng = np.random.default_rng(42)
    return {n: rng.normal(size=(n, 3)) for n in {n for n, _, _ in CASES.values()}}


def make_backend(name):
    if name == "sequential":
        return SequentialExecutor()
    if name == "thread":
        return ThreadPoolExecutorBackend(max_workers=2)
    return ProcessPoolExecutorBackend(max_workers=2)


def assert_bit_identical(faulted, clean):
    assert faulted.algorithm == clean.algorithm
    assert faulted.radius == clean.radius, "radius must be bit-identical"
    np.testing.assert_array_equal(faulted.centers, clean.centers)
    if clean.stats is not None:
        assert faulted.stats is not None
        assert faulted.stats.dist_evals == clean.stats.dist_evals
        # Per-round parity: dedup folds exactly one attempt per task, so
        # retries and duplicates never inflate a round's accounting.
        clean_rounds = [(r.label, r.dist_evals) for r in clean.stats.rounds]
        fault_rounds = [(r.label, r.dist_evals) for r in faulted.stats.rounds]
        assert fault_rounds == clean_rounds


class TestBitParity:
    def test_all_solvers_are_covered(self):
        assert set(CASES) == set(solver_names()), (
            "a newly registered solver must join the parity gate"
        )

    @pytest.mark.parametrize("fault_seed", [1, 2])
    @pytest.mark.parametrize("algo", sorted(CASES))
    def test_solver_bit_identical_under_random_faults(
        self, spaces, algo, fault_seed
    ):
        n, k, opts = CASES[algo]
        rows = spaces[n]
        clean = repro.solve(rows, k, algo, seed=3, **opts)
        faulted = repro.solve(
            rows,
            k,
            algo,
            seed=3,
            fault_policy=POLICY,
            fault_injector=RandomFaults(seed=fault_seed, **CHAOS),
            **opts,
        )
        assert_bit_identical(faulted, clean)

    @pytest.mark.parametrize(
        "algo,backend",
        # Every MapReduce solver runs the full chaos matrix on both pool
        # backends: since the TaskSpec refactor, eim's rounds are
        # module-level tasks and pickle like mrg/mrhs's, so process-pool
        # fan-out with fault injection is covered for all three.
        [
            (a, backend)
            for a in sorted(CASES)
            if "executor" in get_solver(a).shared
            for backend in ("thread", "process")
        ],
    )
    def test_mapreduce_solvers_on_pool_backends(self, spaces, algo, backend):
        n, k, opts = CASES[algo]
        rows = spaces[n]
        clean = repro.solve(rows, k, algo, seed=3, **opts)
        with make_backend(backend) as executor:
            faulted = repro.solve(
                rows,
                k,
                algo,
                seed=3,
                executor=executor,
                fault_policy=POLICY,
                fault_injector=RandomFaults(seed=1, **CHAOS),
                **opts,
            )
        assert_bit_identical(faulted, clean)

    def test_solve_many_batch_bit_identical_under_faults(self, spaces):
        rows = spaces[600]
        clean = repro.solve_many(rows, 4, ["gon", "mrg", "hs"], seeds=[0, 1], m=4)
        faulted = repro.solve_many(
            rows,
            4,
            ["gon", "mrg", "hs"],
            seeds=[0, 1],
            m=4,
            fault_policy=POLICY,
            fault_injector=RandomFaults(seed=2, **CHAOS),
        )
        assert set(faulted.keys()) == set(clean.keys())
        for key, clean_result in clean.items():
            assert_bit_identical(faulted[key], clean_result)
        assert faulted.summary.dist_evals == clean.summary.dist_evals


class TestExhaustedBudget:
    @pytest.mark.parametrize("algo", ["mrg", "gon"])
    def test_unabsorbable_schedule_fails_structurally(self, spaces, algo):
        n, k, opts = CASES[algo]
        rows = spaces[n]
        started = time.perf_counter()
        with pytest.raises(TaskFailedError) as excinfo:
            repro.solve(
                rows,
                k,
                algo,
                seed=3,
                fault_policy=FaultPolicy(max_retries=1),
                fault_injector=FaultSchedule(
                    {(None, 0): Fault("crash", times=ALWAYS)}
                ),
                **opts,
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, "budget exhaustion must fail in bounded time"
        assert excinfo.value.task_index == 0
        assert excinfo.value.attempts == 2

    def test_failure_names_its_unit_of_work(self, spaces):
        # One crash with no retry budget: the structured error names the
        # dispatch that failed, on the solo path and the batch fan-out.
        rows = spaces[400]

        def doomed():
            return {
                "fault_policy": FaultPolicy(max_retries=0),
                "fault_injector": FaultSchedule({(0, 0): Fault("crash")}),
            }

        with pytest.raises(TaskFailedError) as solo:
            repro.solve(rows, 5, "gon", seed=3, **doomed())
        assert solo.value.label == "gon.solo"
        with pytest.raises(TaskFailedError) as batch:
            repro.solve_many(rows, 5, ["gon"], seeds=[3], **doomed())
        assert batch.value.label == "solve_many"
        assert str(batch.value).startswith("solve_many: task 0 failed")

    def test_no_partial_result_escapes(self, spaces):
        # The counter side-effects of a doomed run must not leak into
        # the caller-visible space accounting beyond the failed round.
        rows = spaces[400]
        clean = repro.solve(rows, 5, "gon", seed=3)
        with pytest.raises(TaskFailedError):
            repro.solve(
                rows,
                5,
                "gon",
                seed=3,
                fault_policy=FaultPolicy(max_retries=0),
                fault_injector=FaultSchedule(
                    {(None, None): Fault("crash", times=ALWAYS)}
                ),
            )
        # The library is still healthy: the same solve succeeds after.
        again = repro.solve(rows, 5, "gon", seed=3)
        assert_bit_identical(again, clean)
