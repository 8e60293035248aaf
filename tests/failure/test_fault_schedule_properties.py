"""Property test: drawn fault schedules through a real solver.

Hypothesis draws ``crash``, ``delay`` and ``duplicate`` faults keyed to
MRG's two rounds (4 reducers, then the final Gonzalez task) and runs
them through ``repro.solve`` on a resilient thread pool, and through a
``solve_many`` batch, where round 0 is the batch fan-out and each task
is one run.  Every drawn schedule is absorbable (a fault fires at most
twice, the policy retries twice), so the results must equal the
fault-free sequential run bit for bit, and the retries must tell one
story: the rounds' records, the executor's ``totals`` and the
``repro_task_retries_total`` counter; the batch summary and its per-run
summaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.mapreduce.executor import ThreadPoolExecutorBackend
from repro.mapreduce.faults import Fault, FaultSchedule
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor
from repro.obs import metrics

ROWS = np.random.default_rng(8).normal(size=(400, 3))
K, M = 5, 4
SEEDS = (0, 1, 2, 3)
POLICY = FaultPolicy(max_retries=2)
#: The small ci profile: each example is one solve and one 4-run batch.
CI = settings(max_examples=20, deadline=None)

faults = st.builds(
    Fault,
    kind=st.sampled_from(["crash", "delay", "duplicate"]),
    times=st.sampled_from([1, 2]),
    seconds=st.sampled_from([0.0, 0.005]),
)
schedules = st.dictionaries(
    st.tuples(st.integers(0, 1), st.one_of(st.none(), st.integers(0, M - 1))),
    faults,
    max_size=3,
).map(FaultSchedule)

CLEAN = {seed: repro.solve(ROWS, K, "mrg", m=M, seed=seed) for seed in SEEDS}
CLEAN_BATCH = repro.solve_many(ROWS, K, [("mrg", {"m": M})], seeds=SEEDS)


def bits(result) -> tuple:
    return (
        result.centers.tolist(),
        float(result.radius).hex(),
        [(r.label, r.dist_evals) for r in result.stats.rounds],
    )


def retries_counted() -> float:
    return metrics.REGISTRY.counter("repro_task_retries_total").value()


@pytest.fixture(scope="module")
def pool():
    with ThreadPoolExecutorBackend(max_workers=2) as backend:
        yield backend


def check_solve(pool, schedule):
    executor = ResilientExecutor(pool, POLICY, schedule)
    with metrics.capture():
        result = repro.solve(ROWS, K, "mrg", m=M, seed=SEEDS[0], executor=executor)
        counted = retries_counted()
    assert bits(result) == bits(CLEAN[SEEDS[0]])
    assert result.stats.retries == executor.totals.retries == counted


def check_batch(pool, schedule):
    with metrics.capture():
        batch = repro.solve_many(
            ROWS, K, [("mrg", {"m": M})], seeds=SEEDS, executor=pool,
            fault_policy=POLICY, fault_injector=schedule,
        )
        counted = retries_counted()
    for key, result in batch.items():
        assert bits(result) == bits(CLEAN[key.seed])
    runs = batch.run_summaries
    assert batch.summary.retries == sum(s.retries for s in runs.values()) == counted
    for key, clean in CLEAN_BATCH.run_summaries.items():
        assert runs[key].dist_evals == clean.dist_evals


@CI
@given(schedule=schedules)
def test_drawn_schedules_leave_mrg_bits_and_one_retry_count(pool, schedule):
    check_solve(pool, schedule)
    check_batch(pool, schedule)
