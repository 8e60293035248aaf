"""Unit tests for round/job cost accounting."""

import pytest

from repro.mapreduce.accounting import JobStats, RoundStats


class TestRoundStats:
    def test_parallel_time_is_max(self):
        r = RoundStats("r", task_times=[0.1, 0.5, 0.2], task_sizes=[10, 10, 10])
        assert r.parallel_time == 0.5

    def test_cpu_time_is_sum(self):
        r = RoundStats("r", task_times=[0.1, 0.5, 0.2], task_sizes=[1, 2, 3])
        assert r.cpu_time == pytest.approx(0.8)

    def test_empty_round(self):
        r = RoundStats("empty")
        assert r.parallel_time == 0.0
        assert r.cpu_time == 0.0
        assert r.max_task_size == 0
        assert r.n_tasks == 0

    def test_max_task_size(self):
        r = RoundStats("r", task_times=[0.0, 0.0], task_sizes=[7, 100])
        assert r.max_task_size == 100


class TestJobStats:
    def _job(self) -> JobStats:
        job = JobStats()
        job.add(RoundStats("a", task_times=[0.2, 0.4], task_sizes=[5, 5],
                           shuffle_elements=10, dist_evals=100))
        job.add(RoundStats("b", task_times=[0.3], task_sizes=[8],
                           shuffle_elements=8, dist_evals=50))
        return job

    def test_parallel_time_sums_round_maxima(self):
        assert self._job().parallel_time == pytest.approx(0.4 + 0.3)

    def test_cpu_time_sums_everything(self):
        assert self._job().cpu_time == pytest.approx(0.2 + 0.4 + 0.3)

    def test_counters(self):
        job = self._job()
        assert job.n_rounds == 2
        assert job.shuffle_elements == 18
        assert job.dist_evals == 150
        assert job.max_machine_load == 8

    def test_parallel_never_exceeds_cpu(self):
        job = self._job()
        assert job.parallel_time <= job.cpu_time

    def test_merged_preserves_order(self):
        a, b = self._job(), self._job()
        merged = a.merged(b)
        assert merged.n_rounds == 4
        assert [r.label for r in merged.rounds] == ["a", "b", "a", "b"]
        # Originals untouched.
        assert a.n_rounds == 2 and b.n_rounds == 2

    def test_summary_keys(self):
        s = self._job().summary()
        assert set(s) == {
            "rounds", "parallel_time", "cpu_time", "shuffle_elements",
            "dist_evals", "max_machine_load",
        }

    def test_empty_job(self):
        job = JobStats()
        assert job.parallel_time == 0.0
        assert job.max_machine_load == 0
        assert job.n_rounds == 0


class TestBatchSummary:
    """The wire form: BatchSummary must survive a JSON round-trip exactly
    (it rides back per response over repro.serve)."""

    def _sample(self):
        from repro.mapreduce.accounting import BatchSummary

        return BatchSummary(
            runs=3, parallel_time=0.25, cpu_time=0.6, dist_evals=1234,
            solver_rounds=4, retries=2, speculative_wins=1,
        )

    def test_json_round_trip_is_exact(self):
        from repro.mapreduce.accounting import BatchSummary

        summary = self._sample()
        assert BatchSummary.from_json(summary.to_json()) == summary

    def test_to_dict_matches_summary(self):
        summary = self._sample()
        assert summary.to_dict() == summary.summary()

    def test_from_dict_ignores_unknown_and_defaults_missing(self):
        from repro.mapreduce.accounting import BatchSummary

        # "cache_hits" is a retired field: old summaries must still parse.
        rebuilt = BatchSummary.from_dict(
            {"runs": 2, "dist_evals": 9, "cache_hits": 3, "a_future_field": 1}
        )
        assert rebuilt.runs == 2
        assert rebuilt.dist_evals == 9
        assert rebuilt.retries == 0

    def test_merged_sums_counts_and_maxes_parallel_time(self):
        from repro.mapreduce.accounting import BatchSummary

        a = BatchSummary(runs=1, parallel_time=0.5, cpu_time=0.5,
                         dist_evals=10, retries=1, solver_rounds=2)
        b = BatchSummary(runs=1, parallel_time=0.2, cpu_time=0.2,
                         dist_evals=5, speculative_wins=1)
        merged = BatchSummary.merged([a, b])
        assert merged.runs == 2
        assert merged.parallel_time == 0.5  # slowest run, not the sum
        assert merged.cpu_time == pytest.approx(0.7)
        assert merged.dist_evals == 15
        assert (merged.retries, merged.speculative_wins) == (1, 1)
        assert merged.solver_rounds == 2

    def test_merged_of_nothing_is_the_zero_summary(self):
        from repro.mapreduce.accounting import BatchSummary

        assert BatchSummary.merged([]) == BatchSummary()


class TestSchemaStability:
    """The fault-tolerance fields are additive: new records round-trip
    exactly, and records written *before* the fields existed (old
    ``BENCH_*.json`` files, archived serve responses) still parse with
    zero-valued fault accounting."""

    def _round(self) -> RoundStats:
        return RoundStats(
            "mrg.reduce[1]",
            task_times=[0.1, 0.2],
            task_sizes=[5, 5],
            shuffle_elements=10,
            dist_evals=100,
            retries=2,
            speculative_wins=1,
            wasted_task_seconds=0.05,
        )

    def test_round_stats_round_trip_is_exact(self):
        stats = self._round()
        assert RoundStats.from_dict(stats.to_dict()) == stats

    def test_round_stats_old_schema_parses_with_zero_fault_fields(self):
        old = self._round().to_dict()
        for field in ("retries", "speculative_wins", "wasted_task_seconds"):
            del old[field]
        stats = RoundStats.from_dict(old)
        assert stats.dist_evals == 100
        assert stats.retries == 0
        assert stats.speculative_wins == 0
        assert stats.wasted_task_seconds == 0.0

    def test_round_stats_from_dict_ignores_future_fields(self):
        data = self._round().to_dict()
        data["a_future_field"] = "whatever"
        assert RoundStats.from_dict(data) == self._round()

    def test_job_stats_sum_fault_fields_across_rounds(self):
        job = JobStats()
        job.add(self._round())
        job.add(self._round())
        assert job.retries == 4
        assert job.speculative_wins == 2
        assert job.wasted_task_seconds == pytest.approx(0.1)
        # The experiment-record schema is frozen: fault accounting rides
        # on properties, not new summary() keys.
        assert "retries" not in job.summary()

    def test_batch_summary_old_json_parses(self):
        from repro.mapreduce.accounting import BatchSummary

        new = BatchSummary(
            runs=1, dist_evals=9, retries=3, speculative_wins=1,
            wasted_task_seconds=0.2,
        )
        wire = new.to_dict()
        assert wire["retries"] == 3
        for field in ("retries", "speculative_wins", "wasted_task_seconds"):
            del wire[field]
        old = BatchSummary.from_dict(wire)
        assert old.dist_evals == 9
        assert old.retries == 0 and old.wasted_task_seconds == 0.0

    def test_batch_summary_merged_accumulates_fault_fields(self):
        from repro.mapreduce.accounting import BatchSummary

        a = BatchSummary(runs=1, retries=1, wasted_task_seconds=0.1)
        b = BatchSummary(runs=1, retries=2, speculative_wins=1,
                         wasted_task_seconds=0.3)
        merged = BatchSummary.merged([a, b])
        assert merged.retries == 3
        assert merged.speculative_wins == 1
        assert merged.wasted_task_seconds == pytest.approx(0.4)
