"""Per-round and per-job cost accounting.

Two cost notions coexist, mirroring the paper:

* **simulated parallel time** — per round, the *maximum* wall-clock time of
  any reducer task (Section 7.1's methodology); summed over rounds it is
  the headline "Runtime" of Figures 2–4 and Table 7;
* **total CPU time** — the sum over reducers, i.e. what one sequential
  machine would pay; the MRG-vs-GON speedup in the paper is precisely
  simulated-parallel vs total-sequential.

We additionally track shuffle volume (elements moved between rounds) and
scalar distance evaluations (via :class:`repro.metric.base.DistCounter`),
which the paper's Section 5 analysis counts; neither is charged to time,
matching the paper ("we ... do not record the cost of moving data between
machines").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

__all__ = ["RoundStats", "JobStats", "BatchSummary"]


@dataclass
class RoundStats:
    """Costs of one MapReduce round."""

    label: str
    #: Wall-clock seconds per reducer task, in task order.
    task_times: list[float] = field(default_factory=list)
    #: Input elements per reducer task (for capacity audits).
    task_sizes: list[int] = field(default_factory=list)
    #: Elements shuffled into this round by the mapper.
    shuffle_elements: int = 0
    #: Scalar distance evaluations performed during this round.
    dist_evals: int = 0
    #: Task attempts re-dispatched after a failure (crash / timeout /
    #: lost result) by the fault-tolerance layer.  Zero without a
    #: :class:`~repro.mapreduce.resilient.ResilientExecutor`.
    retries: int = 0
    #: Tasks whose *speculative* copy finished first.
    speculative_wins: int = 0
    #: Wall-clock of attempts whose result was discarded (failed
    #: attempts, abandoned stragglers, losing speculative copies).  Kept
    #: out of ``task_times`` so the paper-methodology timing is
    #: winners-only.
    wasted_task_seconds: float = 0.0
    #: Speculative / duplicate copies launched, and faults injected by a
    #: configured :class:`~repro.mapreduce.faults.FaultInjector`.
    speculative_launches: int = 0
    faults_injected: int = 0
    #: Per-task breakdowns aligned with ``task_times``: each task's
    #: committed distance evaluations, retries, speculative win (0 or 1)
    #: and discarded wall-clock.  ``solve_many`` reads them for exact
    #: per-run summaries.  Like the two counts above, they describe a
    #: live round and are not part of the :meth:`to_dict` row.
    task_dist_evals: list[int] = field(default_factory=list)
    task_retries: list[int] = field(default_factory=list)
    task_speculative_wins: list[int] = field(default_factory=list)
    task_wasted_seconds: list[float] = field(default_factory=list)

    @classmethod
    def of_tasks(cls, task_times: list[float]) -> "RoundStats":
        """An unlabelled round with zeroed per-task fault breakdowns —
        what every :class:`~repro.mapreduce.executor.Executor` ``run``
        returns; the dispatch path labels it and adds the evaluations."""
        n = len(task_times)
        return cls(
            "",
            task_times=task_times,
            task_retries=[0] * n,
            task_speculative_wins=[0] * n,
            task_wasted_seconds=[0.0] * n,
        )

    @property
    def n_tasks(self) -> int:
        return len(self.task_times)

    @property
    def parallel_time(self) -> float:
        """Simulated parallel time: the slowest reducer's wall-clock."""
        return max(self.task_times) if self.task_times else 0.0

    @property
    def cpu_time(self) -> float:
        """Total CPU time: the sum over reducers."""
        return float(sum(self.task_times))

    @property
    def max_task_size(self) -> int:
        return max(self.task_sizes) if self.task_sizes else 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundStats({self.label!r}: {self.n_tasks} tasks, "
            f"parallel {self.parallel_time:.4g}s, cpu {self.cpu_time:.4g}s, "
            f"shuffle {self.shuffle_elements}, dist_evals {self.dist_evals})"
        )

    # ------------------------------------------------------------------ #
    # wire form: benchmark harnesses serialise per-round rows
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-JSON row of the round's headline fields; :meth:`from_dict`
        round-trips it exactly."""
        return {
            "label": self.label,
            "task_times": list(self.task_times),
            "task_sizes": list(self.task_sizes),
            "shuffle_elements": self.shuffle_elements,
            "dist_evals": self.dist_evals,
            "retries": self.retries,
            "speculative_wins": self.speculative_wins,
            "wasted_task_seconds": self.wasted_task_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoundStats":
        """Rebuild from a :meth:`to_dict` mapping.

        Unknown keys are ignored and missing keys keep their dataclass
        defaults, so rows written before the fault-tolerance fields
        existed (and rows a newer writer may add fields to) still parse.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: data[key] for key in known if key in data})


@dataclass
class JobStats:
    """Accumulated costs of a multi-round MapReduce job."""

    rounds: list[RoundStats] = field(default_factory=list)

    def add(self, round_stats: RoundStats) -> RoundStats:
        self.rounds.append(round_stats)
        return round_stats

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def parallel_time(self) -> float:
        """Simulated parallel job time: sum over rounds of the slowest task."""
        return float(sum(r.parallel_time for r in self.rounds))

    @property
    def cpu_time(self) -> float:
        return float(sum(r.cpu_time for r in self.rounds))

    @property
    def shuffle_elements(self) -> int:
        return int(sum(r.shuffle_elements for r in self.rounds))

    @property
    def dist_evals(self) -> int:
        return int(sum(r.dist_evals for r in self.rounds))

    @property
    def max_machine_load(self) -> int:
        """Largest single-reducer input across the whole job."""
        return max((r.max_task_size for r in self.rounds), default=0)

    @property
    def retries(self) -> int:
        return int(sum(r.retries for r in self.rounds))

    @property
    def speculative_wins(self) -> int:
        return int(sum(r.speculative_wins for r in self.rounds))

    @property
    def wasted_task_seconds(self) -> float:
        return float(sum(r.wasted_task_seconds for r in self.rounds))

    def merged(self, other: "JobStats") -> "JobStats":
        """New JobStats with this job's rounds followed by ``other``'s."""
        return JobStats(rounds=[*self.rounds, *other.rounds])

    def summary(self) -> dict:
        """Flat dict of headline numbers (used by the experiment harness)."""
        return {
            "rounds": self.n_rounds,
            "parallel_time": self.parallel_time,
            "cpu_time": self.cpu_time,
            "shuffle_elements": self.shuffle_elements,
            "dist_evals": self.dist_evals,
            "max_machine_load": self.max_machine_load,
        }


@dataclass
class BatchSummary:
    """Merged accounting of one ``solve_many`` batch (the JobStats of the
    batch fan-out, one level above the per-run round stats).

    The two time notions mirror :class:`JobStats`: ``parallel_time`` is
    the slowest *run* in the batch (what a fully parallel fan-out would
    take), ``cpu_time`` the sum over runs (what the sequential backend
    pays).  ``dist_evals`` totals every run's private counter, so it is
    identical on every backend.  ``solver_rounds`` sums the MapReduce
    rounds of the runs that report round stats (sequential solvers
    contribute zero).
    """

    runs: int = 0
    parallel_time: float = 0.0
    cpu_time: float = 0.0
    dist_evals: int = 0
    solver_rounds: int = 0
    #: Fault-tolerance accounting (see :class:`RoundStats`): task
    #: attempts re-dispatched after failures, tasks won by a speculative
    #: copy, and wall-clock spent on attempts whose result was
    #: discarded.  All zero unless the batch ran under a
    #: :class:`~repro.mapreduce.resilient.ResilientExecutor`.  The
    #: defaults keep summaries written before these fields existed
    #: parsing unchanged (``from_dict`` ignores unknown keys in the
    #: other direction).
    retries: int = 0
    speculative_wins: int = 0
    wasted_task_seconds: float = 0.0

    def summary(self) -> dict:
        """Flat dict of headline numbers, shaped like ``JobStats.summary``."""
        return {
            "runs": self.runs,
            "parallel_time": self.parallel_time,
            "cpu_time": self.cpu_time,
            "dist_evals": self.dist_evals,
            "solver_rounds": self.solver_rounds,
            "retries": self.retries,
            "speculative_wins": self.speculative_wins,
            "wasted_task_seconds": self.wasted_task_seconds,
        }

    # ------------------------------------------------------------------ #
    # wire form: the summary rides back per response over repro.serve
    # ------------------------------------------------------------------ #
    to_dict = summary

    @classmethod
    def from_dict(cls, data: Mapping) -> "BatchSummary":
        """Rebuild from a :meth:`summary`/:meth:`to_dict` mapping.

        Unknown keys are ignored (a newer server may report fields an
        older client does not know); missing keys keep their defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: data[key] for key in known if key in data})

    def to_json(self) -> str:
        """Compact JSON form — ``from_json`` round-trips it exactly."""
        return json.dumps(self.summary(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "BatchSummary":
        return cls.from_dict(json.loads(payload))

    @classmethod
    def merged(cls, parts: Iterable["BatchSummary"]) -> "BatchSummary":
        """Fold per-run summaries into one batch summary.

        Counts sum; ``parallel_time`` is the slowest part (what a fully
        parallel fan-out pays) while ``cpu_time`` sums, mirroring
        :class:`JobStats`.
        """
        total = cls()
        for part in parts:
            total.runs += part.runs
            total.parallel_time = max(total.parallel_time, part.parallel_time)
            total.cpu_time += part.cpu_time
            total.dist_evals += part.dist_evals
            total.solver_rounds += part.solver_rounds
            total.retries += part.retries
            total.speculative_wins += part.speculative_wins
            total.wasted_task_seconds += part.wasted_task_seconds
        return total
