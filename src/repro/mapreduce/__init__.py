"""MapReduce simulation substrate (system S2).

The paper evaluates its parallel algorithms by *simulating* MapReduce on a
single machine: "We simulate the parallel machines sequentially on a single
machine, taking the longest processing time of the simulated machines as
the processing time for that MapReduce round" (Section 7.1), and it does
not charge data movement to the running time.  This package implements that
methodology exactly, plus the bookkeeping the paper's analysis needs:

* :class:`~repro.mapreduce.cluster.SimulatedCluster` — ``m`` machines of
  capacity ``c``; executes a round of reducer tasks and records a
  :class:`~repro.mapreduce.accounting.RoundStats`;
* :mod:`~repro.mapreduce.tasks` — the task contract:
  :class:`~repro.mapreduce.tasks.TaskSpec` (picklable callable + args +
  per-task seed + trace naming + counter policy), and
  :func:`~repro.mapreduce.tasks.dispatch`, the one path every dispatch
  site runs its tasks through;
* :mod:`~repro.mapreduce.partition` — the mapper-side partitioners
  (block / random / hash) with the size invariant ``|V_i| <= ceil(n/m)``;
* :mod:`~repro.mapreduce.model` — the Karloff-et-al-style capacity
  arithmetic from Section 3 (two-round feasibility, the Eq. (1) machine
  recurrence, round counts for the multi-round regime);
* :mod:`~repro.mapreduce.executor` — sequential (default, faithful to the
  paper), thread-pool (shared memory, BLAS-released kernels overlap) and
  process-pool (real multicore) task executors behind one protocol;
* :mod:`~repro.mapreduce.resilient` /
  :mod:`~repro.mapreduce.faults` — fault tolerance over that protocol:
  :class:`~repro.mapreduce.resilient.ResilientExecutor` enforces a
  :class:`~repro.mapreduce.resilient.FaultPolicy` (retries, per-task
  timeouts, speculative re-execution, result dedup) around any backend,
  and the deterministic fault injectors
  (:class:`~repro.mapreduce.faults.FaultSchedule`,
  :class:`~repro.mapreduce.faults.RandomFaults`) test that absorbed
  faults leave results bit-identical to the fault-free run.
"""

from repro.mapreduce.accounting import BatchSummary, JobStats, RoundStats
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.tasks import TaskOutput, TaskSpec, capture_specs
from repro.mapreduce.executor import (
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    ThreadPoolExecutorBackend,
)
from repro.mapreduce.faults import (
    Fault,
    FaultInjector,
    FaultSchedule,
    InjectedFault,
    RandomFaults,
)
from repro.mapreduce.model import (
    machines_after_rounds,
    mrg_approximation_factor,
    mrg_feasible_two_rounds,
    mrg_rounds_needed,
)
from repro.mapreduce.resilient import FaultPolicy, ResilientExecutor
from repro.mapreduce.partition import (
    block_partition,
    hash_partition,
    random_partition,
    shard_aligned_partitioner,
)

__all__ = [
    "SimulatedCluster",
    "TaskOutput",
    "TaskSpec",
    "capture_specs",
    "RoundStats",
    "JobStats",
    "BatchSummary",
    "SequentialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "ResilientExecutor",
    "FaultPolicy",
    "Fault",
    "FaultInjector",
    "FaultSchedule",
    "InjectedFault",
    "RandomFaults",
    "block_partition",
    "random_partition",
    "hash_partition",
    "shard_aligned_partitioner",
    "mrg_feasible_two_rounds",
    "mrg_rounds_needed",
    "mrg_approximation_factor",
    "machines_after_rounds",
]
