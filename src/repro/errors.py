"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. are still
raised directly for mis-typed arguments).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "CapacityError",
    "MetricError",
    "DatasetError",
    "ConvergenceError",
    "ExperimentError",
    "TaskFailedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm or substrate parameter is out of its valid domain.

    Also a :class:`ValueError` so generic callers that validate inputs with
    ``except ValueError`` keep working.
    """


class CapacityError(ReproError):
    """A MapReduce machine-capacity constraint cannot be satisfied.

    Raised, e.g., when ``k > c`` so the final Gonzalez round can never fit
    its input on a single machine (paper, Section 3.3), or when the total
    cluster memory ``m * c`` is smaller than the input size ``n``.
    """


class MetricError(ReproError):
    """A metric-space operation failed (shape mismatch, axiom violation)."""


class DatasetError(ReproError):
    """A dataset generator or registry lookup failed."""


class ConvergenceError(ReproError):
    """An iterative procedure failed to make progress.

    EIM's original removal rule can loop indefinitely on small inputs
    (paper, Section 4.1); our implementation fixes this, but the ablation
    mode that reproduces the un-fixed behaviour raises this error after a
    bounded number of stalled iterations instead of hanging.
    """


class ExperimentError(ReproError):
    """An experiment specification is inconsistent or failed to run."""


class TaskFailedError(ReproError):
    """A task exhausted its fault-tolerance budget and cannot be retried.

    Raised by :class:`~repro.mapreduce.resilient.ResilientExecutor` when
    a task keeps failing (crash, timeout, lost result, broken worker
    pool) after ``FaultPolicy.max_retries`` re-dispatches.  Structured so
    callers can report *which* unit of work died and why — partial
    results are never returned in its place.

    Attributes
    ----------
    task_index:
        Position of the failed task within its batch/round.
    attempts:
        Total attempts made (initial dispatch + retries).
    label:
        The unit of work that failed, stamped by
        :func:`~repro.mapreduce.tasks.dispatch`: a round label
        (``"mrg.reduce[1]"``), ``"evaluate"``, ``"solve_many"`` or
        ``"{algorithm}.solo"``; ``None`` when a bare
        :meth:`~repro.mapreduce.resilient.ResilientExecutor.run` raised
        it.  The message leads with it when set.
    __cause__:
        The final attempt's underlying exception (standard chaining).
    """

    def __init__(
        self,
        message: str,
        task_index: int | None = None,
        attempts: int | None = None,
        label: str | None = None,
    ):
        super().__init__(message)
        self.task_index = task_index
        self.attempts = attempts
        self.label = label

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.label is None else f"{self.label}: {message}"
