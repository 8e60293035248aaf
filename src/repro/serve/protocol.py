"""Wire protocol of the ``repro.serve`` job server.

One protocol, deliberately boring: **newline-delimited JSON** over a TCP
socket.  Every request is one JSON object on one line; every request gets
exactly one JSON response line.  Lines are independent, so clients may
pipeline — send several requests before reading any response — and match
replies to requests by the echoed ``id``.

Request shape (``op`` defaults to ``"solve"``)::

    {"op": "solve", "id": "7", "algo": "mrg", "k": 10,
     "points": [[0.0, 1.0], ...],          # inline rows, XOR
     "data": "shards/",                    # a server-visible .npy / shard dir
     "seed": 0,                            # optional
     "options": {"m": 8, "partitioner": "hash"},   # shared knobs + solver opts
     "timeout": 5.0}                       # optional, seconds

    {"op": "ping"}          -> {"ok": true, "op": "ping", ...}
    {"op": "stats"}         -> {"ok": true, "stats": {...}}
    {"op": "metrics"}       -> {"ok": true, "metrics": "<prometheus text>",
                                "content_type": "text/plain; version=0.0.4..."}
    {"op": "progress", ...same fields as solve...}
        -> zero or more {"id": ..., "ok": true, "final": false,
                         "event": {"name": ..., "cat": "round"|"solve"|"attempt",
                                   "start": ..., "duration": ..., "args": {...}}}
           then one normal final response line (``"final": true``)

Response shape::

    {"id": "7", "ok": true,
     "result": {"algorithm": "MRG", "k": 10, "centers": [...],
                "radius": 0.031, ...},
     "accounting": {"queue_ms": ..., "solve_ms": ..., "batch_runs": ...,
                    "summary": {...BatchSummary...}}}

    {"id": "7", "ok": false, "error": {"code": "too-large", "message": ...}}

Failures are **structured error responses**, never dropped connections
(the one exception: an over-long line, which poisons the stream framing
and closes the connection after a final error line).  Error codes are the
module's ``E_*`` constants; :class:`ServeError` carries one through the
server internals and over the wire.

Numbers cross the wire bit-exactly: Python's JSON encoder emits the
shortest round-tripping ``repr`` for floats, so served ``centers`` /
``radius`` compare ``==`` against a direct in-process :func:`repro.solve`
— the serving layer's parity contract (``tests/test_serve.py``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.result import KCenterResult
from repro.errors import ReproError
from repro.mapreduce.accounting import BatchSummary
from repro.metric.base import MetricSpace
from repro.solvers.config import SolveConfig, UNSET
from repro.solvers.registry import SolverSpec, get_solver
from repro.store.space import as_space

__all__ = [
    "PROTOCOL_VERSION",
    "ServeError",
    "SolveRequest",
    "parse_solve_request",
    "encode",
    "decode_line",
    "ok_response",
    "error_response",
    "result_payload",
]

PROTOCOL_VERSION = 1

# Error codes -------------------------------------------------------------- #
E_BAD_JSON = "bad-json"  # the line is not a JSON object
E_BAD_REQUEST = "bad-request"  # structurally invalid request fields
E_UNKNOWN_ALGORITHM = "unknown-algorithm"  # algo not in the solver registry
E_INVALID_PARAMETER = "invalid-parameter"  # knob/option rejected by the spec
E_TOO_LARGE = "too-large"  # request exceeds max_points admission cap
E_OVERLOADED = "overloaded"  # queue depth cap hit; retry later
E_TIMEOUT = "timeout"  # per-request deadline expired
E_SHUTTING_DOWN = "shutting-down"  # server draining; no new admissions
E_LINE_TOO_LONG = "line-too-long"  # framing poisoned; connection closes
E_INTERNAL = "internal"  # unexpected failure inside a batch


class ServeError(ReproError):
    """A structured serving-layer failure: an error ``code`` plus message.

    Everything the server deliberately refuses — bad JSON, unknown
    algorithm, admission rejection, timeout — travels as one of these and
    becomes an ``{"ok": false, "error": {...}}`` response, so clients
    can dispatch on ``code`` without parsing prose.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def payload(self) -> dict:
        return {"code": self.code, "message": self.message}


# -------------------------------------------------------------------------- #
# framing
# -------------------------------------------------------------------------- #
def encode(obj: Mapping) -> bytes:
    """One response/request as a compact JSON line (trailing newline)."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a JSON object, or raise :class:`ServeError`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(E_BAD_JSON, f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServeError(
            E_BAD_JSON,
            f"request must be a JSON object, got {type(payload).__name__}",
        )
    return payload


# -------------------------------------------------------------------------- #
# solve requests
# -------------------------------------------------------------------------- #
@dataclass
class SolveRequest:
    """One admitted-or-rejected unit of work, parsed and validated.

    ``space_key`` is the coalescing key: requests sharing it run in one
    ``solve_many`` batch over one space object.  Inline point sets key on
    the space's content fingerprint (so two clients sending the same
    rows coalesce into one batch); path inputs key on the resolved path.
    """

    id: str
    spec: SolverSpec
    k: int
    space: MetricSpace
    space_key: object
    seed: Any = None
    knobs: dict[str, Any] = field(default_factory=dict)  # m/capacity/evaluate
    options: dict[str, Any] = field(default_factory=dict)  # solver-specific
    timeout: float | None = None

    def entry(self) -> tuple[SolverSpec, dict[str, Any]]:
        """This request as one heterogeneous ``solve_many`` entry."""
        return (
            self.spec,
            {
                "label": self.id,
                "k": self.k,
                "seed": self.seed,
                **self.knobs,
                **self.options,
            },
        )


def _require_int(payload: Mapping, key: str) -> int:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(
            E_BAD_REQUEST, f"{key!r} must be an integer, got {value!r}"
        )
    return value


def _resolve_space(payload: Mapping) -> tuple[MetricSpace, object]:
    """The request's input as a (space, coalescing key) pair."""
    points = payload.get("points")
    data = payload.get("data")
    if (points is None) == (data is None):
        raise ServeError(
            E_BAD_REQUEST,
            "a solve request needs exactly one of 'points' (inline rows) "
            "or 'data' (a server-visible .npy file or shard directory)",
        )
    if points is not None:
        try:
            rows = np.asarray(points, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ServeError(
                E_BAD_REQUEST, f"'points' is not a numeric matrix: {exc}"
            ) from None
        if rows.ndim != 2 or rows.size == 0:
            raise ServeError(
                E_BAD_REQUEST,
                f"'points' must be a non-empty 2-D matrix, got shape "
                f"{rows.shape}",
            )
        try:
            space = as_space(rows)
        except ReproError as exc:  # non-finite values etc.
            raise ServeError(E_BAD_REQUEST, str(exc)) from None
        # Content key: identical inline rows coalesce across clients.
        return space, space.fingerprint() or ("id", id(space))
    if not isinstance(data, str):
        raise ServeError(
            E_BAD_REQUEST, f"'data' must be a path string, got {data!r}"
        )
    try:
        space = as_space(data)
    except (ReproError, OSError) as exc:
        raise ServeError(E_BAD_REQUEST, f"cannot open data {data!r}: {exc}") from None
    return space, ("path", os.path.realpath(data))


#: Shared knobs a request may set through its options dict.  ``executor``
#: is deliberately absent: the server owns the one warm pool.
_REQUEST_KNOBS = ("m", "capacity", "evaluate")


def parse_solve_request(
    payload: Mapping, req_id: str, *, max_points: int | None = None
) -> SolveRequest:
    """Validate one solve request against the registry; raise :class:`ServeError`.

    Validation is *eager* — unknown algorithm, rejected knobs/options and
    oversized inputs all fail here, before anything is queued, so a bad
    request can never occupy batch capacity or crash a worker later.
    """
    algo = payload.get("algo")
    if not isinstance(algo, str):
        raise ServeError(
            E_BAD_REQUEST, f"'algo' must be a solver name, got {algo!r}"
        )
    try:
        spec = get_solver(algo)
    except ReproError as exc:
        raise ServeError(E_UNKNOWN_ALGORITHM, str(exc)) from None

    k = _require_int(payload, "k")
    options = payload.get("options") or {}
    if not isinstance(options, Mapping):
        raise ServeError(
            E_BAD_REQUEST, f"'options' must be an object, got {options!r}"
        )
    options = dict(options)
    for reserved in ("executor", "label", "seed", "k"):
        if reserved in options:
            hint = (
                "the server owns the executor pool"
                if reserved == "executor"
                else "pass it as a top-level request field"
            )
            raise ServeError(
                E_BAD_REQUEST, f"option {reserved!r} is not settable; {hint}"
            )
    knobs = {key: options.pop(key) for key in _REQUEST_KNOBS if key in options}
    seed = payload.get("seed")

    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ServeError(
                E_BAD_REQUEST, f"'timeout' must be a number, got {timeout!r}"
            )
        timeout = float(timeout)
        if not math.isfinite(timeout) or timeout <= 0:
            raise ServeError(
                E_BAD_REQUEST, f"'timeout' must be positive, got {timeout}"
            )

    # Validate knobs/options against the spec *now* (fail-fast admission);
    # the scheduler later re-derives the same kwargs through solve_many.
    try:
        config = SolveConfig(
            k=k,
            seed=seed,
            m=knobs.get("m", UNSET),
            capacity=knobs.get("capacity", UNSET),
            evaluate=knobs.get("evaluate", UNSET),
            options=options,
        )
        config.kwargs_for(spec)
    except ReproError as exc:
        raise ServeError(E_INVALID_PARAMETER, str(exc)) from None

    space, space_key = _resolve_space(payload)
    if max_points is not None and space.n > max_points:
        raise ServeError(
            E_TOO_LARGE,
            f"request has {space.n} points, over the admission cap of "
            f"{max_points}; split the workload or raise --max-points",
        )
    return SolveRequest(
        id=req_id,
        spec=spec,
        k=config.k,
        space=space,
        space_key=space_key,
        seed=seed,
        knobs=knobs,
        options=options,
        timeout=timeout,
    )


# -------------------------------------------------------------------------- #
# responses
# -------------------------------------------------------------------------- #
def result_payload(result: KCenterResult) -> dict:
    """A :class:`KCenterResult` as plain JSON data (bit-exact numbers)."""
    out = {
        "algorithm": result.algorithm,
        "k": result.k,
        "n_centers": result.n_centers,
        "centers": [int(c) for c in result.centers],
        "radius": float(result.radius),
        "wall_time": result.wall_time,
        "eval_time": result.eval_time,
        "approx_factor": result.approx_factor,
        "rounds": result.n_rounds,
    }
    if result.stats is not None:
        out["dist_evals"] = result.stats.dist_evals
        out["shuffle_elements"] = result.stats.shuffle_elements
    return out


def ok_response(
    req_id: str, result: KCenterResult, summary: BatchSummary, **accounting: Any
) -> dict:
    """A success line: the result plus per-request accounting.

    ``summary`` is this run's private :class:`BatchSummary` (one run, its
    exact dist_evals / retries / task seconds) — the wire is where its
    JSON form earns its keep.
    """
    return {
        "id": req_id,
        "ok": True,
        "result": result_payload(result),
        "accounting": {**accounting, "summary": summary.to_dict()},
    }


def error_response(req_id: str | None, error: ServeError) -> dict:
    return {"id": req_id, "ok": False, "error": error.payload()}
