"""``repro.serve`` — clustering-as-a-service on the persistent engine.

The serving layer turns the in-process solver stack into a long-lived
job server: an asyncio TCP front-end speaking newline-delimited JSON
(:mod:`~repro.serve.protocol`), a batch scheduler that coalesces
compatible requests into heterogeneous :func:`repro.solve_many` fan-outs
over one warm executor pool (:mod:`~repro.serve.scheduler`), and a small
synchronous client (:mod:`~repro.serve.client`).

Entry points:

* ``repro serve --backend thread --pool-size 4`` — the CLI daemon;
* ``repro solve ... --connect HOST:PORT`` — the CLI as a remote client;
* :class:`ServerHandle` — an in-process server on a background event
  loop, for tests and benches;
* :class:`ServeClient` — a plain blocking socket client.

The contract that makes the layer trustworthy: every served result is
**bit-identical** to the same ``repro.solve()`` call made directly
in-process — same centers, same radius, same ``dist_evals`` — on every
backend, under concurrency.
"""

from repro.serve.client import ServeClient, parse_hostport
from repro.serve.protocol import (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_INVALID_PARAMETER,
    E_LINE_TOO_LONG,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_TIMEOUT,
    E_TOO_LARGE,
    E_UNKNOWN_ALGORITHM,
    PROTOCOL_VERSION,
    ServeError,
)
from repro.serve.scheduler import BACKENDS, BatchScheduler, ServeConfig
from repro.serve.server import KCenterServer, ServerHandle

__all__ = [
    "ServeConfig",
    "BatchScheduler",
    "KCenterServer",
    "ServerHandle",
    "ServeClient",
    "ServeError",
    "parse_hostport",
    "PROTOCOL_VERSION",
    "BACKENDS",
    "E_BAD_JSON",
    "E_BAD_REQUEST",
    "E_UNKNOWN_ALGORITHM",
    "E_INVALID_PARAMETER",
    "E_TOO_LARGE",
    "E_OVERLOADED",
    "E_TIMEOUT",
    "E_SHUTTING_DOWN",
    "E_LINE_TOO_LONG",
    "E_INTERNAL",
]
