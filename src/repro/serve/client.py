"""Synchronous client for the ``repro.serve`` wire protocol.

A deliberately small wrapper over one TCP socket: requests go out as JSON
lines, responses come back as JSON lines, and :meth:`ServeClient.request`
pairs them up.  Thread-safe for the simple blocking pattern (one
request/response at a time per client); concurrent load generators open
one client per worker thread — sockets are cheap, and that is exactly
what the bench (``benchmarks/bench_serve.py``) and the CI smoke burst do.

The lower-level :meth:`send`/:meth:`recv` pair exists for protocol tests
that need the pathological shapes: pipelining several requests before
reading any response, or disconnecting with a solve still in flight.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Mapping

import numpy as np

from repro.errors import InvalidParameterError
from repro.serve.protocol import E_INTERNAL, ServeError, decode_line, encode

__all__ = ["ServeClient", "parse_hostport"]


def parse_hostport(address: str, default_port: int = 7227) -> tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` -> ``(host, port)``."""
    address = address.strip()
    if not address:
        raise InvalidParameterError("empty server address")
    host, sep, port = address.rpartition(":")
    if not sep:
        return address, default_port
    if not host:
        host = "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise InvalidParameterError(
            f"invalid port in server address {address!r}"
        ) from None


class ServeClient:
    """One connection to a running k-center server.

    Parameters
    ----------
    host, port:
        The server's bound address (``ServerHandle.address``, or the
        ``repro serve`` startup line).
    timeout:
        Socket timeout in seconds for connect and reads; ``None`` blocks
        indefinitely (a served solve can legitimately take a while).
    """

    def __init__(self, host: str, port: int, timeout: float | None = None):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------ #
    # raw line I/O
    # ------------------------------------------------------------------ #
    def send(self, payload: Mapping) -> None:
        """Write one request line (no response read — see :meth:`recv`)."""
        with self._lock:
            self._file.write(encode(payload))
            self._file.flush()

    def recv(self) -> dict:
        """Read one response line; raises ``ConnectionError`` on EOF."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    def request(self, payload: Mapping) -> dict:
        """One blocking round-trip: send ``payload``, return its response."""
        self.send(payload)
        return self.recv()

    # ------------------------------------------------------------------ #
    # typed operations
    # ------------------------------------------------------------------ #
    def solve(
        self,
        algo: str,
        k: int,
        *,
        points: Any = None,
        data: str | None = None,
        seed: Any = None,
        options: Mapping | None = None,
        timeout: float | None = None,
        raise_on_error: bool = True,
    ) -> dict:
        """Submit one solve and block for its response.

        ``points`` is any array-like of coordinate rows (sent inline);
        ``data`` is a *server-visible* ``.npy`` file or shard directory.
        Returns the full response object; with ``raise_on_error`` (the
        default) a structured failure raises :class:`ServeError` carrying
        the server's error code instead.
        """
        payload: dict[str, Any] = {
            "op": "solve",
            "id": str(next(self._ids)),
            "algo": algo,
            "k": k,
        }
        if points is not None:
            payload["points"] = np.asarray(points, dtype=np.float64).tolist()
        if data is not None:
            payload["data"] = data
        if seed is not None:
            payload["seed"] = seed
        if options:
            payload["options"] = dict(options)
        if timeout is not None:
            payload["timeout"] = timeout
        response = self.request(payload)
        if raise_on_error and not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", E_INTERNAL),
                error.get("message", "unknown server error"),
            )
        return response

    def solve_progress(
        self,
        algo: str,
        k: int,
        *,
        points: Any = None,
        data: str | None = None,
        seed: Any = None,
        options: Mapping | None = None,
        timeout: float | None = None,
        raise_on_error: bool = True,
    ) -> tuple[list[dict], dict]:
        """One streamed solve: returns ``(events, final_response)``.

        Same arguments as :meth:`solve`; the server pushes span events
        (round boundaries, abandoned attempts) while the solve runs, then
        the normal final response.  Blocking and simple by design — a
        live consumer wanting events as they arrive uses :meth:`send` /
        :meth:`recv` directly.
        """
        payload: dict[str, Any] = {
            "op": "progress",
            "id": str(next(self._ids)),
            "algo": algo,
            "k": k,
        }
        if points is not None:
            payload["points"] = np.asarray(points, dtype=np.float64).tolist()
        if data is not None:
            payload["data"] = data
        if seed is not None:
            payload["seed"] = seed
        if options:
            payload["options"] = dict(options)
        if timeout is not None:
            payload["timeout"] = timeout
        self.send(payload)
        events: list[dict] = []
        while True:
            response = self.recv()
            if response.get("ok") and response.get("final") is False:
                events.append(response["event"])
                continue
            break
        if raise_on_error and not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", E_INTERNAL),
                error.get("message", "unknown server error"),
            )
        return events, response

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """The server's scheduler counters (admissions, batches, faults)."""
        return self.request({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The server's metrics registry as Prometheus exposition text."""
        return self.request({"op": "metrics"})["metrics"]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
