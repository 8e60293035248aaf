"""The ``serve-open`` workload: an open-loop stream against ``repro serve``.

The server runs in its own process (``repro serve --backend thread
--pool-size 2``); this process is the load generator, with one
connection and two threads: the main thread sends each request when it
is due, a receiver thread reads the responses.  Requests are ``gon``
k=8 solves, each carrying one of a fixed pool of inline 256×8 point
sets.  The send schedule (Poisson arrivals at :data:`RATE`), the point
set and the solver seed of every request all come from the workload
seed.

Latency runs from a request's *scheduled* send time to its response's
arrival, so a stall anywhere is charged to every request queued behind
it.  The generator's own lateness is measured too; a run where its p99
exceeds :data:`LAG_LIMIT_MS` measured the generator, not the server,
and is reported invalid.

Checks, untimed: every response is ``ok``; every served radius lies in
``[lb, 2 * approx_factor * lb]`` with distinct in-range centers; every
:data:`SAMPLE_EVERY`-th request is re-solved directly with
``repro.solve`` and must match the served centers, radius and
``dist_evals`` bit for bit.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.bounds import greedy_lower_bound
from repro.mapreduce.accounting import BatchSummary
from repro.obs import trace
from repro.serve import ServeClient
from repro.serve.protocol import (
    ServeError,
    decode_line,
    encode,
    ok_response,
    parse_solve_request,
)

from perfbench import arith, host
from perfbench.catalog import PER_LAYER, Outcome

RATE = 150.0  # offered requests per second, under half the knee
N_POINTS, DIM, K = 256, 8, 8
POOL = 16  # distinct point sets in the stream
SAMPLE_EVERY = 50  # every n-th request is re-solved directly and compared
DIRECT_REPEATS = 5  # traced/untraced direct solves per sampled request
LAG_LIMIT_MS = 5.0  # generator lateness p99 beyond which a run is invalid
SETUPS = 5
POOL_SIZE = 2
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0

ROOT = Path(__file__).resolve().parent.parent


class _Server:
    """One ``repro serve`` subprocess, started and pinged."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--backend", "thread",
             "--pool-size", str(POOL_SIZE), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        try:
            self.host, self.port = self._address()
            with ServeClient(self.host, self.port, timeout=START_TIMEOUT) as client:
                if not client.ping().get("ok"):
                    raise RuntimeError("server did not answer ping")
        except BaseException:
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if "listening on " in line:
                    address = line.split("listening on ", 1)[1].split()[0]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        raise RuntimeError("server did not start")

    def peak_rss_mib(self) -> float:
        return host.peak_rss_kib(self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _Stream:
    """The run's inputs: point sets, schedule, per-request choices."""

    def __init__(self, seed: int, seconds: float) -> None:
        children = np.random.SeedSequence(seed).spawn(POOL + 1)
        self.sets = [
            repro.gau(N_POINTS, dim=DIM, seed=np.random.default_rng(c))
            for c in children[:POOL]
        ]
        # `encode` of the points alone, spliced after each request's
        # header: the protocol's own bytes, with no per-send JSON cost.
        self.bodies = [
            b"," + encode({"points": pts.tolist()})[1:] for pts in self.sets
        ]
        self.offsets = arith.poisson_schedule(RATE, seconds, seed)
        rng = np.random.default_rng(children[POOL])
        self.choice = rng.integers(POOL, size=len(self.offsets))
        self.seeds = rng.integers(2**31 - 1, size=len(self.offsets))

    def line(self, i: int) -> bytes:
        header = encode({"op": "solve", "id": str(i), "algo": "gon", "k": K,
                         "seed": int(self.seeds[i])})
        return header[:-2] + self.bodies[self.choice[i]]


def _drive(server: _Server, stream: _Stream):
    """Send the stream on schedule; return due, sent and received times."""
    n = len(stream.offsets)
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    responses: dict[int, dict] = {}
    sock = socket.create_connection((server.host, server.port), timeout=START_TIMEOUT)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")

    def receive() -> None:
        while len(responses) < n:
            try:
                line = reader.readline()
            except (OSError, ValueError):  # socket shut down after the drain
                return
            if not line:
                return
            now = time.perf_counter()
            try:
                response = decode_line(line)
                i = int(response["id"])
            except (ServeError, KeyError, TypeError, ValueError):
                continue  # unattributable: its request counts as unanswered
            if 0 <= i < n:
                received[i] = now
                responses[i] = response

    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    t0 = time.perf_counter() + 0.1
    due = t0 + stream.offsets
    try:
        for i in range(n):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            sock.sendall(stream.line(i))
        receiver.join(DRAIN_TIMEOUT)
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        receiver.join(DRAIN_TIMEOUT)
        reader.close()
        sock.close()
    return due, sent, received, responses


def _direct(stream: _Stream, i: int, traced: bool = False):
    """Re-solve request ``i`` in-process; returns (result, evals, wall, spans)."""
    space = repro.EuclideanSpace(stream.sets[stream.choice[i]])
    tracer = trace.Tracer(detail=trace.DETAIL_BLOCK) if traced else None
    before = space.counter.evals
    start = time.perf_counter()
    if tracer is not None:
        with trace.activate(tracer):
            result = repro.solve(space, K, "gon", seed=int(stream.seeds[i]))
    else:
        result = repro.solve(space, K, "gon", seed=int(stream.seeds[i]))
    wall = time.perf_counter() - start
    return result, space.counter.evals - before, wall, tracer


def _check(stream, responses, lower_bounds, tally, ops):
    """Untimed checks over every response and the direct-solve sample."""
    arith.served_failures({ops[i]: responses.get(i) for i in range(len(ops))}, tally)
    ratios = []
    for i, response in responses.items():
        if not response.get("ok"):
            continue
        result = response["result"]
        lb = lower_bounds[stream.choice[i]]
        centers = np.asarray(result["centers"])
        factor = result["approx_factor"]
        tally.check(
            ops[i],
            len(np.unique(centers)) == len(centers) <= K
            and bool(((centers >= 0) & (centers < N_POINTS)).all()),
            "centers not distinct or out of range",
        )
        tally.check(ops[i], factor is not None and lb <= result["radius"] <= 2 * factor * lb,
                    f"radius {result['radius']} outside [lb, 2*{factor}*lb]")
        ratios.append(result["radius"] / lb)
        if i % SAMPLE_EVERY == 0:
            direct, evals, _, _ = _direct(stream, i)
            served_evals = response["accounting"]["summary"]["dist_evals"]
            tally.check(
                ops[i],
                result["centers"] == [int(c) for c in direct.centers]
                and result["radius"] == float(direct.radius)
                and served_evals == evals,
                f"request {i}: served result differs from a direct solve",
            )
    return ratios


def _protocol_costs(stream: _Stream, count: int = 50):
    """Median decode and encode cost on the workload's own payloads."""
    decode, encode_ms = [], []
    for i in range(min(count, len(stream.offsets))):
        line = stream.line(i)
        start = time.perf_counter()
        parse_solve_request(decode_line(line), str(i))
        decode.append(time.perf_counter() - start)
        result, evals, _, _ = _direct(stream, i)
        start = time.perf_counter()
        encode(ok_response(str(i), result, BatchSummary(runs=1, dist_evals=evals),
                           queue_ms=0.0, solve_ms=0.0, batch_runs=1))
        encode_ms.append(time.perf_counter() - start)
    return 1e3 * statistics.median(decode), 1e3 * statistics.median(encode_ms)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    tally = arith.Tally()
    setups = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        stream = _Stream(seed, seconds)
        server = _Server()
        setups.append(time.perf_counter() - start)
    try:
        ops = [tally.attempt() for _ in stream.offsets]
        due, sent, received, responses = _drive(server, stream)
        peak_rss = server.peak_rss_mib()
    finally:
        server.stop()

    lower_bounds = [greedy_lower_bound(repro.EuclideanSpace(p), K) for p in stream.sets]
    ratios = _check(stream, responses, lower_bounds, tally, ops)
    got = ~np.isnan(received)
    latency_ms = 1e3 * arith.due_latency(due[got], received[got])
    lag_ms = 1e3 * arith.lateness(due, sent)
    try:
        lag_p99 = arith.percentile(lag_ms, 99)
    except arith.TooFewSamples:
        lag_p99 = float(lag_ms.max())  # stricter than p99 on a short run

    out = Outcome(tally)
    out.report.append(
        f"serve-open: gon k={K} on {POOL} inline {N_POINTS}x{DIM} point sets, "
        f"thread pool of {POOL_SIZE}, Poisson {RATE:g} req/s for {seconds:g} s, "
        f"{len(stream.offsets)} requests, {int(got.sum())} answered"
    )
    try:
        p99 = arith.percentile(latency_ms, 99)
    except arith.TooFewSamples:
        p99 = float("nan")  # refused, and a NaN metric marks the run incorrect
    out.report.append(
        f"latency_p99_ms = {p99:.6f} ms (n={len(latency_ms)}, "
        f"{arith.samples_beyond(len(latency_ms), 99)} beyond p99); "
        f"gen.lag_p99_ms = {lag_p99:.6f} ms (limit {LAG_LIMIT_MS:g})"
    )
    if lag_p99 > LAG_LIMIT_MS:
        out.invalid = (
            f"generator lateness p99 {lag_p99:.3f} ms exceeds {LAG_LIMIT_MS} ms"
        )
    if not traced:
        out.metrics.update(
            setup_s=statistics.median(setups),
            latency_p50_ms=arith.percentile(latency_ms, 50),
            radius_ratio=statistics.fmean(ratios) if ratios else float("nan"),
            peak_rss_mib=peak_rss,
        )
        out.notes.update(
            setup_s=f"median of {SETUPS} set-ups (inputs, server start, ping)",
            latency_p50_ms=f"due time to response, n={len(latency_ms)}",
            radius_ratio=f"mean over {len(ratios)} responses",
            peak_rss_mib="server process, fresh per set-up",
        )
        return out

    out.metrics.update(dict.fromkeys(PER_LAYER, 0.0))
    ok = [r for r in responses.values() if r.get("ok")]
    if not ok:
        return out
    accounting = [r["accounting"] for r in ok]
    answered = [i for i, r in responses.items() if r.get("ok")]
    wire = [
        1e3 * (received[i] - due[i])
        - responses[i]["accounting"]["queue_ms"]
        - responses[i]["accounting"]["solve_ms"]
        for i in answered
    ]
    # Direct solves of the sampled payloads, untraced and traced in turn,
    # for the facade's share and the tracing overhead.
    plain, traced_runs = [], []
    for i in range(0, len(stream.offsets), SAMPLE_EVERY):
        for _ in range(DIRECT_REPEATS):
            plain.append(_direct(stream, i)[2])
            result, evals, wall, tracer = _direct(stream, i, traced=True)
            blocks = [s for s in tracer.spans if s.cat == "block"]
            traced_runs.append(
                (wall, arith.solve_layers(tracer.spans, result.eval_time, wall, 1),
                 arith.kernel_bytes(evals, blocks, DIM))
            )
    decode_ms, encode_ms = _protocol_costs(stream)
    out.metrics.update({
        "kernels.dist_evals": statistics.fmean(a["summary"]["dist_evals"] for a in accounting),
        "kernels.block_s": statistics.fmean(t[1]["block_s"] for t in traced_runs),
        "kernels.bytes_computed": statistics.fmean(t[2] for t in traced_runs),
        "core.evaluate_s": statistics.fmean(r["result"]["eval_time"] for r in ok),
        "solvers.facade_s": statistics.fmean(t[1]["facade_s"] for t in traced_runs),
        "serve.latency_p99_ms": p99,
        "serve.queue_ms": statistics.median(a["queue_ms"] for a in accounting),
        "serve.solve_ms": statistics.median(a["solve_ms"] for a in accounting),
        "serve.batch_runs": statistics.fmean(a["batch_runs"] for a in accounting),
        "serve.wire_ms": statistics.median(wire),
        "serve.decode_ms": decode_ms,
        "serve.encode_ms": encode_ms,
        "serve.request_bytes": statistics.fmean(
            len(stream.line(i)) for i in range(len(stream.offsets))
        ),
        "gen.lag_p99_ms": lag_p99,
        "obs.overhead_frac": (
            statistics.median(t[0] for t in traced_runs) - statistics.median(plain)
        ) / statistics.median(plain),
    })
    return out
