"""Serving-layer tests: protocol, scheduler, server lifecycle, parity.

The load-bearing contract is *bit-parity*: with the distance cache off
(the default config), every served result must equal the same
``repro.solve()`` call made directly — centers, radius, ``dist_evals`` —
for every registered algorithm, under concurrent clients, on thread and
process backends.  Around it, the failure-path contracts: malformed input
becomes structured error responses, admission control rejects instead of
queueing unbounded, timeouts and disconnects cancel cleanly without
poisoning the shared pool, and shutdown drains every admitted request.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import InvalidParameterError
from repro.mapreduce.faults import ALWAYS, Fault, FaultSchedule
from repro.serve import (
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_INVALID_PARAMETER,
    E_OVERLOADED,
    E_TIMEOUT,
    E_TOO_LARGE,
    E_UNKNOWN_ALGORITHM,
    PROTOCOL_VERSION,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerHandle,
    parse_hostport,
)
from repro.serve.protocol import decode_line, encode, parse_solve_request
from repro.solvers.registry import solver_names


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(11).normal(size=(80, 3))


@pytest.fixture(scope="module")
def tiny_rows():
    # Small enough for the exact solver in the all-algorithms sweep.
    return np.random.default_rng(5).normal(size=(26, 2))


@pytest.fixture(scope="module")
def handle():
    """One shared thread-backend server for the fast request tests."""
    with ServerHandle(ServeConfig(backend="thread", pool_size=2)) as h:
        yield h


def _assert_result_matches(payload: dict, direct) -> None:
    """Wire result vs in-process KCenterResult: the bit-parity check."""
    assert payload["centers"] == [int(c) for c in direct.centers]
    assert payload["radius"] == direct.radius
    assert payload["k"] == direct.k
    assert payload["algorithm"] == direct.algorithm
    if direct.stats is not None:
        assert payload["dist_evals"] == direct.stats.dist_evals


# ---------------------------------------------------------------------- #
# protocol units (no server needed)
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_round_trip(self):
        obj = {"op": "solve", "k": 3, "radius": 0.1 + 0.2}
        assert decode_line(encode(obj).strip()) == obj

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServeError) as err:
            decode_line(b"[1, 2, 3]")
        assert err.value.code == E_BAD_JSON

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServeError) as err:
            decode_line(b"{not json")
        assert err.value.code == E_BAD_JSON

    @pytest.mark.parametrize(
        "payload,code",
        [
            ({"k": 3, "points": [[0.0]]}, E_BAD_REQUEST),  # no algo
            ({"algo": "kmeans", "k": 3, "points": [[0.0]]}, E_UNKNOWN_ALGORITHM),
            ({"algo": "gon", "k": "three", "points": [[0.0]]}, E_BAD_REQUEST),
            ({"algo": "gon", "k": 3}, E_BAD_REQUEST),  # neither points nor data
            (
                {"algo": "gon", "k": 3, "points": [[0.0]], "data": "x.npy"},
                E_BAD_REQUEST,
            ),  # both
            ({"algo": "gon", "k": 3, "points": [["a"]]}, E_BAD_REQUEST),
            ({"algo": "gon", "k": 3, "points": [1.0, 2.0]}, E_BAD_REQUEST),
            (
                {"algo": "gon", "k": 3, "points": [[0.0]], "timeout": -1},
                E_BAD_REQUEST,
            ),
            (
                {
                    "algo": "gon",
                    "k": 3,
                    "points": [[0.0]],
                    "options": {"executor": "process"},
                },
                E_BAD_REQUEST,
            ),  # server owns the pool
            (
                {
                    "algo": "gon",
                    "k": 3,
                    "points": [[0.0]],
                    "options": {"seed": 4},
                },
                E_BAD_REQUEST,
            ),  # seed is a top-level field
            (
                {"algo": "gon", "k": 3, "points": [[0.0]], "options": {"m": 4}},
                E_INVALID_PARAMETER,
            ),  # gon takes no m
            (
                {
                    "algo": "gon",
                    "k": 3,
                    "points": [[0.0], [1.0]],
                    "options": {"phi": 2.0},
                },
                E_INVALID_PARAMETER,
            ),
        ],
    )
    def test_parse_rejections(self, payload, code):
        with pytest.raises(ServeError) as err:
            parse_solve_request(payload, "r1")
        assert err.value.code == code

    def test_parse_enforces_max_points(self):
        payload = {"algo": "gon", "k": 2, "points": [[float(i)] for i in range(9)]}
        with pytest.raises(ServeError) as err:
            parse_solve_request(payload, "r1", max_points=8)
        assert err.value.code == E_TOO_LARGE

    def test_identical_inline_points_share_a_space_key(self):
        payload = {"algo": "gon", "k": 2, "points": [[0.0, 1.0], [2.0, 3.0]]}
        a = parse_solve_request(dict(payload), "r1")
        b = parse_solve_request(dict(payload), "r2")
        assert a.space_key == b.space_key

    def test_parse_hostport_forms(self):
        assert parse_hostport("example.org:1234") == ("example.org", 1234)
        assert parse_hostport(":1234") == ("127.0.0.1", 1234)
        assert parse_hostport("example.org", 7227) == ("example.org", 7227)
        with pytest.raises(InvalidParameterError):
            parse_hostport("host:notaport")
        with pytest.raises(InvalidParameterError):
            parse_hostport("")

    def test_serve_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ServeConfig(backend="fpga")
        with pytest.raises(InvalidParameterError):
            ServeConfig(max_queue=0)


# ---------------------------------------------------------------------- #
# the happy path and the parity contract
# ---------------------------------------------------------------------- #
class TestServedParity:
    def test_ping_reports_registry(self, handle):
        with handle.client() as client:
            pong = client.ping()
        assert pong["ok"] and pong["version"] == PROTOCOL_VERSION
        assert set(solver_names()) <= set(pong["algorithms"])

    def test_every_algorithm_bit_identical_to_direct(self, handle, tiny_rows):
        with handle.client() as client:
            for algo in solver_names():
                served = client.solve(algo, 3, points=tiny_rows, seed=7)
                direct = repro.solve(tiny_rows, 3, algo, seed=7)
                _assert_result_matches(served["result"], direct)
                accounting = served["accounting"]
                assert accounting["summary"]["runs"] == 1
                assert accounting["queue_ms"] >= 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_clients_stay_bit_identical(self, rows, backend):
        jobs = [
            ("gon", 4, 0, {}),
            ("gon", 6, 1, {}),
            ("mrg", 4, 0, {"m": 4}),
            ("mrg", 5, 2, {"m": 4}),
            ("eim", 4, 1, {"m": 4}),
            ("hs", 4, 0, {}),
        ]
        expected = {
            (algo, k, seed): repro.solve(rows, k, algo, seed=seed, **opts)
            for algo, k, seed, opts in jobs
        }
        config = ServeConfig(
            backend=backend, pool_size=2, max_inflight=2, batch_window=0.01
        )
        responses: dict = {}
        with ServerHandle(config) as h:

            def run(job):
                algo, k, seed, opts = job
                with h.client() as client:
                    responses[(algo, k, seed)] = client.solve(
                        algo, k, points=rows, seed=seed, options=opts
                    )

            threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(responses) == len(jobs)
        for key, direct in expected.items():
            _assert_result_matches(responses[key]["result"], direct)

    def test_mixed_k_requests_coalesce_into_one_batch(self, rows):
        # Same space + batch window -> one heterogeneous solve_many batch.
        config = ServeConfig(backend="sequential", batch_window=0.25)
        with ServerHandle(config) as h:
            clients = [h.client() for _ in range(3)]
            try:
                for i, client in enumerate(clients):
                    client.send(
                        {
                            "op": "solve",
                            "id": f"c{i}",
                            "algo": "gon",
                            "k": 3 + i,
                            "seed": i,
                            "points": rows.tolist(),
                        }
                    )
                answers = {c.recv()["id"]: None for c in clients}
                stats = clients[0].stats()
            finally:
                for client in clients:
                    client.close()
        assert answers.keys() == {"c0", "c1", "c2"}
        assert stats["batches"] == 1
        assert stats["coalesced_requests"] == 3


# ---------------------------------------------------------------------- #
# failure paths
# ---------------------------------------------------------------------- #
class TestFailurePaths:
    def test_malformed_json_is_a_structured_error(self, handle):
        with handle.client() as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            resp = client.recv()
            assert resp["ok"] is False
            assert resp["error"]["code"] == E_BAD_JSON
            # The connection survives and keeps working.
            assert client.ping()["ok"]

    def test_unknown_op_is_rejected(self, handle):
        with handle.client() as client:
            resp = client.request({"op": "dance", "id": "x"})
        assert resp["id"] == "x"
        assert resp["error"]["code"] == E_BAD_REQUEST

    def test_unknown_algorithm_raises_with_code(self, handle, tiny_rows):
        with handle.client() as client:
            with pytest.raises(ServeError) as err:
                client.solve("kmeans", 3, points=tiny_rows)
        assert err.value.code == E_UNKNOWN_ALGORITHM

    def test_oversized_request_hits_admission_control(self, tiny_rows):
        config = ServeConfig(backend="sequential", max_points=10)
        with ServerHandle(config) as h, h.client() as client:
            resp = client.solve(
                "gon", 3, points=tiny_rows, raise_on_error=False
            )
            assert resp["error"]["code"] == E_TOO_LARGE
            # Admissible work still flows afterwards.
            ok = client.solve("gon", 2, points=tiny_rows[:8])
            assert ok["ok"]

    def test_queue_depth_cap_rejects_with_overloaded(self, rows):
        config = ServeConfig(
            backend="sequential", max_queue=1, batch_window=0.5
        )
        with ServerHandle(config) as h, h.client() as client:
            for i in range(2):
                client.send(
                    {
                        "op": "solve",
                        "id": f"q{i}",
                        "algo": "gon",
                        "k": 3,
                        "seed": i,
                        "points": rows.tolist(),
                    }
                )
            responses = {resp["id"]: resp for resp in (client.recv(), client.recv())}
        assert responses["q0"]["ok"] is True
        assert responses["q1"]["ok"] is False
        assert responses["q1"]["error"]["code"] == E_OVERLOADED

    def test_timeout_while_queued_returns_structured_error(self, rows):
        config = ServeConfig(backend="sequential", batch_window=0.3)
        with ServerHandle(config) as h, h.client() as client:
            resp = client.solve(
                "gon", 3, points=rows, timeout=0.01, raise_on_error=False
            )
            assert resp["error"]["code"] == E_TIMEOUT
            # The cancelled request did not wedge the scheduler.
            ok = client.solve("gon", 3, points=rows, seed=0)
            assert ok["ok"]

    def test_disconnect_mid_solve_does_not_poison_the_pool(self, rows):
        config = ServeConfig(backend="thread", pool_size=2, batch_window=0.2)
        with ServerHandle(config) as h:
            doomed = h.client()
            doomed.send(
                {
                    "op": "solve",
                    "id": "gone",
                    "algo": "mrg",
                    "k": 4,
                    "seed": 0,
                    "points": rows.tolist(),
                    "options": {"m": 4},
                }
            )
            time.sleep(0.05)  # admitted, still inside the batch window
            doomed.close()  # vanish with the solve in flight
            with h.client() as client:
                served = client.solve("gon", 4, points=rows, seed=1)
                direct = repro.solve(rows, 4, "gon", seed=1)
                _assert_result_matches(served["result"], direct)
                stats = client.stats()
        assert stats["failed"] == 0


# ---------------------------------------------------------------------- #
# fault tolerance: crashes inside coalesced batches
# ---------------------------------------------------------------------- #
class TestFaultTolerance:
    """The serving side of the resilience contract: a worker crash inside
    a coalesced batch costs latency — never a sibling request's answer,
    never the warm pool, and never bit-parity with the direct solve."""

    def _pipelined(self, h, rows, jobs):
        """Send ``jobs`` down one connection inside one batch window;
        return responses by id (submission order = batch task order)."""
        with h.client() as client:
            for req_id, algo, k, seed, opts in jobs:
                client.send(
                    {
                        "op": "solve",
                        "id": req_id,
                        "algo": algo,
                        "k": k,
                        "seed": seed,
                        "points": rows.tolist(),
                        "options": opts,
                    }
                )
            responses = {}
            for _ in jobs:
                resp = client.recv()
                responses[resp["id"]] = resp
            stats = client.stats()
        return responses, stats

    def test_transient_crash_inside_batch_is_absorbed(self, rows):
        # Task 1 of the coalesced batch crashes once; the default policy
        # (one retry) absorbs it and every answer stays bit-identical.
        config = ServeConfig(
            backend="thread",
            pool_size=2,
            batch_window=0.25,
            fault_injector=FaultSchedule({(None, 1): Fault("crash")}),
        )
        jobs = [(f"c{i}", "gon", 3 + i, i, {}) for i in range(3)]
        with ServerHandle(config) as h:
            responses, stats = self._pipelined(h, rows, jobs)
        assert stats["batches"] == 1 and stats["coalesced_requests"] == 3
        assert stats["failed"] == 0
        assert stats["retries"] >= 1
        for req_id, algo, k, seed, opts in jobs:
            assert responses[req_id]["ok"], responses[req_id]
            direct = repro.solve(rows, k, algo, seed=seed, **opts)
            _assert_result_matches(responses[req_id]["result"], direct)
        # The victim's own summary carries its retry accounting.
        summaries = {
            rid: resp["accounting"]["summary"] for rid, resp in responses.items()
        }
        assert summaries["c1"]["retries"] == 1
        assert summaries["c0"]["retries"] == 0

    def test_exhausted_batch_is_isolation_split(self, rows):
        # Task 1 crashes on *every* attempt: the batch itself cannot
        # complete, so the scheduler re-dispatches each request alone.
        # Solo, the victim is task 0 — the injected fault (an infra
        # failure pinned to slot 1) no longer hits it, so everyone
        # still gets a bit-identical answer and the pool stays warm.
        config = ServeConfig(
            backend="thread",
            pool_size=2,
            batch_window=0.25,
            fault_injector=FaultSchedule(
                {(None, 1): Fault("crash", times=ALWAYS)}
            ),
        )
        jobs = [(f"s{i}", "gon", 3 + i, i, {}) for i in range(3)]
        with ServerHandle(config) as h:
            responses, stats = self._pipelined(h, rows, jobs)
            # Pool stays warm: a follow-up request succeeds normally.
            with h.client() as client:
                again = client.solve("gon", 4, points=rows, seed=9)
                assert again["ok"]
        assert stats["isolation_splits"] == 1
        assert stats["failed"] == 0
        for req_id, algo, k, seed, opts in jobs:
            assert responses[req_id]["ok"], responses[req_id]
            direct = repro.solve(rows, k, algo, seed=seed, **opts)
            _assert_result_matches(responses[req_id]["result"], direct)

    def test_poisoned_request_fails_alone_siblings_succeed(self, rows):
        # A request that *deterministically* cannot complete (capacity
        # too small for its mrg round) poisons its coalesced batch; the
        # isolation split answers its siblings bit-identically and only
        # the doomed request gets the structured error.
        config = ServeConfig(backend="thread", pool_size=2, batch_window=0.25)
        jobs = [
            ("ok0", "gon", 4, 0, {}),
            ("bad", "mrg", 4, 1, {"m": 4, "capacity": 5}),
            ("ok1", "gon", 5, 2, {}),
        ]
        with ServerHandle(config) as h:
            responses, stats = self._pipelined(h, rows, jobs)
            with h.client() as client:
                assert client.solve("gon", 3, points=rows, seed=5)["ok"]
        assert stats["isolation_splits"] == 1
        assert stats["failed"] == 1
        assert stats["answered"] >= 2
        assert responses["bad"]["ok"] is False
        assert "CapacityError" in responses["bad"]["error"]["message"]
        for req_id, algo, k, seed, opts in jobs:
            if req_id == "bad":
                continue
            direct = repro.solve(rows, k, algo, seed=seed, **opts)
            _assert_result_matches(responses[req_id]["result"], direct)

    def test_exhausted_request_error_names_the_batch(self, rows):
        config = ServeConfig(
            backend="sequential",
            fault_retries=0,
            fault_injector=FaultSchedule({(None, 0): Fault("crash")}),
        )
        with ServerHandle(config) as h, h.client() as client:
            response = client.solve(
                "gon", 3, points=rows, seed=1, raise_on_error=False
            )
        assert response["ok"] is False
        assert response["error"]["code"] == E_INTERNAL
        assert "TaskFailedError: solve_many: task 0" in (
            response["error"]["message"]
        )

    def test_worker_death_in_process_batch_recovers(self, rows):
        # The real thing: a process-pool worker dies mid-batch
        # (os._exit), breaking the shared pool.  The resilient executor
        # drops the corpse, reopens, re-dispatches — every request in
        # the batch still answers bit-identically, and the next batch
        # runs on the re-warmed pool.
        config = ServeConfig(
            backend="process",
            pool_size=2,
            batch_window=0.3,
            fault_retries=2,
            fault_injector=FaultSchedule({(None, 1): Fault("die")}),
        )
        jobs = [(f"w{i}", "gon", 3 + i, i, {}) for i in range(3)]
        with ServerHandle(config) as h:
            responses, stats = self._pipelined(h, rows, jobs)
            with h.client() as client:
                again = client.solve("gon", 4, points=rows, seed=9)
                assert again["ok"]
        assert stats["failed"] == 0
        assert stats["retries"] >= 1
        for req_id, algo, k, seed, opts in jobs:
            assert responses[req_id]["ok"], responses[req_id]
            direct = repro.solve(rows, k, algo, seed=seed, **opts)
            _assert_result_matches(responses[req_id]["result"], direct)


# ---------------------------------------------------------------------- #
# lifecycle
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_shutdown_drains_inflight_requests(self, rows):
        config = ServeConfig(backend="thread", pool_size=2, batch_window=0.3)
        handle = ServerHandle(config).start()
        client = handle.client()
        try:
            n_requests = 4
            for i in range(n_requests):
                client.send(
                    {
                        "op": "solve",
                        "id": f"d{i}",
                        "algo": "gon",
                        "k": 4,
                        "seed": i,
                        "points": rows.tolist(),
                    }
                )
            time.sleep(0.1)  # all admitted, none dispatched yet
            handle.close()  # graceful drain: every admitted request answered
            responses = [client.recv() for _ in range(n_requests)]
        finally:
            client.close()
            handle.close()
        assert sorted(r["id"] for r in responses) == [
            f"d{i}" for i in range(n_requests)
        ]
        for resp in responses:
            assert resp["ok"], resp
            direct = repro.solve(rows, 4, "gon", seed=int(resp["id"][1:]))
            _assert_result_matches(resp["result"], direct)

    def test_server_rejects_after_drain_starts(self, rows):
        # A request arriving into a draining scheduler gets shutting-down,
        # not a hang: exercised via the scheduler directly in-process.
        import asyncio

        from repro.serve import E_SHUTTING_DOWN
        from repro.serve.scheduler import BatchScheduler

        async def scenario():
            scheduler = BatchScheduler(ServeConfig(backend="sequential"))
            scheduler.start()
            await scheduler.drain()
            request = parse_solve_request(
                {"algo": "gon", "k": 2, "points": rows.tolist()}, "r1"
            )
            with pytest.raises(ServeError) as err:
                scheduler.submit(request)
            assert err.value.code == E_SHUTTING_DOWN

        asyncio.run(scenario())

    def test_handle_close_is_idempotent(self, tiny_rows):
        handle = ServerHandle(ServeConfig(backend="sequential")).start()
        with handle.client() as client:
            assert client.solve("gon", 2, points=tiny_rows)["ok"]
        handle.close()
        handle.close()  # second close is a no-op

    def test_client_pipelining_matches_by_id(self, handle, tiny_rows):
        with handle.client() as client:
            for i in range(3):
                client.send(
                    {
                        "op": "solve",
                        "id": f"p{i}",
                        "algo": "gon",
                        "k": 2 + i,
                        "seed": i,
                        "points": tiny_rows.tolist(),
                    }
                )
            got = {client.recv()["id"] for _ in range(3)}
        assert got == {"p0", "p1", "p2"}
