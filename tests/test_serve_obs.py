"""Serving-layer observability: stats schema, metrics surface, progress.

Three scrape surfaces must agree: the ``stats`` op (stable JSON schema,
every key always present), the ``metrics`` op (Prometheus text over the
NDJSON protocol), and the optional plain-HTTP ``/metrics`` listener.
The scrape-consistency contract is exact: the server refreshes its
snapshot gauges from ``stats()`` immediately before every render, so a
scraper and a stats client see the same numbers.  The ``progress`` op
streams span events mid-solve and must end with a final response whose
result is bit-identical to a plain solve.
"""

import json
import urllib.request

import numpy as np
import pytest

import repro
from repro.mapreduce.faults import Fault, FaultSchedule
from repro.obs import metrics as obs_metrics
from repro.serve import ServeConfig, ServerHandle

from test_obs_metrics import assert_prometheus_text

# Every key the stats op promises, always, in this exact set — the
# schema regression gate for scrapers that index blindly.
STATS_SCHEMA = {
    "server_version", "uptime_seconds", "backend", "pool_size",
    "received", "answered", "rejected", "failed", "abandoned",
    "batches", "coalesced_requests", "isolation_splits", "pending",
    "draining", "retries", "speculative_wins", "wasted_task_seconds",
}


@pytest.fixture(scope="module")
def rows():
    return np.random.default_rng(3).normal(size=(70, 3)).tolist()


class TestStatsSchema:
    def test_schema_is_stable_without_cache(self, rows):
        config = ServeConfig(backend="sequential")
        with ServerHandle(config) as h, h.client() as client:
            client.solve("gon", 3, points=rows)
            stats = client.stats()
        assert len(STATS_SCHEMA) == 17
        assert set(stats) == STATS_SCHEMA
        assert stats["server_version"] == repro.__version__
        assert stats["uptime_seconds"] > 0
        assert stats["retries"] == 0
        assert stats["speculative_wins"] == 0
        assert stats["wasted_task_seconds"] == 0.0
        assert stats["answered"] == 1

    def test_uptime_counts_from_start(self, rows):
        config = ServeConfig(backend="sequential")
        with ServerHandle(config) as h, h.client() as client:
            first = client.stats()["uptime_seconds"]
            client.solve("gon", 3, points=rows)
            second = client.stats()["uptime_seconds"]
        assert 0 < first <= second


class TestMetricsOp:
    def test_metrics_op_renders_parseable_prometheus_text(self, rows):
        config = ServeConfig(backend="sequential")
        with ServerHandle(config) as h, h.client() as client:
            client.solve("gon", 3, points=rows)
            response = client.request({"op": "metrics"})
            assert response["ok"]
            assert response["content_type"] == obs_metrics.CONTENT_TYPE
            samples = assert_prometheus_text(response["metrics"])
        for series in (
            'repro_serve_requests_total{outcome="received"}',
            'repro_serve_requests_total{outcome="answered"}',
            "repro_serve_batches_total",
            "repro_serve_uptime_seconds",
            "repro_serve_queue_wait_seconds_count",
            "repro_solves_total{algorithm=\"gon\"}",
        ):
            assert series in samples, f"missing series {series}"

    def test_scrape_counters_match_stats_op_under_faults(self, rows):
        # Task 0 of every batch crashes once; the resilient pool retries
        # it.  After load, the Prometheus render and the stats op must
        # tell the same story — the ISSUE's scrape-consistency gate.
        config = ServeConfig(
            backend="thread",
            pool_size=2,
            fault_retries=2,
            fault_injector=FaultSchedule({(None, 0): Fault("crash")}),
        )
        with ServerHandle(config) as h, h.client() as client:
            obs_metrics.REGISTRY.reset()  # isolate from earlier servers
            for seed in (1, 2, 3):
                client.solve("mrg", 4, points=rows, seed=seed)
            stats = client.stats()
            samples = assert_prometheus_text(client.metrics())
        assert stats["retries"] >= 1
        # The fault numbers are exported once, as the executor's
        # counters; no gauge mirrors them.
        assert "repro_serve_retries" not in samples
        assert samples["repro_task_retries_total"] == stats["retries"]
        # A counter never incremented exports no sample.
        assert (
            samples.get("repro_speculative_wins_total", 0.0)
            == stats["speculative_wins"]
        )
        assert (
            samples['repro_serve_requests_total{outcome="answered"}']
            == stats["answered"]
            == 3
        )
        assert samples["repro_serve_batches_total"] == stats["batches"]
        assert samples.get(
            "repro_wasted_task_seconds_total", 0.0
        ) == pytest.approx(stats["wasted_task_seconds"])


class TestHttpScrape:
    def test_http_metrics_listener(self, rows):
        config = ServeConfig(backend="sequential", metrics_port=0)
        with ServerHandle(config) as h, h.client() as client:
            client.solve("gon", 3, points=rows)
            assert h.server.metrics_address is not None
            host, port = h.server.metrics_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert (
                    response.headers["Content-Type"]
                    == obs_metrics.CONTENT_TYPE
                )
                samples = assert_prometheus_text(
                    response.read().decode("utf-8")
                )
        assert 'repro_serve_requests_total{outcome="answered"}' in samples
        assert samples["repro_serve_uptime_seconds"] > 0

    def test_http_unknown_path_is_404(self, rows):
        config = ServeConfig(backend="sequential", metrics_port=0)
        with ServerHandle(config) as h:
            host, port = h.server.metrics_address
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5
                )
            assert err.value.code == 404

    def test_no_listener_without_metrics_port(self):
        with ServerHandle(ServeConfig(backend="sequential")) as h:
            assert h.server.metrics_address is None


class TestProgressOp:
    def test_progress_streams_events_then_bit_identical_final(self, rows):
        config = ServeConfig(backend="thread", pool_size=2)
        with ServerHandle(config) as h, h.client() as client:
            plain = client.solve("mrg", 4, points=rows, seed=5)
            events, final = client.solve_progress(
                "mrg", 4, points=rows, seed=5
            )
        assert final["ok"] and final["final"] is True
        for key in ("algorithm", "centers", "radius", "k", "dist_evals"):
            assert final["result"][key] == plain["result"][key]
        assert final["accounting"]["spans"] >= len(events)
        assert final["accounting"]["run_id"]
        cats = {event["cat"] for event in events}
        assert cats <= {"solve", "round", "attempt"}
        assert "round" in cats and "solve" in cats
        for event in events:
            assert event["duration"] >= 0
            assert event["start"] >= 0
        # Events arrive before the final line (streaming, not a recap):
        # the last event is the whole-solve span, closed before commit.
        assert events[-1]["cat"] == "solve"

    def test_progress_surfaces_abandoned_attempts(self, rows):
        config = ServeConfig(
            backend="thread",
            pool_size=2,
            fault_retries=2,
            fault_injector=FaultSchedule({(None, 0): Fault("crash")}),
        )
        with ServerHandle(config) as h, h.client() as client:
            events, final = client.solve_progress(
                "mrg", 4, points=rows, seed=5
            )
        assert final["ok"]
        attempts = [e for e in events if e["cat"] == "attempt"]
        assert attempts, "the crashed attempt must stream as an event"
        assert all(a["args"]["abandoned"] is True for a in attempts)

    def test_progress_error_still_ends_with_final_line(self, rows):
        from repro.serve import E_BAD_REQUEST, ServeError

        with ServerHandle(ServeConfig(backend="sequential")) as h:
            with h.client() as client:
                with pytest.raises(ServeError) as err:
                    client.solve_progress(
                        "mrg", 4, points=rows,
                        options={"executor": "process"},  # server owns pool
                    )
                assert err.value.code == E_BAD_REQUEST
                # The connection stays usable after the failed stream.
                assert client.ping()["ok"]

    def test_progress_events_are_json_clean(self, rows):
        # Every event must round-trip through the wire encoding (no
        # numpy scalars or other unserializable args).
        config = ServeConfig(backend="sequential")
        with ServerHandle(config) as h, h.client() as client:
            events, _ = client.solve_progress("gon", 3, points=rows)
        json.dumps(events)
