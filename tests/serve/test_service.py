"""Service-level tests: HTTP API, concurrency, backpressure, determinism.

Each test boots a real :class:`~repro.serve.app.ServeApp` on an
ephemeral port (event loop on a daemon thread) and talks to it over
actual sockets through :class:`~repro.serve.client.Client`.  Slow-job
scenarios pin the executor to the serial backend and wrap
``execute_job`` with a sleep, so timing is controlled without touching
process pools.
"""

from __future__ import annotations

import gc
import http.client
import json
import logging
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

import repro.serve.batcher as batcher_module
from repro.resilience.journal import load_records
from repro.serve import Backpressure, Client, ServeApp, ServiceError
from repro.serve.jobs import execute_job

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""

SRC2 = """input a b c
x = a + b * c
output x
"""

SRC3 = """input a b
s = a - b
x = s * 3
output x
"""


@contextmanager
def service(**config):
    config.setdefault("port", 0)
    config.setdefault("backend", "serial")
    app = ServeApp(**config)
    handle = app.start_in_thread()
    try:
        yield app, Client(handle.url)
    finally:
        handle.stop()


@contextmanager
def slow_execution(monkeypatch, delay_s):
    """Make every (serial-backend) execution take at least ``delay_s``."""

    def slow(spec):
        time.sleep(delay_s)
        return execute_job(spec)

    monkeypatch.setattr(batcher_module, "execute_job", slow)
    yield


def _wait_until(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(poll)


class TestCacheAndDeterminism:
    def test_cold_then_cached_byte_identical(self):
        with service() as (app, client):
            first = client.schedule(source=SRC, cs=6, wait=True)
            second = client.schedule(source=SRC, cs=6, wait=True)
            assert first["job"]["cache"] == "miss"
            assert second["job"]["cache"] == "hit"
            raw_first = client.result_text(first["job"]["id"])
            raw_second = client.result_text(second["job"]["id"])
            assert raw_first == raw_second  # literal byte identity
            assert app.cache.hits == 1

    def test_served_result_matches_oneshot_cli_path(self):
        from repro.core.mfsa import MFSAScheduler
        from repro.dfg.analysis import TimingModel
        from repro.dfg.ops import standard_operation_set
        from repro.dfg.parser import parse_behavior
        from repro.io.jsonio import synthesis_to_json
        from repro.library.ncr import datapath_library

        dfg = parse_behavior(SRC, name="det")
        timing = TimingModel(ops=standard_operation_set(mul_latency=1))
        oneshot = json.loads(
            synthesis_to_json(
                MFSAScheduler(dfg, timing, datapath_library(), cs=6).run()
            )
        )
        with service() as (_app, client):
            out = client.synth(source=SRC, name="det", cs=6, wait=True)
        assert out["result"]["result"] == oneshot

    def test_isomorphic_designs_share_the_cache_entry(self):
        renamed = SRC.replace("t1", "u9").replace("t2", "u8")
        with service() as (app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            out = client.schedule(source=renamed, cs=6, wait=True)
            assert out["job"]["cache"] == "hit"
            assert len(app.cache) == 1

    def test_verify_and_trace_round_trip(self):
        with service() as (_app, client):
            out = client.synth(
                source=SRC2, cs=4, wait=True, verify=True, trace=True
            )
            assert out["result"]["verified"] is True
            assert out["result"]["checks_run"]
            assert out["result"]["trace_jsonl"].count("\n") > 5


class TestSingleFlight:
    def test_identical_concurrent_submissions_run_once(self, monkeypatch):
        # A slow execution holds the leader in flight while the other
        # submissions arrive and attach as followers.
        with slow_execution(monkeypatch, 0.5), service() as (app, client):

            def submit(_index):
                return client.schedule(source=SRC, cs=6, wait=True)

            with ThreadPoolExecutor(max_workers=5) as pool:
                results = list(pool.map(submit, range(5)))

            assert app.metrics.counter_value("jobs_executed") == 1
            assert app.metrics.counter_value("singleflight_followers") == 4
            caches = sorted(r["job"]["cache"] for r in results)
            assert caches == ["follower"] * 4 + ["miss"]
            raw = {
                client.result_text(r["job"]["id"]) for r in results
            }
            assert len(raw) == 1  # byte-identical across all five

    def test_different_jobs_are_not_coalesced(self):
        with service() as (app, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(
                        client.schedule, source=SRC, cs=6, wait=True
                    ),
                    pool.submit(
                        client.schedule, source=SRC3, cs=4, wait=True
                    ),
                ]
                results = [f.result() for f in futures]
            assert all(r["result"]["ok"] for r in results)
            assert app.metrics.counter_value("jobs_executed") == 2


class TestDispatch:
    """The batcher dispatches without a coalescing window and starts its
    pool workers when the service starts."""

    def test_lone_job_is_dispatched_without_waiting(self):
        with service() as (app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            out = client.schedule(source=SRC2, cs=4, wait=True)
            assert app.jobs[out["job"]["id"]].queue_seconds() < 0.005

    def test_jobs_queued_behind_a_running_one_share_a_batch(self, monkeypatch):
        with slow_execution(monkeypatch, 0.3), service() as (app, client):
            first = client.schedule(source=SRC, cs=6, wait=False)
            _wait_until(lambda: app.batcher.busy)
            queued = [
                client.schedule(source=source, cs=cs, wait=False)
                for source, cs in ((SRC, 7), (SRC, 8), (SRC2, 4), (SRC3, 4))
            ]
            for out in [first, *queued]:
                done = client.wait_for(out["job"]["id"], timeout=30)
                assert done["job"]["status"] == "done"
            assert app.metrics.summary_value("batch_size") == (5, 2)
            assert app.metrics.counter_value("batches") == 2
            assert app.metrics.counter_value("jobs_executed") == 5

    def test_pool_workers_start_with_the_service(self):
        before = {child.pid for child in multiprocessing.active_children()}

        def new_workers():
            return {
                child.pid
                for child in multiprocessing.active_children()
                if child.pid not in before
            }

        with service(backend="auto", workers=2) as (app, _client):
            _wait_until(lambda: len(new_workers()) == 2, timeout=10)
            assert app.metrics.counter_value("jobs_executed") == 0
            assert app.metrics.counter_value("batches") == 0
            assert app.perf.get("sweep.tasks") == 0
        assert new_workers() == set()


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, monkeypatch):
        with slow_execution(monkeypatch, 0.4):
            with service(
                queue_size=1, max_batch=1, retry_after_s=2.5
            ) as (app, client):
                first = client.schedule(source=SRC, cs=6, wait=False)
                # Wait until the batcher has pulled the first job so the
                # single queue slot is empty again.
                _wait_until(lambda: app.queue.depth() == 0)
                client.schedule(source=SRC2, cs=4, wait=False)
                with pytest.raises(Backpressure) as exc:
                    client.schedule(source=SRC3, cs=4, wait=False)
                assert exc.value.status == 429
                assert exc.value.retry_after == 2.5
                assert exc.value.payload["queue_size"] == 1
                assert app.metrics.counter_value("backpressure") == 1
                # The shed job left no residue; accepted work completes.
                done = client.wait_for(first["job"]["id"], timeout=10)
                assert done["job"]["status"] == "done"

    def test_draining_rejects_new_work_with_503(self):
        with service() as (app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            app.draining = True
            try:
                with pytest.raises(ServiceError) as exc:
                    client.schedule(source=SRC, cs=6, wait=True)
                assert exc.value.status == 503
                # Status endpoints stay reachable while draining.
                assert client.healthz()["status"] == "draining"
            finally:
                app.draining = False


class TestTimeouts:
    def test_running_timeout_discards_late_result(self, monkeypatch):
        with slow_execution(monkeypatch, 0.5):
            with service() as (app, client):
                with pytest.raises(ServiceError) as exc:
                    client.schedule(
                        source=SRC, cs=6, wait=True, timeout=0.05
                    )
                assert exc.value.status == 504
                job_id = exc.value.payload["job"]["id"]
                assert exc.value.payload["job"]["status"] == "timeout"
                # The batch still completes; the late result is discarded
                # for the job but harvested into the cache — no orphaned
                # pool work, no stuck batcher.
                _wait_until(
                    lambda: app.metrics.counter_value("jobs_executed") == 1
                )
                _wait_until(lambda: not app.batcher.busy)
                assert client.job(job_id)["job"]["status"] == "timeout"
                assert (
                    app.metrics.counter_value("jobs", status="timeout") == 1
                )
                # Same spec resubmitted: the harvested result serves it
                # from cache instantly (no second execution).
                out = client.schedule(source=SRC, cs=6, wait=True)
                assert out["job"]["cache"] == "hit"
                assert app.metrics.counter_value("jobs_executed") == 1

    def test_queued_timeout_is_never_executed(self, monkeypatch):
        with slow_execution(monkeypatch, 0.4):
            with service(queue_size=4, max_batch=1) as (app, client):
                blocker = client.schedule(source=SRC, cs=6, wait=False)
                _wait_until(lambda: app.queue.depth() == 0)
                with pytest.raises(ServiceError) as exc:
                    client.schedule(
                        source=SRC2, cs=4, wait=True, timeout=0.05
                    )
                assert exc.value.status == 504
                client.wait_for(blocker["job"]["id"], timeout=10)
                _wait_until(lambda: not app.batcher.busy)
                # Only the blocker ever reached the executor.
                assert app.metrics.counter_value("jobs_executed") == 1


class TestHttpSurface:
    def _raw(self, client, method, path, body=b"", headers=None):
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_bad_json_is_400(self):
        with service() as (_app, client):
            status, body = self._raw(
                client, "POST", "/v1/schedule?wait=1", b"{nope"
            )
            assert status == 400
            assert b"not JSON" in body

    def test_unknown_route_is_404(self):
        with service() as (_app, client):
            status, _body = self._raw(client, "GET", "/v2/nothing")
            assert status == 404

    def test_non_object_json_is_400(self):
        with service() as (app, client):
            for body in ([], "text", 5):
                status, _headers, payload = client._request(
                    "POST", "/v1/schedule", body=body
                )
                assert status == 400, body
                assert payload == {
                    "error": "request body must be a JSON object"
                }
            assert app.jobs == {}

    def test_admin_cache_paths_are_404(self):
        """A shard serves no cache-transfer routes, whatever the method."""
        with service() as (_app, client):
            for method, path in [
                ("GET", "/admin/cache/index"),
                ("GET", "/admin/cache/entry?key=k"),
                ("POST", "/admin/cache/export"),
                ("POST", "/admin/cache/import"),
                ("POST", "/admin/shards"),
            ]:
                status, _body = self._raw(client, method, path, b"{}")
                assert status == 404, (method, path)

    def test_wrong_method_is_405(self):
        with service() as (_app, client):
            status, _body = self._raw(client, "GET", "/v1/schedule")
            assert status == 405

    def test_unknown_job_is_404(self):
        with service() as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.job("j99999-deadbeef")
            assert exc.value.status == 404

    def test_failed_job_is_500_with_payload(self):
        with service() as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.schedule(source=SRC, cs=1, wait=True)
            assert exc.value.status == 500
            assert exc.value.payload["job"]["status"] == "failed"
            assert exc.value.payload["result"]["ok"] is False

    def test_unread_failure_is_collected_without_an_asyncio_log(self, caplog):
        # A wait=0 job that fails and is never read: once the job table
        # evicts it, its future is collected.  The error belongs to the
        # job record, so asyncio must not log it as never retrieved.
        with service(job_history=1) as (app, client):
            job_id = client.schedule(source=SRC, cs=1, wait=False)["job"]["id"]
            _wait_until(lambda: app.jobs[job_id].terminal)
            assert app.jobs[job_id].error["type"]
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                client.schedule(source=SRC, cs=6, wait=True)  # evicts it
                assert job_id not in app.jobs
                gc.collect()
        assert "never retrieved" not in caplog.text

    def test_metrics_exposition_is_scrapeable(self):
        with service() as (_app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            client.schedule(source=SRC, cs=6, wait=True)
            text = client.metrics_text()
            assert "# TYPE repro_serve_jobs_total counter" in text
            assert 'repro_serve_jobs_total{status="done"} 2' in text
            assert "repro_serve_cache_hits_total 1" in text
            assert "repro_serve_queue_depth 0" in text
            assert "repro_serve_batch_size_count" in text
            assert "repro_perf_counter_total" in text

    def test_unrunnable_design_is_400_before_any_work(self, tmp_path, unrunnable):
        algorithm, body, message = unrunnable
        with service(state_dir=str(tmp_path)) as (app, client):
            submit = client.schedule if algorithm == "mfs" else client.synth
            with pytest.raises(ServiceError) as exc:
                submit(**body, wait=True)
            assert exc.value.status == 400
            assert message in exc.value.payload["error"]
            assert app.jobs == {}
            assert app.metrics.counter_value("journal_writes") == 0
            assert app.metrics.counter_value("jobs_executed") == 0
            assert 'status="500"' not in client.metrics_text()
        journal = tmp_path / "jobs.journal.jsonl"
        assert load_records(str(journal)) == ([], False)

    def test_healthz_reports_shape(self):
        with service() as (_app, client):
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert "uptime_seconds" in health
