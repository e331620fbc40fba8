"""Resilience tests: client retries, fault injection, crash recovery.

Three layers, cheapest first:

* pure client-side unit tests (URL parsing, ``wait_for`` backoff, retry
  budget, circuit breaker) — no sockets at all;
* in-process services armed with a seeded :class:`FaultPlan` (chaos
  without subprocesses) and journal round-trips through graceful and
  simulated-crash restarts;
* the full ``kill -9`` end-to-end: a real server subprocess is killed
  mid-flight and a fresh process on the same ``--state-dir`` must
  complete every admitted job with byte-identical results.  The CI
  ``chaos-smoke`` job runs exactly this scenario.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
import urllib.request
from contextlib import contextmanager

import pytest

from repro.resilience.journal import JobJournal, audit_journal
from repro.resilience.retry import CircuitBreaker, CircuitOpen, RetryPolicy
from repro.serve import Backpressure, Client, JobFailedError, ServeApp, ServiceError
from repro.serve.jobs import cache_key, execute_spec, normalize_spec, response_text

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

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


def _expected_text(algorithm, body):
    """The canonical bytes an uninterrupted run would have produced."""
    payload, _perf = execute_spec(normalize_spec(algorithm, body))
    return response_text(payload)


# ---------------------------------------------------------------------------
# Client URL parsing (regression: "localhost:8421" used to read the host
# as the scheme and the port as the path)
# ---------------------------------------------------------------------------
class TestClientUrlParsing:
    def test_scheme_less_host_port(self):
        client = Client("localhost:8421")
        assert (client.host, client.port) == ("localhost", 8421)

    def test_explicit_http_url(self):
        client = Client("http://example.com:1234")
        assert (client.host, client.port) == ("example.com", 1234)

    def test_bare_host_defaults_to_port_80(self):
        client = Client("example.com")
        assert (client.host, client.port) == ("example.com", 80)

    def test_ip_host_port(self):
        client = Client("127.0.0.1:9")
        assert (client.host, client.port) == ("127.0.0.1", 9)

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ValueError, match="unsupported scheme"):
            Client("https://example.com")

    def test_missing_host_rejected(self):
        with pytest.raises(ValueError, match="no host"):
            Client("http://")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            Client("localhost:8421", retries=-1)


# ---------------------------------------------------------------------------
# wait_for: capped exponential polling + typed failure
# ---------------------------------------------------------------------------
class TestWaitFor:
    def _client_with_script(self, statuses):
        """A client whose job() walks a scripted status sequence."""
        client = Client("localhost:1", retry_seed=0)
        sleeps = []
        client._sleep = sleeps.append
        script = iter(statuses)

        def fake_job(_job_id):
            return {"job": {"id": "j1", "status": next(script)}}

        client.job = fake_job
        return client, sleeps

    def test_poll_interval_doubles_and_caps(self):
        client, sleeps = self._client_with_script(
            ["queued"] * 8 + ["done"]
        )
        client.wait_for("j1", timeout=60.0, poll_s=0.05, max_poll_s=0.4)
        assert len(sleeps) == 8
        # each sleep falls inside [delay/2, delay] of the doubling ladder
        ladder = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4]
        for slept, delay in zip(sleeps, ladder):
            assert delay / 2.0 <= slept <= delay
        assert max(sleeps) <= 0.4

    def test_seeded_jitter_is_deterministic(self):
        first = self._client_with_script(["queued"] * 5 + ["done"])
        second = self._client_with_script(["queued"] * 5 + ["done"])
        first[0].wait_for("j1", timeout=60.0)
        second[0].wait_for("j1", timeout=60.0)
        assert first[1] == second[1]

    def test_failed_job_raises_typed_error(self):
        with service() as (_app, client):
            out = client.schedule(source=SRC, cs=1, wait=False)
            with pytest.raises(JobFailedError) as exc:
                client.wait_for(out["job"]["id"], timeout=10)
            assert exc.value.status == "failed"
            assert exc.value.job_id == out["job"]["id"]
            assert exc.value.job["error"]["type"]

    def test_raise_on_failure_false_returns_payload(self):
        with service() as (_app, client):
            out = client.schedule(source=SRC, cs=1, wait=False)
            info = client.wait_for(
                out["job"]["id"], timeout=10, raise_on_failure=False
            )
            assert info["job"]["status"] == "failed"

    def test_deadline_raises_timeout_error(self):
        client, _sleeps = self._client_with_script(
            itertools.repeat("queued")
        )
        with pytest.raises(TimeoutError, match="still queued"):
            client.wait_for("j1", timeout=0.01)


# ---------------------------------------------------------------------------
# Transport retries and the circuit breaker
# ---------------------------------------------------------------------------
class TestClientRetries:
    def test_connection_refused_exhausts_budget(self):
        client = Client("127.0.0.1:9", retries=2, retry_seed=5)
        sleeps = []
        client._sleep = sleeps.append
        attempts = []

        def refused(*_args, **_kwargs):
            attempts.append(1)
            raise ConnectionRefusedError("refused")

        client._request = refused
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(attempts) == 3  # first try + 2 retries
        assert sleeps == RetryPolicy(retries=2, seed=5).delays()

    def test_retry_succeeds_once_server_returns(self):
        client = Client("127.0.0.1:9", retries=3, retry_seed=0)
        sleeps = []
        client._sleep = sleeps.append
        calls = []

        def flaky(*_args, **_kwargs):
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionRefusedError("restarting")
            return 200, {}, {"status": "ok"}

        client._request = flaky
        assert client.healthz() == {"status": "ok"}
        assert len(calls) == 3 and len(sleeps) == 2

    def test_429_retried_with_retry_after_floor(self):
        client = Client("127.0.0.1:9", retries=2, retry_seed=0)
        sleeps = []
        client._sleep = sleeps.append
        calls = []

        def shedding(*_args, **_kwargs):
            calls.append(1)
            if len(calls) < 3:
                return 429, {"retry-after": "0.75"}, {"error": "queue full"}
            return 200, {}, {"status": "ok"}

        client._request = shedding
        assert client.healthz() == {"status": "ok"}
        assert all(slept >= 0.75 for slept in sleeps)

    def test_429_without_budget_raises_backpressure(self):
        client = Client("127.0.0.1:9")  # retries defaults to 0
        client._request = lambda *a, **k: (
            429, {"retry-after": "2.5"}, {"error": "queue full"},
        )
        with pytest.raises(Backpressure) as exc:
            client.healthz()
        assert exc.value.retry_after == 2.5

    def test_definite_errors_are_not_retried(self):
        client = Client("127.0.0.1:9", retries=5)
        calls = []

        def bad_request(*_args, **_kwargs):
            calls.append(1)
            return 400, {}, {"error": "nope"}

        client._request = bad_request
        with pytest.raises(ServiceError):
            client.healthz()
        assert len(calls) == 1

    def test_breaker_opens_and_fails_fast(self):
        class FakeClock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_s=5.0, clock=clock)
        client = Client("127.0.0.1:9", breaker=breaker)
        attempts = []

        def refused(*_args, **_kwargs):
            attempts.append(1)
            raise ConnectionRefusedError("down")

        client._request = refused
        for _ in range(2):
            with pytest.raises(ConnectionRefusedError):
                client.healthz()
        with pytest.raises(CircuitOpen):
            client.healthz()
        assert len(attempts) == 2  # the open circuit never hit the wire
        clock.now = 5.0
        client._request = lambda *a, **k: (200, {}, {"status": "ok"})
        assert client.healthz() == {"status": "ok"}  # half-open probe closes
        assert breaker.state == "closed"


# ---------------------------------------------------------------------------
# Seeded fault injection through the live service
# ---------------------------------------------------------------------------
class TestServeFaultInjection:
    def test_admit_fault_rejects_then_recovers(self):
        with service(faults="serve.admit:n=1") as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.schedule(source=SRC, cs=6, wait=True)
            assert exc.value.status == 500
            assert "InjectedFault" in str(exc.value)
            out = client.schedule(source=SRC, cs=6, wait=True)  # call 2
            assert out["result"]["ok"] is True

    def test_cache_put_fault_costs_future_hits_not_the_job(self):
        with service(faults="serve.cache.put:n=1") as (app, client):
            first = client.schedule(source=SRC, cs=6, wait=True)
            assert first["result"]["ok"] is True
            assert app.metrics.counter_value("cache_put_errors") == 1
            assert len(app.cache) == 0  # the put was the injected victim
            second = client.schedule(source=SRC, cs=6, wait=True)
            assert second["job"]["cache"] == "miss"  # recomputed, then cached
            assert len(app.cache) == 1

    def test_scheduler_fault_fails_the_job_payload(self):
        with service(faults="scheduler.run:n=1") as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.schedule(source=SRC, cs=6, wait=True)
            assert exc.value.status == 500
            assert exc.value.payload["job"]["status"] == "failed"
            assert exc.value.payload["result"]["error"]["type"] == "InjectedFault"
            out = client.schedule(source=SRC, cs=6, wait=True)
            assert out["result"]["ok"] is True

    def test_dispatch_fault_fails_the_batch_not_the_server(self):
        with service(faults="serve.dispatch:n=1") as (app, client):
            with pytest.raises(ServiceError) as exc:
                client.schedule(source=SRC, cs=6, wait=True)
            assert exc.value.status == 500
            assert exc.value.payload["job"]["status"] == "failed"
            assert app.metrics.counter_value("dispatch_errors") == 1
            out = client.schedule(source=SRC, cs=6, wait=True)
            assert out["result"]["ok"] is True

    def test_same_seed_replays_identical_failure_sequence(self):
        spec = "serve.admit:p=0.4"
        logs = []
        for _run in range(2):
            with service(faults=spec, fault_seed=13) as (app, client):
                for _call in range(12):
                    try:
                        client.schedule(source=SRC, cs=6, wait=True)
                    except ServiceError:
                        pass
                logs.append(list(app.fault_plan.log))
        assert logs[0] == logs[1]
        assert logs[0]  # the plan did fire


# ---------------------------------------------------------------------------
# Journal durability: in-process restarts
# ---------------------------------------------------------------------------
class TestJournalRecovery:
    def test_graceful_drain_compacts_and_preserves_results(self, tmp_path):
        state = str(tmp_path)
        with service(state_dir=state) as (app, client):
            out = client.schedule(source=SRC, cs=6, wait=True)
            job_id = out["job"]["id"]
            raw = client.result_text(job_id)
        journal_path = app.journal.path
        report = audit_journal(journal_path)
        assert report.ok, report.render()
        replayed = JobJournal(journal_path).replay()
        assert [e.job_id for e in replayed.completed] == [job_id]
        assert replayed.pending == []

        with service(state_dir=state) as (app2, client2):
            info = client2.job(job_id)
            assert info["job"]["status"] == "done"
            assert client2.result_text(job_id) == raw
            # the recovered result pre-warms the cache
            again = client2.schedule(source=SRC, cs=6, wait=True)
            assert again["job"]["cache"] == "hit"
            assert app2.metrics.counter_value(
                "recovered_jobs", kind="completed"
            ) == 1

    def test_pending_admit_is_replayed_byte_identically(self, tmp_path):
        body = {"source": SRC2, "cs": 4}
        spec = normalize_spec("mfs", body)
        journal = JobJournal(str(tmp_path / "jobs.journal.jsonl"))
        journal.record_admit("j-crash-1", cache_key(spec), spec, timeout_s=30.0)
        journal.close()

        with service(state_dir=str(tmp_path)) as (app, client):
            info = client.wait_for("j-crash-1", timeout=30)
            assert info["job"]["status"] == "done"
            assert client.result_text("j-crash-1") == _expected_text("mfs", body)
            assert app.metrics.counter_value(
                "recovered_jobs", kind="pending"
            ) == 1

    def test_torn_tail_from_simulated_crash_is_survived(self, tmp_path):
        spec = normalize_spec("mfs", {"source": SRC3, "cs": 4})
        journal = JobJournal(str(tmp_path / "jobs.journal.jsonl"))
        journal.record_admit("j-crash-2", cache_key(spec), spec)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "complete", "id": "j-crash-2"')  # kill -9

        assert audit_journal(journal.path).ok
        with service(state_dir=str(tmp_path)) as (_app, client):
            info = client.wait_for("j-crash-2", timeout=30)
            assert info["job"]["status"] == "done"


# ---------------------------------------------------------------------------
# kill -9 end to end (the CI chaos-smoke scenario)
# ---------------------------------------------------------------------------
def _boot(env, state_dir, *extra):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--serial", "--state-dir", state_dir, *extra,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )
    line = process.stderr.readline()
    match = re.search(r"serving on (http://\S+)", line)
    assert match, f"no announce line, got {line!r}"
    return process, match.group(1)


def test_kill_minus_nine_recovers_all_admitted_jobs(tmp_path, blocker_body):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    state = str(tmp_path)

    process, url = _boot(env, state)
    killed_pid = process.pid
    try:
        client = Client(url)
        # A slow job ahead of them keeps the admitted jobs queued, so the
        # process dies inside their crash window.
        blocker = client.schedule(**blocker_body, wait=False)
        pending = []
        for source, cs in ((SRC, 6), (SRC2, 4), (SRC3, 4)):
            out = client.schedule(source=source, cs=cs, wait=False)
            assert out["job"]["status"] in ("queued", "running")
            pending.append((out["job"]["id"], source, cs))
        assert client.job(blocker["job"]["id"])["job"]["status"] == "running"
    finally:
        process.kill()  # SIGKILL: no drain, no compaction, no goodbye
        process.wait(timeout=30)

    # A fresh process on the same state dir replays the journal.
    process, url = _boot(env, state)
    try:
        client = Client(url, retries=3, retry_seed=0)
        for job_id, source, cs in pending:
            info = client.wait_for(job_id, timeout=120)
            assert info["job"]["status"] == "done"
            raw = client.result_text(job_id)
            expected = _expected_text("mfs", {"source": source, "cs": cs})
            assert raw == expected  # byte-identical to an uninterrupted run
        info = client.wait_for(blocker["job"]["id"], timeout=120)
        assert info["job"]["status"] == "done"
        metrics = urllib.request.urlopen(
            f"{url}/metrics", timeout=10
        ).read().decode()
        # The three jobs and the blocker ahead of them.
        assert 'repro_serve_recovered_jobs_total{kind="pending"} 4' in metrics
        assert process.pid != killed_pid
    finally:
        process.kill()
        process.wait(timeout=30)


def test_kill_minus_nine_preserves_completed_results(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    state = str(tmp_path)

    process, url = _boot(env, state)
    try:
        client = Client(url)
        out = client.schedule(source=SRC, cs=6, wait=True)
        job_id = out["job"]["id"]
        raw = client.result_text(job_id)
    finally:
        process.kill()
        process.wait(timeout=30)

    process, url = _boot(env, state)
    try:
        client = Client(url, retries=3, retry_seed=0)
        assert client.job(job_id)["job"]["status"] == "done"
        assert client.result_text(job_id) == raw
        again = client.schedule(source=SRC, cs=6, wait=True)
        assert again["job"]["cache"] == "hit"  # cache survived the crash
    finally:
        process.kill()
        process.wait(timeout=30)
