"""Fleet resilience: kill -9 a shard mid-load, failover, drain.

The sharded extension of the PR-5 crash harness
(``tests/serve/test_resilience.py``): the same byte-identity oracle
(``response_text(execute_spec(...))`` — the exact one-shot CLI path) and
the same crash-window trick (a slow job ahead of them keeps admitted
jobs journaled-but-unexecuted), applied to a fleet where the router must
keep answering while one shard dies and replays.
"""

import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.serve import Client, RouterConfig, ShardRouter
from repro.serve.jobs import execute_spec, normalize_spec, response_text

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _source(constant: int) -> str:
    return f"input a b\ns = a - b\nx = s * {constant}\noutput x\n"


def _expected_text(algorithm, body):
    payload, _perf = execute_spec(normalize_spec(algorithm, body))
    return response_text(payload)


@contextmanager
def fleet(**overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("shard_args", ("--serial",))
    router = ShardRouter(RouterConfig(port=0, **overrides))
    with router.start_in_thread() as handle:
        yield router, Client(handle.url, timeout=120.0)


class TestShardCrashReplay:
    def test_kill9_one_shard_mid_load_replays_byte_identically(
        self, tmp_path, blocker_body
    ):
        """The acceptance scenario: SIGKILL one shard with admitted jobs
        in its crash window; the supervisor respawns it on the same
        state dir and every admitted job finishes under its original id
        with byte-identical bytes, while the other shard keeps serving.
        """
        with fleet(state_dir=str(tmp_path)) as (router, client):
            # A slow job holds the jobs after it in its shard's queue, so
            # the SIGKILL lands inside their crash window (journaled, not
            # yet executed).
            blocker = client.schedule(**blocker_body, wait=False)
            victim = blocker["job"]["shard"]
            pending = []
            for constant in range(20, 30):
                source = _source(constant)
                out = client.schedule(source=source, wait=False,
                                      name=f"crash{constant}")
                assert out["job"]["status"] in ("queued", "running")
                pending.append((out["job"]["id"], out["job"]["shard"], source,
                                f"crash{constant}"))

            by_shard = {s: [p for p in pending if p[1] == s]
                        for s in router.shards}
            assert by_shard[victim], "no job landed on the victim shard"

            killed_pid = router.shards[victim].process.pid
            os.kill(killed_pid, signal.SIGKILL)

            # The health loop notices the death and respawns on the
            # same state dir; journal replay runs before its listener.
            deadline = time.monotonic() + 60
            shard = router.shards[victim]
            while time.monotonic() < deadline:
                if shard.restarts >= 1 and shard.healthy:
                    break
                time.sleep(0.05)
            assert shard.restarts >= 1 and shard.healthy
            assert shard.process.pid != killed_pid

            for job_id, _shard, source, name in pending:
                info = client.wait_for(job_id, timeout=120)
                assert info["job"]["status"] == "done"
                raw = client.result_text(job_id)
                assert raw == _expected_text(
                    "mfs", {"source": source, "name": name}
                )
            info = client.wait_for(blocker["job"]["id"], timeout=120)
            assert info["job"]["status"] == "done"

            metrics = client.metrics_text()
            assert re.search(
                r'repro_serve_recovered_jobs_total\{shard="%s",kind="pending"\} \d+'
                % victim,
                metrics,
            ), metrics

    def test_router_forward_fault_site_drives_failover(self):
        """An injected ``router.forward`` fault (repro.resilience) makes
        the first forwarding attempt fail; the request is re-routed and
        still answered correctly."""
        with fleet(faults="router.forward:n=1") as (router, client):
            source = _source(404)
            out = client.schedule(source=source, name="chaos")
            assert out["job"]["status"] == "done"
            assert client.result_text(out["job"]["id"]) == _expected_text(
                "mfs", {"source": source, "name": "chaos"}
            )
            assert router.fault_plan.fired("router.forward") == 1
            errors = sum(
                router.metrics.counter_value(
                    "router_forward_errors", target=name
                )
                for name in router.shards
            )
            assert errors >= 1


class TestFleetDrain:
    def test_sigterm_drains_the_whole_fleet_and_exits_zero(self, tmp_path):
        """End-to-end CLI: ``serve --shards 2`` + SIGTERM = graceful
        fleet drain (every shard compacts its journal) and exit 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--shards", "2", "--serial", "--state-dir", str(tmp_path),
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO,
        )
        url = None
        try:
            for _ in range(10):
                line = process.stderr.readline()
                match = re.search(r"serving on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, "router never announced its URL"
            client = Client(url, timeout=120.0)
            source = _source(55)
            out = client.schedule(source=source, name="drain")
            assert out["job"]["status"] == "done"

            process.send_signal(signal.SIGTERM)
            rc = process.wait(timeout=120)
            tail = process.stderr.read()
            assert rc == 0
            assert "drained and stopped" in tail
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=30)

        # The drain compacted each shard's journal in place.
        for index in range(2):
            journal = tmp_path / f"shard-{index}" / "jobs.journal.jsonl"
            assert journal.exists()
