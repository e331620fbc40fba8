"""Elastic-fleet acceptance: online reshard, journal re-warm, supervision.

The three robustness claims the shard router makes:

* **zero-downtime reshard** — ``POST /admin/shards`` grows or drains
  the fleet at runtime with a boot or a drain plus a ring flip; the
  router L2 keeps repeat submissions cache hits across the resize, and
  a repeat no tier holds is recomputed to the same bytes;
* **journal re-warm** — a shard respawned after ``kill -9`` replays its
  journal into its L1 before it listens, so a result the router L2 has
  already evicted is still a cache hit, served by its owner;
* **crash-loop-safe supervision** — respawns back off with monotone
  (equal-jitter) gaps, and a shard that keeps dying is demoted while
  the rest of the fleet keeps serving.

The CI chaos-smoke job runs this file as the reshard-under-load drill.
"""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.scenarios.replay import parse_arrival_spec, run_replay
from repro.serve import Client, RouterConfig, ShardRouter
from repro.serve.client import ServiceError
from repro.serve.jobs import execute_spec, normalize_spec, response_text


def _source(constant: int) -> str:
    return f"input a b\ns = a + b\nx = s * {constant}\noutput x\n"


def _expected_text(source: str, name: str) -> str:
    payload, _perf = execute_spec(
        normalize_spec("mfs", {"source": source, "name": name})
    )
    return response_text(payload)


@contextmanager
def fleet(**overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("shard_args", ("--serial",))
    router = ShardRouter(RouterConfig(port=0, **overrides))
    with router.start_in_thread() as handle:
        yield router, Client(handle.url, timeout=120.0)


def _wait_until(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(poll)
    return True


def _warm(client, count, prefix="warm"):
    """Submit ``count`` distinct designs; return their (source, name)s."""
    designs = []
    for constant in range(count):
        source = _source(constant + 3)
        name = f"{prefix}{constant}"
        out = client.schedule(source=source, name=name)
        assert out["job"]["status"] == "done"
        designs.append((source, name))
    return designs


class TestOnlineReshard:
    def test_add_shard_keeps_repeat_submissions_hits(self):
        """Scale-out acceptance at the default router L2 size: grow
        2 → 3, and every previously computed design is still answered as
        a cache hit, byte-identical to a fresh run."""
        with fleet() as (router, client):
            designs = _warm(client, 12)

            out = client.admin_add_shard()
            assert out == {
                "action": "add",
                "shard": "shard-2",
                "ring": ["shard-0", "shard-1", "shard-2"],
            }
            assert sorted(router.ring.nodes) == [
                "shard-0", "shard-1", "shard-2",
            ]
            assert _wait_until(lambda: router.shards["shard-2"].healthy)

            for source, name in designs:
                again = client.schedule(source=source, name=name)
                assert again["job"]["status"] == "done"
                assert again["job"]["cache"] == "hit", (source, again["job"])
                raw = client.result_text(again["job"]["id"])
                assert raw == _expected_text(source, name)

            status = client.admin_status()
            assert status["shards"]["shard-2"]["status"] == "ok"
            assert router.metrics.counter_value("reshards", action="add") == 1

    def test_add_shard_recomputes_what_no_tier_holds(self):
        """With a one-entry router L2, designs that move to the new
        shard meet a cold L1: each is computed again, and the answer is
        the same bytes as before the resize."""
        with fleet(cache_entries=1) as (router, client):
            designs = _warm(client, 12, prefix="cold")
            client.admin_add_shard()
            moved = 0
            for source, name in designs:
                again = client.schedule(source=source, name=name)
                assert again["job"]["status"] == "done"
                if again["job"]["shard"] == "shard-2":
                    moved += 1
                    assert again["job"]["cache"] == "miss"
                assert client.result_text(
                    again["job"]["id"]
                ) == _expected_text(source, name)
            # Placement is deterministic (sha256): 12 designs over a
            # 2 → 3 resize always move some to the newcomer.
            assert moved >= 1

    def test_remove_shard_drains_hands_off_and_exits(self, tmp_path):
        """Scale-in acceptance: the drained shard's keys go to its ring
        successor, the router L2 keeps their repeats hits, and the
        process exits cleanly after compacting its journal."""
        with fleet(state_dir=str(tmp_path)) as (router, client):
            designs = _warm(client, 8)
            victim_process = router.shards["shard-0"].process

            out = client.admin_remove_shard("shard-0")
            assert out == {
                "action": "remove", "shard": "shard-0", "ring": ["shard-1"],
            }
            assert "shard-0" not in router.shards
            assert router.ring.nodes == ("shard-1",)
            assert _wait_until(lambda: victim_process.poll() is not None)
            assert victim_process.returncode == 0  # graceful drain, not kill

            for source, name in designs:
                again = client.schedule(source=source, name=name)
                assert again["job"]["status"] == "done"
                assert again["job"]["cache"] == "hit", (source, again["job"])
                assert client.result_text(
                    again["job"]["id"]
                ) == _expected_text(source, name)

            # The drain compacted the removed shard's journal in place.
            assert (tmp_path / "shard-0" / "jobs.journal.jsonl").exists()
            # Its backoff gauge left the exposition with it.
            assert 'shard_respawn_backoff_seconds{target="shard-0"}' not in (
                router.metrics.render()
            )

    def test_remove_validation_and_status(self):
        with fleet(shards=1) as (router, client):
            with pytest.raises(ServiceError) as err:
                client.admin_remove_shard("shard-9")
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.admin_remove_shard("shard-0")  # last ring member
            assert err.value.status == 400
            for body in ([], "add", 5):
                status, _headers, payload = client._request(
                    "POST", "/admin/shards", body=body
                )
                assert status == 400, body
                assert payload == {
                    "error": "request body must be a JSON object"
                }
            status = client.admin_status()
            assert status["ring"] == ["shard-0"]
            assert "replication" not in status
            assert status["shards"]["shard-0"]["status"] == "ok"
            assert "replication" not in client.healthz()


class TestJournalRewarm:
    def test_respawned_owner_serves_an_l2_evicted_result(self, tmp_path):
        """The guarantee behind two cache tiers: the router L2 has
        evicted a result and its owner was SIGKILLed, yet the repeat is
        a hit served by the owner itself — the respawned shard replayed
        its journal into its L1 before it came back up."""
        with fleet(
            cache_entries=1,
            state_dir=str(tmp_path),
            respawn_base_s=0.05,
            respawn_cap_s=0.2,
            crash_loop_threshold=10,
        ) as (router, client):
            source, name = _source(91), "rewarm"
            first = client.schedule(source=source, name=name)
            assert first["job"]["status"] == "done"
            owner = first["job"]["shard"]
            assert owner in router.shards
            client.schedule(source=_source(92), name="evict")  # flush L2

            shard = router.shards[owner]
            os.kill(shard.process.pid, signal.SIGKILL)
            assert _wait_until(
                lambda: shard.restarts >= 1 and shard.healthy
            ), "owner never respawned"

            again = client.schedule(source=source, name=name)
            assert again["job"]["status"] == "done"
            assert again["job"]["cache"] == "hit", again["job"]
            assert again["job"]["shard"] == owner
            assert client.result_text(again["job"]["id"]) == _expected_text(
                source, name
            )


class TestSupervision:
    def test_respawn_gaps_grow_monotonically(self):
        """The crash-loop regression: kill one shard three times and the
        scheduled respawn delays must strictly increase — the equal-
        jitter backoff guarantee that replaced respawn-immediately."""
        with fleet(
            shards=1,
            respawn_base_s=0.05,
            respawn_cap_s=5.0,
            crash_loop_window_s=3600.0,  # every death counts as rapid
            crash_loop_threshold=10,
        ) as (router, client):
            shard = router.shards["shard-0"]
            for round_number in range(1, 4):
                os.kill(shard.process.pid, signal.SIGKILL)
                assert _wait_until(
                    lambda: shard.restarts >= round_number and shard.healthy
                ), f"no respawn after kill #{round_number}"

            gaps = list(shard.respawn_gaps)
            assert len(gaps) == 3
            assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps
            # Equal jitter keeps each delay in [ceiling/2, ceiling].
            for attempt, gap in enumerate(gaps):
                ceiling = min(5.0, 0.05 * 2.0**attempt)
                assert ceiling / 2.0 <= gap <= ceiling
            exposition = router.metrics.render()
            assert 'shard_respawn_backoff_seconds{target="shard-0"}' in (
                exposition
            )
            # The fleet still serves after the respawn storm.
            out = client.schedule(source=_source(12), name="after")
            assert out["job"]["status"] == "done"

    def test_crash_loop_demotes_the_shard_and_fleet_keeps_serving(self):
        with fleet(
            shards=2,
            respawn_base_s=0.01,
            respawn_cap_s=0.05,
            crash_loop_window_s=3600.0,
            crash_loop_threshold=3,
        ) as (router, client):
            shard = router.shards["shard-0"]
            deadline = time.monotonic() + 60
            while not shard.demoted and time.monotonic() < deadline:
                if shard.alive:
                    os.kill(shard.process.pid, signal.SIGKILL)
                time.sleep(0.02)
            assert shard.demoted
            assert shard.rapid_deaths >= 3
            assert router.ring.nodes == ("shard-1",)
            assert (
                router.metrics.counter_value("shard_demoted", target="shard-0")
                == 1
            )
            status = client.admin_status()
            assert status["shards"]["shard-0"]["status"] == "demoted"
            assert status["ring"] == ["shard-1"]
            # The ring routes around the demoted shard.
            out = client.schedule(source=_source(31), name="around")
            assert out["job"]["status"] == "done"
            assert out["job"]["shard"] in ("shard-1", "router")


class TestReshardUnderLoad:
    def test_drill_open_loop_add_and_kill_mid_replay(self):
        """The CI drill: replay seeded traffic open-loop against a
        2-shard fleet, add a third shard a third of the way in, SIGKILL
        a shard at two thirds — zero failed jobs, and every fingerprint
        byte-identical to an unsharded closed-loop run of the same
        traffic."""
        pattern = parse_arrival_spec("poisson:n=18:rate=500")
        kwargs = dict(seed=7, generator="random:ops=8", distinct_designs=6)
        reference = run_replay(pattern, **kwargs)
        assert reference.errors == 0

        def add_shard(service):
            out = Client(service.url, timeout=120.0).admin_add_shard()
            assert out["action"] == "add"

        def kill_one(service):
            victim = sorted(service.shards)[0]
            os.kill(service.shards[victim].process.pid, signal.SIGKILL)

        report = run_replay(
            pattern,
            shards=2,
            open_loop=True,
            max_in_flight=4,
            actions={6: add_shard, 12: kill_one},
            **kwargs,
        )
        assert report.mode == "open"
        assert report.jobs == 18
        assert report.errors == 0, [
            o for o in report.outcomes if o["status"] == "error"
        ]
        drill = [o.get("fingerprint") for o in report.outcomes]
        serial = [o.get("fingerprint") for o in reference.outcomes]
        assert drill == serial
