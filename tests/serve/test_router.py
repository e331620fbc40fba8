"""Shard-router tests: routing, shared cache, failover, fleet metrics.

Each test drives a real fleet — a :class:`~repro.serve.router.
ShardRouter` on its own event-loop thread supervising worker-shard
*subprocesses* — through the unchanged public API via
:class:`~repro.serve.client.Client`, the same embedded harness the
single-process service tests use.

The byte-identity oracle is the one the whole serve tier is built on:
``execute_spec`` runs the exact scheduler path of the one-shot CLI, so
``response_text(execute_spec(spec)[0])`` is the reference bytes every
served result — cold, cached, failed-over — must equal.
"""

import http.client
import json
import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.bench.suites import EXAMPLES
from repro.serve import Client, RouterConfig, ShardRouter
from repro.serve.client import ServiceError
from repro.serve.hashring import HashRing
from repro.serve.jobs import execute_spec, normalize_spec, response_text
from repro.dfg.fingerprint import dfg_fingerprint
from repro.io.jsonio import dfg_from_json, dfg_to_json

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""


def _source(constant: int) -> str:
    """A family of distinct designs (distinct DFG fingerprints)."""
    return f"input a b\ns = a - b\nx = s * {constant}\noutput x\n"


def _expected_text(algorithm: str, body: dict) -> str:
    payload, _perf = execute_spec(normalize_spec(algorithm, body))
    return response_text(payload)


def _owner(algorithm: str, body: dict, shards: int = 2) -> str:
    spec = normalize_spec(algorithm, body)
    ring = HashRing(f"shard-{i}" for i in range(shards))
    return ring.node_for(dfg_fingerprint(dfg_from_json(spec["dfg_json"])))


def _source_owned_by(shard: str, start: int = 1) -> str:
    for constant in range(start, start + 200):
        source = _source(constant)
        if _owner("mfs", {"source": source}) == shard:
            return source
    raise AssertionError(f"no design found owned by {shard}")  # pragma: no cover


@contextmanager
def fleet(**overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("shard_args", ("--serial",))
    router = ShardRouter(RouterConfig(port=0, **overrides))
    with router.start_in_thread() as handle:
        yield router, Client(handle.url, timeout=120.0)


@pytest.fixture(scope="module")
def shared_fleet():
    with fleet() as pair:
        yield pair


class TestRouting:
    def test_two_shard_smoke(self, shared_fleet):
        router, client = shared_fleet
        out = client.schedule(source=SRC, name="smoke")
        job = out["job"]
        assert job["status"] == "done"
        assert job["shard"] in router.shards
        assert client.result_text(job["id"]) == _expected_text(
            "mfs", {"source": SRC, "name": "smoke"}
        )

    def test_jobs_land_on_their_ring_owner(self, shared_fleet):
        _router, client = shared_fleet
        for constant in range(10, 16):
            source = _source(constant)
            out = client.schedule(source=source, name=f"own{constant}")
            assert out["job"]["shard"] == _owner(
                "mfs", {"source": source, "name": f"own{constant}"}
            )

    def test_repeat_submission_hits_the_shared_cache(self, shared_fleet):
        _router, client = shared_fleet
        body = {"source": _source(997), "name": "repeat"}
        first = client.schedule(**{"source": body["source"], "name": "repeat"})
        again = client.schedule(**{"source": body["source"], "name": "repeat"})
        assert again["job"]["cache"] == "hit"
        assert again["job"]["shard"] == "router"
        assert again["result"] == first["result"]
        # The fabricated router job answers the poll API like any other.
        polled = client.job(again["job"]["id"])
        assert polled["job"]["status"] == "done"
        assert client.result_text(again["job"]["id"]) == _expected_text(
            "mfs", body
        )

    def test_router_validates_at_the_edge(self, shared_fleet):
        _router, client = shared_fleet
        with pytest.raises(ServiceError) as excinfo:
            client.schedule(source="output x\n", name="bad")
        assert excinfo.value.status == 400

    def test_unknown_job_is_404_fleetwide(self, shared_fleet):
        _router, client = shared_fleet
        with pytest.raises(ServiceError) as excinfo:
            client.job("j99999-deadbeef")
        assert excinfo.value.status == 404


class TestFleetHealthAndMetrics:
    def test_healthz_aggregates_every_shard(self, shared_fleet):
        router, client = shared_fleet
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["healthy_shards"] == 2
        assert set(health["shards"]) == set(router.shards)
        for info in health["shards"].values():
            assert info["status"] == "ok"
            assert info["health"]["status"] in ("ok", "draining")

    def test_metrics_carry_shard_labels(self, shared_fleet):
        _router, client = shared_fleet
        client.schedule(source=_source(51), name="metrics")
        text = client.metrics_text()
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert any('shard="router"' in line for line in samples)
        assert any('shard="shard-0"' in line for line in samples)
        assert any('shard="shard-1"' in line for line in samples)
        # Every sample is attributed; labels are never duplicated.
        for line in samples:
            if line:
                assert line.count('shard="') == 1, line
        # HELP/TYPE headers are deduplicated across the merged scrapes.
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE ")
        ]
        assert len(type_lines) == len(set(type_lines))


class TestMalformedRequests:
    """The router reads requests through the shard's parser: a bad
    ``Content-Length`` is the client's error (400), never a 500."""

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, shared_fleet, length):
        _router, client = shared_fleet
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/v1/schedule", body=b"{}",
                headers={"Content-Length": length},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"non-negative integer" in response.read()
        finally:
            connection.close()

    def test_unrunnable_design_is_400_without_a_forward(
        self, shared_fleet, unrunnable
    ):
        router, client = shared_fleet
        algorithm, body, message = unrunnable

        def forwards():
            return sum(
                router.metrics.counter_value("router_forwards", target=name)
                for name in router.shards
            )

        before = forwards()
        submit = client.schedule if algorithm == "mfs" else client.synth
        with pytest.raises(ServiceError) as excinfo:
            submit(**body, wait=True)
        assert excinfo.value.status == 400
        assert message in excinfo.value.payload["error"]
        assert forwards() == before
        assert 'status="500"' not in client.metrics_text()


class TestCrossShardCache:
    def test_hit_survives_owner_shard_death_byte_identically(self):
        """A result cached by one shard serves requests for another.

        The acceptance scenario: compute on the owner shard, kill -9
        the owner, resubmit.  Consistent hashing would re-route the
        request to the surviving shard — which never computed it — but
        the router's shared L2 answers as a cache hit, byte-identical
        to the one-shot CLI.
        """
        with fleet(respawn=False) as (router, client):
            source = _source_owned_by("shard-0")
            body = {"source": source, "name": "xshard"}
            first = client.schedule(source=source, name="xshard")
            owner = first["job"]["shard"]
            assert owner == "shard-0"
            assert first["job"]["cache"] == "miss"

            os.kill(router.shards[owner].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while router.shards[owner].alive and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not router.shards[owner].alive

            again = client.schedule(source=source, name="xshard")
            assert again["job"]["cache"] == "hit"
            assert again["job"]["shard"] == "router"
            assert client.result_text(again["job"]["id"]) == _expected_text(
                "mfs", body
            )

    def test_failover_reroutes_cold_keys_to_the_next_shard(self):
        with fleet(respawn=False) as (router, client):
            source = _source_owned_by("shard-0", start=300)
            os.kill(router.shards["shard-0"].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while router.shards["shard-0"].alive and time.monotonic() < deadline:
                time.sleep(0.02)

            out = client.schedule(source=source, name="failover")
            assert out["job"]["shard"] == "shard-1"
            assert out["job"]["status"] == "done"
            assert client.result_text(out["job"]["id"]) == _expected_text(
                "mfs", {"source": source, "name": "failover"}
            )
            assert router.metrics.counter_value("router_failovers") >= 1


class TestDrain:
    def test_stop_drains_the_fleet(self):
        router = ShardRouter(
            RouterConfig(port=0, shards=2, shard_args=("--serial",))
        )
        handle = router.start_in_thread()
        client = Client(handle.url, timeout=120.0)
        client.schedule(source=_source(777), name="drain")
        handle.stop(drain=True)
        assert not handle._thread.is_alive()
        for shard in router.shards.values():
            assert shard.process.poll() is not None


def _live_children(pid: int) -> list:
    """Live (not zombie) processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _maps_numpy(pid: int) -> bool:
    with open(f"/proc/{pid}/maps", encoding="utf-8", errors="replace") as handle:
        return "/numpy/" in handle.read()


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)
class TestNumpyStaysOut:
    def test_paper_size_traffic_never_maps_numpy(self):
        """Paper-size jobs stay below ``VECTOR_MIN_OPS``, so no shard and
        no pool worker forked from one ever loads numpy."""
        with fleet(shard_args=("--workers", "2")) as (router, client):
            ids = []
            for example in EXAMPLES.values():
                design = json.loads(dfg_to_json(example.build()))
                case = example.table1_cases[0]
                # Sent without waiting, so batches reach the pool workers.
                ids.append(client.schedule(
                    dfg=design, cs=case.cs, mul_latency=case.mul_latency,
                    clock_ns=case.clock_ns, wait=False,
                )["job"]["id"])
                ids.append(client.synth(
                    dfg=design, cs=example.mfsa_cs,
                    mul_latency=example.mfsa_mul_latency,
                    clock_ns=example.mfsa_clock_ns, wait=False,
                )["job"]["id"])
            for job_id in ids:
                client.wait_for(job_id, timeout=120.0)

            shards = [shard.process.pid for shard in router.shards.values()]
            deadline = time.monotonic() + 30
            workers = []
            while len(workers) < 2 * len(shards) and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [w for pid in shards for w in _live_children(pid)]
            assert len(workers) == 2 * len(shards)
            for pid in shards + workers:
                assert not _maps_numpy(pid), f"pid {pid} maps numpy"
