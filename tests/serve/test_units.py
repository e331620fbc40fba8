"""Unit tests for the serve building blocks (no HTTP, no threads)."""

from __future__ import annotations

import asyncio
import itertools
import json
import re

import pytest

from repro import sweep
from repro.bench.suites import EXAMPLES
from repro.io.jsonio import dfg_to_json
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    CS_FLOOR,
    JobSpecError,
    cache_key,
    execute_job,
    execute_spec,
    normalize_spec,
    response_text,
)
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, JobQueue, JobTimeout, QueueFull

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""


def _spec(**overrides):
    body = {"source": SRC}
    body.update(overrides.pop("body", {}))
    return normalize_spec(
        overrides.pop("algorithm", "mfs"), body, **overrides
    )


class TestSpecs:
    def test_normalize_rejects_unknown_algorithm(self):
        with pytest.raises(JobSpecError):
            normalize_spec("alap", {"source": SRC})

    def test_normalize_rejects_missing_design(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {})

    def test_normalize_rejects_both_designs(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "dfg": {}})

    def test_normalize_rejects_bad_source(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": "t1 :="})

    def test_normalize_rejects_bad_numbers(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "cs": "six"})
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "cs": 0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("style", 0),
            ("style", True),
            ("style", 1.9),
            ("cs", 2.7),
            ("cs", True),
            ("cs", float("inf")),
            ("mul_latency", 1.5),
            ("mul_latency", True),
            ("latency_l", 2.5),
            ("seed", 0.5),
            ("seed", False),
            ("clock_ns", True),
        ],
    )
    def test_normalize_rejects_coerced_numbers(self, field, value):
        with pytest.raises(JobSpecError, match=field):
            normalize_spec("mfsa", {"source": SRC, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cs", 8),
            ("style", 2),
            ("mul_latency", 2),
            ("latency_l", 3),
            ("seed", 5),
        ],
    )
    def test_integral_floats_keep_their_cache_key(self, field, value):
        as_int = _spec(algorithm="mfsa", body={field: value})
        as_float = _spec(algorithm="mfsa", body={field: float(value)})
        assert as_float == as_int
        assert cache_key(as_float) == cache_key(as_int)

    def test_only_an_absent_style_defaults_to_1(self):
        assert _spec(algorithm="mfsa")["style"] == 1
        assert _spec(algorithm="mfsa", body={"style": None})["style"] == 1

    def test_normalize_rejects_unrunnable_operations(self, unrunnable):
        algorithm, body, message = unrunnable
        with pytest.raises(JobSpecError, match=re.escape(message)):
            normalize_spec(algorithm, body)
        if algorithm == "mfs":
            # Kind, arity and the cs bound do not depend on the algorithm.
            with pytest.raises(JobSpecError, match=re.escape(message)):
                normalize_spec("mfsa", body)

    def test_schedule_accepts_kinds_the_library_lacks(self, unrunnable_requests):
        # MFS needs no cell library; only /v1/synth checks coverage.
        _algorithm, body, _message = unrunnable_requests["no-library-cell"]
        spec = normalize_spec("mfs", body)
        assert execute_spec(spec)[0]["ok"] is True

    def test_cs_bound_is_the_larger_of_floor_and_latency_sum(self):
        # 1100 two-cycle multiplies sum to 2200 steps, past the floor.
        source = "input a\n" + "".join(
            f"m{i} = a * {i + 2}\n" for i in range(1100)
        ) + "output m0\n"
        body = {"source": source, "mul_latency": 2}
        assert normalize_spec("mfs", dict(body, cs=2200))["cs"] == 2200
        with pytest.raises(JobSpecError, match="'cs' must be <= 2200"):
            normalize_spec("mfs", dict(body, cs=2201))
        # At one cycle per multiply the same design sums to 1100.
        with pytest.raises(JobSpecError, match="'cs' must be <= 1100"):
            normalize_spec("mfs", dict(body, cs=2200, mul_latency=1))
        small = {"source": "input a\nx = a + 1\noutput x", "cs": CS_FLOOR}
        assert normalize_spec("mfs", small)["cs"] == CS_FLOOR

    @pytest.mark.parametrize("clock_ns", [0, -0.0])
    def test_zero_clock_is_refused(self, clock_ns):
        with pytest.raises(JobSpecError, match="'clock_ns' is too short"):
            normalize_spec("mfs", {"source": SRC, "clock_ns": clock_ns})

    def test_admission_refuses_exactly_the_clocks_the_worker_refuses(self):
        # Whatever admission lets through, the worker's own clock check
        # passes; whatever it refuses, the worker refuses too.
        designs = [
            json.loads(dfg_to_json(example.build()))
            for example in EXAMPLES.values()
        ]
        for design, clock_ns, mul_latency in itertools.product(
            designs, (0.0, 5.0, 9.0, 10.0, 20.0, 39.9, 40.0), (1, 2)
        ):
            body = {"dfg": design, "mul_latency": mul_latency}
            unclocked = normalize_spec("mfs", body)
            spec = dict(unclocked, clock_ns=clock_ns)
            payload = execute_spec(spec)[0]
            worker_refused = (
                not payload["ok"]
                and "longer than the clock period" in payload["error"]["message"]
            )
            try:
                normalize_spec("mfs", dict(body, clock_ns=clock_ns))
            except JobSpecError as error:
                assert "longer than the clock period" in str(error)
                refused = True
            else:
                refused = False
            assert refused == worker_refused, (design["name"], clock_ns, mul_latency)

    def test_cache_key_ignores_parameter_spelling(self):
        assert cache_key(_spec(body={"cs": 4})) == cache_key(
            _spec(body={"cs": 4, "pipelined": []})
        )

    def test_cache_key_separates_parameters(self):
        baseline = cache_key(_spec())
        assert cache_key(_spec(body={"cs": 7})) != baseline
        assert cache_key(_spec(verify=True)) != baseline
        assert cache_key(_spec(trace=True)) != baseline
        assert cache_key(_spec(algorithm="mfsa")) != baseline
        assert cache_key(_spec(body={"seed": 1})) != baseline

    def test_cache_key_separates_design_names(self):
        # The structural fingerprint erases the name, but the name is in
        # the response bytes — so it must be part of the key.
        named = _spec(body={"name": "other"})
        assert cache_key(named) != cache_key(_spec())

    def test_execute_spec_mfs_roundtrip(self):
        payload, snapshot = execute_spec(_spec())
        assert payload["ok"] is True
        assert payload["algorithm"] == "mfs"
        assert payload["result"]["cs"] >= 1
        assert isinstance(snapshot, dict)

    def test_execute_spec_returns_failures(self):
        payload, _snapshot = execute_spec(_spec(body={"cs": 1}))
        assert payload["ok"] is False
        assert payload["error"]["type"]

    @pytest.mark.parametrize(
        "body, flags",
        [({}, {}), ({"cs": 1}, {}), ({}, {"verify": True}), ({}, {"trace": True})],
    )
    def test_execute_job_renders_the_payload_in_the_worker(self, body, flags):
        """The service's worker answers the text of ``execute_spec``'s
        payload, and its error only when the job failed."""
        spec = _spec(body=body, **flags)
        payload, _snapshot = execute_spec(spec)
        text, error, snapshot = execute_job(spec)
        assert text == response_text(payload)
        assert error == (None if payload["ok"] else payload["error"])
        assert isinstance(snapshot, dict)

    def test_distinct_clocks_and_latencies_leave_the_worker_cache_alone(self):
        """A client that varies ``clock_ns`` and ``mul_latency`` adds no
        process-wide cache entry: 300 jobs that differ only there leave
        ``repro.sweep._WORKER_CACHE`` no larger than the first job did."""
        specs = [
            _spec(
                algorithm=("mfs", "mfsa")[i % 2],
                body={"clock_ns": 50.0 + i / 4, "mul_latency": 1 + i % 7},
            )
            for i in range(300)
        ]
        assert execute_spec(specs[0])[0]["ok"] is True
        size = len(sweep._WORKER_CACHE)
        for spec in specs[1:]:
            assert execute_spec(spec)[0]["ok"] is True
        assert len(sweep._WORKER_CACHE) <= size

    def test_response_text_is_canonical(self):
        payload = {"ok": True, "z": 1, "a": 2}
        text = response_text(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert json.loads(text) == payload


class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refreshes recency
        cache.put("c", "C")  # evicts b (LRU)
        assert cache.peek("b") is None
        assert cache.peek("a") == "A"
        assert cache.evictions == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_metrics_wiring(self):
        metrics = Metrics()
        cache = ResultCache(max_entries=1, metrics=metrics)
        cache.get("x")
        cache.put("x", "X")
        cache.get("x")
        cache.put("y", "Y")
        assert metrics.counter_value("cache_misses") == 1
        assert metrics.counter_value("cache_hits") == 1
        assert metrics.counter_value("cache_evictions") == 1

    def test_one_default_capacity_for_both_roles_and_the_cli(self):
        """A shard's L1, the router's L2 and ``serve --cache-entries``
        (which sizes both tiers of a CLI fleet) default alike."""
        from repro.cli import build_parser
        from repro.serve import RouterConfig, ServeConfig

        args = build_parser().parse_args(["serve", "--shards", "2"])
        assert ServeConfig().cache_entries == RouterConfig().cache_entries
        assert args.cache_entries == ServeConfig().cache_entries


class TestJobQueue:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_put_raises_queue_full_with_hint(self):
        async def scenario():
            queue = JobQueue(maxsize=1)
            queue.put(Job({}, "k1"))
            with pytest.raises(QueueFull) as exc:
                queue.put(Job({}, "k2"), retry_after=2.5)
            assert exc.value.retry_after == 2.5
            assert exc.value.maxsize == 1

        self._run(scenario())

    def test_dead_jobs_are_skipped_and_free_capacity(self):
        async def scenario():
            queue = JobQueue(maxsize=1)
            dead = Job({}, "k1", timeout_s=0.0)
            queue.put(dead)
            dead.mark_timeout()
            # The slot is free again: depth counts live jobs only.
            live = Job({}, "k2")
            queue.put(live)
            assert queue.depth() == 1
            assert queue.get_nowait() is live
            with pytest.raises(JobTimeout):
                await dead.future

        self._run(scenario())

    def test_finish_is_idempotent_after_timeout(self):
        async def scenario():
            job = Job({}, "k", timeout_s=0.0)
            job.mark_timeout()
            job.finish(True, "late result")  # batch landed too late
            assert job.status == "timeout"
            with pytest.raises(JobTimeout):
                await job.future

        self._run(scenario())

    def test_follower_mirrors_leader(self):
        async def scenario():
            leader = Job({}, "k")
            follower = Job({}, "k")
            follower.follow(leader)
            leader.finish(True, "text")
            await asyncio.sleep(0)  # let callbacks run
            assert await follower.future == "text"
            assert follower.cache == "follower"
            assert follower.response_text == "text"

        self._run(scenario())


class TestMetricsRender:
    def test_prometheus_exposition_shapes(self):
        metrics = Metrics()
        metrics.describe("jobs", "Jobs by status.")
        metrics.incr("jobs", status="done")
        metrics.incr("jobs", 2, status="failed")
        metrics.observe("batch_size", 3)
        metrics.observe("batch_size", 5)
        metrics.gauge("queue_depth", lambda: 7)
        text = metrics.render()
        assert '# HELP repro_serve_jobs_total Jobs by status.' in text
        assert 'repro_serve_jobs_total{status="done"} 1' in text
        assert 'repro_serve_jobs_total{status="failed"} 2' in text
        assert "repro_serve_batch_size_sum 8" in text
        assert "repro_serve_batch_size_count 2" in text
        assert "repro_serve_queue_depth 7" in text

    def test_labelled_gauges_render_one_series_per_labelset(self):
        """The router's per-shard backoff gauge: one callable per
        labelset under a single metric name, removable when the shard
        leaves the fleet."""
        metrics = Metrics()
        values = {"shard-0": 0.25, "shard-1": 1.5}
        for name, value in values.items():
            metrics.gauge(
                "respawn_backoff_seconds",
                lambda v=value: v,
                target=name,
            )
        text = metrics.render()
        assert (
            'repro_serve_respawn_backoff_seconds{target="shard-0"} 0.25'
            in text
        )
        assert (
            'repro_serve_respawn_backoff_seconds{target="shard-1"} 1.5'
            in text
        )
        metrics.remove_gauge("respawn_backoff_seconds", target="shard-0")
        text = metrics.render()
        assert 'target="shard-0"' not in text
        assert 'target="shard-1"' in text
        # Removing the last labelset removes the series entirely.
        metrics.remove_gauge("respawn_backoff_seconds", target="shard-1")
        assert "respawn_backoff_seconds" not in metrics.render()
        # Removing an unknown gauge is a harmless no-op.
        metrics.remove_gauge("respawn_backoff_seconds", target="ghost")

    def test_perf_counters_are_exported(self):
        from repro.perf import PerfCounters

        perf = PerfCounters()
        perf.incr("sweep.serial_fallbacks")
        perf.incr("sweep.fallback.worker-crash")
        text = Metrics().render(perf)
        assert (
            'repro_perf_counter_total{name="sweep.serial_fallbacks"} 1'
            in text
        )
        assert (
            'repro_perf_counter_total{name="sweep.fallback.worker-crash"} 1'
            in text
        )
