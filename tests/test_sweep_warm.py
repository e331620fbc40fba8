"""Warm-worker regression tests: pool reuse, per-worker caches, chunking.

The acceptance criterion under test: a ``keep_pool=True`` executor must
*reuse* its worker processes across ``map`` calls — the pool initializer
runs once per worker, and :func:`repro.sweep.worker_cached` builds a
heavyweight object (cell library, timing model) at most once per worker
no matter how many items or maps that worker serves.
"""

import pytest

import repro.sweep as sweep_mod
from repro.perf import PerfCounters
from repro.sweep import (
    SweepExecutor,
    worker_cache_builds,
    worker_cached,
    worker_context,
    worker_init_count,
)


def _build_sentinel():
    return object()


def _probe_worker(item):
    """Report this worker's init/cache state alongside the item result.

    ``worker_cached`` is probed with a fixed key, so the build count
    tells exactly how many times this worker paid the heavy build.
    """
    worker_cached(("warm-test.sentinel",), _build_sentinel)
    return (item * item, worker_init_count(), worker_cache_builds())


def _context_worker(item):
    base = worker_context()
    return base + item


class TestWarmPoolReuse:
    def test_keep_pool_reuses_worker_caches_across_maps(
        self, clean_worker_state
    ):
        """One initializer run, one cached build — across many maps."""
        with SweepExecutor(
            backend="process", workers=1, keep_pool=True
        ) as executor:
            first = executor.map(_probe_worker, [1, 2, 3])
            if executor.last_fallback_reason is not None:
                pytest.skip("process pool unavailable in this sandbox")
            second = executor.map(_probe_worker, [4, 5])
        for value, inits, builds in first + second:
            # The worker was initialized exactly once and built the
            # cached object exactly once, even on the second map.
            assert inits == 1
            assert builds == 1
        assert [v for v, _i, _b in first] == [1, 4, 9]
        assert [v for v, _i, _b in second] == [16, 25]

    def test_start_readies_the_pool_without_running_an_item(
        self, clean_worker_state
    ):
        perf = PerfCounters()
        with SweepExecutor(
            backend="process", workers=2, perf=perf, keep_pool=True
        ) as executor:
            executor.start()
            if executor._pool is None:
                pytest.skip("process pool unavailable in this sandbox")
            pool = executor._pool
            assert perf.counters == {}
            results = executor.map(_probe_worker, [1, 2, 3, 4])
            assert executor._pool is pool  # the first map reused it
        assert [value for value, _inits, _builds in results] == [1, 4, 9, 16]
        assert all(inits == 1 for _value, inits, _builds in results)

    def test_start_is_a_no_op_without_a_pool_to_use(self):
        for backend, workers in (("serial", 2), ("auto", 1)):
            executor = SweepExecutor(backend=backend, workers=workers)
            executor.start()
            assert executor._pool is None

    def test_fresh_pool_per_map_reinitializes(self, clean_worker_state):
        """Without ``keep_pool`` each map pays pool start-up again —
        the contrast that makes the warm path a measurable win."""
        executor = SweepExecutor(backend="process", workers=1)
        first = executor.map(_probe_worker, [2])
        if executor.last_fallback_reason is not None:
            pytest.skip("process pool unavailable in this sandbox")
        second = executor.map(_probe_worker, [3])
        assert first[0][1] == 1 and second[0][1] == 1
        assert first[0][2] == 1 and second[0][2] == 1

    def test_worker_cached_in_parent_builds_once(self):
        before = worker_cache_builds()
        a = worker_cached(("warm-test.parent",), _build_sentinel)
        b = worker_cached(("warm-test.parent",), _build_sentinel)
        assert a is b
        assert worker_cache_builds() == before + 1


class TestSharedContext:
    def test_context_reaches_serial_workers(self):
        executor = SweepExecutor(backend="serial", context=100)
        assert executor.map(_context_worker, [1, 2, 3]) == [101, 102, 103]

    def test_context_reaches_pool_workers(self):
        executor = SweepExecutor(backend="process", workers=1, context=100)
        result = executor.map(_context_worker, [1, 2, 3])
        assert result == [101, 102, 103]

    def test_latest_executor_context_wins_in_parent(self):
        SweepExecutor(backend="serial", context="old")
        executor = SweepExecutor(backend="serial", context="new")
        assert executor.map(lambda _x: worker_context(), [0]) == ["new"]
        executor.map(lambda _x: None, [0])
        assert sweep_mod._WORKER_CONTEXT[1] == "new"


@pytest.fixture
def clean_worker_state(monkeypatch):
    """Reset the parent-side worker globals for absolute-count assertions.

    Forked pool workers inherit the parent's module globals, so any
    earlier in-process ``worker_cached`` call (serial sweeps, the serve
    layer, ``repro.check``) would shift the baseline the workers report.
    """
    monkeypatch.setattr(sweep_mod, "_WORKER_CACHE", {})
    monkeypatch.setattr(sweep_mod, "_WORKER_CACHE_BUILDS", 0)
    monkeypatch.setattr(sweep_mod, "_WORKER_INITS", 0)
