"""repro.serve — the batching, cache-fronted synthesis service.

A stdlib-only JSON-over-HTTP front end to the MFS/MFSA schedulers:
content-addressed result cache, bounded job queue with backpressure,
micro-batching dispatch through :class:`~repro.sweep.SweepExecutor`,
Prometheus-compatible metrics and graceful drain.  ``--shards N`` scales
it to a fleet: a :class:`ShardRouter` front end consistent-hashes jobs
over N worker-shard subprocesses behind the same HTTP API.  See
``docs/SERVICE.md`` for the operator's guide and ``docs/ARCHITECTURE.md``
for how the pieces fit.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ServeApp": "app",
    "ServeConfig": "app",
    "ServeHandle": "httpcore",
    "ShardRouter": "router",
    "RouterConfig": "router",
    "RouterHandle": "httpcore",
    "HashRing": "hashring",
    "ResultCache": "cache",
    "Client": "client",
    "ServiceError": "client",
    "Backpressure": "client",
    "JobFailedError": "client",
    "JobSpecError": "jobs",
    "cache_key": "jobs",
    "normalize_spec": "jobs",
    "execute_spec": "jobs",
    "response_text": "jobs",
    "Metrics": "metrics",
    "Job": "queue",
    "JobQueue": "queue",
    "JobFailed": "queue",
    "JobTimeout": "queue",
    "QueueFull": "queue",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
