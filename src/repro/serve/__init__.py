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

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.cache import ResultCache
from repro.serve.hashring import HashRing
from repro.serve.client import (
    Backpressure,
    Client,
    JobFailedError,
    ServiceError,
)
from repro.serve.jobs import (
    JobSpecError,
    cache_key,
    execute_spec,
    normalize_spec,
    response_text,
)
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, JobFailed, JobQueue, JobTimeout, QueueFull
from repro.serve.router import RouterConfig, ShardRouter
from repro.serve.httpcore import ServerHandle

#: Both roles share one thread-handle class; the role names stay importable.
ServeHandle = RouterHandle = ServerHandle

__all__ = [
    "ServeApp",
    "ServeConfig",
    "ServeHandle",
    "ShardRouter",
    "RouterConfig",
    "RouterHandle",
    "HashRing",
    "ResultCache",
    "Client",
    "ServiceError",
    "Backpressure",
    "JobFailedError",
    "JobSpecError",
    "cache_key",
    "normalize_spec",
    "execute_spec",
    "response_text",
    "Metrics",
    "Job",
    "JobQueue",
    "JobFailed",
    "JobTimeout",
    "QueueFull",
]
