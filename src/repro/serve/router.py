"""The shard router: a consistent-hash front end over worker shards.

``repro-hls serve --shards N`` promotes the service from one asyncio
loop to a small fleet: the router spawns N :class:`~repro.serve.app.
ServeApp` worker subprocesses (each with its own event loop, warm
:class:`~repro.sweep.SweepExecutor` pool and — under ``--state-dir`` —
its own write-ahead journal in ``shard-<i>/``) and fronts them behind
the *unchanged* HTTP API, so the client, the CLI and every docs example
work identically against one process or a fleet::

                          ┌────────────────────┐
    client ──▶ router ──▶ │ L2 result cache?   │── hit ──▶ response
               │          └────────────────────┘
               │ miss: HashRing.ordered(dfg_fingerprint)
               ├──▶ shard-0 (ServeApp: L1 cache, pool, journal)
               ├──▶ shard-1
               └──▶ shard-<n>    … first *healthy* shard in ring order

Design choices, and why:

* **Routing key = the canonical DFG fingerprint** (:func:`repro.dfg.
  fingerprint.dfg_fingerprint`), not the full cache key — all parameter
  sweeps over one design land on the same shard, so its warm worker
  caches (operation sets, cell library) and L1 result cache do maximal
  work.
* **Two cache tiers.**  Each shard keeps its L1
  :class:`~repro.serve.cache.ResultCache`; the router keeps a shared L2
  keyed by the same content address and populated from shard responses.
  A result computed by one shard is therefore served as a cache hit to
  *any* later client, even when failover routes the request to a
  different shard — and byte-identically, because both tiers store the
  same :func:`~repro.serve.jobs.response_text` bytes: the worker renders
  them once, the shard caches them, and its answer to a forward carries
  them (relay form, :class:`~repro.serve.httpcore.JobAnswer`) for the
  router to store as received.  Neither event loop parses or renders a
  result.
* **Failover is re-routing, not retry logic in clients.**  A health
  loop polls every shard; a dead or unresponsive shard is skipped and
  the request forwarded to the next shard in the key's ring order
  (deterministic fallback).  Crashed shards are respawned on their own
  state dir, so journal replay restores their crash window
  byte-identically (docs/ROBUSTNESS.md).
* **One ``/metrics`` for the fleet.**  The router scrapes each shard
  and re-emits the union with a ``shard="shard-<i>"`` label (its own
  series carry ``shard="router"``).
* **The fleet is elastic.**  ``POST /admin/shards`` (and the
  ``repro-hls serve-admin`` CLI) boots or drains a shard at runtime: a
  resize is a boot or a drain plus a ring flip.  Repeat submissions stay
  hits across it because the router L2 answers them whatever the ring
  says; MFS and MFSA are deterministic, so an entry no tier holds costs
  one recompute of the same bytes.  A removed shard finishes its
  in-flight jobs and compacts its journal before the process exits.
* **Supervision is crash-loop safe.**  A dead shard respawns after a
  capped exponential backoff with seeded *equal* jitter (monotone
  non-decreasing gaps, :class:`repro.resilience.retry.RetryPolicy`);
  after ``crash_loop_threshold`` rapid deaths the shard is permanently
  demoted — the ring routes around it and the fleet keeps serving.

Graceful drain mirrors the single-process story: SIGTERM stops
admission (503), SIGTERMs every shard (each drains its own queue and
compacts its journal), then the router exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlencode

from repro.resilience.faults import InjectedFault, fault_point
from repro.resilience.retry import RetryPolicy
from repro.serve.hashring import HashRing
from repro.serve.httpcore import (
    DEFAULT_CACHE_ENTRIES,
    RELAY_HEADER,
    BaseServer,
    JobAnswer,
    Response,
    flag,
    proxy_request,
    remember,
    timeout_param,
)
from repro.serve.jobs import key_and_fingerprint, normalize_spec
from repro.serve.metrics import merge_expositions, relabel_exposition
from repro.serve.queue import Job


@dataclass
class RouterConfig:
    """Tunables of one shard-router instance (see docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 8421
    #: Worker shards to spawn.  ``--shards 1`` still runs the router in
    #: front of one shard (useful for like-for-like benchmarking).
    shards: int = 2
    #: Root of the fleet's crash-safe state; each shard journals under
    #: ``<state_dir>/shard-<i>/``.  ``None`` disables durability (the
    #: router still needs scratch space for port files and shard logs,
    #: which it takes from a private temp dir).
    state_dir: Optional[str] = None
    #: Shared L2 result-cache capacity at the router.
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    job_history: int = 2048
    max_body_bytes: int = 8 * 1024 * 1024
    #: Seconds between shard health probes; a shard is unhealthy after
    #: ``health_failures`` consecutive probe failures and is respawned
    #: (same state dir → journal replay) when its process has exited.
    health_interval_s: float = 0.25
    health_timeout_s: float = 2.0
    health_failures: int = 2
    respawn: bool = True
    #: Respawn backoff (equal-jitter exponential): the first rapid-death
    #: respawn waits ~``respawn_base_s``, doubling per consecutive rapid
    #: death up to ``respawn_cap_s``.  A shard that lived longer than
    #: ``crash_loop_window_s`` respawns immediately.
    respawn_base_s: float = 0.25
    respawn_cap_s: float = 10.0
    respawn_seed: int = 0
    #: A death within this many seconds of the spawn counts as "rapid".
    crash_loop_window_s: float = 5.0
    #: Consecutive rapid deaths before a shard is permanently demoted
    #: (the ring routes around it; only an admin remove cleans it up).
    crash_loop_threshold: int = 5
    #: Budget for one forwarded request (covers ``?wait=1`` synthesis).
    forward_timeout_s: float = 120.0
    #: Budget for every shard to drain after fleet SIGTERM.
    drain_timeout_s: float = 30.0
    #: Extra ``repro-hls serve`` flags forwarded verbatim to every shard
    #: (tuning knobs: ``--serial``, ``--max-batch``, ``--faults``, …).
    shard_args: Tuple[str, ...] = ()
    port_file: Optional[str] = None
    #: Router-level fault plan (``router.forward`` site — chaos only).
    faults: Optional[str] = None
    fault_seed: int = 0


class ShardProcess:
    """One worker-shard subprocess as the router sees it."""

    def __init__(self, name: str, index: int, home: str) -> None:
        self.name = name
        self.index = index
        #: Shard-private directory: port file, log, and (under
        #: ``--state-dir``) the write-ahead journal.
        self.home = home
        self.port_file = os.path.join(home, "port")
        self.log_path = os.path.join(home, "shard.log")
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.healthy = False
        self.failures = 0
        self.restarts = 0
        self.last_health: Optional[Dict[str, Any]] = None
        #: Respawn backoff stream (equal jitter — monotone gaps), seeded
        #: per shard by the router.
        self.backoff: Optional[RetryPolicy] = None
        #: Permanently taken out of service by the crash-loop detector.
        self.demoted = False
        #: Being removed by an admin reshard; supervision leaves it alone.
        self.draining = False
        self.rapid_deaths = 0
        self.spawned_monotonic: Optional[float] = None
        self.death_monotonic: Optional[float] = None
        self.next_respawn_monotonic: Optional[float] = None
        #: Last scheduled respawn delay (the backoff gauge reads this).
        self.respawn_delay_s = 0.0
        #: Every scheduled respawn delay, oldest first (tests assert the
        #: monotone-gap property on this).
        self.respawn_gaps: List[float] = []

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def describe(self) -> Dict[str, Any]:
        if self.demoted:
            status = "demoted"
        elif self.draining:
            status = "draining"
        elif self.healthy:
            status = "ok"
        else:
            status = "starting" if self.alive else "down"
        info: Dict[str, Any] = {
            "status": status,
            "port": self.port,
            "restarts": self.restarts,
        }
        if self.rapid_deaths:
            info["rapid_deaths"] = self.rapid_deaths
        if self.respawn_delay_s:
            info["respawn_backoff_seconds"] = round(self.respawn_delay_s, 6)
        if self.last_health is not None:
            info["health"] = self.last_health
        return info


class ShardRouter(BaseServer):
    """Front end of a sharded fleet: routing, shared cache, supervision.

    Its :attr:`jobs` are the router-answered ones (shared-cache hits).
    """

    config_class = RouterConfig
    #: A fleet boots N subprocesses and drains N journals.
    start_timeout_s = 120.0
    stop_timeout_s = 60.0

    def __init__(self, config: Optional[RouterConfig] = None, **overrides) -> None:
        super().__init__(config, **overrides)
        config = self.config
        if config.shards < 1:
            raise ValueError(f"shards must be >= 1, got {config.shards}")
        self.ring = HashRing(f"shard-{i}" for i in range(config.shards))
        self.shards: Dict[str, ShardProcess] = {}
        #: Which shard answered which job id (forwarded submissions).
        self.job_locations: "OrderedDict[str, str]" = OrderedDict()
        #: Names are never reused: the next admin-added shard gets this.
        self._next_index = config.shards
        #: Serializes admin reshards (a second one answers 409).
        self._reshard_lock = asyncio.Lock()
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        self._health_task: Optional[asyncio.Task] = None
        self._describe_metrics()

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("cache_hits", "Shared (L2) result-cache hits at the router.")
        m.describe("cache_misses", "Shared (L2) result-cache misses at the router.")
        m.describe("cache_evictions", "LRU evictions from the shared cache.")
        m.describe("router_forwards", "Requests forwarded, by target shard.")
        m.describe("router_forward_errors", "Forward attempts that failed, by target shard.")
        m.describe("router_failovers", "Submissions re-routed off their owner shard.")
        m.describe("shard_restarts", "Shard subprocesses respawned, by target shard.")
        m.describe("shard_demoted", "Shards permanently demoted by the crash-loop detector.")
        m.describe("shard_respawn_backoff_seconds", "Current respawn backoff delay, by shard.")
        m.describe("reshards", "Ring resizes completed, by action.")
        m.gauge("shards_total", lambda: len(self.shards))
        m.gauge(
            "healthy_shards",
            lambda: sum(1 for s in self.shards.values() if s.healthy),
        )

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------
    def _shard_home(self, name: str) -> str:
        root = self.config.state_dir
        if root is None:
            if self._scratch is None:
                self._scratch = tempfile.TemporaryDirectory(prefix="repro-router-")
            root = self._scratch.name
        home = os.path.join(root, name)
        os.makedirs(home, exist_ok=True)
        return home

    def _new_shard(self, name: str, index: int) -> ShardProcess:
        """Create and register one shard record (not yet spawned)."""
        shard = ShardProcess(name, index, self._shard_home(name))
        shard.backoff = RetryPolicy(
            retries=0,
            base_s=self.config.respawn_base_s,
            cap_s=self.config.respawn_cap_s,
            seed=f"respawn:{self.config.respawn_seed}:{name}",
            jitter="equal",
        )
        self.metrics.gauge(
            "shard_respawn_backoff_seconds",
            lambda s=shard: s.respawn_delay_s,
            target=name,
        )
        self.shards[name] = shard
        return shard

    def _shard_command(self, shard: ShardProcess) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.config.host,
            "--port",
            "0",
            "--port-file",
            shard.port_file,
        ]
        if self.config.state_dir is not None:
            command += ["--state-dir", shard.home]
        command += list(self.config.shard_args)
        return command

    def _spawn(self, shard: ShardProcess) -> None:
        """Start (or restart) one shard subprocess, stderr → its log."""
        for stale in (shard.port_file, f"{shard.port_file}.tmp"):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
        env = dict(os.environ)
        # The shard must import repro from the same tree as the router,
        # regardless of how the router itself was launched.
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        with open(shard.log_path, "ab") as log:
            shard.process = subprocess.Popen(
                self._shard_command(shard),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        shard.port = None
        shard.healthy = False
        shard.failures = 0
        shard.spawned_monotonic = time.monotonic()
        shard.death_monotonic = None
        shard.next_respawn_monotonic = None

    def _read_port(self, shard: ShardProcess) -> Optional[int]:
        try:
            with open(shard.port_file, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
            return int(text) if text else None
        except (FileNotFoundError, ValueError):
            return None

    async def _await_port(self, shard: ShardProcess, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            port = self._read_port(shard)
            if port is not None:
                shard.port = port
                shard.healthy = True
                return
            if not shard.alive:
                raise RuntimeError(
                    f"{shard.name} exited during startup "
                    f"(rc={shard.process.returncode}); see {shard.log_path}"
                )
            await asyncio.sleep(0.02)
        raise RuntimeError(f"{shard.name} did not announce a port; see {shard.log_path}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        """Spawn the fleet and wait for every shard's port."""
        for index in range(self.config.shards):
            shard = self._new_shard(f"shard-{index}", index)
            self._spawn(shard)
        for shard in list(self.shards.values()):
            await self._await_port(shard)

    def _after_listen(self) -> None:
        self._health_task = asyncio.create_task(self._health_loop())
        self._log(f"{self.config.shards} shard(s) up")

    async def _stop_work(self, drain: bool) -> None:
        """Stop supervision, then the shards."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        signum = signal.SIGTERM if drain else signal.SIGKILL
        deadline = time.monotonic() + self.config.drain_timeout_s
        await asyncio.gather(
            *(
                self._stop_process(shard, signum, deadline)
                for shard in list(self.shards.values())
            )
        )

    def _release(self, drain: bool) -> None:
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None

    async def _stop_process(
        self, shard: ShardProcess, signum: int, deadline: float
    ) -> None:
        """Signal one shard and wait for it until ``deadline``; SIGKILL
        past it."""
        if shard.process is None:
            return
        if shard.alive:
            shard.process.send_signal(signum)
        remaining = max(0.1, deadline - time.monotonic())
        try:
            await asyncio.to_thread(shard.process.wait, remaining)
        except subprocess.TimeoutExpired:  # pragma: no cover - slow drain
            shard.process.kill()
            await asyncio.to_thread(shard.process.wait)
        shard.healthy = False

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            # Reshards mutate ``self.shards`` between awaits — iterate a
            # snapshot.
            for shard in list(self.shards.values()):
                if self.draining:
                    return
                await self._check(shard)
            await asyncio.sleep(self.config.health_interval_s)

    def _log(self, message: str) -> None:
        self._say(f"router: {message}")

    def _demote(self, shard: ShardProcess) -> None:
        """Crash-loop verdict: take the shard out of service for good."""
        shard.demoted = True
        shard.healthy = False
        if shard.name in self.ring:
            self.ring.remove(shard.name)
        self.metrics.incr("shard_demoted", target=shard.name)
        self._log(
            f"{shard.name} demoted after {shard.rapid_deaths} rapid deaths "
            f"(< {self.config.crash_loop_window_s:g}s each); "
            "ring routes around it"
        )

    async def _check(self, shard: ShardProcess) -> None:
        if shard.demoted or shard.draining:
            return
        if not shard.alive:
            shard.healthy = False
            shard.last_health = None
            if not self.config.respawn or self.draining:
                return
            now = time.monotonic()
            if shard.death_monotonic is None:
                # First probe to notice this death: classify it and
                # *schedule* the respawn — never re-exec instantly, or a
                # poisoned shard becomes a fork bomb.
                shard.death_monotonic = now
                lifetime = (
                    now - shard.spawned_monotonic
                    if shard.spawned_monotonic is not None
                    else None
                )
                rapid = (
                    lifetime is not None
                    and lifetime < self.config.crash_loop_window_s
                )
                shard.rapid_deaths = shard.rapid_deaths + 1 if rapid else 0
                if shard.rapid_deaths >= self.config.crash_loop_threshold:
                    self._demote(shard)
                    return
                delay = 0.0
                if rapid and shard.backoff is not None:
                    delay = shard.backoff.delay(shard.rapid_deaths - 1)
                shard.respawn_delay_s = delay
                shard.respawn_gaps.append(delay)
                shard.next_respawn_monotonic = now + delay
                if rapid:
                    self._log(
                        f"{shard.name} died after {lifetime:.2f}s; respawn "
                        f"in {delay:.2f}s (rapid death {shard.rapid_deaths}"
                        f"/{self.config.crash_loop_threshold})"
                    )
                return
            if (
                shard.next_respawn_monotonic is not None
                and now < shard.next_respawn_monotonic
            ):
                return  # backoff still running
            shard.restarts += 1
            self.metrics.incr("shard_restarts", target=shard.name)
            self._spawn(shard)
            return
        if shard.port is None:
            shard.port = self._read_port(shard)
            if shard.port is None:
                return  # still booting (journal replay runs pre-listener)
        health = await self._fetch_health(shard)
        if health is None:
            shard.failures += 1
            if shard.failures >= self.config.health_failures:
                shard.healthy = False
            return
        shard.last_health = health
        shard.healthy = True
        shard.failures = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _candidates(self, fingerprint: str) -> List[ShardProcess]:
        """Forwarding order for a key: healthy shards first, ring order."""
        if not len(self.ring):
            return []  # every shard demoted/removed
        preference = [
            self.shards[name]
            for name in self.ring.ordered(fingerprint)
            if name in self.shards
        ]
        usable = [s for s in preference if s.port is not None and s.alive]
        healthy = [s for s in usable if s.healthy]
        suspect = [s for s in usable if not s.healthy]
        return healthy + suspect

    async def _forward(
        self,
        shard: ShardProcess,
        method: str,
        target: str,
        body: bytes = b"",
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One forwarding attempt; transport failures demote the shard."""
        try:
            fault_point("router.forward")
            result = await proxy_request(
                self.config.host,
                shard.port,
                method,
                target,
                body=body,
                headers={RELAY_HEADER: "1"},
                timeout_s=self.config.forward_timeout_s,
            )
        except (OSError, asyncio.TimeoutError, InjectedFault):
            self.metrics.incr("router_forward_errors", target=shard.name)
            shard.failures += 1
            if not shard.alive or shard.failures >= self.config.health_failures:
                shard.healthy = False
            raise
        self.metrics.incr("router_forwards", target=shard.name)
        return result

    @staticmethod
    def _target(path: str, query: Mapping[str, str]) -> str:
        return f"{path}?{urlencode(dict(query))}" if query else path

    def _absorb_result(
        self, info: Mapping[str, Any], text: Optional[str]
    ) -> None:
        """Populate the shared L2 cache from a shard's finished answer
        (its ``job`` description and stored result text)."""
        if (
            info.get("status") == "done"
            and isinstance(info.get("key"), str)
            and text is not None
        ):
            # The bytes the shard cached, as received: the worker
            # rendered them, and nothing on this side parses them.
            self.cache.put(info["key"], text)

    # ------------------------------------------------------------------
    # online reshard
    # ------------------------------------------------------------------
    async def add_shard(self) -> Dict[str, Any]:
        """Boot a new shard, then flip the ring to include it."""
        name = f"shard-{self._next_index}"
        index = self._next_index
        self._next_index += 1
        shard = self._new_shard(name, index)
        self._spawn(shard)
        await self._await_port(shard)
        self.ring = self.ring.grown(name)
        self.metrics.incr("reshards", action="add")
        self._log(f"{name} joined the ring ({len(self.ring)} shards)")
        return {"action": "add", "shard": name, "ring": list(self.ring.nodes)}

    async def remove_shard(self, name: Any) -> Dict[str, Any]:
        """Flip the ring off a shard, drain it, and retire the process."""
        if not isinstance(name, str) or name not in self.shards:
            raise ValueError(f"unknown shard {name!r}")
        shard = self.shards[name]
        if name in self.ring:
            if len(self.ring) == 1:
                raise ValueError("cannot remove the last shard on the ring")
            self.ring = self.ring.shrunk(name)
        shard.draining = True
        shard.healthy = False
        await self._drain_shard(shard)
        self.metrics.remove_gauge(
            "shard_respawn_backoff_seconds", target=name
        )
        self.shards.pop(name, None)
        for job_id, location in list(self.job_locations.items()):
            if location == name:
                self.job_locations.pop(job_id, None)
        self.metrics.incr("reshards", action="remove")
        self._log(f"{name} drained and left the ring ({len(self.ring)} shards)")
        return {"action": "remove", "shard": name, "ring": list(self.ring.nodes)}

    async def _fetch_health(
        self, shard: ShardProcess
    ) -> Optional[Dict[str, Any]]:
        """The shard's ``/healthz`` answer; ``None`` on a transport
        failure, a timeout or a status other than 200."""
        if shard.port is None:
            return None
        try:
            status, _headers, raw = await proxy_request(
                self.config.host,
                shard.port,
                "GET",
                "/healthz",
                timeout_s=self.config.health_timeout_s,
            )
            return json.loads(raw) if status == 200 else None
        except (OSError, asyncio.TimeoutError, ValueError):
            return None

    async def _drain_shard(self, shard: ShardProcess) -> None:
        """Let in-flight work finish, then SIGTERM (drain + compaction).

        The ring has already flipped, so no new work reaches the shard;
        this waits for its queue and in-flight table to empty before the
        graceful shutdown that compacts its journal.
        """
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            if not shard.alive:
                return
            health = await self._fetch_health(shard)
            if (
                health is not None
                and health.get("queue_depth") == 0
                and health.get("inflight") == 0
            ):
                break
            await asyncio.sleep(0.05)
        await self._stop_process(shard, signal.SIGTERM, deadline)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: Mapping[str, str], body: bytes
    ) -> Tuple[str, Response]:
        if path != "/admin/shards":
            return await super()._route(method, path, query, body)
        if method == "GET":
            return path, (200, {}, self._admin_status())
        if method != "POST":
            return path, (405, {}, {"error": "GET or POST required"})
        return path, await self._handle_admin_shards(body)

    def _admin_status(self) -> Dict[str, Any]:
        return {
            "ring": list(self.ring.nodes),
            "shards": {
                name: shard.describe() for name, shard in self.shards.items()
            },
        }

    async def _handle_admin_shards(self, body: bytes) -> Response:
        parsed = self._admit(body, "admin work")
        action = parsed.get("action")
        if action not in ("add", "remove"):
            return 400, {}, {"error": "'action' must be 'add' or 'remove'"}
        if self._reshard_lock.locked():
            return 409, {}, {"error": "a reshard is already in progress"}
        async with self._reshard_lock:
            if action == "add":
                return 200, {}, await self.add_shard()
            try:
                result = await self.remove_shard(parsed.get("shard"))
            except ValueError as error:
                return 400, {}, {"error": str(error)}
            return 200, {}, result

    async def _handle_submit(
        self, algorithm: str, path: str, query: Mapping[str, str], body: bytes
    ) -> Response:
        parsed = self._admit(body)
        # Validate at the edge: a malformed timeout or design 400s here
        # without burning a forward, and normalisation gives the routing
        # key.  The shard parses the forwarded timeout itself.
        timeout_param(query)
        spec = normalize_spec(
            algorithm,
            parsed,
            verify=flag(query, "verify"),
            trace=flag(query, "trace"),
        )
        key, fingerprint = key_and_fingerprint(spec)

        cached = self.cache.get(key)
        if cached is not None:
            job = Job(spec, key, timeout_s=None, loop=asyncio.get_running_loop())
            job.fingerprint = fingerprint
            job.cache = "hit"
            job.mark_running()
            job.finish(True, cached)
            remember(self.jobs, job.id, job, self.config.job_history)
            if flag(query, "wait"):
                return 200, {}, self._job_answer(job)
            return 202, {}, {"job": self._describe_job(job)}

        candidates = self._candidates(fingerprint)
        if not candidates:
            return 503, {}, {"error": "no shard available"}
        owner = self.ring.node_for(fingerprint)
        target = self._target(path, query)
        last_error: Optional[BaseException] = None
        for shard in candidates:
            try:
                status, headers, raw = await self._forward(
                    shard, "POST", target, body
                )
            except (OSError, asyncio.TimeoutError, InjectedFault) as error:
                last_error = error
                continue
            if shard.name != owner:
                self.metrics.incr("router_failovers")
            return await self._relay(status, headers, raw, shard)
        return 503, {}, {
            "error": f"no healthy shard for this key ({last_error})",
        }

    async def _relay(
        self,
        status: int,
        headers: Mapping[str, str],
        raw: bytes,
        shard: ShardProcess,
    ) -> Response:
        """Pass a shard's JSON response through, annotated and absorbed.

        A job answer arrives in relay form (description, then the stored
        result text); other answers (202, 4xx, 5xx) as JSON."""
        out_headers: Dict[str, str] = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        if headers.get(RELAY_HEADER.lower()):
            try:
                answer = JobAnswer.from_relay(raw)
            except ValueError:  # UnicodeDecodeError and JSONDecodeError too
                return status, out_headers, raw
            self._locate(answer.info, shard)
            if status == 200:
                self._absorb_result(answer.info, answer.text)
            info = {**answer.info, "shard": shard.name}
            return status, out_headers, JobAnswer(info, answer.text)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return status, out_headers, raw
        info = payload.get("job") if isinstance(payload, Mapping) else None
        if not isinstance(info, Mapping):
            return status, out_headers, payload
        self._locate(info, shard)
        return status, out_headers, {**payload, "job": {**info, "shard": shard.name}}

    def _locate(self, info: Mapping[str, Any], shard: ShardProcess) -> None:
        """Pin a job id a shard answered to it for later ``GET``s."""
        if isinstance(info.get("id"), str):
            remember(
                self.job_locations, info["id"], shard.name,
                self.config.job_history,
            )

    def _describe_job(self, job: Job) -> Dict[str, Any]:
        info = job.describe()
        info["shard"] = "router"
        return info

    async def _find_job(self, path: str, job_id: str, sub: str) -> Response:
        # Try the shard that admitted the id, then every other shard —
        # after a crash the id may only exist in a replayed journal.
        ordered: List[ShardProcess] = []
        located = self.job_locations.get(job_id)
        if located is not None and located in self.shards:
            ordered.append(self.shards[located])
        ordered += [s for s in self.shards.values() if s not in ordered]
        last_status = 404
        for shard in ordered:
            if shard.port is None or not shard.alive:
                continue
            try:
                status, headers, raw = await self._forward(shard, "GET", path)
            except (OSError, asyncio.TimeoutError, InjectedFault):
                continue
            if status == 404:
                last_status = status
                continue
            if sub == "result":
                # Raw bytes straight through: byte-identity is the
                # contract on this endpoint.
                return status, {"X-Raw-Body": "1"}, raw.decode("utf-8")
            return await self._relay(status, headers, raw, shard)
        return last_status, {}, {"error": f"unknown job {job_id!r}"}

    def _health_fields(self) -> Dict[str, Any]:
        return {
            "role": "router",
            "healthy_shards": sum(1 for s in self.shards.values() if s.healthy),
            **self._admin_status(),
        }

    def _own_metrics(self) -> str:
        return relabel_exposition(self.metrics.render(), shard="router")

    async def _scrape(self) -> str:
        """Fleet exposition: router series + every reachable shard's."""
        parts = [self._own_metrics()]

        async def _scrape(shard: ShardProcess) -> Optional[str]:
            if shard.port is None or not shard.alive:
                return None
            try:
                status, _headers, body = await self._forward(
                    shard, "GET", "/metrics"
                )
            except (OSError, asyncio.TimeoutError, InjectedFault):
                return None
            if status != 200:
                return None
            return relabel_exposition(body.decode("utf-8"), shard=shard.name)

        scrapes = await asyncio.gather(
            *(_scrape(shard) for shard in list(self.shards.values()))
        )
        parts += [scrape for scrape in scrapes if scrape]
        return merge_expositions(parts)

