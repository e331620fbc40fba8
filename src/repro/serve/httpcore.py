"""Shared HTTP/1.1 plumbing for the serve tier (stdlib asyncio streams).

One hand-rolled request/response layer and one server skeleton, used by
both server roles:

* :class:`~repro.serve.app.ServeApp` — a single worker shard (or the
  whole service when unsharded);
* :class:`~repro.serve.router.ShardRouter` — the consistent-hash front
  end of a sharded fleet, which additionally *originates* requests to
  its shards through :func:`proxy_request`.

:class:`BaseServer` owns everything the two roles do identically — the
listener lifecycle, the blocking and threaded entry points, the error →
status mapping, the shared routes and the bounded job history — and
each role supplies only its hooks.

The dialect is deliberately minimal — ``Connection: close`` per
request, explicit ``Content-Length``, no chunked encoding — because
every peer (the stdlib client, the router, curl) speaks it and the
serve tier's requests are small JSON bodies.  Hostile input is bounded:
a whole request must arrive within :data:`READ_TIMEOUT_S` (else 408),
with at most :data:`MAX_HEADERS` header lines and no line over the
64 KiB stream limit (else 400).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.resilience.faults import FaultPlan, active_plan, arm
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpecError
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, QueueFull

#: Reason phrases for every status the serve tier answers with.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Query-flag spellings accepted as true.
TRUE_VALUES = ("1", "on", "true", "yes")

#: Seconds one whole request (line, headers and body) may take to
#: arrive; one timer per connection, so a slow-drip client cannot hold
#: a handler open by sending a byte per line.
READ_TIMEOUT_S = 10.0

#: Header lines accepted per request.
MAX_HEADERS = 100

#: ``(status, headers, payload)`` as handed to :func:`write_response`.
Response = Tuple[int, Dict[str, str], Any]


class ProtocolError(Exception):
    """A request the HTTP layer refuses with ``status``: malformed or
    too slow to arrive, or sent while the server drains."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def flag(query: Mapping[str, str], name: str) -> bool:
    """Whether query parameter ``name`` is a truthy flag."""
    return query.get(name, "").lower() in TRUE_VALUES


def json_object(body: bytes) -> Dict[str, Any]:
    """Decode a request body that must be a JSON object (empty → ``{}``)."""
    try:
        parsed = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(400, f"request body is not JSON: {error}")
    except RecursionError:
        raise ProtocolError(400, "request body nests too deeply") from None
    if not isinstance(parsed, dict):
        raise ProtocolError(400, "request body must be a JSON object")
    return parsed


def remember(
    table: "OrderedDict[str, Any]", key: str, value: Any, limit: int
) -> None:
    """Insert into a bounded history, evicting the oldest entries."""
    table[key] = value
    while len(table) > limit:
        table.popitem(last=False)


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:
        # readline() reports a line past the stream limit as ValueError
        # (it converts LimitOverrunError itself).
        raise ProtocolError(400, "request line or header too long") from None


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Header lines up to the blank one (or EOF), names lower-cased."""
    headers: Dict[str, str] = {}
    for _count in range(MAX_HEADERS + 1):
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise ProtocolError(400, f"more than {MAX_HEADERS} header lines")


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request into ``(method, path, query, body)``.

    Returns ``None`` when the peer closes before a request line or resets
    the connection; raises :class:`ProtocolError` on malformed or
    oversized input (400/413) and when the whole request has not
    arrived within :data:`READ_TIMEOUT_S` (408).
    """

    async def _read() -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await _readline(reader)
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError(400, "malformed request line")
        method, target, _version = parts
        headers = await _read_headers(reader)
        length_text = headers.get("content-length") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise ProtocolError(400, "Content-Length must be a non-negative integer")
        length = int(length_text)
        if length > max_body_bytes:
            raise ProtocolError(413, "request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "request body shorter than Content-Length") from None
        try:
            split = urlsplit(target)
        except ValueError:
            raise ProtocolError(400, "malformed request target") from None
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path, query, body

    try:
        return await asyncio.wait_for(_read(), READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise ProtocolError(
            408, f"request not received within {READ_TIMEOUT_S:g} s"
        ) from None
    except ConnectionError:
        return None


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    headers: Dict[str, str],
    payload: Any,
) -> None:
    """Serialise and send one response; swallows client disconnects.

    ``payload`` is JSON-encoded unless it is a string marked raw
    (``X-Raw-Body`` header, consumed here) or typed ``text/*`` — the
    raw path is what keeps cached result bytes byte-identical on the
    wire.
    """
    headers = dict(headers)
    if isinstance(payload, str) and (
        headers.pop("X-Raw-Body", None)
        or headers.get("Content-Type", "").startswith("text/")
    ):
        body = payload.encode("utf-8")
        content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
    elif isinstance(payload, bytes):
        body = payload
        content_type = headers.pop("Content-Type", "application/json")
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
    except (ConnectionError, BrokenPipeError):  # pragma: no cover
        pass


async def proxy_request(
    host: str,
    port: int,
    method: str,
    target: str,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
    timeout_s: float = 120.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """Send one request to a peer and read the full response.

    The router's forwarding path: opens a fresh connection (the serve
    dialect is one request per connection), writes the request verbatim,
    reads status line + headers + ``Content-Length`` body.  Raises
    ``OSError``/``asyncio.TimeoutError`` on transport failure — callers
    translate those into failover or 502/504.
    """

    async def _roundtrip() -> Tuple[int, Dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            lines = [
                f"{method} {target} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            for name, value in (headers or {}).items():
                lines.append(f"{name}: {value}")
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            if body:
                writer.write(body)
            await writer.drain()

            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: {status_line!r}"
                )
            status = int(parts[1])
            response_headers = await _read_headers(reader)
            length = response_headers.get("content-length")
            if length is not None:
                payload = await reader.readexactly(int(length))
            else:  # pragma: no cover - peers always send Content-Length
                payload = await reader.read()
            return status, response_headers, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    return await asyncio.wait_for(_roundtrip(), timeout=timeout_s)


class BaseServer:
    """The server skeleton both roles share.

    A role subclass sets :attr:`config_class` (a dataclass with ``host``,
    ``port``, ``port_file``, ``cache_entries``, ``job_history``,
    ``max_body_bytes``, ``faults`` and ``fault_seed``) and supplies the
    hooks: :meth:`_before_listen`, :meth:`_after_listen`,
    :meth:`_stop_work`, :meth:`_release`, :meth:`_handle_submit`,
    :meth:`_health_fields` and :meth:`_own_metrics`; :meth:`_route`
    (for role-only paths), :meth:`_find_job`, :meth:`_describe_job` and
    :meth:`_scrape` have defaults a role may extend.
    """

    config_class: type
    #: Seconds :meth:`start_in_thread` waits for the listener.
    start_timeout_s = 30.0
    #: Seconds :meth:`ServerHandle.stop` waits for the drain.
    stop_timeout_s = 30.0

    def __init__(self, config: Any = None, **overrides) -> None:
        if config is None:
            config = self.config_class(**overrides)
        elif overrides:
            raise ValueError(
                f"pass either a {self.config_class.__name__} or keyword overrides"
            )
        self.config = config
        self.metrics = Metrics()
        self.cache = ResultCache(config.cache_entries, metrics=self.metrics)
        #: Jobs this server answered, by id (bounded by ``job_history``).
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self.fault_plan: Optional[FaultPlan] = None
        if config.faults:
            self.fault_plan = FaultPlan.parse(config.faults, seed=config.fault_seed)
        self.draining = False
        self.started_monotonic: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_on_stop = True
        self._announce = sys.stderr
        self.metrics.describe("http_requests", "HTTP requests, by method/route/status.")
        self.metrics.gauge("cache_entries", lambda: len(self.cache))
        self.metrics.gauge("draining", lambda: 1 if self.draining else 0)

    # ------------------------------------------------------------------
    # role hooks
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        """Work that must finish before the listener binds."""

    def _after_listen(self) -> None:
        """Background work started once the listener is bound."""

    async def _stop_work(self, drain: bool) -> None:
        """Stop the role's work; runs before the listener closes."""

    def _release(self, drain: bool) -> None:
        """Release the role's resources; runs after the listener closes."""

    async def _handle_submit(
        self, algorithm: str, path: str, query: Mapping[str, str], body: bytes
    ) -> Response:
        """Answer ``POST /v1/schedule`` (``mfs``) or ``/v1/synth`` (``mfsa``)."""
        raise NotImplementedError

    def _health_fields(self) -> Dict[str, Any]:
        """The role's keys in ``GET /healthz``."""
        raise NotImplementedError

    def _own_metrics(self) -> str:
        """This process's exposition (also the final drain snapshot)."""
        raise NotImplementedError

    async def _scrape(self) -> str:
        """The ``GET /metrics`` body."""
        return self._own_metrics()

    async def _find_job(self, path: str, job_id: str, sub: str) -> Response:
        """Answer ``GET /v1/jobs/...`` for an id not in :attr:`jobs`."""
        return 404, {}, {"error": f"unknown job {job_id!r}"}

    def _describe_job(self, job: Job) -> Dict[str, Any]:
        return job.describe()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Run the pre-listen work, bind the listener, start the role's
        background work and publish the port."""
        if self.fault_plan is not None:
            arm(self.fault_plan)
        await self._before_listen()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._after_listen()
        self.started_monotonic = time.monotonic()
        path = self.config.port_file
        if path:
            # Temp file + rename: a reader never sees a half-written port.
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
                handle.write(f"{self.port}\n")
            os.replace(f"{path}.tmp", path)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish all accepted work first."""
        self.draining = True
        await self._stop_work(drain)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._release(drain)
        if self.fault_plan is not None and active_plan() is self.fault_plan:
            arm(None)
        # The final snapshot an operator sees after SIGTERM.
        self._say(self._own_metrics() + "drained and stopped")

    def serve_forever(
        self, announce=sys.stderr, install_signals: bool = True
    ) -> int:
        """Blocking entry point of ``repro-hls serve`` (sharded or not).

        SIGTERM/SIGINT trigger a graceful drain: stop admitting (503),
        finish in-flight work, flush metrics, exit 0.
        """
        self._announce = announce
        return asyncio.run(self._serve_forever(install_signals))

    async def _serve_forever(
        self, install_signals: bool, ready: Optional[threading.Event] = None
    ) -> int:
        await self.start()
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix platform or nested loop
        self._say(f"serving on {self.url}")
        if ready is not None:
            ready.set()
        await self._stop_event.wait()
        await self.shutdown(drain=self._drain_on_stop)
        return 0

    def _say(self, line: str) -> None:
        """One operator-facing line (silent under the threaded harness)."""
        if self._announce is not None:
            print(line, file=self._announce, flush=True)

    def request_stop(self, drain: bool = True) -> None:
        """Ask the serving loop to drain and exit (signal-handler safe)."""
        self.draining = True
        self._drain_on_stop = drain
        if self._stop_event is not None:
            self._stop_event.set()

    # -- threaded harness (tests, docs, benchmarks) --------------------
    def start_in_thread(self) -> "ServerHandle":
        """Run this server on a dedicated event-loop thread; returns a handle.

        The embedded-server harness used by the test suite, the runnable
        documentation examples and the benchmarks.
        """
        ready = threading.Event()
        failure: Dict[str, BaseException] = {}

        def _runner() -> None:
            try:
                asyncio.run(self._thread_main(ready))
            except BaseException as error:  # pragma: no cover - startup bugs
                failure["error"] = error
                ready.set()

        name = type(self).__name__
        thread = threading.Thread(target=_runner, name=f"repro-{name}", daemon=True)
        thread.start()
        ready.wait(timeout=self.start_timeout_s)
        if "error" in failure:
            raise RuntimeError(f"{name} failed to start") from failure["error"]
        return ServerHandle(self, thread)

    async def _thread_main(self, ready: threading.Event) -> None:
        self._announce = None
        await self._serve_forever(install_signals=False, ready=ready)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        method = route = "-"
        status: Optional[int] = None
        try:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
                if request is None:
                    return  # the peer left before sending a request
                method, path, query, body = request
                route, (status, headers, payload) = await self._route(
                    method, path, query, body
                )
            except ProtocolError as error:
                status, headers, payload = error.status, {}, {"error": str(error)}
            except JobSpecError as error:
                status, headers, payload = 400, {}, {"error": str(error)}
            except QueueFull as error:
                status = 429
                headers = {"Retry-After": f"{error.retry_after:g}"}
                payload = {
                    "error": "queue full",
                    "queue_depth": error.depth,
                    "queue_size": error.maxsize,
                    "retry_after": error.retry_after,
                }
            except Exception as error:  # pragma: no cover - defensive
                status, headers, payload = (
                    500,
                    {},
                    {"error": f"{type(error).__name__}: {error}"},
                )
            await write_response(writer, status, headers, payload)
        finally:
            if status is not None:
                self.metrics.incr(
                    "http_requests", method=method, route=route, status=str(status)
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: bytes,
    ) -> Tuple[str, Response]:
        if path in ("/v1/schedule", "/v1/synth"):
            if method != "POST":
                return path, (405, {}, {"error": "POST required"})
            algorithm = "mfs" if path == "/v1/schedule" else "mfsa"
            return path, await self._handle_submit(algorithm, path, query, body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return "/v1/jobs", (405, {}, {"error": "GET required"})
            job_id, _sep, sub = path[len("/v1/jobs/"):].partition("/")
            job = self.jobs.get(job_id)
            if job is None:
                return "/v1/jobs", await self._find_job(path, job_id, sub)
            return "/v1/jobs", self._render_job(job, sub)
        if path == "/healthz":
            return path, (200, {}, self._health())
        if path == "/metrics":
            return path, (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                await self._scrape(),
            )
        return "-", (404, {}, {"error": f"no route for {method} {path}"})

    def _admit(self, body: bytes, work: str = "new work") -> Dict[str, Any]:
        """Open a submit or admin write: 503 while draining, else the
        body as a JSON object."""
        if self.draining:
            raise ProtocolError(503, f"draining; not accepting {work}")
        return json_object(body)

    def _render_job(self, job: Job, sub: str) -> Response:
        """``GET /v1/jobs/<id>[/result]`` for a job in :attr:`jobs`."""
        text = job.response_text
        if sub == "result":
            if text is None:
                return 404, {}, {"error": f"job {job.id} has no result yet"}
            # Raw stored bytes: cold and cached responses are comparable
            # byte for byte on this endpoint.
            return 200, {"X-Raw-Body": "1"}, text
        if sub:
            return 404, {}, {"error": f"unknown job subresource {sub!r}"}
        return 200, {}, self._job_payload(job)

    def _job_payload(self, job: Job) -> Dict[str, Any]:
        """A job's JSON answer: its description, plus its result once
        it has one."""
        payload: Dict[str, Any] = {"job": self._describe_job(job)}
        if job.response_text is not None:
            payload["result"] = json.loads(job.response_text)
        return payload

    def _health(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self.started_monotonic
            if self.started_monotonic is not None
            else 0.0
        )
        return {
            "status": "draining" if self.draining else "ok",
            "cache_entries": len(self.cache),
            "uptime_seconds": round(uptime, 3),
            **self._health_fields(),
        }


class ServerHandle:
    """Control handle for a :meth:`BaseServer.start_in_thread` instance."""

    def __init__(self, server: BaseServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally) and stop the server thread."""
        loop = self.server._loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(self.server.request_stop, drain)
        self._thread.join(timeout=self.server.stop_timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
