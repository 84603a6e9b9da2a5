"""The asyncio HTTP/JSON serving tier.

``HttpServer`` puts a wire protocol (:mod:`repro.server.wire`) in
front of a query backend:

* ``POST /v1/query`` — JSON request body carrying the full
  :class:`~repro.cypher.QueryOptions` surface; the response streams
  the result as chunked NDJSON, one HTTP chunk per frame (header
  frame, a rows frame per ``wire.ROWS_PER_FRAME`` rows, summary
  frame).
* ``GET /v1/health`` — liveness plus replica topology.
* ``GET /v1/metrics`` — the shared
  :class:`~repro.obs.MetricsRegistry` as JSON (server counters, and
  per-replica counters when serving from worker processes).

Admission control is the PR 4 fair-share
:class:`~repro.server.executor.Executor`, not a new mechanism: a
refused submission becomes ``429 Too Many Requests`` with a
``Retry-After`` header, an exhausted time budget ``504``, a closed
server ``503``, a malformed request or bad Cypher ``400`` — each with
a structured JSON error body a client can rebuild the original
exception from.

The event loop never runs a query itself: handlers submit to the
backend's executor (thread pool or replica processes) and await the
future, so slow queries don't stall health checks or other clients.

Two backends exist:

* :class:`ExecutorBackend` — queries run in-process on the Frappé
  facade's thread-pool executor (one process, shared page cache).
* :class:`~repro.server.replica.ReplicaBackend` — queries run on N
  ``mmap``'d worker processes behind the router (the
  millions-of-users shape; the OS page cache is shared, the GIL is
  not).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import AdmissionError, FrappeError
from repro.obs import Observability
from repro.server import wire
from repro.server.executor import (DEFAULT_QUEUE_CAPACITY,
                                   DEFAULT_WORKERS)

DEFAULT_HOST = "127.0.0.1"

#: Largest accepted request body; parameter-heavy queries are small,
#: so anything bigger is a client bug (413).
MAX_BODY_BYTES = 1 << 20

#: Header-section size limit handed to the stream reader.
_READ_LIMIT = 1 << 16

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes = b""

    @property
    def client(self) -> str:
        """The quota identity: the ``X-Frappe-Client`` header, or the
        anonymous pool for clients that don't send one."""
        return self.headers.get("x-frappe-client", "anonymous")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class _BadRequest(Exception):
    """Internal: malformed HTTP framing (maps to a 4xx and close)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ExecutorBackend:
    """Serve queries in-process from a Frappé facade's executor.

    The facade's own fair-share admission queue is the quota layer;
    this class only adapts its surface to what :class:`HttpServer`
    needs (``submit``/``health``/``metrics``/``close``).
    """

    def __init__(self, frappe: Any, *, workers: int = DEFAULT_WORKERS,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 max_per_client: int | None = None) -> None:
        self._frappe = frappe
        self.obs: Observability = frappe.obs
        self._executor = frappe.serve(
            workers, queue_capacity=queue_capacity,
            max_per_client=max_per_client)

    def submit(self, text: str, options: Any, client: str):
        return self._executor.submit(text, options, client=client)

    def health(self) -> dict[str, Any]:
        return {"mode": "in-process",
                "replicas": {"alive": 1, "configured": 1},
                "workers": self._executor.workers}

    def metrics(self) -> dict[str, Any]:
        return {"server": self.obs.registry.snapshot().as_dict(),
                "replicas": []}

    def close(self) -> None:
        self._frappe.close()


class HttpServer:
    """A minimal, dependency-free asyncio HTTP/1.1 server.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`). Connections are keep-alive; request bodies are
    bounded by ``max_body``.
    """

    def __init__(self, backend: Any, host: str = DEFAULT_HOST,
                 port: int = 0, *,
                 max_body: int = MAX_BODY_BYTES) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.max_body = max_body
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        obs = getattr(backend, "obs", None)
        registry = obs.registry if obs is not None else \
            Observability().registry
        self._requests = registry.counter("http.requests")
        self._errors = registry.counter("http.error_responses")
        self._connections = registry.gauge("http.active_connections")
        self._latency = registry.histogram("http.request_seconds")

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (resolves the ephemeral port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=_READ_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def run(self) -> None:
        """Blocking entry point (the CLI): serve until interrupted."""
        async def main() -> None:
            await self.start()
            await self.serve_forever()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass
        finally:
            self.backend.close()

    def start_background(self) -> "HttpServer":
        """Run the event loop on a daemon thread (tests, benchmarks).

        Returns once the socket is bound; :meth:`stop` tears it down.
        """
        ready = threading.Event()
        startup_error: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as error:  # noqa: BLE001
                startup_error.append(error)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                assert self._server is not None
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                pending = [task for task in asyncio.all_tasks(loop)
                           if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="frappe-http", daemon=True)
        self._thread.start()
        ready.wait()
        if startup_error:
            raise startup_error[0]
        return self

    def stop(self, close_backend: bool = True) -> None:
        """Stop a background server and (by default) its backend."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop = None
            self._thread = None
        if close_backend:
            self.backend.close()

    def __enter__(self) -> "HttpServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self._connections.inc()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    await self._send_simple(
                        writer, error.status,
                        {"schema_version": wire.WIRE_SCHEMA_VERSION,
                         "error": {"type": "BadRequest",
                                   "message": str(error)}},
                        keep_alive=False)
                    return
                if request is None:
                    return
                self._requests.inc()
                started = time.monotonic()
                try:
                    keep = await self._dispatch(request, writer)
                finally:
                    self._latency.observe(time.monotonic() - started)
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server teardown cancelled this connection
        finally:
            self._connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> Request | None:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as error:
            raise _BadRequest(400, f"request line too long: {error}") \
                from error
        if not request_line:
            return None  # clean EOF between requests
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as error:
                raise _BadRequest(400, "header section too large") \
                    from error
            if line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = \
                line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # bodies are read by Content-Length only; reading a chunked
            # body that way would parse its chunks as the next request
            raise _BadRequest(400, "Transfer-Encoding is not supported; "
                              "send the body with a Content-Length")
        body = b""
        length_text = headers.get("content-length", "0")
        # 1*DIGIT only: int() would also take "-5", "+5" and "1_0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise _BadRequest(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > self.max_body:
            # drain what the client is committed to sending (bounded)
            # before answering, so a well-behaved client blocked in
            # send() gets the 413 instead of a broken pipe when we
            # close the socket under it
            remaining = min(length, 16 * self.max_body)
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise _BadRequest(
                413, f"request body of {length} bytes exceeds the "
                f"{self.max_body} byte limit")
        if length:
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        return Request(method, path, headers, body)

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        if request.path == "/v1/query":
            if request.method != "POST":
                return await self._method_not_allowed(
                    request, writer, "POST")
            return await self._handle_query(request, writer)
        if request.path == "/v1/health":
            if request.method != "GET":
                return await self._method_not_allowed(
                    request, writer, "GET")
            body = {"schema_version": wire.WIRE_SCHEMA_VERSION,
                    "status": "ok", **self.backend.health()}
            return await self._send_simple(
                writer, 200, body, keep_alive=request.keep_alive)
        if request.path == "/v1/metrics":
            if request.method != "GET":
                return await self._method_not_allowed(
                    request, writer, "GET")
            body = {"schema_version": wire.WIRE_SCHEMA_VERSION,
                    **self.backend.metrics()}
            return await self._send_simple(
                writer, 200, body, keep_alive=request.keep_alive)
        self._errors.inc()
        return await self._send_simple(
            writer, 404,
            {"schema_version": wire.WIRE_SCHEMA_VERSION,
             "error": {"type": "NotFound",
                       "message": f"no route {request.path!r}"}},
            keep_alive=request.keep_alive)

    async def _method_not_allowed(self, request: Request,
                                  writer: asyncio.StreamWriter,
                                  allowed: str) -> bool:
        self._errors.inc()
        return await self._send_simple(
            writer, 405,
            {"schema_version": wire.WIRE_SCHEMA_VERSION,
             "error": {"type": "MethodNotAllowed",
                       "message": f"{request.path} accepts "
                                  f"{allowed} only"}},
            keep_alive=request.keep_alive,
            extra_headers=(("Allow", allowed),))

    async def _handle_query(self, request: Request,
                            writer: asyncio.StreamWriter) -> bool:
        try:
            text, options = wire.parse_query_request(request.body)
            future = self.backend.submit(text, options, request.client)
        except FrappeError as error:
            return await self._send_error(writer, error,
                                          request.keep_alive)
        try:
            result = await asyncio.wrap_future(future)
        except FrappeError as error:
            return await self._send_error(writer, error,
                                          request.keep_alive)
        except Exception as error:  # noqa: BLE001 - engine bug; keep serving
            return await self._send_error(writer, error,
                                          request.keep_alive)
        # replica workers ship pre-serialized NDJSON bytes; the
        # in-process backend returns a Result we serialize here
        payload = result if isinstance(result, (bytes, bytearray)) \
            else wire.result_to_ndjson(result)
        await self._stream_ndjson(writer, bytes(payload),
                                  request.keep_alive)
        return request.keep_alive

    # -- response writing ----------------------------------------------

    @staticmethod
    def _head(status: int, keep_alive: bool,
              headers: tuple[tuple[str, str], ...]) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.append("Connection: "
                     + ("keep-alive" if keep_alive else "close"))
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_simple(self, writer: asyncio.StreamWriter,
                           status: int, payload: dict[str, Any], *,
                           keep_alive: bool,
                           extra_headers: tuple[tuple[str, str], ...]
                           = ()) -> bool:
        body = json.dumps(payload).encode("utf-8")
        headers = (("Content-Type", "application/json"),
                   ("Content-Length", str(len(body)))) + extra_headers
        writer.write(self._head(status, keep_alive, headers) + body)
        await writer.drain()
        return keep_alive

    async def _send_error(self, writer: asyncio.StreamWriter,
                          error: BaseException,
                          keep_alive: bool) -> bool:
        self._errors.inc()
        status = wire.status_for(error)
        extra: tuple[tuple[str, str], ...] = ()
        if isinstance(error, AdmissionError):
            extra = (("Retry-After", str(wire.RETRY_AFTER_SECONDS)),)
        body = wire.error_body(error)
        headers = (("Content-Type", "application/json"),
                   ("Content-Length", str(len(body)))) + extra
        writer.write(self._head(status, keep_alive, headers) + body)
        await writer.drain()
        return keep_alive

    async def _stream_ndjson(self, writer: asyncio.StreamWriter,
                             payload: bytes,
                             keep_alive: bool) -> None:
        """Stream one NDJSON payload, one HTTP chunk per frame.

        Draining after every frame (at most ``ROWS_PER_FRAME`` rows)
        lets a slow client apply backpressure.
        """
        headers = (("Content-Type", "application/x-ndjson"),
                   ("Transfer-Encoding", "chunked"))
        writer.write(self._head(200, keep_alive, headers))
        for frame in payload.splitlines(keepends=True):
            writer.write(b"%x\r\n" % len(frame) + frame + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def serve_http(backend: Any, host: str = DEFAULT_HOST,
               port: int = 0) -> HttpServer:
    """Start a background HTTP server over *backend*; returns the
    running server (read ``.port``/``.url``, call ``.stop()``)."""
    return HttpServer(backend, host, port).start_background()


__all__ = ["ExecutorBackend", "HttpServer", "Request", "serve_http",
           "DEFAULT_HOST", "MAX_BODY_BYTES"]
