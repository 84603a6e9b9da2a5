"""Blocking wire-protocol client (stdlib ``http.client`` only)."""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator, Mapping

from repro.cypher.options import QueryOptions
from repro.cypher.result import Result
from repro.errors import ServerError
from repro.server import wire

DEFAULT_PORT = 8127


class FrappeClient:
    """One connection to an HTTP serving tier.

    Parameters
    ----------
    host, port:
        Where ``frappe serve --http`` listens.
    client_id:
        The fair-share quota identity sent as ``X-Frappe-Client``;
        every request from this object is charged to it.
    timeout:
        Socket-level timeout in seconds for connect/read. This bounds
        a *hung* server; a slow query should instead carry its own
        ``QueryOptions.timeout``, which the server enforces and
        reports as a structured 504.

    Not thread-safe (one underlying connection); give each thread its
    own client — connections are cheap and keep-alive.
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, *,
                 client_id: str = "anonymous",
                 timeout: float | None = 60.0) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(self, method: str, path: str,
                 body: bytes | None = None
                 ) -> http.client.HTTPResponse:
        headers = {"X-Frappe-Client": self.client_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            return conn.getresponse()
        except (http.client.RemoteDisconnected, BrokenPipeError,
                ConnectionResetError):
            # a keep-alive connection the server aged out; one
            # reconnect retry on a fresh socket
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            return conn.getresponse()

    @staticmethod
    def _raise_for_status(response: http.client.HTTPResponse,
                          data: bytes) -> None:
        if response.status == 200:
            return
        try:
            payload = json.loads(data)
            error = payload["error"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ServerError(
                f"HTTP {response.status}: "
                f"{data[:200]!r}") from None
        raise wire.exception_from_dict(error)

    # -- the public surface --------------------------------------------

    def query(self, text: str,
              parameters: Mapping[str, Any] | None = None, *,
              timeout: float | None = None,
              options: QueryOptions | None = None) -> Result:
        """Run Cypher on the server; returns a materialized
        :class:`~repro.cypher.Result` (same precedence rules as
        ``Frappe.query``)."""
        opts = QueryOptions.resolve(options, parameters=parameters,
                                    timeout=timeout)
        response = self._request("POST", "/v1/query",
                                 wire.query_request(text, opts))
        data = response.read()
        self._raise_for_status(response, data)
        return wire.result_from_ndjson(data)

    def stream(self, text: str,
               parameters: Mapping[str, Any] | None = None, *,
               timeout: float | None = None,
               options: QueryOptions | None = None
               ) -> Iterator[dict[str, Any]]:
        """Incrementally yield rows (as column->value dicts) while the
        server is still streaming them, one rows frame at a time.

        The generator must be fully consumed (or ``close()``d) before
        the next request on this client. The trailing summary frame is
        exposed afterwards on :attr:`last_stats`. A malformed stream
        raises :class:`~repro.server.wire.WireFormatError`.
        """
        opts = QueryOptions.resolve(options, parameters=parameters,
                                    timeout=timeout)
        response = self._request("POST", "/v1/query",
                                 wire.query_request(text, opts))
        if response.status != 200:
            self._raise_for_status(response, response.read())
        columns: list[str] = []
        self.last_stats: dict[str, Any] | None = None
        for kind, body in wire.iter_frames(response):
            if kind == "header":
                columns = body["columns"]
            elif kind == "rows":
                for row in body:
                    yield dict(zip(columns, row))
            else:
                self.last_stats = body["stats"]

    def health(self) -> dict[str, Any]:
        response = self._request("GET", "/v1/health")
        data = response.read()
        self._raise_for_status(response, data)
        return json.loads(data)

    def metrics(self) -> dict[str, Any]:
        response = self._request("GET", "/v1/metrics")
        data = response.read()
        self._raise_for_status(response, data)
        return json.loads(data)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FrappeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"FrappeClient(http://{self.host}:{self.port}, "
                f"client_id={self.client_id!r})")
