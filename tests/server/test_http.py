"""End-to-end HTTP serving tests (in-process executor backend)."""

import http.server
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.client import FrappeClient
from repro.cypher import QueryOptions, Result
from repro.cypher.result import MAX_CELL_DEPTH
from repro.errors import (AdmissionError, CypherSyntaxError,
                          QueryTimeoutError)
from repro.server import wire
from repro.server.http import ExecutorBackend, HttpServer

COUNT_QUERY = "MATCH (n:function) RETURN count(*) AS n"
SLOW_QUERY = "MATCH (a)-[:calls*]->(b) RETURN count(*)"
#: every node of the fixture store (1 085): two rows frames
MULTI_FRAME_QUERY = "MATCH (n) RETURN n"


@pytest.fixture(scope="module")
def server(saved_store):
    frappe = Frappe.open(saved_store, config=StoreConfig(mmap=True))
    backend = ExecutorBackend(frappe, workers=2, queue_capacity=4,
                              max_per_client=2)
    with HttpServer(backend) as running:
        yield running


@pytest.fixture()
def client(server):
    with FrappeClient(port=server.port, client_id="pytest") as c:
        yield c


def http_get(server, path):
    try:
        response = urllib.request.urlopen(server.url + path, timeout=10)
        return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_exchange(server, request):
    """Send raw request bytes; return (head, body) of everything the
    server sent before closing the connection."""
    received = b""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return head, body


def dechunk(raw):
    """The chunks of a chunked transfer-coded body, in order."""
    chunks = []
    while True:
        size, _, raw = raw.partition(b"\r\n")
        size = int(size, 16)
        if size == 0:
            return chunks
        chunks.append(raw[:size])
        assert raw[size:size + 2] == b"\r\n"
        raw = raw[size + 2:]


def http_post(server, path, body, headers=None):
    request = urllib.request.Request(
        server.url + path, data=body,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        response = urllib.request.urlopen(request, timeout=10)
        return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestQueryEndpoint:
    def test_query_roundtrip(self, client, saved_store):
        over_http = client.query(COUNT_QUERY)
        assert isinstance(over_http, Result)
        with Frappe.open(saved_store) as frappe:
            assert over_http.value() == frappe.query(COUNT_QUERY).value()
        assert over_http.columns == ["n"]
        assert over_http.stats.db_hits >= 0

    def test_parameters_travel(self, client):
        result = client.query(
            "MATCH (n:function) WHERE n.short_name = $name "
            "RETURN count(*)",
            parameters={"name": "no_such_function_xyz"})
        assert result.value() == 0

    def test_profile_travels_back(self, client):
        result = client.query(COUNT_QUERY,
                              options=QueryOptions(profile=True))
        assert result.profile is not None
        assert result.profile.total_db_hits() > 0

    def test_streaming_rows(self, client):
        rows = list(client.stream(
            "MATCH (n:function) RETURN n.short_name LIMIT 7"))
        assert len(rows) == 7
        assert all("n.short_name" in row for row in rows)
        assert client.last_stats is not None
        assert client.last_stats["rows_produced"] >= 7

    def test_stream_crosses_frame_boundaries(self, client):
        expected = client.query(MULTI_FRAME_QUERY)
        assert len(expected.rows) > wire.ROWS_PER_FRAME
        rows = list(client.stream(MULTI_FRAME_QUERY))
        assert rows == list(expected)
        assert client.last_stats["rows_produced"] == len(expected.rows)
        assert client.last_stats["execution_mode"] == \
            expected.stats.execution_mode

    def test_response_is_chunked_ndjson(self, server):
        body = json.dumps({"query": MULTI_FRAME_QUERY}).encode()
        head, raw = raw_exchange(
            server, b"POST /v1/query HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Content-Type: application/x-ndjson" in head
        assert b"Transfer-Encoding: chunked" in head
        chunks = dechunk(raw)
        # one HTTP chunk per frame, one frame per line
        assert all(chunk.count(b"\n") == 1 and chunk.endswith(b"\n")
                   for chunk in chunks)
        frames = [json.loads(chunk) for chunk in chunks]
        assert frames[0]["wire_version"] == wire.WIRE_SCHEMA_VERSION
        assert frames[0]["columns"] == ["n"]
        rows = [frame["rows"] for frame in frames[1:-1]]
        assert [len(batch) for batch in rows] == \
            [wire.ROWS_PER_FRAME, 1085 - wire.ROWS_PER_FRAME]
        assert "summary" in frames[-1]


class _CannedReply(http.server.BaseHTTPRequestHandler):
    """Answers every POST with the server's ``reply`` bytes as a 200
    NDJSON response: a broken server, as a client sees one."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = self.server.reply
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def broken_server():
    with http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                         _CannedReply) as running:
        thread = threading.Thread(target=running.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            yield running
        finally:
            running.shutdown()


class TestBrokenServerReply:
    """A reply whose cells cannot be decoded is a WireFormatError
    naming the frame, from ``stream`` exactly as from ``query``."""

    @pytest.mark.parametrize("cell,match", [
        (b'{"@path": {"nodes": [1]}}', "frame 3: malformed @path"),
        (b"[" * (MAX_CELL_DEPTH + 1) + b"]" * (MAX_CELL_DEPTH + 1),
         "frame 3: result cell nested deeper"),
    ])
    @pytest.mark.parametrize("method", ["query", "stream"])
    def test_undecodable_cell(self, broken_server, method, cell, match):
        broken_server.reply = (
            b'{"wire_version":2,"schema_version":1,"columns":["a","b"]}\n'
            b'{"rows":[[1,2]]}\n{"rows":[[1,' + cell + b']]}\n'
            b'{"summary":{"stats":{},"profile":null}}\n')
        with FrappeClient(port=broken_server.server_port) as client:
            with pytest.raises(wire.WireFormatError, match=match):
                list(getattr(client, method)("RETURN 1"))


class TestErrorMapping:
    def test_syntax_error_is_400(self, server, client):
        status, body = http_post(
            server, "/v1/query",
            json.dumps({"query": "MATCH ((("}).encode())
        assert status == 400
        with pytest.raises(CypherSyntaxError):
            client.query("MATCH (((")

    def test_deeply_nested_query_is_400(self, server, client):
        # a malformed query, not a server fault: the parser's nesting
        # bound answers before the interpreter's recursion limit
        text = "RETURN " + "[" * 1000 + "1" + "]" * 1000
        status, body = http_post(server, "/v1/query",
                                 json.dumps({"query": text}).encode())
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "CypherSyntaxError"
        assert "nested deeper than" in error["message"]
        with pytest.raises(CypherSyntaxError, match="line 1, column"):
            client.query(text)

    def test_unknown_option_is_400(self, server):
        status, body = http_post(
            server, "/v1/query",
            json.dumps({"query": "RETURN 1",
                        "options": {"max_row": 5}}).encode())
        assert status == 400
        assert "max_row" in json.loads(body)["error"]["message"]

    def test_timeout_is_504(self, server, client):
        body = json.dumps({"query": SLOW_QUERY,
                           "options": {"timeout": 0.0001}}).encode()
        status, payload = http_post(server, "/v1/query", body)
        assert status == 504
        assert json.loads(payload)["error"]["type"] == \
            "QueryTimeoutError"
        with pytest.raises(QueryTimeoutError):
            client.query(SLOW_QUERY, timeout=0.0001)

    def test_quota_exhaustion_is_429_with_retry_after(self, server):
        # enough concurrent slow queries from one identity to overflow
        # its fair share (max_per_client=2) and/or the queue (4)
        outcomes = []
        lock = threading.Lock()

        def spam():
            body = json.dumps(
                {"query": SLOW_QUERY,
                 "options": {"timeout": 5.0}}).encode()
            status, _, headers = _post_with_headers(
                server, body, client_id="greedy")
            with lock:
                outcomes.append((status, headers.get("Retry-After")))

        def _post_with_headers(server, body, client_id):
            request = urllib.request.Request(
                server.url + "/v1/query", data=body,
                headers={"Content-Type": "application/json",
                         "X-Frappe-Client": client_id})
            try:
                response = urllib.request.urlopen(request, timeout=30)
                return response.status, response.read(), \
                    response.headers
            except urllib.error.HTTPError as error:
                return error.code, error.read(), error.headers

        threads = [threading.Thread(target=spam) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rejected = [entry for entry in outcomes if entry[0] == 429]
        assert rejected, f"no 429 in {outcomes}"
        assert all(retry == "1" for _, retry in rejected)

    def test_client_raises_admission_error(self, server):
        # serially saturate the fair share, then observe the 429 as a
        # typed AdmissionError on a second connection
        hold = FrappeClient(port=server.port, client_id="holder")
        blockers = []
        try:
            import http.client as http_client_mod
            for _ in range(2):
                conn = http_client_mod.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30)
                conn.request(
                    "POST", "/v1/query",
                    body=json.dumps(
                        {"query": SLOW_QUERY,
                         "options": {"timeout": 10.0}}).encode(),
                    headers={"X-Frappe-Client": "holder"})
                blockers.append(conn)
            import time
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    hold.query(COUNT_QUERY)
                except AdmissionError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("fair share never filled")
        finally:
            for conn in blockers:
                conn.close()
            hold.close()


class TestHealthAndMetrics:
    def test_health(self, server):
        status, body = http_get(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["mode"] == "in-process"
        assert body["replicas"]["alive"] == 1

    def test_metrics_counts_requests(self, server, client):
        client.query(COUNT_QUERY)
        status, body = http_get(server, "/v1/metrics")
        assert status == 200
        assert body["server"]["http.requests"] >= 1
        assert body["server"]["server.completed"] >= 1

    def test_client_helpers(self, client):
        assert client.health()["status"] == "ok"
        assert "server" in client.metrics()


class TestHttpProtocol:
    def test_unknown_route_is_404(self, server):
        status, body = http_get(server, "/v2/query")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_wrong_method_is_405(self, server):
        status, body = http_get(server, "/v1/query")
        assert status == 405
        assert body["error"]["type"] == "MethodNotAllowed"

    def test_non_json_body_is_400(self, server):
        status, body = http_post(server, "/v1/query", b"MATCH (n)")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "WireFormatError"

    def test_oversized_body_is_413(self, server):
        status, _ = http_post(server, "/v1/query",
                              b"x" * (2 << 20))
        assert status == 413

    @pytest.mark.parametrize("length", ["-5", "+5", "1_0", "²"])
    def test_non_digit_content_length_is_400_and_close(self, server,
                                                       length):
        head, body = raw_exchange(
            server, "POST /v1/query HTTP/1.1\r\nContent-Length: "
            f"{length}\r\n\r\n{{}}".encode("latin-1"))
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]["message"]

    def test_chunked_request_is_400_and_close(self, server):
        # read by Content-Length, the chunk lines would be parsed as a
        # second keep-alive request
        body = json.dumps({"query": COUNT_QUERY}).encode()
        head, raw = raw_exchange(
            server, b"POST /v1/query HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        error = json.loads(raw)["error"]
        assert "Transfer-Encoding" in error["message"]
        assert b"HTTP/1.1" not in raw  # exactly one response

    def test_keep_alive_reuses_connection(self, client):
        first = client.query(COUNT_QUERY)
        second = client.query(COUNT_QUERY)
        assert first.value() == second.value()


class TestLifecycle:
    def test_stop_then_connection_refused(self, saved_store):
        frappe = Frappe.open(saved_store)
        backend = ExecutorBackend(frappe, workers=1)
        server = HttpServer(backend).start_background()
        with FrappeClient(port=server.port) as probe:
            assert probe.health()["status"] == "ok"
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(server.url + "/v1/health",
                                   timeout=2)
