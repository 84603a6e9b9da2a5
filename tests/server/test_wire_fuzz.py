"""Fuzzing the two decoders a hostile peer can reach.

* **Result streams** into :func:`repro.server.wire.result_from_ndjson`
  — arbitrary bytes, and real replies mutated byte by byte and frame by
  frame: each yields a :class:`~repro.cypher.Result` or raises a typed
  :class:`~repro.errors.FrappeError` (a malformed stream is a
  ``WireFormatError``), never any other exception.
* **Raw request bytes** into a live :class:`HttpServer` over a socket
  with a timeout: each is answered with a 4xx/5xx carrying a JSON
  error body (a 200 when the bytes happen to form a valid request) or
  a clean close — never a hang, a logged traceback or a dead server.

Derandomized with bounded example counts and no example database, so
every run (tier-1 included) replays the same inputs.
"""

import json
import logging
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.cypher import QueryOptions, Result
from repro.cypher.result import EdgeRef, NodeRef, PathValue, QueryStats
from repro.errors import FrappeError
from repro.graphdb import PropertyGraph
from repro.server import wire
from repro.server.http import ExecutorBackend, HttpServer

FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

#: seconds a fuzzed request may take before it counts as a hang
SOCKET_TIMEOUT = 10.0


# -- result streams ------------------------------------------------------


def _real_replies():
    """Encoded replies covering every cell kind, a profile tree, an
    empty result, a two-frame result and an error frame."""
    graph = PropertyGraph()
    ids = [graph.add_node("function", short_name=name, size=index)
           for index, name in enumerate(("alpha", "beta", "gamma"))]
    graph.add_edge(ids[0], ids[1], "calls")
    graph.add_edge(ids[1], ids[2], "calls")
    with Frappe(graph) as frappe:
        replies = [wire.result_to_ndjson(frappe.query(text, options=opts))
                   for text, opts in (
            ("MATCH p=(a)-[r:calls]->(b) RETURN p, r, a, b.short_name, "
             "b.size", None),
            ("MATCH (n:function) RETURN n.short_name ORDER BY "
             "n.short_name", QueryOptions(profile=True)),
            ("MATCH (n:nothing) RETURN n", None))]
    mixed = Result(
        ["cell"], [([None, True, 2.5, {"k": NodeRef(1)}],),
                   (PathValue((NodeRef(1),), ()),), (EdgeRef(3),)],
        QueryStats(shards=[0, 1]))
    many = Result(["i", "s"], [(index, f"s{index}")
                               for index in range(1500)])
    replies += [wire.result_to_ndjson(mixed),
                wire.result_to_ndjson(many),
                wire.error_body(FrappeError("boom")) + b"\n"]
    return replies


REPLIES = _real_replies()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(
        ["rows", "row", "columns", "summary", "stats", "profile",
         "error", "name", "children", "args", "@node", "@rel", "@path",
         "nodes", "edges", "wire_version", "schema_version",
         "rows_produced", "type", "message", "seconds"])
        | st.text(max_size=4), children, max_size=4),
    max_leaves=12)


def _mutate_bytes(draw, data):
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, max(0, len(data) - 1)))
        operation = draw(st.sampled_from(
            ["flip", "delete", "insert", "truncate"]))
        if operation == "flip" and data:
            data = data[:position] + bytes(
                [data[position] ^ draw(st.integers(1, 255))]) \
                + data[position + 1:]
        elif operation == "delete":
            data = data[:position] + \
                data[position + draw(st.integers(1, 16)):]
        elif operation == "insert":
            data = data[:position] + draw(st.binary(max_size=8)) \
                + data[position:]
        else:
            data = data[:position]
    return data


def _mutate_frames(draw, data):
    lines = data.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        index = draw(st.integers(0, len(lines) - 1))
        operation = draw(st.sampled_from(
            ["replace", "drop", "duplicate", "swap"]))
        if operation == "replace":
            lines[index] = _replace_somewhere(draw, lines[index])
        elif operation == "drop":
            del lines[index]
        elif operation == "duplicate":
            lines.insert(index, lines[index])
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
    return b"\n".join(lines) + b"\n"


def _replace_somewhere(draw, line):
    """Swap one value somewhere inside a frame for arbitrary JSON."""
    frame = json.loads(line)
    replacement = draw(json_values)
    node = frame
    while True:
        if isinstance(node, dict) and node:
            key = draw(st.sampled_from(sorted(node)))
        elif isinstance(node, list) and node:
            key = draw(st.integers(0, len(node) - 1))
        else:
            return json.dumps(replacement).encode()
        if draw(st.booleans()) or not isinstance(
                node[key], (dict, list)):
            node[key] = replacement
            return json.dumps(frame).encode()
        node = node[key]


@st.composite
def mutated_replies(draw):
    data = draw(st.sampled_from(REPLIES))
    if draw(st.booleans()):
        return _mutate_frames(draw, data)
    return _mutate_bytes(draw, data)


def _decode(data, as_lines):
    try:
        result = wire.result_from_ndjson(
            iter(data.splitlines(keepends=True)) if as_lines else data)
    except FrappeError:
        return
    assert isinstance(result, Result)


def test_real_replies_decode():
    for data in REPLIES[:-1]:
        assert isinstance(wire.result_from_ndjson(data), Result)


@FUZZ
@given(data=st.binary(max_size=512), as_lines=st.booleans())
def test_arbitrary_bytes_decode_or_raise_typed(data, as_lines):
    _decode(data, as_lines)


@FUZZ
@given(data=mutated_replies(), as_lines=st.booleans())
def test_mutated_replies_decode_or_raise_typed(data, as_lines):
    _decode(data, as_lines)


# -- raw HTTP requests ---------------------------------------------------


class _ErrorRecords(logging.Handler):
    """Every ERROR-or-worse record any logger emits (the loop's
    "Unhandled exception in client_connected_cb" included)."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def live(saved_store):
    records = _ErrorRecords()
    logging.getLogger().addHandler(records)
    frappe = Frappe.open(saved_store, config=StoreConfig(
        mmap=True, default_timeout=5.0))
    try:
        with HttpServer(ExecutorBackend(frappe, workers=2)) as server:
            yield server, records
    finally:
        logging.getLogger().removeHandler(records)


def _request(method, path, headers, body):
    head = [f"{method} {path} HTTP/1.1", "Host: fuzz"]
    head += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


QUERY_BODY = json.dumps(
    {"query": "MATCH (n:function) RETURN count(*)"}).encode()
TEMPLATES = [
    _request("POST", "/v1/query",
             [("Content-Length", str(len(QUERY_BODY)))], QUERY_BODY),
    _request("POST", "/v1/query",
             [("Transfer-Encoding", "chunked")],
             b"%x\r\n" % len(QUERY_BODY) + QUERY_BODY + b"\r\n0\r\n\r\n"),
    _request("GET", "/v1/health", [], b""),
    _request("GET", "/v1/metrics", [("Connection", "close")], b""),
]


@st.composite
def requests(draw):
    """A structured request with hostile parts, or a template
    mutated byte by byte."""
    if draw(st.booleans()):
        return _mutate_bytes(draw, draw(st.sampled_from(TEMPLATES)))
    method = draw(st.sampled_from(["GET", "POST", "PUT", "", "G\x00T"]))
    path = draw(st.sampled_from(
        ["/v1/query", "/v1/health", "/v1/metrics", "/", "*",
         "/v1/query?x=1"]))
    body = draw(st.sampled_from([QUERY_BODY, b"", b"{", b"[1]",
                                 b'{"query": 5}',
                                 b'{"query": "RETURN 1", "options": '
                                 b'{"timeout": "x"}}'])
                | st.binary(max_size=64))
    length = draw(st.sampled_from(
        [str(len(body)), "-5", "+3", "1_0", "", " ", "0x10",
         "99999999999999999999", str(len(body) + 3), "²"]))
    headers = [("Content-Length", length)]
    headers += draw(st.lists(st.tuples(
        st.sampled_from(["Transfer-Encoding", "Connection",
                         "Content-Length", "X-Frappe-Client",
                         "Expect"]),
        st.sampled_from(["chunked", "close", "keep-alive", "7",
                         "100-continue", "ÿ"])), max_size=3))
    return _request(method, path, headers, body)


def _exchange(port, data):
    """Send *data*, half-close, read until the server closes."""
    received = b""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SOCKET_TIMEOUT) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before all of it
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:
            pass
        except socket.timeout:
            pytest.fail(f"server hung on {data[:120]!r}")
    return received


def _check_first_response(data, received):
    if not received:
        return  # a clean close
    assert received.startswith(b"HTTP/1.1 "), received[:80]
    status = int(received[9:12])
    head, _, rest = received.partition(b"\r\n\r\n")
    if status == 200:
        return  # the bytes happened to be a valid request
    assert 400 <= status < 600, (status, data[:120])
    lengths = [line.split(b":", 1)[1] for line in head.split(b"\r\n")
               if line.lower().startswith(b"content-length:")]
    assert lengths, head
    body = json.loads(rest[:int(lengths[0])])
    assert set(body["error"]) >= {"type", "message"}, body


def _check_alive(server, records):
    logged, records.records = records.records, []
    assert not logged, [record.getMessage() for record in logged]
    probe = _request("GET", "/v1/health", [("Connection", "close")], b"")
    assert _exchange(server.port, probe).startswith(b"HTTP/1.1 200 ")


@FUZZ
@given(data=st.binary(max_size=512))
def test_raw_bytes_are_answered_or_closed(live, data):
    server, records = live
    _check_first_response(data, _exchange(server.port, data))
    _check_alive(server, records)


@FUZZ
@given(data=requests())
def test_hostile_requests_are_answered_or_closed(live, data):
    server, records = live
    _check_first_response(data, _exchange(server.port, data))
    _check_alive(server, records)
