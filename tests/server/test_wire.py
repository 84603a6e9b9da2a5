"""The versioned wire schema: requests, NDJSON framing, errors."""

import json

import pytest

from repro import errors
from repro.cypher import QueryOptions
from repro.cypher.result import (RESULT_SCHEMA_VERSION, QueryStats,
                                 Result)
from repro.server import wire


def make_result(rows, columns=("a", "b")):
    return Result(columns=list(columns), rows=[tuple(r) for r in rows],
                  stats=QueryStats(elapsed_seconds=0.01, db_hits=7))


class TestQueryRequest:
    def test_roundtrip(self):
        options = QueryOptions(timeout=2.0, max_rows=10,
                               parameters={"name": "sr_*"})
        body = wire.query_request("MATCH (n) RETURN n", options)
        text, parsed = wire.parse_query_request(body)
        assert text == "MATCH (n) RETURN n"
        assert parsed.timeout == 2.0
        assert parsed.max_rows == 10
        assert parsed.parameters == {"name": "sr_*"}

    def test_default_options_omitted_from_body(self):
        body = wire.query_request("RETURN 1", QueryOptions())
        assert b"options" not in body
        _, parsed = wire.parse_query_request(body)
        assert parsed == QueryOptions()

    def test_rejects_non_json(self):
        with pytest.raises(wire.WireFormatError, match="not JSON"):
            wire.parse_query_request(b"MATCH (n) RETURN n")

    def test_rejects_missing_query(self):
        with pytest.raises(wire.WireFormatError, match="query"):
            wire.parse_query_request(b'{"options": {}}')

    def test_rejects_empty_query(self):
        with pytest.raises(wire.WireFormatError, match="query"):
            wire.parse_query_request(b'{"query": "  "}')

    def test_rejects_unknown_request_field(self):
        with pytest.raises(wire.WireFormatError, match="cypher"):
            wire.parse_query_request(b'{"query": "RETURN 1", '
                                     b'"cypher": "x"}')

    @pytest.mark.parametrize("key", ["max_row", "use_compiled_kernels"])
    def test_rejects_unknown_option_key(self, key):
        body = json.dumps({"query": "RETURN 1",
                           "options": {key: 5}}).encode()
        with pytest.raises(wire.WireFormatError, match=key):
            wire.parse_query_request(body)

    def test_rejects_non_object_options(self):
        with pytest.raises(wire.WireFormatError, match="options"):
            wire.parse_query_request(b'{"query": "RETURN 1", '
                                     b'"options": [1]}')

    def test_rejects_invalid_option_value(self):
        body = json.dumps({"query": "RETURN 1",
                           "options": {"timeout": -1}}).encode()
        with pytest.raises(wire.WireFormatError, match="timeout"):
            wire.parse_query_request(body)


class TestNdjsonFraming:
    def test_result_roundtrip(self):
        result = make_result([(1, "x"), (2, "y")])
        data = wire.result_to_ndjson(result)
        back = wire.result_from_ndjson(data)
        assert back.columns == result.columns
        assert back.rows == result.rows
        assert back.stats.db_hits == 7

    def test_frame_layout(self):
        data = wire.result_to_ndjson(make_result([(1, "x")]))
        frames = [json.loads(line) for line in data.splitlines()]
        assert frames[0] == {"schema_version": RESULT_SCHEMA_VERSION,
                             "columns": ["a", "b"]}
        assert frames[1] == {"row": [1, "x"]}
        assert set(frames[2]) == {"summary"}

    def test_accepts_line_iterable(self):
        data = wire.result_to_ndjson(make_result([(5, "z")]))
        payload = wire.payload_from_ndjson(
            data.decode("utf-8").splitlines())
        assert payload["rows"] == [[5, "z"]]

    def test_missing_summary_is_truncation(self):
        data = wire.result_to_ndjson(make_result([(1, "x")]))
        truncated = b"".join(data.splitlines(keepends=True)[:-1])
        with pytest.raises(wire.WireFormatError, match="summary"):
            wire.payload_from_ndjson(truncated)

    def test_missing_header_rejected(self):
        with pytest.raises(wire.WireFormatError, match="header"):
            wire.payload_from_ndjson(b'{"row": [1]}\n'
                                     b'{"summary": {}}\n')

    def test_inline_error_frame_raises(self):
        frame = json.dumps(
            {"error": {"type": "QueryError", "message": "boom"}})
        with pytest.raises(errors.QueryError, match="boom"):
            wire.payload_from_ndjson(frame)


class TestErrorMapping:
    @pytest.mark.parametrize("error,status", [
        (errors.AdmissionError("full"), 429),
        (errors.QueryTimeoutError(1.0), 504),
        (errors.ServerClosedError("closed"), 503),
        (errors.ExecutorShutdownError("down"), 503),
        (wire.WireFormatError("bad"), 400),
        (errors.CypherSyntaxError("bad", 1, 1), 400),
        (errors.QueryError("bad"), 400),
        (errors.StoreError("disk"), 500),
        (RuntimeError("bug"), 500),
    ])
    def test_status_for(self, error, status):
        assert wire.status_for(error) == status

    def test_admission_error_roundtrip(self):
        original = errors.AdmissionError("queue full", client="alice")
        payload = wire.error_to_dict(original)
        assert payload["retry_after"] == wire.RETRY_AFTER_SECONDS
        rebuilt = wire.exception_from_dict(payload)
        assert isinstance(rebuilt, errors.AdmissionError)
        assert rebuilt.client == "alice"
        assert "queue full" in str(rebuilt)

    def test_timeout_error_keeps_server_message(self):
        original = errors.QueryTimeoutError(2.5)
        rebuilt = wire.exception_from_dict(
            wire.error_to_dict(original))
        assert isinstance(rebuilt, errors.QueryTimeoutError)
        assert rebuilt.seconds == 2.5
        assert str(rebuilt) == str(original)

    def test_unknown_type_degrades_to_server_error(self):
        rebuilt = wire.exception_from_dict(
            {"type": "FutureError", "message": "from v99"})
        assert isinstance(rebuilt, errors.ServerError)
        assert "FutureError" in str(rebuilt)

    def test_error_body_is_versioned_json(self):
        body = json.loads(wire.error_body(errors.QueryError("no")))
        assert body["schema_version"] == wire.WIRE_SCHEMA_VERSION
        assert body["error"]["type"] == "QueryError"
