"""The versioned wire schema: requests, NDJSON framing, errors."""

import json
import math

import pytest

from repro import errors
from repro.cypher import QueryOptions
from repro.cypher.result import (MAX_CELL_DEPTH, RESULT_SCHEMA_VERSION,
                                 QueryStats, Result)
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

    @pytest.mark.parametrize("key", ["max_row", "use_compiled_kernels",
                                     "parallelism"])
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
        data = wire.result_to_ndjson(make_result([(1, "x"), (2, "y")]))
        frames = [json.loads(line) for line in data.splitlines()]
        assert frames[0] == {"wire_version": wire.WIRE_SCHEMA_VERSION,
                             "schema_version": RESULT_SCHEMA_VERSION,
                             "columns": ["a", "b"]}
        assert frames[1] == {"rows": [[1, "x"], [2, "y"]]}
        assert set(frames[2]) == {"summary"}
        assert len(frames) == 3
        assert wire.WIRE_SCHEMA_VERSION == 2

    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
    def test_rows_travel_in_frames_of_at_most_1024(self, count):
        result = make_result([(index, f"r{index}")
                              for index in range(count)])
        data = wire.result_to_ndjson(result)
        frames = [json.loads(line) for line in data.splitlines()]
        row_frames = [frame["rows"] for frame in frames
                      if "rows" in frame]
        assert wire.ROWS_PER_FRAME == 1024
        assert len(row_frames) == math.ceil(count / 1024)
        assert all(0 < len(rows) <= 1024 for rows in row_frames)
        assert len(frames) == len(row_frames) + 2
        back = wire.result_from_ndjson(data)
        assert back.rows == result.rows
        assert back.stats == result.stats

    def test_accepts_line_iterable(self):
        data = wire.result_to_ndjson(make_result([(5, "z")]))
        payload = wire.payload_from_ndjson(
            data.decode("utf-8").splitlines())
        assert payload["rows"] == [[5, "z"]]
        payload = wire.payload_from_ndjson(
            iter(data.splitlines(keepends=True)))
        assert payload["rows"] == [[5, "z"]]

    def test_missing_summary_is_truncation(self):
        data = wire.result_to_ndjson(make_result([(1, "x")]))
        truncated = b"".join(data.splitlines(keepends=True)[:-1])
        with pytest.raises(wire.WireFormatError, match="summary"):
            wire.payload_from_ndjson(truncated)

    def test_missing_header_rejected(self):
        with pytest.raises(wire.WireFormatError, match="header"):
            wire.payload_from_ndjson(b'{"rows": [[1]]}\n'
                                     b'{"summary": {}}\n')

    def test_inline_error_frame_raises(self):
        frame = json.dumps(
            {"error": {"type": "QueryError", "message": "boom"}})
        with pytest.raises(errors.QueryError, match="boom"):
            wire.payload_from_ndjson(frame)


HEADER = (b'{"wire_version":2,"schema_version":1,'
          b'"columns":["a","b"]}\n')
SUMMARY = b'{"summary":{"stats":{},"profile":null}}\n'


class TestVersionOneRefused:
    """A per-row (wire version 1) stream is refused, naming both
    versions, instead of being misread."""

    def test_version_1_stream(self):
        stream = (b'{"schema_version":1,"columns":["a"]}\n'
                  b'{"row":[1]}\n' + SUMMARY)
        with pytest.raises(wire.WireFormatError,
                           match=r"frame 1: a wire version 1 stream; "
                                 r"this reader speaks wire version 2"):
            wire.result_from_ndjson(stream)

    def test_row_frame_after_a_version_2_header(self):
        with pytest.raises(wire.WireFormatError,
                           match=r"frame 2: a per-row frame of wire "
                                 r"version 1; this reader speaks wire "
                                 r"version 2"):
            wire.result_from_ndjson(HEADER + b'{"row":[1,2]}\n'
                                    + SUMMARY)

    def test_unknown_later_version(self):
        with pytest.raises(wire.WireFormatError,
                           match="wire version 3 stream"):
            wire.result_from_ndjson(
                b'{"wire_version":3,"schema_version":1,'
                b'"columns":[]}\n' + SUMMARY)


class TestMalformedStreams:
    """A broken or hostile server's stream is a WireFormatError naming
    the frame, never a TypeError/AttributeError from the decoder."""

    def test_frame_that_is_not_an_object(self):
        with pytest.raises(wire.WireFormatError,
                           match="frame 1: a frame is a JSON object, "
                                 "not int"):
            wire.result_from_ndjson(b"5\n")

    def test_row_frame_that_is_not_a_list(self):
        with pytest.raises(wire.WireFormatError, match="frame 2"):
            wire.result_from_ndjson(HEADER + b'{"row": 5}\n' + SUMMARY)

    def test_summary_that_is_not_an_object(self):
        with pytest.raises(wire.WireFormatError,
                           match='frame 2: "summary" must be an object'):
            wire.result_from_ndjson(HEADER + b'{"summary": "x"}\n')

    def test_columns_that_are_not_a_list(self):
        with pytest.raises(wire.WireFormatError,
                           match='frame 1: "columns" must be a list'):
            wire.result_from_ndjson(
                b'{"wire_version":2,"schema_version":1,"columns":5}\n'
                + SUMMARY)

    def test_unknown_stats_key(self):
        with pytest.raises(wire.WireFormatError,
                           match="frame 2: unknown stats key.*bogus"):
            wire.result_from_ndjson(
                HEADER + b'{"summary":{"stats":{"bogus":1}}}\n')

    @pytest.mark.parametrize("rows", [
        b'5', b'[5]', b'[[1]]', b'[[1,2,3]]', b'[{"a":1,"b":2}]'])
    def test_rows_must_be_lists_as_wide_as_the_header(self, rows):
        with pytest.raises(wire.WireFormatError,
                           match='frame 2: "rows" must be a list of '
                                 '2-cell lists'):
            wire.result_from_ndjson(
                HEADER + b'{"rows":' + rows + b'}\n' + SUMMARY)

    @pytest.mark.parametrize("columns", [b'[1]', b'[["a"]]', b'"ab"'])
    def test_columns_must_be_strings(self, columns):
        with pytest.raises(wire.WireFormatError, match="columns"):
            wire.result_from_ndjson(
                b'{"wire_version":2,"schema_version":1,"columns":'
                + columns + b'}\n' + SUMMARY)

    @pytest.mark.parametrize("summary,match", [
        (b'{"stats": 5}', '"stats" must be an object'),
        (b'{"stats": {}, "profile": [1]}', '"profile" must be an '
                                           'object'),
    ])
    def test_summary_parts_must_be_objects(self, summary, match):
        with pytest.raises(wire.WireFormatError, match=match):
            wire.result_from_ndjson(
                HEADER + b'{"summary":' + summary + b'}\n')

    @pytest.mark.parametrize("stream,match", [
        (HEADER + HEADER + SUMMARY, "frame 2: a second header frame"),
        (HEADER + SUMMARY + b'{"rows":[]}\n',
         "frame 3: data after the summary frame"),
        (SUMMARY, "frame 1: summary frame before the header"),
        (HEADER + b'{"rows": [[1, 2]\n' + SUMMARY, "frame 2: not JSON"),
        (HEADER + b'{"cells": []}\n' + SUMMARY,
         "frame 2: unrecognized frame"),
        (HEADER + b'\xff\xfe\n' + SUMMARY, "frame 2: not JSON"),
        (HEADER + b'[' * 100_000 + b'\n' + SUMMARY, "frame 2: not JSON"),
        (b'{"wire_version":2,"schema_version":7,"columns":[]}\n'
         + SUMMARY, "result schema_version 7"),
    ])
    def test_out_of_order_and_undecodable_frames(self, stream, match):
        with pytest.raises(wire.WireFormatError, match=match):
            wire.result_from_ndjson(stream)

    @pytest.mark.parametrize("nest", [b"[%s]", b'{"k":%s}'])
    def test_cell_depth_is_bounded(self, nest):
        def stream(depth):
            cell = b"1"
            for _ in range(depth):
                cell = nest % cell
            return HEADER + b'{"rows":[[1,' + cell + b']]}\n' + SUMMARY

        assert len(wire.result_from_ndjson(stream(MAX_CELL_DEPTH))) == 1
        # the bound, not the interpreter's recursion limit, refuses it,
        # so the refusal is the same on every Python version
        for depth in (MAX_CELL_DEPTH + 1, 600):
            with pytest.raises(wire.WireFormatError,
                               match=f"frame 2: result cell nested "
                                     f"deeper than {MAX_CELL_DEPTH}"):
                wire.result_from_ndjson(stream(depth))

    @pytest.mark.parametrize("cell", [
        b'{"@path": 5}', b'{"@path": {"nodes": [1]}}',
        b'{"@path": {"nodes": 1, "edges": []}}'])
    def test_malformed_path_cell(self, cell):
        with pytest.raises(wire.WireFormatError, match="@path"):
            wire.result_from_ndjson(
                HEADER + b'{"rows":[[1,' + cell + b']]}\n' + SUMMARY)

    @pytest.mark.parametrize("profile", [
        b'{}', b'{"name": "x", "children": [5]}',
        b'{"name": "x", "args": 5}', b'{"name": "x", "args": "ab"}'])
    def test_malformed_profile_tree(self, profile):
        with pytest.raises(wire.WireFormatError,
                           match="frame 2: malformed profile"):
            wire.result_from_ndjson(
                HEADER + b'{"summary":{"stats":{},"profile":'
                + profile + b'}}\n')

    @pytest.mark.parametrize("depth", [600, 1000, 100_000])
    def test_deep_profile_tree_is_a_wire_error(self, depth):
        # json or the tree decoder gives out first, depending on the
        # Python version; either way it is a WireFormatError
        profile = (b'{"name":"x","children":[' * depth + b'{"name":"y"}'
                   + b"]}" * depth)
        with pytest.raises(wire.WireFormatError, match="frame 2: "):
            wire.result_from_ndjson(
                HEADER + b'{"summary":{"stats":{},"profile":'
                + profile + b'}}\n')


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

    @pytest.mark.parametrize("payload", [
        5, "boom", None, [1],
        {"type": 5, "message": "m"},
        {"type": "QueryTimeoutError", "seconds": "soon"},
        {"type": "QueryError", "message": {"nested": 1}},
    ])
    def test_malformed_error_payload_stays_typed(self, payload):
        rebuilt = wire.exception_from_dict(payload)
        assert isinstance(rebuilt, errors.FrappeError)
        with pytest.raises(errors.FrappeError):
            wire.result_from_ndjson(
                json.dumps({"error": payload}).encode())

    def test_error_body_is_versioned_json(self):
        body = json.loads(wire.error_body(errors.QueryError("no")))
        assert body["schema_version"] == wire.WIRE_SCHEMA_VERSION
        assert body["error"]["type"] == "QueryError"
