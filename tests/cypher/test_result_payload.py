"""The canonical ResultPayload: Result.to_dict / from_dict and the
QueryOptions wire form every JSON surface shares."""

import json

import pytest

from repro.core.frappe import Frappe
from repro.cypher import QueryOptions
from repro.cypher.result import (RESULT_SCHEMA_VERSION, EdgeRef,
                                 NodeRef, PathValue, QueryStats,
                                 Result, decode_value, encode_value)
from repro.errors import QueryError
from repro.graphdb import PropertyGraph


@pytest.fixture()
def frappe():
    graph = PropertyGraph()
    ids = [graph.add_node("function", short_name=name,
                          type="function")
           for name in ("alpha", "beta", "gamma")]
    graph.add_edge(ids[0], ids[1], "calls")
    graph.add_edge(ids[1], ids[2], "calls")
    with Frappe(graph) as instance:
        yield instance


class TestValueEncoding:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "name"):
            assert encode_value(value) == value
            assert decode_value(encode_value(value)) == value

    def test_node_and_edge_refs_tagged(self):
        assert encode_value(NodeRef(7)) == {"@node": 7}
        assert encode_value(EdgeRef(9)) == {"@rel": 9}
        assert decode_value({"@node": 7}) == NodeRef(7)
        assert decode_value({"@rel": 9}) == EdgeRef(9)

    def test_path_roundtrip(self):
        path = PathValue(nodes=(NodeRef(1), NodeRef(2)),
                         edges=(EdgeRef(5),))
        assert decode_value(encode_value(path)) == path

    def test_nested_collections(self):
        value = [{"node": NodeRef(1)}, [EdgeRef(2), 3]]
        assert decode_value(encode_value(value)) == value

    def test_unserializable_value_rejected(self):
        with pytest.raises(QueryError, match="serialize"):
            encode_value(object())


class TestResultRoundtrip:
    def test_scalar_result(self, frappe):
        result = frappe.query(
            "MATCH (n:function) RETURN n.short_name "
            "ORDER BY n.short_name")
        payload = result.to_dict()
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        back = Result.from_dict(json.loads(json.dumps(payload)))
        assert back.columns == result.columns
        assert back.rows == result.rows
        assert back.stats.rows_produced == result.stats.rows_produced
        assert back.stats.execution_mode == \
            result.stats.execution_mode

    def test_node_references_survive(self, frappe):
        result = frappe.query("MATCH (n:function) RETURN n LIMIT 2")
        back = Result.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert back.rows == result.rows
        assert all(isinstance(row[0], NodeRef) for row in back.rows)

    def test_profile_tree_survives(self, frappe):
        result = frappe.query(
            "MATCH (n:function) RETURN count(*)",
            options=QueryOptions(profile=True))
        back = Result.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert back.profile is not None
        assert back.profile.total_db_hits() == \
            result.profile.total_db_hits()
        assert back.profile.name == result.profile.name

    def test_empty_result(self):
        result = Result(columns=["x"], rows=[],
                        stats=QueryStats())
        back = Result.from_dict(result.to_dict())
        assert back.columns == ["x"]
        assert back.rows == []

    def test_wrong_schema_version_rejected(self, frappe):
        payload = frappe.query("MATCH (n) RETURN count(*)").to_dict()
        payload["schema_version"] = 99
        with pytest.raises(QueryError, match="schema_version"):
            Result.from_dict(payload)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(QueryError, match="schema_version"):
            Result.from_dict({"columns": [], "rows": []})


class TestOptionsWireForm:
    def test_roundtrip_non_defaults_only(self):
        options = QueryOptions(timeout=1.5, max_rows=10,
                               execution_mode="batch")
        payload = options.to_dict()
        assert set(payload) == {"timeout", "max_rows",
                                "execution_mode"}
        assert QueryOptions.from_dict(payload) == options

    def test_defaults_encode_empty(self):
        assert QueryOptions().to_dict() == {}
        assert QueryOptions.from_dict({}) == QueryOptions()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="max_row"):
            QueryOptions.from_dict({"max_row": 5})
        # a retired knob is an error, never silently ignored
        with pytest.raises(ValueError, match="parallelism"):
            QueryOptions.from_dict({"parallelism": 2})

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions.from_dict({"timeout": -2})


class TestResolve:
    def test_none_gives_defaults(self):
        assert QueryOptions.resolve(None) == QueryOptions()

    def test_explicit_keywords_win(self):
        base = QueryOptions(timeout=9.0, max_rows=5,
                            parameters={"a": 1})
        merged = QueryOptions.resolve(base, timeout=1.0,
                                      parameters={"b": 2})
        assert merged.timeout == 1.0
        assert merged.parameters == {"b": 2}
        assert merged.max_rows == 5  # untouched field carried over

    def test_profile_override(self):
        merged = QueryOptions.resolve(QueryOptions(), profile=True)
        assert merged.profile is True

    def test_original_not_mutated(self):
        base = QueryOptions(timeout=9.0)
        QueryOptions.resolve(base, timeout=1.0)
        assert base.timeout == 9.0
