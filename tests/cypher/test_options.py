"""QueryOptions, the options= API and the positional-timeout shim."""

import pytest

from repro.core.frappe import Frappe
from repro.cypher import CypherEngine, QueryOptions
from repro.errors import QueryTimeoutError
from repro.graphdb import PropertyGraph


@pytest.fixture
def graph():
    g = PropertyGraph()
    functions = [g.add_node("function", short_name=f"fn{index}",
                            type="function") for index in range(6)]
    for source in functions:
        for target in functions:
            if source != target:
                g.add_edge(source, target, "calls")
    return g


@pytest.fixture
def engine(graph):
    return CypherEngine(graph)


class TestQueryOptions:
    def test_defaults(self):
        options = QueryOptions()
        assert options.timeout is None
        assert options.max_rows is None
        assert options.profile is False
        assert options.parameters is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            QueryOptions().timeout = 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryOptions(timeout=0)
        with pytest.raises(ValueError):
            QueryOptions(timeout=-1.0)
        with pytest.raises(ValueError):
            QueryOptions(max_rows=-1)
        QueryOptions(max_rows=0)  # zero rows is a valid cap

    def test_execution_mode_defaults_and_validation(self):
        options = QueryOptions()
        assert options.execution_mode is None  # defer to the engine
        assert options.morsel_size is None
        for mode in ("auto", "batch", "rows"):
            assert QueryOptions(execution_mode=mode).execution_mode \
                == mode
        with pytest.raises(ValueError):
            QueryOptions(execution_mode="vectorized")
        with pytest.raises(ValueError):
            QueryOptions(morsel_size=0)
        assert QueryOptions(morsel_size=1).morsel_size == 1


class TestOptionsOnRun:
    def test_plain_run_still_works(self, engine):
        result = engine.run("MATCH (n:function) RETURN n.short_name")
        assert len(result) == 6
        assert result.profile is None

    def test_max_rows_truncates(self, engine):
        result = engine.run("MATCH (n:function) RETURN n.short_name",
                            options=QueryOptions(max_rows=2))
        assert len(result) == 2
        assert result.stats.truncated
        assert result.stats.rows_produced == 2

    def test_max_rows_no_truncation_needed(self, engine):
        result = engine.run("MATCH (n:function) RETURN n.short_name",
                            options=QueryOptions(max_rows=100))
        assert len(result) == 6
        assert not result.stats.truncated

    def test_profile_option(self, engine):
        result = engine.run("MATCH (n:function) RETURN n",
                            options=QueryOptions(profile=True))
        assert result.profile is not None
        assert result.profile.name == "Query"

    def test_parameters_via_options(self, engine):
        result = engine.run(
            "MATCH (n:function) WHERE n.short_name = $name "
            "RETURN n.short_name",
            options=QueryOptions(parameters={"name": "fn3"}))
        assert result.rows == [("fn3",)]

    def test_explicit_parameters_beat_options(self, engine):
        result = engine.run(
            "MATCH (n:function) WHERE n.short_name = $name "
            "RETURN n.short_name",
            {"name": "fn1"},
            options=QueryOptions(parameters={"name": "fn3"}))
        assert result.rows == [("fn1",)]

    def test_options_timeout_enforced(self, engine):
        with pytest.raises(QueryTimeoutError):
            engine.run("MATCH n -[:calls*]-> m RETURN count(*)",
                       options=QueryOptions(timeout=1e-9))

    def test_explicit_timeout_beats_options(self, engine):
        # the generous keyword timeout must win over the tiny option
        result = engine.run("MATCH (n:function) RETURN n", timeout=60.0,
                            options=QueryOptions(timeout=1e-9))
        assert len(result) == 6


class TestPositionalTimeoutIsGone:
    """``timeout=`` / ``options=`` are the only spellings."""

    def test_engine_run_rejects_positional_timeout(self, engine):
        with pytest.raises(TypeError):
            engine.run("MATCH (n:function) RETURN n", None, 60.0)

    def test_frappe_query_rejects_positional_timeout(self, graph):
        with pytest.raises(TypeError):
            Frappe(graph).query("MATCH (n:function) RETURN n", None,
                                60.0)


class TestFrappeOptions:
    def test_options_flow_through_facade(self, graph):
        frappe = Frappe(graph)
        result = frappe.query(
            "MATCH (n:function) RETURN n.short_name",
            options=QueryOptions(max_rows=3, profile=True))
        assert len(result) == 3
        assert result.stats.truncated
        assert result.profile is not None

    def test_execution_mode_flows_through_facade(self, graph):
        frappe = Frappe(graph, execution_mode="rows")
        text = "MATCH (n:function) RETURN count(n)"
        assert frappe.query(text).stats.execution_mode == "rows"
        forced = frappe.query(
            text, options=QueryOptions(execution_mode="batch",
                                       morsel_size=2))
        assert forced.stats.execution_mode == "batch"
