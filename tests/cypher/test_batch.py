"""Vectorized batch execution: RowBatch, mode selection, parity.

The deeper row-vs-batch equivalence coverage lives in
tests/cypher/test_batch_equivalence.py (property-based); this file
pins the batch machinery itself — RowBatch/BatchRow mechanics, the
auto/batch/rows mode choice at engine and per-query level, the
fallback path for clauses without a batch kernel, and the ``batches``
column PROFILE grows under batch execution.
"""

import pytest

from repro.cypher import (CypherEngine, DEFAULT_MORSEL_SIZE, QueryOptions,
                          RowBatch, batch_supported, parse)
from repro.cypher.batch import BatchRow
from repro.cypher.result import EdgeRef, NodeRef, PathValue
from repro.graphdb import PropertyGraph


@pytest.fixture
def graph():
    g = PropertyGraph()
    functions = [g.add_node("function", short_name=f"fn{index}",
                            type="function", size=index % 3)
                 for index in range(12)]
    for index, source in enumerate(functions):
        g.add_edge(source, functions[(index + 1) % len(functions)],
                   "calls")
        g.add_edge(source, functions[(index + 5) % len(functions)],
                   "calls")
    g.add_node("file", path="a.c")
    return g


@pytest.fixture
def engine(graph):
    return CypherEngine(graph)


# --------------------------------------------------------------------------
# RowBatch / BatchRow mechanics
# --------------------------------------------------------------------------

class TestRowBatch:
    def test_unit_batch_is_one_empty_row(self):
        unit = RowBatch.unit()
        assert unit.count == 1
        assert dict(unit.row_view(0)) == {}

    def test_row_view_reads_columns(self):
        batch = RowBatch({"a": 0, "b": 1}, [[1, 2], ["x", "y"]], 2)
        view = batch.row_view(1)
        assert view["a"] == 2
        assert view.get("b") == "y"
        assert view.get("missing", "default") == "default"
        assert "a" in view and "missing" not in view
        assert dict(view) == {"a": 2, "b": "y"}
        assert len(view) == 2

    def test_row_view_keyerror(self):
        batch = RowBatch({"a": 0}, [[1]], 1)
        with pytest.raises(KeyError):
            batch.row_view(0)["nope"]

    def test_views_iterates_all_rows(self):
        batch = RowBatch({"a": 0}, [[10, 20, 30]], 3)
        assert [view["a"] for view in batch.views()] == [10, 20, 30]

    def test_row_values_pads_to_width(self):
        batch = RowBatch({"a": 0}, [[7]], 1)
        assert batch.row_values(0) == [7]
        assert batch.row_values(0, width=3) == [7, None, None]

    def test_batch_row_is_a_mapping(self):
        view = RowBatch({"a": 0}, [[1]], 1).row_view(0)
        assert isinstance(view, BatchRow)
        merged = {**view, "b": 2}
        assert merged == {"a": 1, "b": 2}


# --------------------------------------------------------------------------
# batch_supported / mode selection
# --------------------------------------------------------------------------

class TestModeSelection:
    def test_simple_query_is_batch_supported(self):
        assert batch_supported(parse(
            "MATCH (n:function) WHERE n.size > 0 "
            "RETURN n.short_name ORDER BY n.short_name LIMIT 5"))

    @pytest.mark.parametrize("text", [
        "MATCH (a:function) OPTIONAL MATCH (a)-[:calls]->(b) RETURN b",
        "MATCH (a:function), (b:file) RETURN a, b",
        "MATCH p = shortestPath((a:function)-[:calls*]->(b:function)) "
        "RETURN p",
    ])
    def test_unsupported_clauses_fall_back(self, text):
        assert not batch_supported(parse(text))

    def test_auto_mode_routes_tiny_scan_to_rows(self, engine):
        # Cost-based routing: the fixture graph has 12 function nodes,
        # well under the row-mode source threshold, so auto picks the
        # generator pipeline even though every clause has a batch
        # kernel.  Forcing batch still works.
        result = engine.run("MATCH (n:function) RETURN count(n)")
        assert result.stats.execution_mode == "rows"
        forced = engine.run("MATCH (n:function) RETURN count(n)",
                            options=QueryOptions(execution_mode="batch"))
        assert forced.stats.execution_mode == "batch"
        assert forced.rows == result.rows

    def test_auto_mode_picks_batch_for_var_length(self, engine):
        # Var-length traversal is where the vectorized engine wins;
        # auto must keep routing it to batch regardless of source size.
        result = engine.run(
            "MATCH (a:function)-[:calls*]->(b) RETURN count(distinct b)")
        assert result.stats.execution_mode == "batch"

    def test_auto_mode_picks_rows_when_not_supported(self, engine):
        result = engine.run(
            "MATCH (a:function) OPTIONAL MATCH (a)-[:zz]->(b) "
            "RETURN count(b)")
        assert result.stats.execution_mode == "rows"

    def test_engine_level_rows_mode(self, graph):
        engine = CypherEngine(graph, execution_mode="rows")
        result = engine.run("MATCH (n:function) RETURN count(n)")
        assert result.stats.execution_mode == "rows"

    def test_query_options_override_engine_mode(self, graph):
        engine = CypherEngine(graph, execution_mode="rows")
        result = engine.run(
            "MATCH (n:function) RETURN count(n)",
            options=QueryOptions(execution_mode="batch"))
        assert result.stats.execution_mode == "batch"

    def test_forced_batch_runs_fallback_clauses(self, engine):
        # OPTIONAL MATCH has no batch kernel; forcing batch mode must
        # still produce row-mode results via the fallback path
        text = ("MATCH (a:function) OPTIONAL MATCH (a)-[:calls]->(b) "
                "RETURN a.short_name, b.short_name "
                "ORDER BY a.short_name, b.short_name")
        forced = engine.run(text,
                            options=QueryOptions(execution_mode="batch"))
        rows = engine.run(text,
                          options=QueryOptions(execution_mode="rows"))
        assert forced.stats.execution_mode == "batch"
        assert forced.rows == rows.rows

    def test_invalid_engine_mode_rejected(self, graph):
        with pytest.raises(ValueError):
            CypherEngine(graph, execution_mode="columnar")

    def test_invalid_option_mode_rejected(self):
        with pytest.raises(ValueError):
            QueryOptions(execution_mode="columnar")
        with pytest.raises(ValueError):
            QueryOptions(morsel_size=0)


# --------------------------------------------------------------------------
# Cost-based auto routing (prefer_rows)
# --------------------------------------------------------------------------

class TestAutoRouting:
    """Pins the auto-mode cost decision from ISSUE 8 satellite 1:
    short pipelines (the Table 5 debugging shape, 0.90x under batch)
    route to rows; wide scans and traversals keep the batch engine."""

    @pytest.fixture
    def wide_graph(self):
        g = PropertyGraph()
        nodes = [g.add_node("function", short_name=f"fn{i}",
                            type="function") for i in range(200)]
        for index, source in enumerate(nodes):
            g.add_edge(source, nodes[(index + 1) % len(nodes)], "calls")
        return g

    def test_debugging_shape_routes_to_rows(self, engine):
        # START seeds from index points with a cartesian product of a
        # couple of rows — the per-morsel setup never amortizes.
        result = engine.run(
            "START a=node:node_auto_index('short_name: fn1'), "
            "b=node:node_auto_index('short_name: fn2') "
            "MATCH a -[r:calls]-> c RETURN b, c")
        assert result.stats.execution_mode == "rows"

    def test_wide_scan_routes_to_batch(self, wide_graph):
        engine = CypherEngine(wide_graph)
        result = engine.run(
            "MATCH (n:function) WHERE n.short_name <> 'fn0' "
            "RETURN count(n)")
        assert result.stats.execution_mode == "batch"

    def test_prefer_rows_unit(self, graph, wide_graph):
        from repro.cypher.planner import prefer_rows
        from repro.graphdb.snapshot import pin_view
        tiny, wide = pin_view(graph), pin_view(wide_graph)
        assert prefer_rows(parse("MATCH (n:function) RETURN n"), tiny)
        assert not prefer_rows(parse("MATCH (n:function) RETURN n"),
                               wide)
        # var-length always goes to batch, even on a tiny source
        assert not prefer_rows(
            parse("MATCH (a:function)-[:calls*]->(b) RETURN b"), tiny)
        # explicit node ids: product under/over the threshold
        assert prefer_rows(parse("START n=node(1, 2, 3) RETURN n"),
                           tiny)
        assert not prefer_rows(
            parse("START a=node(%s), b=node(%s) RETURN a, b"
                  % (", ".join(map(str, range(9))),
                     ", ".join(map(str, range(9))))), tiny)

    def test_route_decision_is_memoized_per_epoch(self, engine):
        text = "MATCH (n:function) RETURN count(n)"
        first = engine.run(text)
        second = engine.run(text)
        assert first.stats.execution_mode == "rows"
        assert second.stats.execution_mode == "rows"


# --------------------------------------------------------------------------
# Morsel sizing
# --------------------------------------------------------------------------

class TestMorselSize:
    def test_default_morsel_size(self, engine):
        assert engine.morsel_size == DEFAULT_MORSEL_SIZE

    def test_results_independent_of_morsel_size(self, engine):
        text = ("MATCH (a:function)-[:calls]->(b:function) "
                "RETURN a.short_name, b.short_name "
                "ORDER BY a.short_name, b.short_name")
        baseline = engine.run(
            text, options=QueryOptions(execution_mode="rows"))
        for morsel_size in (1, 2, 7, 4096):
            result = engine.run(text, options=QueryOptions(
                execution_mode="batch", morsel_size=morsel_size))
            assert result.rows == baseline.rows, morsel_size

    def test_morsel_size_bounds_batch_count(self, engine):
        result = engine.run(
            "PROFILE MATCH (n:function) RETURN n.short_name",
            options=QueryOptions(execution_mode="batch",
                                 morsel_size=4))
        match = result.profile.find_one("Match")
        # 12 function nodes in morsels of 4 -> exactly 3 batches
        assert match.batches == 3
        assert match.rows == 12


# --------------------------------------------------------------------------
# PROFILE integration
# --------------------------------------------------------------------------

class TestBatchProfile:
    def test_batches_column_present_in_batch_mode(self, engine):
        result = engine.run(
            "PROFILE MATCH (n:function) WHERE n.size > 0 "
            "RETURN n.short_name",
            options=QueryOptions(execution_mode="batch"))
        assert result.stats.execution_mode == "batch"
        assert "batches=" in result.profile.pretty()

    def test_batches_column_absent_in_row_mode(self, engine):
        result = engine.run(
            "PROFILE MATCH (n:function) RETURN n.short_name",
            options=QueryOptions(execution_mode="rows"))
        assert "batches=" not in result.profile.pretty()

    def test_db_hit_parity_with_row_mode(self, engine):
        text = ("PROFILE MATCH (a:function)-[:calls]->(b:function) "
                "WHERE b.size = 1 RETURN a.short_name, count(b)")
        batch = engine.run(text,
                           options=QueryOptions(execution_mode="batch"))
        rows = engine.run(text,
                          options=QueryOptions(execution_mode="rows"))
        assert batch.rows == rows.rows
        assert batch.profile.total_db_hits() == \
            rows.profile.total_db_hits()
        assert batch.stats.db_hits == batch.profile.total_db_hits()

    def test_operator_tree_shape_matches_row_mode(self, engine):
        text = ("PROFILE MATCH (a:function)-[:calls]->(b) "
                "RETURN DISTINCT a.short_name ORDER BY a.short_name "
                "SKIP 1 LIMIT 3")
        batch = engine.run(text,
                           options=QueryOptions(execution_mode="batch"))
        rows = engine.run(text,
                          options=QueryOptions(execution_mode="rows"))
        assert batch.rows == rows.rows
        assert [op.name for op in batch.profile.operators()] == \
            [op.name for op in rows.profile.operators()]
        # ORDER BY + LIMIT runs as a bounded top-K heap in batch mode:
        # Sort/Skip report only the skip+limit rows actually retained,
        # while row mode sorts (and then skips through) everything
        assert batch.profile.find_one("Sort").rows == 4
        assert rows.profile.find_one("Sort").rows == 12

    def test_operator_rows_match_without_limit(self, engine):
        text = ("PROFILE MATCH (a:function)-[:calls]->(b) "
                "RETURN DISTINCT a.short_name ORDER BY a.short_name "
                "SKIP 1")
        batch = engine.run(text,
                           options=QueryOptions(execution_mode="batch"))
        rows = engine.run(text,
                          options=QueryOptions(execution_mode="rows"))
        assert batch.rows == rows.rows
        assert [(op.name, op.rows)
                for op in batch.profile.operators()] == \
            [(op.name, op.rows) for op in rows.profile.operators()]


# --------------------------------------------------------------------------
# DISTINCT and grouping over awkward cells
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cells():
    """Items whose ``v`` mixes equal-but-unlike scalars, nulls (absent
    keys) and lists, an item whose ``ref`` holds another node's id,
    and two nodes joined by parallel and reverse ``link`` edges."""
    g = PropertyGraph()
    values = [1, 1.0, True, None, None, [1, 2], [1, 2], [True], [1],
              "1", 2]
    items = [g.add_node("item", **({} if value is None else {"v": value}))
             for value in values]
    items.append(g.add_node("item", ref=items[0]))
    a, b = g.add_node("end"), g.add_node("end")
    edges = [g.add_edge(a, b, "link"), g.add_edge(a, b, "link"),
             g.add_edge(b, a, "link")]
    return g, items, (a, b), edges


def _hop(start, end, edge):
    return PathValue((NodeRef(start), NodeRef(end)), (EdgeRef(edge),))


#: (query, parameters, expected rows given the ``cells`` fixture); the
#: expectations are the row engine's answers — first-seen order, 1 =
#: 1.0 = true, lists compared element-wise, a node apart from its id
DISTINCT_CASES = [
    # the first list arrives after hashable rows, so hashing starts over
    ("MATCH (n:item) RETURN DISTINCT n.v", {},
     lambda items, ends, edges: [(1,), (None,), ([1, 2],), ([True],),
                                 ("1",), (2,)]),
    ("MATCH (n:item) RETURN DISTINCT coalesce(n.v, $m)",
     {"m": {"b": [1, 2], "a": 1}},
     lambda items, ends, edges: [(1,), ({"b": [1, 2], "a": 1},),
                                 ([1, 2],), ([True],), ("1",), (2,)]),
    ("MATCH (n:item) RETURN DISTINCT n.v, n.v", {},
     lambda items, ends, edges: [(1, 1), (None, None), ([1, 2], [1, 2]),
                                 ([True], [True]), ("1", "1"), (2, 2)]),
    ("MATCH (n:item) RETURN DISTINCT coalesce(n.ref, n)", {},
     lambda items, ends, edges: [(NodeRef(node),) for node in items[:-1]]
     + [(items[0],)]),
    ("MATCH p = (a:end)-[:link]->(b) RETURN DISTINCT p", {},
     lambda items, ends, edges: [(_hop(ends[0], ends[1], edges[0]),),
                                 (_hop(ends[0], ends[1], edges[1]),),
                                 (_hop(ends[1], ends[0], edges[2]),)]),
    ("MATCH p = (a:end)-[:link]->(b) RETURN DISTINCT nodes(p)", {},
     lambda items, ends, edges: [([NodeRef(ends[0]), NodeRef(ends[1])],),
                                 ([NodeRef(ends[1]), NodeRef(ends[0])],)]),
    ("MATCH (n:item) RETURN n.v, count(*)", {},
     lambda items, ends, edges: [(1, 3), (None, 3), ([1, 2], 2),
                                 ([True], 2), ("1", 1), (2, 1)]),
    ("MATCH (n:item) RETURN coalesce(n.v, $m), count(*), "
     "collect(id(n))", {"m": {"a": 1}},
     lambda items, ends, edges: [
         (1, 3, items[0:3]), ({"a": 1}, 3, [items[3], items[4], items[11]]),
         ([1, 2], 2, items[5:7]), ([True], 2, items[7:9]),
         ("1", 1, [items[9]]), (2, 1, [items[10]])]),
]


class TestDistinctCells:
    @pytest.mark.parametrize("mode", ["rows", "batch"])
    @pytest.mark.parametrize("text,parameters,expected", DISTINCT_CASES)
    def test_rows_and_order(self, cells, mode, text, parameters,
                            expected):
        graph, items, ends, edges = cells
        result = CypherEngine(graph).run(
            text, parameters=parameters,
            options=QueryOptions(execution_mode=mode))
        assert result.rows == expected(items, ends, edges)
