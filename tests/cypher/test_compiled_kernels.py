"""Compiled columnar kernels (ISSUE 8 tentpole b).

WHERE/projection expressions are lowered to closure kernels at prepare
time and cached on the planned AST (which the plan cache owns), so a
cached plan never recompiles.  The kernels must be bit-for-bit
observationally identical to the interpreted ``evaluate()`` the row
engine runs — rows, order, three-valued WHERE semantics, error types
and profiled db-hit totals — so every case compares batch execution
against ``execution_mode="rows"``.
"""

import pytest

from repro.cypher import CypherEngine, QueryOptions, parse
from repro.cypher.evaluator import (ExecutionContext, compile_expr,
                                    evaluate, precompile_query)
from repro.errors import CypherSemanticError
from repro.graphdb import PropertyGraph


@pytest.fixture
def graph():
    g = PropertyGraph()
    sizes = [0, 1, 2, 3, None]
    for index in range(10):
        props = {"short_name": f"fn{index}", "type": "function"}
        size = sizes[index % len(sizes)]
        if size is not None:
            props["size"] = size
        g.add_node("function", **props)
    nodes = list(g.node_ids())
    for index, source in enumerate(nodes):
        g.add_edge(source, nodes[(index + 3) % len(nodes)], "calls",
                   use_start_line=index)
    return g


@pytest.fixture
def engine(graph):
    return CypherEngine(graph)


def _where_predicate(text):
    """The WHERE predicate AST of a parsed query."""
    query = parse(text)
    from repro.cypher import ast
    for clause in query.clauses:
        if isinstance(clause, ast.Where):
            return clause.predicate
    raise AssertionError("no WHERE clause in " + text)


WHERE_FRAGMENTS = [
    "n.size > 1",
    "n.size >= 1 AND n.size < 3",
    "n.size = 2 OR n.short_name = 'fn0'",
    "NOT n.size = 2",
    "n.size + 1 = 3",
    "n.size * 2 - 1 >= 3",
    "n.size / 2 = 1",
    "n.size % 2 = 0",
    "n.short_name =~ 'fn[0-3]'",
    "n.size IN [1, 2]",
    "n.size IS NULL",
    "n.size IS NOT NULL",
    "n.missing = 1",          # NULL comparison: row filtered, no error
    "n.size > 1 XOR n.size < 3",
]

RETURN_FRAGMENTS = [
    "n.short_name",
    "n.size + 100",
    "n.size, n.short_name",
    "id(n)",
    "coalesce(n.size, -1)",
    "n.size, count(*)",
]


def _batch_and_rows(engine, text):
    """One query under compiled batch execution and under the row
    engine (the interpreted ``evaluate()`` reference), both profiled."""
    return (engine.run(text, options=QueryOptions(
                execution_mode="batch", profile=True)),
            engine.run(text, options=QueryOptions(
                execution_mode="rows", profile=True)))


class TestKernelInterpreterParity:
    @pytest.mark.parametrize("where", WHERE_FRAGMENTS)
    def test_where_parity(self, engine, where):
        compiled, rows = _batch_and_rows(
            engine, f"MATCH (n:function) WHERE {where} "
                    "RETURN n.short_name ORDER BY n.short_name")
        assert compiled.rows == rows.rows, where
        assert compiled.stats.db_hits == rows.stats.db_hits, where

    @pytest.mark.parametrize("returns", RETURN_FRAGMENTS)
    def test_projection_parity(self, engine, returns):
        compiled, rows = _batch_and_rows(
            engine, f"MATCH (n:function) RETURN {returns}")
        assert compiled.rows == rows.rows, returns

    def test_pattern_property_parity(self, engine):
        compiled, rows = _batch_and_rows(
            engine, "MATCH (n:function {size: 2})-[r:calls]->(m) "
                    "RETURN n.short_name, m.short_name "
                    "ORDER BY n.short_name, m.short_name")
        assert compiled.rows == rows.rows
        assert compiled.stats.db_hits == rows.stats.db_hits

    def test_edge_property_parity(self, engine):
        compiled, rows = _batch_and_rows(
            engine, "MATCH (n)-[r:calls {use_start_line: 4}]->(m) "
                    "RETURN n.short_name, m.short_name")
        assert compiled.rows == rows.rows
        assert compiled.stats.db_hits == rows.stats.db_hits

    def test_missing_parameter_error_parity(self, engine):
        text = "MATCH (n:function) WHERE n.size = $missing RETURN n"
        for mode in ("batch", "rows"):
            with pytest.raises(CypherSemanticError):
                engine.run(text, options=QueryOptions(
                    execution_mode=mode))


class TestKernelMachinery:
    def test_kernel_caches_on_the_ast_node(self):
        predicate = _where_predicate(
            "MATCH (n) WHERE n.size > 1 RETURN n")
        assert compile_expr(predicate) is compile_expr(predicate)

    def test_precompile_query_populates_kernels(self):
        query = parse("MATCH (n:function {size: 1}) "
                      "WHERE n.size > 0 RETURN n.short_name")
        precompile_query(query)
        from repro.cypher import ast
        for clause in query.clauses:
            if isinstance(clause, ast.Where):
                assert getattr(clause.predicate, "_compiled_kernel",
                               None) is not None

    def test_kernel_matches_evaluate_directly(self, graph):
        predicate = _where_predicate(
            "MATCH (n) WHERE n.size + 1 >= 2 RETURN n")
        ctx = ExecutionContext(graph, {}, None)
        kernel = compile_expr(predicate)
        for row in ({"n": {"size": 1}}, {"n": {"size": 0}},
                    {"n": {}}):
            assert kernel(row, ctx) == evaluate(predicate, row, ctx)

    def test_engine_prepare_precompiles(self, engine):
        text = "MATCH (n:function) WHERE n.size > 1 RETURN n.size"
        prepared = engine.prepare(text)
        from repro.cypher import ast
        predicates = [clause.predicate
                      for clause in prepared.clauses
                      if isinstance(clause, ast.Where)]
        assert predicates
        assert all(getattr(p, "_compiled_kernel", None) is not None
                   for p in predicates)
