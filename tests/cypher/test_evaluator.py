"""Expression evaluation and null semantics."""

import pytest

from repro.cypher import parse
from repro.cypher.evaluator import ExecutionContext, evaluate
from repro.cypher.result import EdgeRef, NodeRef
from repro.errors import CypherSemanticError, QueryTimeoutError
from repro.graphdb import PropertyGraph


@pytest.fixture
def ctx():
    g = PropertyGraph()
    g.add_node("function", short_name="f", value=10)
    g.add_node("global", short_name="g")
    g.add_edge(0, 1, "writes", use_start_line=3)
    return ExecutionContext(g, parameters={"p": 42})


def expr(text):
    """Parse an expression by wrapping it in a dummy query."""
    query = parse(f"MATCH x WHERE {text} RETURN x")
    return query.clauses[1].predicate


def ev(text, ctx, row=None):
    return evaluate(expr(text), row or {}, ctx)


class TestLiteralsAndArithmetic:
    def test_arithmetic(self, ctx):
        assert ev("1 + 2 * 3 = 7", ctx) is True
        assert ev("2 ^ 10 = 1024", ctx) is True
        assert ev("7 % 3 = 1", ctx) is True

    def test_integer_division_truncates_toward_zero(self, ctx):
        assert ev("7 / 2 = 3", ctx) is True
        assert ev("0 - 7 / 2 = 0 - 3", ctx) is True

    def test_division_by_zero(self, ctx):
        with pytest.raises(CypherSemanticError):
            ev("1 / 0 = 1", ctx)

    def test_unary_minus(self, ctx):
        assert ev("-3 < 0", ctx) is True

    def test_string_concatenation(self, ctx):
        assert ev("'a' + 'b' = 'ab'", ctx) is True

    def test_regex_match(self, ctx):
        assert ev("'schedule' =~ 'sch.*'", ctx) is True
        assert ev("'schedule' =~ 'x.*'", ctx) is False


class TestNullSemantics:
    def test_comparison_with_null_is_null(self, ctx):
        assert ev("null = 1", ctx) is None
        assert ev("null <> 1", ctx) is None
        assert ev("null < 1", ctx) is None

    def test_kleene_and(self, ctx):
        assert ev("false AND null", ctx) is False
        assert ev("true AND null", ctx) is None

    def test_kleene_or(self, ctx):
        assert ev("true OR null", ctx) is True
        assert ev("false OR null", ctx) is None

    def test_not_null(self, ctx):
        assert ev("NOT null", ctx) is None

    def test_xor(self, ctx):
        assert ev("true XOR false", ctx) is True
        assert ev("true XOR true", ctx) is False
        assert ev("true XOR null", ctx) is None

    def test_is_null(self, ctx):
        assert ev("null IS NULL", ctx) is True
        assert ev("1 IS NOT NULL", ctx) is True

    def test_arithmetic_with_null(self, ctx):
        assert ev("(1 + null) IS NULL", ctx) is True

    def test_incomparable_types_yield_null(self, ctx):
        assert ev("(1 < 'a') IS NULL", ctx) is True


class TestGraphAccess:
    def test_node_property(self, ctx):
        row = {"n": NodeRef(0)}
        assert evaluate(expr("n.value = 10"), row, ctx) is True

    def test_missing_property_is_null(self, ctx):
        row = {"n": NodeRef(1)}
        assert evaluate(expr("n.value IS NULL"), row, ctx) is True

    def test_edge_property(self, ctx):
        row = {"r": EdgeRef(0)}
        assert evaluate(expr("r.use_start_line = 3"), row, ctx) is True

    def test_property_of_null_is_null(self, ctx):
        row = {"n": None}
        assert evaluate(expr("n.value IS NULL"), row, ctx) is True

    def test_unknown_variable(self, ctx):
        with pytest.raises(CypherSemanticError):
            evaluate(expr("ghost.x = 1"), {}, ctx)

    def test_property_of_scalar_rejected(self, ctx):
        with pytest.raises(CypherSemanticError):
            evaluate(expr("n.x = 1"), {"n": 5}, ctx)


class TestFunctions:
    def test_id(self, ctx):
        assert evaluate(expr("id(n) = 0"), {"n": NodeRef(0)}, ctx) is True

    def test_type(self, ctx):
        assert evaluate(expr("type(r) = 'writes'"),
                        {"r": EdgeRef(0)}, ctx) is True

    def test_labels(self, ctx):
        query = parse("MATCH x WHERE labels(n) = ['function'] RETURN x")
        assert evaluate(query.clauses[1].predicate,
                        {"n": NodeRef(0)}, ctx) is True

    def test_coalesce(self, ctx):
        assert ev("coalesce(null, 3) = 3", ctx) is True

    def test_size_and_length(self, ctx):
        assert ev("size([1, 2, 3]) = 3", ctx) is True
        assert ev("length('abc') = 3", ctx) is True

    def test_string_helpers(self, ctx):
        assert ev("toUpper('ab') = 'AB'", ctx) is True
        assert ev("toLower('AB') = 'ab'", ctx) is True
        assert ev("toString(5) = '5'", ctx) is True
        assert ev("toInt('5') = 5", ctx) is True

    def test_abs(self, ctx):
        assert ev("abs(0 - 5) = 5", ctx) is True

    def test_unknown_function(self, ctx):
        with pytest.raises(CypherSemanticError):
            ev("frobnicate(1) = 1", ctx)

    def test_parameter(self, ctx):
        assert ev("$p = 42", ctx) is True

    def test_missing_parameter(self, ctx):
        with pytest.raises(CypherSemanticError):
            ev("$missing = 1", ctx)


class TestExecutionContext:
    def test_timeout_raises(self):
        g = PropertyGraph()
        ctx = ExecutionContext(g, timeout=0.0)
        with pytest.raises(QueryTimeoutError):
            for _ in range(10000):
                ctx.tick()

    def test_no_timeout_by_default(self):
        ctx = ExecutionContext(PropertyGraph())
        for _ in range(10000):
            ctx.tick()
        assert ctx.expansions == 10000

    def test_check_deadline_direct(self):
        ctx = ExecutionContext(PropertyGraph(), timeout=0.0)
        import time
        time.sleep(0.001)
        with pytest.raises(QueryTimeoutError):
            ctx.check_deadline()

    def test_non_boolean_in_logical_rejected(self, ctx):
        with pytest.raises(CypherSemanticError):
            ev("1 AND true", ctx)


class _Hits:
    """Stands in for the PROFILE operator frame: counts db-hits."""

    def __init__(self):
        self.total = 0

    def hit(self, count=1):
        self.total += count


class TestNeighborIdAccounting:
    """``neighbor_ids`` and ``neighbors`` are two reads of one logical
    adjacency access: whichever a query issues first is charged, once
    per (node, direction, types), on every kind of view."""

    @pytest.fixture
    def graph(self):
        g = PropertyGraph()
        for name in "abc":
            g.add_node("function", short_name=name)
        g.add_edge(0, 1, "calls")
        g.add_edge(0, 2, "calls")
        g.add_edge(0, 2, "reads")
        return g

    # "records": the same store read through its adjacency block and
    # relationship records alone, no CSR
    @pytest.fixture(params=["memory", "compiled", "records"])
    def view(self, request, graph, tmp_path):
        if request.param == "memory":
            yield graph
            return
        from repro.graphdb.storage import GraphStore
        from tests.graphdb.block_view import BlockView
        directory = str(tmp_path / "store")
        GraphStore.write(graph, directory)
        with GraphStore.open(directory) as store:
            yield store if request.param == "compiled" \
                else BlockView(store)

    @pytest.mark.parametrize("ids_first", [True, False])
    def test_charged_once_whichever_reads_first(self, view, ids_first):
        from repro.graphdb import Direction
        hits = _Hits()
        ctx = ExecutionContext(view, profiler=hits)
        key = (0, Direction.OUT, ("calls",))
        reads = [ctx.neighbor_ids, ctx.neighbors]
        for read in reads if ids_first else reversed(reads):
            read(*key)
            assert hits.total == 2
        assert list(ctx.neighbor_ids(*key)) == [1, 2]
        assert [n for _e, n in ctx.neighbors(*key)] == [1, 2]
        assert hits.total == 2
        # a node with no such edges still costs the one look
        assert list(ctx.neighbor_ids(1, Direction.OUT, ("calls",))) == []
        assert hits.total == 3
