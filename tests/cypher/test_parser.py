"""Cypher parser: clause structure, patterns, expressions."""

import pytest

from repro.cypher import ast, parse
from repro.cypher.parser import MAX_NESTING_DEPTH
from repro.errors import CypherSyntaxError


class TestStartClause:
    def test_index_start(self):
        query = parse("START n=node:node_auto_index('short_name: x') "
                      "RETURN n")
        start = query.clauses[0]
        assert isinstance(start, ast.Start)
        point = start.points[0]
        assert isinstance(point, ast.IndexStartPoint)
        assert point.variable == "n"
        assert point.index_name == "node_auto_index"
        assert point.query == "short_name: x"

    def test_multiple_points(self):
        query = parse(
            "START a=node:node_auto_index('x: 1'), b=node(3, 4) RETURN a")
        start = query.clauses[0]
        assert len(start.points) == 2
        assert isinstance(start.points[1], ast.NodeIdStartPoint)
        assert start.points[1].ids == (3, 4)

    def test_all_nodes_start(self):
        query = parse("START n=node(*) RETURN n")
        assert query.clauses[0].points[0].all_nodes

    def test_rejects_relationship_start(self):
        with pytest.raises(CypherSyntaxError):
            parse("START r=rel:index('x') RETURN r")


class TestMatchPatterns:
    def _pattern(self, text):
        query = parse(f"MATCH {text} RETURN 1")
        return query.clauses[0].patterns[0]

    def test_bare_identifier_nodes(self):
        pattern = self._pattern("a -[:calls]-> b")
        assert pattern.nodes[0].variable == "a"
        assert pattern.nodes[1].variable == "b"
        assert pattern.rels[0].types == ("calls",)
        assert pattern.rels[0].direction == "out"

    def test_parenthesized_nodes_with_labels(self):
        pattern = self._pattern("(n:container:symbol{name: 'foo'})")
        node = pattern.nodes[0]
        assert node.variable == "n"
        assert node.labels == ("container", "symbol")
        assert node.properties[0][0] == "name"

    def test_anonymous_property_node(self):
        pattern = self._pattern("a -[:writes]-> ({SHORT_NAME: 'cmd'})")
        node = pattern.nodes[1]
        assert node.variable is None
        assert node.properties == (("short_name", ast.Literal("cmd")),)

    def test_incoming_direction(self):
        pattern = self._pattern("a <-[:calls]- b")
        assert pattern.rels[0].direction == "in"

    def test_undirected(self):
        pattern = self._pattern("a -[:calls]- b")
        assert pattern.rels[0].direction == "both"

    def test_bare_arrows(self):
        assert self._pattern("a --> b").rels[0].direction == "out"
        assert self._pattern("a <-- b").rels[0].direction == "in"
        assert self._pattern("a -- b").rels[0].direction == "both"

    def test_multi_type_relationship(self):
        pattern = self._pattern("m -[:compiled_from|linked_from*]-> f")
        rel = pattern.rels[0]
        assert rel.types == ("compiled_from", "linked_from")
        assert rel.var_length
        assert (rel.min_hops, rel.max_hops) == (1, None)

    def test_pipe_with_colons(self):
        pattern = self._pattern("a -[:x|:y]-> b")
        assert pattern.rels[0].types == ("x", "y")

    def test_relationship_variable_and_props(self):
        pattern = self._pattern("a -[r:calls{use_start_line: 236}]-> b")
        rel = pattern.rels[0]
        assert rel.variable == "r"
        assert rel.properties == (("use_start_line", ast.Literal(236)),)

    @pytest.mark.parametrize("spec,expected", [
        ("*", (1, None)),
        ("*2", (2, 2)),
        ("*1..3", (1, 3)),
        ("*..4", (1, 4)),
        ("*2..", (2, None)),
    ])
    def test_hop_ranges(self, spec, expected):
        pattern = self._pattern(f"a -[:t{spec}]-> b")
        rel = pattern.rels[0]
        assert (rel.min_hops, rel.max_hops) == expected

    def test_chain(self):
        pattern = self._pattern(
            "writer -[w:writes_member]-> ({short_name:'cmd'}) "
            "<-[:contains]- b")
        assert len(pattern.nodes) == 3
        assert len(pattern.rels) == 2
        assert pattern.rels[1].direction == "in"

    def test_comma_separated_patterns(self):
        query = parse("MATCH a --> b, c --> d RETURN a")
        assert len(query.clauses[0].patterns) == 2

    def test_keys_and_types_lowercased(self):
        pattern = self._pattern("(N:Field{SHORT_NAME: 'x'}) -[:CALLS]-> m")
        assert pattern.nodes[0].labels == ("field",)
        assert pattern.nodes[0].properties[0][0] == "short_name"
        assert pattern.rels[0].types == ("calls",)

    def test_conflicting_arrows_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH a <-[:t]-> b RETURN a")


class TestExpressions:
    def _where(self, text):
        query = parse(f"MATCH n WHERE {text} RETURN n")
        return query.clauses[1].predicate

    def test_comparison_chain(self):
        predicate = self._where("r.use_start_line >= s.use_start_line")
        assert isinstance(predicate, ast.Binary)
        assert predicate.op == ">="
        assert isinstance(predicate.left, ast.PropertyAccess)

    def test_property_access_lowercased(self):
        predicate = self._where("n.USE_START_LINE = 1")
        assert predicate.left.key == "use_start_line"

    def test_boolean_precedence(self):
        predicate = self._where("a.x = 1 OR b.y = 2 AND c.z = 3")
        assert predicate.op == "or"
        assert predicate.right.op == "and"

    def test_not(self):
        predicate = self._where("NOT n.x = 1")
        assert isinstance(predicate, ast.Unary)
        assert predicate.op == "not"

    def test_arithmetic_precedence(self):
        predicate = self._where("n.x = 1 + 2 * 3")
        addition = predicate.right
        assert addition.op == "+"
        assert addition.right.op == "*"

    def test_pattern_predicate(self):
        predicate = self._where("direct -[:calls*]-> writer")
        assert isinstance(predicate, ast.PatternPredicate)
        assert predicate.pattern.rels[0].var_length

    def test_pattern_predicate_parenthesized(self):
        predicate = self._where(
            "(n) <-[{name_start_line: 104}]- ()")
        assert isinstance(predicate, ast.PatternPredicate)
        assert predicate.pattern.rels[0].direction == "in"

    def test_pattern_predicate_in_conjunction(self):
        predicate = self._where("n.x >= 1 AND direct -[:calls*]-> writer")
        assert predicate.op == "and"
        assert isinstance(predicate.right, ast.PatternPredicate)

    def test_is_null(self):
        predicate = self._where("n.x IS NULL")
        assert isinstance(predicate, ast.FunctionCall)
        assert predicate.name == "isnull"

    def test_is_not_null(self):
        predicate = self._where("n.x IS NOT NULL")
        assert isinstance(predicate, ast.Unary)

    def test_literals(self):
        predicate = self._where("n.a = true AND n.b = null")
        assert predicate.left.right.value is True
        assert predicate.right.right.value is None

    def test_parameter(self):
        predicate = self._where("n.x = $limit")
        assert isinstance(predicate.right, ast.Parameter)

    def test_function_call(self):
        query = parse("MATCH n RETURN labels(n), id(n)")
        items = query.clauses[1].items
        assert items[0].expression.name == "labels"

    def test_list_literal(self):
        query = parse("MATCH n RETURN [1, 2, 3]")
        expression = query.clauses[1].items[0].expression
        assert expression.name == "__list__"
        assert len(expression.args) == 3

    def test_subtraction_still_works(self):
        predicate = self._where("n.x - 1 = 2")
        assert predicate.left.op == "-"


class TestReturnAndWith:
    def test_distinct(self):
        query = parse("MATCH n RETURN distinct n")
        assert query.clauses[1].distinct

    def test_aliases(self):
        query = parse("MATCH n RETURN n.x AS value")
        assert query.clauses[1].items[0].alias == "value"

    def test_star(self):
        query = parse("MATCH n RETURN *")
        assert query.clauses[1].star

    def test_order_skip_limit(self):
        query = parse("MATCH n RETURN n ORDER BY n.x DESC, n.y SKIP 1 "
                      "LIMIT 5")
        ret = query.clauses[1]
        assert len(ret.order_by) == 2
        assert ret.order_by[0].ascending is False
        assert ret.order_by[1].ascending is True
        assert ret.skip == ast.Literal(1)
        assert ret.limit == ast.Literal(5)

    def test_with_distinct_then_match(self):
        query = parse("MATCH m --> f WITH distinct f MATCH f --> n "
                      "RETURN n")
        assert isinstance(query.clauses[1], ast.With)
        assert query.clauses[1].distinct

    def test_with_where(self):
        query = parse("MATCH n WITH n.x AS x WHERE x > 3 RETURN x")
        with_clause = query.clauses[1]
        assert with_clause.where is not None

    def test_count_star(self):
        query = parse("MATCH n RETURN count(*)")
        assert isinstance(query.clauses[1].items[0].expression,
                          ast.CountStar)

    def test_count_distinct(self):
        query = parse("MATCH n RETURN count(distinct n.x)")
        call = query.clauses[1].items[0].expression
        assert call.distinct


class TestQueryValidation:
    def test_must_end_with_return_or_with(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH n")

    def test_return_must_be_last(self):
        with pytest.raises(CypherSyntaxError):
            parse("RETURN 1 MATCH n RETURN n")

    def test_empty_query(self):
        with pytest.raises(CypherSyntaxError):
            parse("   ")

    def test_optional_match(self):
        query = parse("MATCH n OPTIONAL MATCH n --> m RETURN m")
        assert query.clauses[1].optional

    def test_trailing_garbage(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH n RETURN n n n")


class TestPaperQueriesParse:
    """Every query printed in the paper parses."""

    def test_figure3(self):
        parse("START m=node:node_auto_index('short_name: wakeup.elf') "
              "MATCH m -[:compiled_from|linked_from*]-> f "
              "WITH distinct f "
              "MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) "
              "RETURN n")

    def test_figure4(self):
        parse("START n=node:node_auto_index('short_name: id') "
              "WHERE (n) <-[{NAME_FILE_ID: 1423, NAME_START_LINE: 104, "
              "NAME_START_COLUMN: 16}]- () RETURN n")

    def test_figure5(self):
        parse("""
START from=node:node_auto_index('short_name: sr_media_change'),
 to=node:node_auto_index('short_name: get_sectorsize'),
 b=node:node_auto_index('short_name: packet_command')
MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) <-[:contains]- b
WITH to, from, writer, write
MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to
WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> writer
RETURN distinct writer, write.use_start_line""")

    def test_figure6(self):
        parse("START n=node:node_auto_index('short_name: pci_read_bases') "
              "MATCH n -[:calls*]-> m RETURN distinct m")

    def test_table6_cypher2(self):
        query = parse('MATCH (n:container:symbol{name: "foo"}) RETURN n')
        node = query.clauses[0].patterns[0].nodes[0]
        assert node.labels == ("container", "symbol")


def _nested_list(levels):
    """``RETURN`` of a list literal whose expression is *levels* deep
    (the top-level expression is level 1)."""
    brackets = levels - 1
    return "RETURN " + "[" * brackets + "1" + "]" * brackets


class TestNestingBound:
    def test_at_the_bound(self):
        query = parse(_nested_list(MAX_NESTING_DEPTH))
        value = query.clauses[0].items[0].expression
        for _ in range(MAX_NESTING_DEPTH - 1):
            value = value.args[0]
        assert value == ast.Literal(1)

    @pytest.mark.parametrize("text", [
        _nested_list(MAX_NESTING_DEPTH + 1),
        _nested_list(1000),
        "RETURN " + "(" * 1000 + "1" + ")" * 1000,
        "RETURN " + "NOT " * 1000 + "true",
        "RETURN " + "-" * 1000 + "1",
        "RETURN " + "size(" * 1000 + "1" + ")" * 1000,
        "MATCH (n {k: " + "[" * 1000 + "1" + "]" * 1000 + "}) RETURN n",
    ], ids=["bound+1", "list-1000", "parens-1000", "not-1000",
            "sign-1000", "call-1000", "property-map-1000"])
    def test_past_the_bound_is_a_positioned_syntax_error(self, text):
        with pytest.raises(CypherSyntaxError,
                           match="nested deeper than") as raised:
            parse(text)
        assert raised.value.line == 1
        assert raised.value.column > 1
