"""Unit tests for the cost-based planner (repro.cypher.planner).

Covers the three planner decisions: statistics-driven anchor choice,
greedy expansion ordering, and the prepare-time rewrites (WHERE
pushdown + reachability marking with its eligibility conditions).
"""

import pytest

from repro.cypher import ast, parse
from repro.cypher.planner import (VAR_LENGTH_DEPTH_ASSUMPTION,
                                  anchor_strategy, estimate_anchor,
                                  plan_pattern, plan_query,
                                  reachability_eligible, step_fanout)
from repro.graphdb import PropertyGraph
from repro.graphdb.stats import graph_statistics_for


@pytest.fixture
def graph():
    g = PropertyGraph()
    functions = [g.add_node("function", short_name=f"fn{i}",
                            type="function") for i in range(40)]
    field = g.add_node("field", short_name="id", type="field")
    for fn in functions:
        g.add_edge(fn, field, "reads")
    for left, right in zip(functions, functions[1:]):
        g.add_edge(left, right, "calls")
    return g


def first_match(text):
    for clause in parse(text).clauses:
        if isinstance(clause, ast.Match):
            return clause
    raise AssertionError(f"no MATCH in {text!r}")


def only_rel(query):
    for clause in query.clauses:
        if isinstance(clause, ast.Match):
            (pattern,) = [p for p in clause.patterns if p.rels]
            (rel,) = pattern.rels
            return rel
    raise AssertionError


class TestAnchorChoice:
    def test_index_seek_beats_label_scan(self, graph):
        pattern = first_match(
            "MATCH (f:function) -[:calls]-> (g{short_name: 'fn7'}) "
            "RETURN f").patterns[0]
        plan = plan_pattern(pattern, set(), graph)
        assert plan.anchor == 1
        assert plan.strategy == "index-seek"
        assert plan.anchor_estimate == pytest.approx(1.0)
        # the single step expands leftwards from the anchor
        assert plan.steps == ((0, 1, True),)

    def test_bound_variable_is_preferred(self, graph):
        pattern = first_match(
            "MATCH (f:function) -[:calls]-> (g:function) RETURN g"
            ).patterns[0]
        plan = plan_pattern(pattern, {"f"}, graph)
        assert plan.anchor == 0
        assert plan.strategy == "bound"
        assert plan.anchor_estimate == pytest.approx(1.0)

    def test_label_scan_over_all_nodes(self, graph):
        pattern = first_match(
            "MATCH (f:field) -[:reads]-> (g) RETURN g").patterns[0]
        plan = plan_pattern(pattern, set(), graph)
        assert plan.anchor == 0
        assert plan.strategy == "label-scan"
        assert plan.anchor_estimate == pytest.approx(1.0)  # one field

    def test_cost_is_anchor_plus_step_rows(self, graph):
        pattern = first_match(
            "MATCH (f:function) -[:calls]-> (g) RETURN g").patterns[0]
        plan = plan_pattern(pattern, set(), graph)
        assert len(plan.step_estimates) == len(plan.steps) == 1
        assert plan.cost == pytest.approx(
            plan.anchor_estimate + sum(plan.step_estimates))


class TestEstimates:
    def test_anchor_estimates_track_statistics(self, graph):
        stats = graph_statistics_for(graph)
        node = first_match("MATCH (n:function) RETURN n"
                           ).patterns[0].nodes[0]
        strategy, _ = anchor_strategy(node, set(), ("short_name",))
        assert strategy == "label-scan"
        assert estimate_anchor(node, strategy, graph, stats) == \
            pytest.approx(40.0)
        bare = first_match("MATCH (n) RETURN n").patterns[0].nodes[0]
        strategy, _ = anchor_strategy(bare, set(), ("short_name",))
        assert strategy == "all-nodes"
        assert estimate_anchor(bare, strategy, graph, stats) == \
            pytest.approx(41.0)

    def test_index_seek_uses_seek_count(self, graph):
        stats = graph_statistics_for(graph)
        node = first_match("MATCH (n{short_name: 'fn7'}) RETURN n"
                           ).patterns[0].nodes[0]
        strategy, detail = anchor_strategy(node, set(), ("short_name",))
        assert strategy == "index-seek"
        assert estimate_anchor(node, strategy, graph, stats) == \
            pytest.approx(1.0)

    def test_step_fanout_single_hop(self, graph):
        stats = graph_statistics_for(graph)
        rel = first_match("MATCH (a) -[:calls]-> (b) RETURN b"
                          ).patterns[0].rels[0]
        assert step_fanout(rel, stats) == pytest.approx(39 / 41)
        undirected = first_match("MATCH (a) -[:calls]- (b) RETURN b"
                                 ).patterns[0].rels[0]
        assert step_fanout(undirected, stats) == \
            pytest.approx(2 * 39 / 41)

    def test_step_fanout_var_length_geometric(self, graph):
        stats = graph_statistics_for(graph)
        rel = first_match("MATCH (a) -[:calls*]-> (b) RETURN b"
                          ).patterns[0].rels[0]
        per_hop = 39 / 41
        expected = sum(per_hop ** level for level in
                       range(1, VAR_LENGTH_DEPTH_ASSUMPTION + 1))
        assert step_fanout(rel, stats) == pytest.approx(expected)

    def test_bounded_var_length_caps_depth(self, graph):
        stats = graph_statistics_for(graph)
        rel = first_match("MATCH (a) -[:calls*1..2]-> (b) RETURN b"
                          ).patterns[0].rels[0]
        per_hop = 39 / 41
        assert step_fanout(rel, stats) == \
            pytest.approx(per_hop + per_hop ** 2)


class TestPushdown:
    def test_equality_conjunct_is_copied_into_match(self):
        query, report = plan_query(parse(
            "MATCH (n:field) WHERE n.short_name = 'id' AND n.x > 1 "
            "RETURN n"))
        assert report.pushed_filters == 1
        match, where = query.clauses[0], query.clauses[1]
        node = match.patterns[0].nodes[0]
        assert ("short_name", ast.Literal("id")) in node.properties
        # WHERE stays: residual conjuncts still filter
        assert isinstance(where, ast.Where)

    def test_reversed_equality_pushes_too(self):
        query, report = plan_query(parse(
            "MATCH (n:field) WHERE 'id' = n.short_name RETURN n"))
        assert report.pushed_filters == 1

    def test_null_equality_is_not_pushed(self):
        _query, report = plan_query(parse(
            "MATCH (n:field) WHERE n.short_name = null RETURN n"))
        assert report.pushed_filters == 0

    def test_optional_match_is_not_pushed(self):
        _query, report = plan_query(parse(
            "MATCH (m) OPTIONAL MATCH (n) WHERE n.a = 'b' RETURN n"))
        assert report.pushed_filters == 0

    def test_existing_property_not_duplicated(self):
        query, report = plan_query(parse(
            "MATCH (n{short_name: 'id'}) WHERE n.short_name = 'other' "
            "RETURN n"))
        assert report.pushed_filters == 0
        node = query.clauses[0].patterns[0].nodes[0]
        assert len(node.properties) == 1

    def test_pushdown_disabled(self):
        _query, report = plan_query(parse(
            "MATCH (n:field) WHERE n.short_name = 'id' RETURN n"),
            pushdown=False)
        assert report.pushed_filters == 0


class TestReachabilityMarking:
    def test_distinct_consumer_marks_rel(self):
        query, report = plan_query(parse(
            "MATCH (n) -[:calls*]-> (m) RETURN distinct m"))
        assert report.reachability_rewrites == 1
        assert only_rel(query).reachability

    def test_non_distinct_consumer_is_not_marked(self):
        query, report = plan_query(parse(
            "MATCH (n) -[:calls*]-> (m) RETURN m"))
        assert report.reachability_rewrites == 0
        assert not only_rel(query).reachability

    def test_aggregate_blocks_marking(self):
        _query, report = plan_query(parse(
            "MATCH (n) -[:calls*]-> (m) RETURN distinct m, count(m)"))
        assert report.reachability_rewrites == 0

    def test_count_distinct_consumer_marks_rel(self):
        # count(DISTINCT m) depends on the set of m alone, so the
        # closure need not enumerate paths to answer it
        query, report = plan_query(parse(
            "START n=node:node_auto_index('short_name: pci_read_bases') "
            "MATCH n -[:calls*]-> m RETURN count(DISTINCT m)"))
        assert report.reachability_rewrites == 1
        assert only_rel(query).reachability

    @pytest.mark.parametrize("returns", [
        "RETURN count(m)",
        "RETURN count(DISTINCT m), count(*)",
        "RETURN count(DISTINCT m), collect(DISTINCT m)",
        # reads m from the group's first row, which depends on order
        "RETURN count(DISTINCT m) + m.size",
    ])
    def test_other_aggregates_block_marking(self, returns):
        query, report = plan_query(parse(
            "MATCH (n) -[:calls*]-> (m) " + returns))
        assert report.reachability_rewrites == 0
        assert not only_rel(query).reachability

    def test_bound_rel_variable_is_not_marked(self):
        query, report = plan_query(parse(
            "MATCH (n) -[r:calls*]-> (m) RETURN distinct m"))
        assert report.reachability_rewrites == 0
        assert not only_rel(query).reachability

    def test_path_variable_is_not_marked(self):
        _query, report = plan_query(parse(
            "MATCH p = (n) -[:calls*]-> (m) RETURN distinct m"))
        assert report.reachability_rewrites == 0

    def test_undirected_is_not_marked(self):
        # an undirected BFS could re-reach the source through the one
        # edge it left by, which path enumeration rejects as edge reuse
        _query, report = plan_query(parse(
            "MATCH (n) -[:calls*]- (m) RETURN distinct m"))
        assert report.reachability_rewrites == 0

    def test_min_hops_two_is_not_marked(self):
        _query, report = plan_query(parse(
            "MATCH (n) -[:calls*2..]-> (m) RETURN distinct m"))
        assert report.reachability_rewrites == 0

    def test_second_rel_in_clause_blocks_marking(self):
        _query, report = plan_query(parse(
            "MATCH (a) -[:calls*]-> (b), (c) -[:reads]-> (d) "
            "RETURN distinct b"))
        assert report.reachability_rewrites == 0

    def test_intervening_match_is_transparent(self):
        query, report = plan_query(parse(
            "MATCH (n) -[:calls*]-> (m) "
            "MATCH (m) -[:reads]-> (k) RETURN distinct k"))
        assert report.reachability_rewrites == 1
        first = query.clauses[0]
        assert first.patterns[0].rels[0].reachability

    def test_pattern_predicate_is_marked_without_distinct(self):
        # existence tests are multiplicity-insensitive, so the
        # endpoint-distinct requirement holds trivially
        query, report = plan_query(parse(
            "MATCH (n), (m) WHERE n -[:calls*]-> m RETURN n"))
        assert report.reachability_rewrites == 1
        where = [clause for clause in query.clauses
                 if isinstance(clause, ast.Where)][0]
        assert where.predicate.pattern.rels[0].reachability

    def test_shortest_path_is_not_marked(self):
        _query, report = plan_query(parse(
            "MATCH p = shortestPath((a) -[:calls*]-> (b)) "
            "RETURN distinct b"))
        assert report.reachability_rewrites == 0


class TestEligibilityHelper:
    def test_direct_call(self):
        clause = [c for c in parse(
            "MATCH (n) -[:calls*]-> (m) RETURN distinct m").clauses
            if isinstance(c, ast.Match)][0]
        assert len(reachability_eligible(clause)) == 1

    def test_fixed_length_rel_is_not_eligible(self):
        clause = [c for c in parse(
            "MATCH (n) -[:calls]-> (m) RETURN distinct m").clauses
            if isinstance(c, ast.Match)][0]
        assert reachability_eligible(clause) == []
