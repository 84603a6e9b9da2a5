"""Property-based equivalence of the planner's three gates.

Whatever the cost-based planner, the WHERE pushdown, or the var-length
reachability rewrite decide, the row *sets* a query produces must be
identical to the legacy heuristic path — the planner is allowed to be
faster, never different. Graph strategies are shared with
``tests.test_property_based``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cypher import CypherEngine
from tests.test_property_based import dags, graphs

#: MATCH shapes for cost-based vs heuristic planning (no var-length,
#: so they run fast under enumeration on cyclic random graphs)
PLANNER_QUERIES = (
    "MATCH (n:function) RETURN id(n)",
    "MATCH (n) -[:calls]-> (m) RETURN id(n), id(m)",
    "MATCH (n:function) -[:calls]-> (m) <-[:reads]- (k) "
    "RETURN id(n), id(m), id(k)",
    "MATCH (n) -[:calls|reads]- (m) RETURN id(n), id(m)",
    "MATCH (n) WHERE n.short_name = 'f1' RETURN id(n)",
)

#: var-length shapes for rewrite-on vs rewrite-off; hop bounds keep
#: enumeration tractable on cyclic graphs
REWRITE_QUERIES = (
    "MATCH (n) -[:calls*0..2]-> (m) RETURN distinct id(n), id(m)",
    "MATCH (n) -[:calls*1..2]- (m) RETURN distinct id(m)",
    "MATCH (n), (m) WHERE n -[:calls*1..2]-> m "
    "RETURN id(n), id(m)",
    "MATCH (n) -[:calls*1..2]-> (m) RETURN id(n), id(m)",
    "MATCH (n) -[:calls*0..2]-> (m) "
    "RETURN id(n), count(DISTINCT m), count(DISTINCT m.short_name)",
)


def rows_of(graph, query, **engine_kwargs):
    engine = CypherEngine(graph, **engine_kwargs)
    return sorted(engine.run(query).rows)


class TestCostBasedMatchesHeuristic:
    @settings(max_examples=20, deadline=None)
    @given(graph=graphs(), query=st.sampled_from(PLANNER_QUERIES))
    def test_same_rows(self, graph, query):
        assert rows_of(graph, query, use_cost_based_planner=True) == \
            rows_of(graph, query, use_cost_based_planner=False)


class TestRewriteMatchesEnumeration:
    @settings(max_examples=20, deadline=None)
    @given(graph=graphs(), query=st.sampled_from(REWRITE_QUERIES))
    def test_same_rows_bounded(self, graph, query):
        assert rows_of(graph, query, use_reachability_rewrite=True) == \
            rows_of(graph, query, use_reachability_rewrite=False)

    @settings(max_examples=25, deadline=None)
    @given(graph=dags())
    def test_unbounded_closure_on_dags(self, graph):
        query = ("MATCH (n{short_name: 'f0'}) -[:calls*]-> (m) "
                 "RETURN distinct id(m)")
        assert rows_of(graph, query, use_reachability_rewrite=True) == \
            rows_of(graph, query, use_reachability_rewrite=False)

    @settings(max_examples=15, deadline=None)
    @given(graph=dags())
    def test_closure_through_with_clause(self, graph):
        query = ("MATCH (n{short_name: 'f0'}) -[:calls*]-> (m) "
                 "WITH distinct m RETURN id(m)")
        assert rows_of(graph, query, use_reachability_rewrite=True) == \
            rows_of(graph, query, use_reachability_rewrite=False)


class TestAllGatesTogether:
    @settings(max_examples=15, deadline=None)
    @given(graph=dags())
    def test_full_planner_vs_fully_legacy(self, graph):
        query = ("MATCH (n{short_name: 'f0'}) -[:calls*]-> (m) "
                 "WHERE m.short_name = 'f1' RETURN distinct id(m)")
        planned = rows_of(graph, query)
        legacy = rows_of(graph, query, use_cost_based_planner=False,
                         use_reachability_rewrite=False,
                         use_index_seek=False)
        assert planned == legacy
