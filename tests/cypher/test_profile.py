"""PROFILE execution: annotated operator trees over the paper queries.

Covers the tentpole's acceptance shape: the Figure 3-6 queries report
per-operator rows / wall time / db-hits, row counts shrink monotonically
down the pipeline, the E8 Cypher blow-up is attributable to the
var-length expand operator, and a store-backed warm run's cache hit
ratio strictly exceeds the cold run's.
"""


import pytest

from repro.core.frappe import Frappe
from repro.cypher import CypherEngine
from repro.graphdb import PropertyGraph

FIGURE3_STYLE = (
    "START m=node:node_auto_index('short_name: main.c') "
    "MATCH m -[:file_contains]-> f "
    "WITH distinct f "
    "MATCH f -[:calls]-> n "
    "RETURN n")


@pytest.fixture
def graph():
    """main.c contains main/helper; a small call graph underneath."""
    g = PropertyGraph()
    f1 = g.add_node("file", short_name="main.c", type="file")
    main = g.add_node("function", "symbol", short_name="main",
                      type="function")
    helper = g.add_node("function", "symbol", short_name="helper",
                        type="function")
    util = g.add_node("function", "symbol", short_name="util",
                      type="function")
    g.add_edge(f1, main, "file_contains")
    g.add_edge(f1, helper, "file_contains")
    g.add_edge(main, helper, "calls", use_start_line=5)
    g.add_edge(main, util, "calls", use_start_line=9)
    g.add_edge(helper, util, "calls", use_start_line=2)
    return g


@pytest.fixture
def engine(graph):
    return CypherEngine(graph)


class TestProfileActivation:
    def test_profile_keyword(self, engine):
        result = engine.run("PROFILE MATCH (n:function) RETURN n")
        assert result.profile is not None
        assert len(result) == 3

    def test_profile_method(self, engine):
        result = engine.profile("MATCH (n:function) RETURN n")
        assert result.profile is not None

    def test_unprofiled_run_has_no_plan(self, engine):
        result = engine.run("MATCH (n:function) RETURN n")
        assert result.profile is None
        assert result.stats.db_hits == 0

    def test_profile_keyword_not_part_of_results(self, engine):
        plain = engine.run("MATCH (n:function) RETURN n.short_name")
        profiled = engine.run(
            "PROFILE MATCH (n:function) RETURN n.short_name")
        assert sorted(plain.rows) == sorted(profiled.rows)


class TestOperatorTree:
    def test_root_mirrors_result(self, engine):
        result = engine.profile("MATCH (n:function) RETURN n")
        plan = result.profile
        assert plan.name == "Query"
        assert plan.rows == len(result)
        assert plan.time_ms is not None and plan.time_ms >= 0.0

    def test_start_clause_operators(self, engine):
        result = engine.profile(
            "START n=node:node_auto_index('short_name: main') RETURN n")
        plan = result.profile
        start = plan.find_one("Start")
        seek = plan.find_one("NodeByIndexQuery")
        assert seek in [op for op in start.operators()]
        assert seek.args["query"] == "short_name: main"
        assert seek.rows == 1
        assert seek.db_hits >= 1

    def test_match_anchor_and_expand(self, engine):
        result = engine.profile(
            "MATCH (f:file{short_name: 'main.c'}) "
            "-[:file_contains]-> n RETURN n")
        plan = result.profile
        match = plan.find_one("Match")
        anchor = plan.find_one("NodeIndexSeek")
        expand = plan.find_one("Expand")
        assert anchor in [op for op in match.operators()]
        assert expand.args["types"] == "file_contains"
        assert expand.rows == 2
        assert expand.db_hits > 0

    def test_var_length_expand_named(self, engine):
        result = engine.profile(
            "MATCH (n:function{short_name: 'main'}) -[:calls*]-> m "
            "RETURN distinct m")
        plan = result.profile
        expand = plan.find_one("VarLengthExpand")
        assert expand.args["bounds"].startswith("*")
        assert expand.rows >= len(result)

    def test_projection_operators(self, engine):
        result = engine.profile(
            "MATCH (n:function) RETURN distinct n.type "
            "ORDER BY n.type LIMIT 1")
        plan = result.profile
        projection = plan.find_one("Projection")
        assert projection.args.get("distinct") is True
        assert plan.find_one("Distinct").rows == 1
        assert plan.find_one("Sort").rows == 1
        assert plan.find_one("Limit").rows == 1
        assert len(result) == 1

    def test_aggregation_operator(self, engine):
        result = engine.profile(
            "MATCH (n:function) RETURN count(*) AS functions")
        assert result.profile.find("EagerAggregation")
        assert result.rows == [(3,)]

    def test_filter_rows_monotone(self, engine):
        result = engine.profile(
            "MATCH (n:function) -[:calls]-> m "
            "WHERE n.short_name = 'main' RETURN m")
        plan = result.profile
        match = plan.find_one("Match")
        filter_op = plan.find_one("Filter")
        # a filter never produces more rows than its input
        assert filter_op.rows <= match.rows
        assert filter_op.rows == len(result)

    def test_db_hits_total(self, engine):
        result = engine.profile("MATCH (n:function) RETURN n.short_name")
        assert result.stats.db_hits == result.profile.total_db_hits()
        assert result.stats.db_hits > 0

    def test_multi_clause_pipeline(self, engine):
        result = engine.profile(FIGURE3_STYLE)
        plan = result.profile
        names = [op.name for op in plan.children]
        assert names == ["Start", "Match", "Projection", "Match",
                         "Projection"]
        # row counts are monotone down this pipeline: each stage's
        # output feeds the next
        start, match1 = plan.children[0], plan.children[1]
        assert start.rows <= match1.rows or match1.rows == 0
        assert plan.rows == len(result)

    def test_pretty_rendering(self, engine):
        plan = engine.profile("MATCH (n:function) RETURN n").profile
        rendered = plan.pretty()
        assert "Query" in rendered
        assert "rows=" in rendered
        assert "dbhits=" in rendered
        assert "time=" in rendered


class TestE8Attribution:
    """The paper's Cypher-vs-native asymmetry, pinned to an operator."""

    @pytest.fixture
    def layered(self):
        """5 fully-connected layers of 5: path counts explode."""
        g = PropertyGraph()
        layers = [[g.add_node("function",
                              short_name=f"l{level}_{index}",
                              type="function")
                   for index in range(5)] for level in range(5)]
        for upper, lower in zip(layers, layers[1:]):
            for source in upper:
                for target in lower:
                    g.add_edge(source, target, "calls")
        return g

    CLOSURE = ("START n=node:node_auto_index('short_name: l0_0') "
               "MATCH n -[:calls*]-> m RETURN distinct m")

    def test_var_length_expand_dominates(self, layered):
        # the Section 6.1 blow-up: with the reachability rewrite off,
        # the var-length expansion enumerates every path
        engine = CypherEngine(layered, use_reachability_rewrite=False)
        result = engine.profile(self.CLOSURE)
        plan = result.profile
        assert len(result) == 20  # closure: 4 layers of 5
        # dominance is judged on the deterministic counters, never on
        # wall time (a collection landing in another operator can
        # outweigh the expansion): the expansion does most of the
        # db-hits and emits more rows than any other operator
        expand = plan.find_one("VarLengthExpand")
        assert expand.db_hits > plan.total_db_hits() / 2
        assert expand.rows == max(op.rows for op in plan.operators())
        # far more paths enumerated than distinct results
        assert expand.rows > len(result) * 5

    def test_reachability_rewrite_collapses_paths(self, layered):
        # same query, rewrite on (the default): one row per endpoint
        # and db-hits linear in the reachable adjacency lists
        engine = CypherEngine(layered)
        result = engine.profile(self.CLOSURE)
        plan = result.profile
        assert len(result) == 20
        expand = plan.find_one("VarLengthExpand")
        assert expand.args.get("mode") == "reachability"
        assert expand.rows == len(result)
        # 21 reachable nodes (source + 20), <= 5 out-edges each
        assert expand.db_hits <= 21 * 5

    @pytest.mark.parametrize("rewrite", [True, False])
    def test_count_distinct_closure(self, layered, rewrite):
        # count(DISTINCT m) takes the rewrite too; switching it off
        # (--no-rewrite) brings back path enumeration, same count
        result = CypherEngine(
            layered, use_reachability_rewrite=rewrite).profile(
                "START n=node:node_auto_index('short_name: l0_0') "
                "MATCH n -[:calls*]-> m RETURN count(DISTINCT m)")
        assert result.value() == 20
        expand = result.profile.find_one("VarLengthExpand")
        assert (expand.args.get("mode") == "reachability") == rewrite
        # 5 + 25 + 125 + 625 paths enumerated without it
        assert expand.rows == (20 if rewrite else 780)

    def test_rewrite_on_off_same_rows(self, layered):
        on = CypherEngine(layered).run(self.CLOSURE)
        off = CypherEngine(layered, use_reachability_rewrite=False) \
            .run(self.CLOSURE)
        assert sorted(r[0].id for r in on.rows) == \
            sorted(r[0].id for r in off.rows)


class TestStoreBackedProfile:
    @pytest.fixture
    def disk_frappe(self, graph, tmp_path):
        directory = str(tmp_path / "store")
        Frappe(graph).save(directory)
        with Frappe.open(directory) as frappe:
            yield frappe

    def test_profile_over_disk_store(self, disk_frappe):
        result = disk_frappe.profile(
            "MATCH (n:function) RETURN n.short_name")
        assert result.profile is not None
        assert result.profile.find_one("NodeByLabelScan").db_hits > 0

    def test_warm_hit_ratio_exceeds_cold(self, disk_frappe):
        query = FIGURE3_STYLE
        disk_frappe.evict_caches()  # also resets the counters
        disk_frappe.query(query)
        cold_ratio = disk_frappe.cache_hit_ratio()
        disk_frappe.reset_counters()
        disk_frappe.query(query)
        warm_ratio = disk_frappe.cache_hit_ratio()
        assert 0.0 <= cold_ratio < 1.0
        assert warm_ratio > cold_ratio

    def test_counters_cover_the_read_path(self, disk_frappe):
        disk_frappe.evict_caches()
        disk_frappe.query(FIGURE3_STYLE)
        snapshot = disk_frappe.counters()
        assert snapshot.counter("query.count") == 1
        assert snapshot.counter("pagecache.misses") > 0
        assert snapshot.counter("store.record_faults") > 0
        assert snapshot.counter("index.lookups") > 0
        assert snapshot.histogram("query.seconds").count == 1

    def test_traversal_counters(self, disk_frappe):
        disk_frappe.reset_counters()
        closure = disk_frappe.backward_slice("main")
        assert closure
        snapshot = disk_frappe.counters()
        assert snapshot.counter("traversal.expansions") > 0
        assert snapshot.counter("traversal.paths") > 0


class TestObservabilityFacade:
    def test_slow_log_captures_timeouts(self, graph):
        frappe = Frappe(graph)
        with pytest.raises(Exception):
            frappe.query("MATCH n -[:calls*]-> m "
                         "MATCH m -[:calls*]-> o RETURN count(*)",
                         timeout=1e-9)
        entries = frappe.slow_queries()
        assert entries and entries[-1].timed_out
        assert frappe.counters().counter("query.timeouts") == 1

    def test_traces_record_queries(self, graph):
        frappe = Frappe(graph)
        frappe.query("MATCH (n:function) RETURN n")
        (span,) = frappe.traces()
        assert span.name == "cypher.query"
        assert "MATCH" in span.attributes["query"]

    def test_evict_resets_counters(self, graph):
        frappe = Frappe(graph)
        frappe.query("MATCH (n:function) RETURN n")
        assert frappe.counters().counter("query.count") == 1
        frappe.evict_caches()
        assert frappe.counters().counter("query.count") == 0
