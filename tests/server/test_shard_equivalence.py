"""Property-based sharded-vs-single equivalence (hypothesis).

For any random directory-tree-shaped graph, split at whatever subtree
boundaries the assignment picks, every Table-5-shaped query must come
back *identical* from the scatter/gather router and from the
unsharded store: same columns, same rows, in the same order, same
db-hit accounting and same PROFILE operator tree. The comparison is
on the canonical wire payload (with the two legitimately
nondeterministic fields — wall-clock timings and the shard-id stamp —
normalized out), so a divergence anywhere in the stack (shard writer,
ghost replication, composite view, routing tier, partial-aggregate
merge) fails loudly.

CI runs this file as its own job with a fixed ``--hypothesis-seed``
and uploads the failing example on a red run.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.frappe import Frappe
from repro.cypher.options import QueryOptions
from repro.graphdb import PropertyGraph
from repro.graphdb.storage import GraphStore, split_store
from repro.server import wire
from repro.server.shard import ShardRouter

# Tiny name pools on purpose: cross-subtree name collisions are where
# a ghost leaking into an index would silently double rows.
_FUNCTION_NAMES = ["alpha", "beta", "gamma", "delta"]
_SUBTREES = ["drivers", "fs", "mm", "kernel", "net"]

#: every query shape the paper's Table 5 exercises, parameterized by
#: an anchor name the strategy picks from the generated graph
QUERY_SHAPES = [
    # anchored point lookups (the dispatch tier)
    "START n=node:node_auto_index('short_name:{name}') "
    "RETURN n.short_name, n.type",
    "START n=node:node_auto_index('short_name:{name}') "
    "WHERE n.size > 0 RETURN n.short_name, n.size",
    # anchored expansions (gateway: ghosts + planner freedom)
    "START n=node:node_auto_index('short_name:{name}') "
    "MATCH (n)-[:calls]->(m) RETURN m.short_name ORDER BY "
    "m.short_name, id(m)",
    "START n=node:node_auto_index('short_name:{name}') "
    "MATCH (n)<-[:calls]-(m) RETURN count(m)",
    # var-length traversals across shard boundaries
    "START n=node:node_auto_index('short_name:{name}') "
    "MATCH (n)-[:calls*1..3]->(m) RETURN count(m)",
    "START n=node:node_auto_index('short_name:{name}') "
    "MATCH (n)-[:calls*2..4]->(m) RETURN count(m)",
    # label scans and aggregations (the scatter tier)
    "MATCH (n:function) RETURN count(n)",
    "MATCH (n:function) RETURN count(*), min(n.size), max(n.size)",
    "MATCH (n:function) WHERE n.size > 1 RETURN count(n), "
    "sum(n.size)",
    # unlabelled scans (gateway: a shard's all-nodes scan sees ghosts)
    "MATCH (n) RETURN count(n)",
    # order-sensitive full scans (gateway over the composite view)
    "MATCH (n:function) RETURN n.short_name, n.size ORDER BY "
    "n.short_name, n.size, id(n)",
    "MATCH (n:function) RETURN DISTINCT n.short_name ORDER BY "
    "n.short_name",
    "MATCH (n:function) RETURN n.size, count(n) ORDER BY n.size",
    "MATCH (f:file)-[:file_contains]->(n:function) "
    "RETURN f.short_name, count(n) ORDER BY f.short_name",
]


@st.composite
def tree_graphs(draw):
    """A kernel-shaped graph: root dir -> subtrees -> files -> fns."""
    graph = PropertyGraph()
    root = graph.add_node("directory", short_name="linux",
                          type="directory")
    subtree_count = draw(st.integers(min_value=2, max_value=4))
    functions = []
    for index in range(subtree_count):
        subtree = graph.add_node("directory",
                                 short_name=_SUBTREES[index],
                                 type="directory")
        graph.add_edge(root, subtree, "dir_contains")
        for file_index in range(draw(st.integers(1, 2))):
            file_node = graph.add_node(
                "file", type="file",
                short_name=f"{_SUBTREES[index]}{file_index}.c")
            graph.add_edge(subtree, file_node, "dir_contains")
            for _ in range(draw(st.integers(1, 3))):
                function = graph.add_node(
                    "function", type="function",
                    short_name=draw(st.sampled_from(_FUNCTION_NAMES)),
                    size=draw(st.sampled_from([0, 1, 2, 3])))
                graph.add_edge(file_node, function, "file_contains")
                functions.append(function)
    # calls cross subtree boundaries freely — boundary edges by design
    for _ in range(draw(st.integers(0, 3 * len(functions)))):
        graph.add_edge(draw(st.sampled_from(functions)),
                       draw(st.sampled_from(functions)), "calls")
    anchor = graph.node_property(draw(st.sampled_from(functions)),
                                 "short_name")
    return graph, anchor


def canonical_payload(payload_bytes):
    """The wire payload with nondeterminism normalized out."""
    payload = wire.payload_from_ndjson(payload_bytes)
    payload["stats"]["elapsed_seconds"] = 0.0
    payload["stats"].pop("shards", None)
    profile = payload.get("profile")
    if profile is not None:
        _strip_times(profile)
    return payload


def _strip_times(plan):
    plan.pop("time_ms", None)
    for child in plan.get("children", ()):
        _strip_times(child)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(graph_and_anchor=tree_graphs(), shards=st.sampled_from([2, 3, 4]))
def test_sharded_execution_is_result_identical(graph_and_anchor, shards,
                                               tmp_path_factory):
    graph, anchor = graph_and_anchor
    base = tmp_path_factory.mktemp("shardeq")
    store = str(base / "store")
    root = str(base / "shards")
    GraphStore.write(graph, store)
    split_store(store, root, shards)

    single = Frappe.open(store)
    router = ShardRouter(root, replicas=0)
    try:
        for shape in QUERY_SHAPES:
            text = shape.format(name=anchor)
            for profiled in (False, True):
                options = QueryOptions(profile=True) if profiled \
                    else None
                expected = wire.result_to_ndjson(
                    single.query(text, options=options))
                got = router.execute(text, options)
                assert canonical_payload(got) == \
                    canonical_payload(expected), \
                    f"diverged on {text!r} (profiled={profiled}, " \
                    f"shards={shards})"
    finally:
        router.close()
        single.close()


class TestRoutingTiers:
    """The classifier sends each shape to the cheapest safe tier."""

    @pytest.fixture(scope="class")
    def router(self, shard_root):
        router = ShardRouter(shard_root, replicas=0)
        yield router
        router.close()

    def test_anchored_lookup_dispatches_to_one_shard(self, router):
        anchor = None
        for node_id in router.store.node_ids():
            props = router.store.node_properties(node_id)
            if props.get("type") == "function":
                anchor = props["short_name"]
                break
        decision = router.classify(
            f"START n=node:node_auto_index('short_name:{anchor}') "
            "RETURN n.type")
        assert decision.tier == "dispatch"
        assert len(decision.shards) == 1

    def test_aggregate_scan_scatters(self, router):
        decision = router.classify(
            "MATCH (n:function) RETURN count(n), max(n.loc)")
        assert decision.tier == "scatter"
        assert decision.merge == ("count", "max")

    def test_label_statistics_prune_empty_shards(self, router):
        counts = router.store.shard_label_counts("function")
        decision = router.classify(
            "MATCH (n:function) RETURN count(n)")
        assert list(decision.shards) == \
            [index for index, count in enumerate(counts) if count]

    def test_unlabelled_scan_goes_to_gateway(self, router, saved_store):
        text = "MATCH (n) RETURN count(n)"
        assert router.classify(text).tier == "gateway"
        with Frappe.open(saved_store) as single:
            assert wire.result_from_ndjson(router.execute(text)).rows \
                == single.query(text).rows

    def test_expansion_goes_to_gateway(self, router):
        decision = router.classify(
            "START n=node:node_auto_index('type:function') "
            "MATCH (n)-[:calls]->(m) RETURN m.short_name")
        assert decision.tier == "gateway"

    def test_ordered_scan_goes_to_gateway(self, router):
        decision = router.classify(
            "MATCH (n:function) RETURN n.short_name "
            "ORDER BY n.short_name")
        assert decision.tier == "gateway"

    def test_profile_goes_to_gateway(self, router):
        decision = router.classify(
            "PROFILE MATCH (n:function) RETURN count(n)")
        assert decision.tier == "gateway"
        decision = router.classify(
            "MATCH (n:function) RETURN count(n)",
            QueryOptions(profile=True))
        assert decision.tier == "gateway"

    def test_collect_avg_distinct_go_to_gateway(self, router):
        for text in ("MATCH (n:function) RETURN collect(n.short_name)",
                     "MATCH (n:function) RETURN avg(n.loc)",
                     "MATCH (n:function) RETURN count(DISTINCT "
                     "n.short_name)"):
            assert router.classify(text).tier == "gateway", text

    def test_unparseable_goes_to_gateway(self, router):
        assert router.classify("THIS IS NOT CYPHER").tier == "gateway"

    def test_decisions_are_memoized(self, router):
        text = "MATCH (n:memoprobe) RETURN count(n)"
        registry = router.obs.registry
        first = router.classify(text)
        before = registry.snapshot().counter(
            "router.decision_cache_hits")
        assert router.classify(text) is first  # served from cache
        after = registry.snapshot().counter(
            "router.decision_cache_hits")
        assert after == before + 1
        # profiled and unprofiled runs are distinct cache entries
        profiled = router.classify(text, QueryOptions(profile=True))
        assert profiled.tier == "gateway"
        assert profiled is not first

    def test_wire_summary_carries_shard_ids(self, router):
        payload = router.execute("MATCH (n:function) RETURN count(n)")
        last = payload.rstrip(b"\n").rpartition(b"\n")[2]
        summary = json.loads(last)["summary"]
        assert summary["stats"]["shards"] == \
            list(router.classify(
                "MATCH (n:function) RETURN count(n)").shards)
