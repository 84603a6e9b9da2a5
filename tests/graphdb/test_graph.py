"""In-memory property graph behaviour."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphdb import Direction, PropertyGraph
from repro.graphdb.view import neighbor_ids, other_end


@pytest.fixture
def small_graph():
    g = PropertyGraph()
    a = g.add_node("function", short_name="main")
    b = g.add_node("function", short_name="bar")
    c = g.add_node("global", short_name="counter")
    e1 = g.add_edge(a, b, "calls", use_start_line=10)
    e2 = g.add_edge(b, c, "writes")
    e3 = g.add_edge(a, c, "reads")
    return g, (a, b, c), (e1, e2, e3)


class TestNodes:
    def test_ids_are_dense_and_increasing(self):
        g = PropertyGraph()
        assert [g.add_node() for _ in range(3)] == [0, 1, 2]

    def test_labels(self, small_graph):
        g, (a, _, c), _ = small_graph
        assert g.node_labels(a) == frozenset({"function"})
        assert g.node_labels(c) == frozenset({"global"})

    def test_add_remove_label(self, small_graph):
        g, (a, _, _), _ = small_graph
        g.add_label(a, "symbol")
        assert "symbol" in g.node_labels(a)
        assert a in set(g.nodes_with_label("symbol"))
        g.remove_label(a, "symbol")
        assert a not in set(g.nodes_with_label("symbol"))

    def test_properties_copy_semantics(self, small_graph):
        g, (a, _, _), _ = small_graph
        snapshot = g.node_properties(a)
        snapshot["short_name"] = "changed"
        assert g.node_property(a, "short_name") == "main"

    def test_set_and_remove_property(self, small_graph):
        g, (a, _, _), _ = small_graph
        g.set_node_property(a, "variadic", True)
        assert g.node_property(a, "variadic") is True
        g.remove_node_property(a, "variadic")
        assert g.node_property(a, "variadic") is None

    def test_property_update_reindexed(self, small_graph):
        g, (a, _, _), _ = small_graph
        g.set_node_property(a, "short_name", "renamed")
        assert list(g.indexes.lookup("short_name", "main")) == []
        assert list(g.indexes.lookup("short_name", "renamed")) == [a]

    def test_remove_node_removes_incident_edges(self, small_graph):
        g, (a, b, c), (e1, e2, e3) = small_graph
        g.remove_node(c)
        assert not g.has_edge(e2)
        assert not g.has_edge(e3)
        assert g.has_edge(e1)
        assert g.node_count() == 2
        assert g.edge_count() == 1

    def test_removed_node_raises(self, small_graph):
        g, (a, _, _), _ = small_graph
        g.remove_node(a)
        with pytest.raises(NodeNotFoundError):
            g.node_labels(a)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(a, a, "calls")

    def test_duplicate_property_spec_rejected(self):
        g = PropertyGraph()
        with pytest.raises(GraphError):
            g.add_node(properties={"x": 1}, x=2)


class TestEdges:
    def test_endpoints_and_type(self, small_graph):
        g, (a, b, _), (e1, _, _) = small_graph
        assert g.edge_source(e1) == a
        assert g.edge_target(e1) == b
        assert g.edge_type(e1) == "calls"

    def test_empty_type_rejected(self, small_graph):
        g, (a, b, _), _ = small_graph
        with pytest.raises(GraphError):
            g.add_edge(a, b, "")

    def test_multi_edges_allowed(self, small_graph):
        g, (a, b, _), _ = small_graph
        g.add_edge(a, b, "calls", use_start_line=20)
        assert g.degree(a, Direction.OUT, ("calls",)) == 2

    def test_self_loop(self):
        g = PropertyGraph()
        a = g.add_node()
        e = g.add_edge(a, a, "recurses")
        assert g.degree(a) == 2  # self-loop counted once per direction
        assert other_end(g, e, a) == a

    def test_remove_edge(self, small_graph):
        g, (a, b, _), (e1, _, _) = small_graph
        g.remove_edge(e1)
        assert not g.has_edge(e1)
        assert g.degree(a, Direction.OUT) == 1  # only the 'reads' edge
        with pytest.raises(EdgeNotFoundError):
            g.edge_type(e1)

    def test_edge_property_roundtrip(self, small_graph):
        g, _, (e1, _, _) = small_graph
        assert g.edge_property(e1, "use_start_line") == 10
        g.set_edge_property(e1, "qualifiers", "*c")
        assert g.edge_property(e1, "qualifiers") == "*c"
        g.remove_edge_property(e1, "qualifiers")
        assert g.edge_property(e1, "qualifiers") is None


class TestAdjacency:
    def test_direction_filters(self, small_graph):
        g, (a, b, c), (e1, e2, e3) = small_graph
        assert set(g.edges_of(a, Direction.OUT)) == {e1, e3}
        assert set(g.edges_of(a, Direction.IN)) == set()
        assert set(g.edges_of(c, Direction.IN)) == {e2, e3}
        assert set(g.edges_of(b, Direction.BOTH)) == {e1, e2}

    def test_type_filters(self, small_graph):
        g, (a, _, _), (e1, _, e3) = small_graph
        assert list(g.edges_of(a, Direction.OUT, ("calls",))) == [e1]
        assert set(g.edges_of(a, Direction.OUT, ("calls", "reads"))) == \
            {e1, e3}
        assert list(g.edges_of(a, Direction.OUT, ("writes",))) == []

    def test_degree_matches_edges_of(self, small_graph):
        g, nodes, _ = small_graph
        for node in nodes:
            for direction in Direction:
                assert g.degree(node, direction) == \
                    len(list(g.edges_of(node, direction)))

    def test_neighbors_helper(self, small_graph):
        g, (a, b, c), _ = small_graph
        assert set(neighbor_ids(g, a, Direction.OUT)) == {b, c}


class TestHandles:
    def test_node_handle(self, small_graph):
        g, (a, _, _), _ = small_graph
        handle = g.node(a)
        assert handle["short_name"] == "main"
        assert handle.get("missing", 7) == 7
        with pytest.raises(KeyError):
            handle["missing"]
        assert handle == g.node(a)
        assert repr(handle)

    def test_edge_handle(self, small_graph):
        g, (a, b, _), (e1, _, _) = small_graph
        handle = g.edge(e1)
        assert (handle.source, handle.target, handle.type) == (a, b, "calls")
        assert handle.get("use_start_line") == 10


def test_find_nodes_scan(small_graph):
    g, (_, b, _), _ = small_graph
    assert list(g.find_nodes(short_name="bar")) == [b]
    assert list(g.find_nodes(short_name="bar", missing=1)) == []


def test_len_and_repr(small_graph):
    g, _, _ = small_graph
    assert len(g) == 3
    assert "nodes=3" in repr(g)
