"""Property-based compiled-CSR vs adjacency-block equivalence.

The compiled CSR adjacency is a pure physical-layer structure: for any
graph and any traversal query, a store must produce the same columns,
the same rows in the same order, the same profiled db-hit totals, and
the same PROFILE operator tree (modulo wall-clock times) in buffered
and mmap cache modes as the block-only reference (:class:`BlockView`:
typed reads filter the block's untyped ``edges_of``, far ends come
from relationship records).  db-hit parity is the sharp edge: the
execution context charges hits above the physical layer, so a CSR
read that touched a different *number* of logical adjacency requests
would show up here first.

Stores are written to ``tempfile.mkdtemp`` (not ``tmp_path``) because
hypothesis re-runs the test body many times per fixture instantiation.
"""

import os
import re
import shutil
import tempfile

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.cypher import QueryOptions
from repro.graphdb import Direction, PropertyGraph
from repro.errors import StoreFormatError
from repro.graphdb.storage import (GraphStore, PageCache, ShardedStore,
                                   compact_store, split_store)
from repro.graphdb.storage import store as store_mod
from repro.graphdb.view import neighbor_ids, neighbor_pairs, other_end
from tests.graphdb.block_view import BlockView

_NAMES = ["alpha", "beta", "gamma"]
_EDGE_TYPES = ["calls", "reads", "writes"]

#: the cache modes a store is opened in (the grid beside the
#: block-only reference)
_MMAP = (False, True)


@st.composite
def stored_graphs(draw, max_nodes=7):
    """Small multi-type graphs with type-skewed edges, so typed
    expansions exercise the selective CSR segment reads."""
    graph = PropertyGraph()
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    for index in range(node_count):
        if index % 3 == 2:
            graph.add_node("global",
                           short_name=draw(st.sampled_from(_NAMES)),
                           size=draw(st.sampled_from([0, 1, 2])))
        else:
            graph.add_node("function",
                           short_name=draw(st.sampled_from(_NAMES)),
                           size=draw(st.sampled_from([0, 1, 2])))
    nodes = list(graph.node_ids())
    edge_count = draw(st.integers(min_value=0,
                                  max_value=3 * node_count))
    for _ in range(edge_count):
        graph.add_edge(draw(st.sampled_from(nodes)),
                       draw(st.sampled_from(nodes)),
                       draw(st.sampled_from(_EDGE_TYPES)))
    return graph


@st.composite
def traversal_queries(draw):
    pattern = draw(st.sampled_from([
        "MATCH (a:function)-[:calls]->(b)",
        "MATCH (a:function)<-[:calls]-(b)",
        "MATCH (a:function)-[:calls|reads]->(b)",
        "MATCH (a:function)-[r:writes]->(b:global)",
        "MATCH (a:function)-[:calls*1..2]->(b)",
        "MATCH (a:function)-[:calls*]->(b)",
        "MATCH (a)-[:reads]->(b)<-[:writes]-(c)",
    ]))
    returns = draw(st.sampled_from(
        ["RETURN a.short_name, b.short_name",
         "RETURN DISTINCT a.short_name",
         "RETURN a.short_name, count(b)",
         "RETURN count(*)"]))
    order = ""
    if returns == "RETURN a.short_name, b.short_name":
        order = draw(st.sampled_from(["", " ORDER BY a.short_name"]))
    mode = draw(st.sampled_from(["rows", "batch"]))
    return pattern + " " + returns + order, mode


def _normalize(profile):
    """PROFILE tree with wall-clock times stripped: structure,
    operator names, row counts and db-hits all remain comparable."""
    return re.sub(r"time[=:][0-9.]+\S*", "", str(profile))


def _reference(directory):
    """The block-only reference over *directory*, as a facade."""
    return Frappe(BlockView(GraphStore.open(directory)))


def _opened(directory):
    """The reference first, then the store in each cache mode."""
    yield "block", _reference(directory)
    for mmap in _MMAP:
        yield f"mmap={mmap}", Frappe.open(
            directory, config=StoreConfig(mmap=mmap))


def run_matrix(graph, text, mode):
    directory = tempfile.mkdtemp(prefix="csr-equiv-")
    try:
        GraphStore.write(graph, directory)
        observed = []
        for name, opened in _opened(directory):
            with opened as frappe:
                result = frappe.query(text, options=QueryOptions(
                    execution_mode=mode, profile=True))
                observed.append((name, (result.columns, result.rows,
                                        result.stats.db_hits,
                                        _normalize(result.profile))))
        baseline = observed[0][1]
        for name, other in observed[1:]:
            assert other == baseline, (text, mode, name)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _truncate_csr(directory):
    """Tear the compiled payload so open refuses it (size check)."""
    path = os.path.join(directory, store_mod.CSR_FILE)
    with open(path, "r+b") as handle:
        handle.truncate(max(0, handle.seek(0, 2) - 5))


def _plant_subtrees(graph):
    """Hang the drawn nodes under two top-level directories, so a
    subtree split puts them on different shards and the drawn edges
    cross the boundary."""
    drawn = list(graph.node_ids())
    root = graph.add_node("directory", short_name="linux")
    for half in range(2):
        subtree = graph.add_node("directory", short_name=f"sub{half}")
        graph.add_edge(root, subtree, "dir_contains")
        for node_id in drawn[half::2]:
            graph.add_edge(subtree, node_id, "dir_contains")


class TestCompiledCsrEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(graph=stored_graphs(), query=traversal_queries())
    def test_traversals_identical_across_configs(self, graph, query):
        text, mode = query
        run_matrix(graph, text, mode)

    @settings(max_examples=15, deadline=None)
    @given(graph=stored_graphs(max_nodes=5))
    def test_native_slices_identical(self, graph):
        directory = tempfile.mkdtemp(prefix="csr-equiv-")
        try:
            GraphStore.write(graph, directory)
            slices = []
            for _name, opened in _opened(directory):
                with opened as frappe:
                    slices.append([
                        (frappe.backward_slice(name),
                         frappe.forward_slice(name))
                        for name in _NAMES])
            assert all(other == slices[0] for other in slices[1:])
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @settings(max_examples=15, deadline=None)
    @given(graph=stored_graphs(max_nodes=5), query=traversal_queries())
    def test_damaged_csr_is_refused_and_compact_restores_answers(
            self, graph, query):
        """A torn compiled segment must never change an answer: open
        refuses it, and after compact the store answers as before."""
        assume(graph.edge_count() > 0)  # else the CSR payload is empty
        text, mode = query
        directory = tempfile.mkdtemp(prefix="csr-equiv-")
        try:
            GraphStore.write(graph, directory)
            with Frappe.open(directory) as frappe:
                want = frappe.query(text, options=QueryOptions(
                    execution_mode=mode)).rows
            _truncate_csr(directory)
            try:
                Frappe.open(directory)
            except StoreFormatError as error:
                assert "run `frappe compact`" in str(error)
            else:
                raise AssertionError("a torn csr.db was served")
            compact_store(directory)
            with Frappe.open(directory) as frappe:
                got = frappe.query(text, options=QueryOptions(
                    execution_mode=mode)).rows
            assert got == want
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @settings(max_examples=15, deadline=None)
    @given(graph=stored_graphs(max_nodes=6))
    def test_neighbor_pairs_identical_on_every_view(self, graph):
        """What ``algo``/``Traversal`` read: on every view type the
        pairs are that view's ``edges_of`` order with ``other_end``
        applied and the ids are the pairs' neighbours, every store
        serves one order, and the in-memory graph holds the same
        pairs."""
        _plant_subtrees(graph)
        directory = tempfile.mkdtemp(prefix="csr-equiv-")
        shards = directory + "-shards"
        stores = []
        try:
            GraphStore.write(graph, directory)
            split_store(directory, shards, 2)
            stores = [BlockView(GraphStore.open(directory)),
                      GraphStore.open(directory),
                      GraphStore.open(directory,
                                      page_cache=PageCache(mode="mmap")),
                      ShardedStore(shards)]
            assert len({stores[3].node_owner(node_id)
                        for node_id in graph.node_ids()}) == 2
            for node_id in graph.node_ids():
                for direction in Direction:
                    for types in (None, ("calls",), ("reads", "calls"),
                                  ("dir_contains",), ("absent",)):
                        observed = []
                        for view in [graph] + stores:
                            pairs = list(neighbor_pairs(
                                view, node_id, direction, types))
                            assert pairs == [
                                (edge, other_end(view, edge, node_id))
                                for edge in view.edges_of(
                                    node_id, direction, types)]
                            # the ids a closure reads are the pairs
                            # without the edges, on every view
                            assert list(neighbor_ids(
                                view, node_id, direction, types)) == \
                                [neighbor for _edge, neighbor in pairs]
                            assert view.degree(node_id, direction,
                                               types) == len(pairs)
                            observed.append(pairs)
                        assert all(other == observed[1]
                                   for other in observed[2:])
                        assert sorted(observed[0]) == sorted(observed[1])
        finally:
            for store in stores:
                store.close()
            for path in (directory, shards):
                shutil.rmtree(path, ignore_errors=True)
