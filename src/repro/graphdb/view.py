"""The read-only graph protocol shared by memory- and disk-backed graphs.

Both :class:`repro.graphdb.graph.PropertyGraph` (in-memory, mutable) and
:class:`repro.graphdb.storage.store.StoreGraph` (record files behind a
page cache) implement this interface, so the Cypher executor, the
traversal framework, and the Frappé use-case queries run unchanged
against either — which is what lets the benchmark harness measure the
same query cold (from disk) and warm (cache-resident).
"""

from __future__ import annotations

import enum
from typing import Any, Collection, Iterable, Iterator, Protocol, runtime_checkable


class Direction(enum.Enum):
    """Edge direction relative to a node."""

    OUT = "out"
    IN = "in"
    BOTH = "both"

    def reverse(self) -> "Direction":
        if self is Direction.OUT:
            return Direction.IN
        if self is Direction.IN:
            return Direction.OUT
        return Direction.BOTH


@runtime_checkable
class GraphView(Protocol):
    """Read-only view of a labeled property graph.

    Node and edge identity is an ``int``. Properties follow the model in
    :mod:`repro.graphdb.properties`. Implementations must provide stable
    iteration order within one view instance (the query planner relies
    on this for deterministic results in tests).
    """

    # -- population --------------------------------------------------------

    def node_ids(self) -> Iterable[int]:
        """All live node ids."""
        ...

    def edge_ids(self) -> Iterable[int]:
        """All live edge ids."""
        ...

    def node_count(self) -> int:
        ...

    def edge_count(self) -> int:
        ...

    def has_node(self, node_id: int) -> bool:
        ...

    def has_edge(self, edge_id: int) -> bool:
        ...

    # -- nodes --------------------------------------------------------------

    def node_labels(self, node_id: int) -> frozenset[str]:
        ...

    def node_properties(self, node_id: int) -> dict[str, Any]:
        """A copy of the node's property map."""
        ...

    def node_property(self, node_id: int, key: str,
                      default: Any = None) -> Any:
        ...

    def nodes_with_label(self, label: str) -> Iterator[int]:
        ...

    # -- edges --------------------------------------------------------------

    def edge_source(self, edge_id: int) -> int:
        ...

    def edge_target(self, edge_id: int) -> int:
        ...

    def edge_type(self, edge_id: int) -> str:
        ...

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        ...

    def edge_property(self, edge_id: int, key: str,
                      default: Any = None) -> Any:
        ...

    # -- adjacency ----------------------------------------------------------

    def edges_of(self, node_id: int,
                 direction: Direction = Direction.BOTH,
                 types: Collection[str] | None = None) -> Iterator[int]:
        """Edge ids incident to *node_id*, filtered by direction/type."""
        ...

    def degree(self, node_id: int,
               direction: Direction = Direction.BOTH,
               types: Collection[str] | None = None) -> int:
        ...

    # -- indexes -------------------------------------------------------------

    @property
    def indexes(self) -> "IndexReader":
        ...


@runtime_checkable
class IndexReader(Protocol):
    """Read side of the index manager; see :mod:`repro.graphdb.indexes`."""

    def lookup(self, key: str, value: Any) -> Iterator[int]:
        ...

    def query(self, query_string: str) -> Iterator[int]:
        ...

    def label(self, label: str) -> Iterator[int]:
        ...


def other_end(view: GraphView, edge_id: int, node_id: int) -> int:
    """The endpoint of *edge_id* that is not *node_id* (self-loop safe)."""
    source = view.edge_source(edge_id)
    if source != node_id:
        return source
    return view.edge_target(edge_id)


def neighbor_pairs(view: GraphView, node_id: int,
                   direction: Direction = Direction.BOTH,
                   types: Collection[str] | None = None,
                   ) -> Collection[tuple[int, int]]:
    """``(edge_id, other_end)`` pairs incident to *node_id*, in
    ``edges_of`` order.

    What every native traversal reads: a view that already holds the
    neighbour next to the edge (``neighbors_of`` — the disk store's
    compiled runs) hands the pairs over as stored, so no edge record
    is decoded just to learn the far endpoint; any other view gets the
    reference semantics, :func:`other_end` applied edge by edge.
    """
    bulk = getattr(view, "neighbors_of", None)
    if bulk is not None:
        return bulk(node_id, direction, types)
    return [(edge_id, other_end(view, edge_id, node_id))
            for edge_id in view.edges_of(node_id, direction, types)]


def neighbor_ids(view: GraphView, node_id: int,
                 direction: Direction = Direction.BOTH,
                 types: Collection[str] | None = None,
                 ) -> Collection[int]:
    """Neighbor node ids of *node_id* (with multiplicity, as Neo4j
    does), in ``edges_of`` order: :func:`neighbor_pairs` without the
    edges.

    What a traversal that never looks at the edge reads — closures,
    reachability, cycles.  Same rule as the pairs: a view that stores
    the neighbours as a column of their own (``neighbor_ids_of`` — the
    disk store's compiled CSR) hands that over, so the edge ids are
    not read at all; any other view's are taken off its pairs.
    """
    bulk = getattr(view, "neighbor_ids_of", None)
    if bulk is not None:
        return bulk(node_id, direction, types)
    return [neighbor for _edge_id, neighbor
            in neighbor_pairs(view, node_id, direction, types)]
