"""Embedded traversal framework (the paper's Section 6.1 workaround).

The paper reports that Cypher's variable-length match made transitive
closure "unreasonable" and that the authors "instead implemented
transitive closure ourselves by traversing the graph directly via
Neo4j's Java embedded mode" to get sub-second answers. This module is
that embedded mode: a traversal description in the style of Neo4j's
``TraversalDescription`` — order, relationship filters, uniqueness,
depth bounds and evaluators — running directly against a
:class:`~repro.graphdb.view.GraphView`.

The crucial semantic difference from Cypher's ``-[:t*]->`` is
uniqueness: with ``Uniqueness.NODE_GLOBAL`` (the default) each node is
expanded once, so a closure costs O(V+E); Cypher's per-path
relationship uniqueness enumerates *paths* and explodes on dense call
graphs. Benchmark E8 measures exactly this gap.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Collection, Iterator

from repro.graphdb.view import Direction, GraphView, neighbor_pairs


class Uniqueness(enum.Enum):
    """How often the same node/relationship may appear during traversal."""

    NODE_GLOBAL = "node_global"
    RELATIONSHIP_GLOBAL = "relationship_global"
    NODE_PATH = "node_path"
    RELATIONSHIP_PATH = "relationship_path"
    NONE = "none"


class Evaluation(enum.Enum):
    """Evaluator verdict for a path."""

    INCLUDE_AND_CONTINUE = (True, True)
    INCLUDE_AND_PRUNE = (True, False)
    EXCLUDE_AND_CONTINUE = (False, True)
    EXCLUDE_AND_PRUNE = (False, False)

    @property
    def include(self) -> bool:
        return self.value[0]

    @property
    def continue_(self) -> bool:
        return self.value[1]


class Path:
    """An alternating node/edge sequence rooted at a start node."""

    __slots__ = ("_nodes", "_edges")

    def __init__(self, nodes: tuple[int, ...],
                 edges: tuple[int, ...]) -> None:
        if len(nodes) != len(edges) + 1:
            raise ValueError("path must have one more node than edges")
        self._nodes = nodes
        self._edges = edges

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[int, ...]:
        return self._edges

    @property
    def start_node(self) -> int:
        return self._nodes[0]

    @property
    def end_node(self) -> int:
        return self._nodes[-1]

    @property
    def last_edge(self) -> int | None:
        return self._edges[-1] if self._edges else None

    @property
    def length(self) -> int:
        return len(self._edges)

    def extend(self, edge_id: int, node_id: int) -> "Path":
        return Path(self._nodes + (node_id,), self._edges + (edge_id,))

    def __repr__(self) -> str:
        return f"Path(nodes={self._nodes}, edges={self._edges})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Path) and other._nodes == self._nodes
                and other._edges == self._edges)

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))


Evaluator = Callable[[GraphView, Path], Evaluation]


class RelationshipFilter:
    """One (types, direction) expansion rule."""

    __slots__ = ("types", "direction")

    def __init__(self, types: Collection[str] | None,
                 direction: Direction) -> None:
        self.types = frozenset(types) if types is not None else None
        self.direction = direction


class TraversalDescription:
    """Immutable builder for graph traversals, Neo4j-style.

    Example (the paper's Figure 6 closure, done the fast way)::

        closure = (TraversalDescription()
                   .relationships("calls", Direction.OUT)
                   .traverse(graph, seed))
        reached = {path.end_node for path in closure if path.length > 0}
    """

    def __init__(self) -> None:
        self._filters: list[RelationshipFilter] = []
        self._uniqueness = Uniqueness.NODE_GLOBAL
        self._breadth_first = True
        self._max_depth: int | None = None
        self._min_depth = 0
        self._evaluators: list[Evaluator] = []

    # builder methods return modified copies so descriptions are reusable

    def _copy(self) -> "TraversalDescription":
        clone = TraversalDescription()
        clone._filters = list(self._filters)
        clone._uniqueness = self._uniqueness
        clone._breadth_first = self._breadth_first
        clone._max_depth = self._max_depth
        clone._min_depth = self._min_depth
        clone._evaluators = list(self._evaluators)
        return clone

    def relationships(self, types: str | Collection[str] | None,
                      direction: Direction = Direction.BOTH,
                      ) -> "TraversalDescription":
        """Add an expansion rule; multiple rules union."""
        clone = self._copy()
        if isinstance(types, str):
            types = (types,)
        clone._filters.append(RelationshipFilter(types, direction))
        return clone

    def uniqueness(self, uniqueness: Uniqueness) -> "TraversalDescription":
        clone = self._copy()
        clone._uniqueness = uniqueness
        return clone

    def breadth_first(self) -> "TraversalDescription":
        clone = self._copy()
        clone._breadth_first = True
        return clone

    def depth_first(self) -> "TraversalDescription":
        clone = self._copy()
        clone._breadth_first = False
        return clone

    def max_depth(self, depth: int) -> "TraversalDescription":
        clone = self._copy()
        clone._max_depth = depth
        return clone

    def min_depth(self, depth: int) -> "TraversalDescription":
        clone = self._copy()
        clone._min_depth = depth
        return clone

    def evaluator(self, evaluator: Evaluator) -> "TraversalDescription":
        clone = self._copy()
        clone._evaluators.append(evaluator)
        return clone

    # execution --------------------------------------------------------------

    def traverse(self, view: GraphView, *starts: int) -> Iterator[Path]:
        """Yield paths from the start nodes, per the description."""
        registry = getattr(view, "metrics", None)
        expansions = registry.counter("traversal.expansions") \
            if registry is not None else None
        paths_counter = registry.counter("traversal.paths") \
            if registry is not None else None
        frontier: deque[Path] = deque(Path((start,), ()) for start in starts)
        seen_nodes: set[int] = set(starts) \
            if self._uniqueness is Uniqueness.NODE_GLOBAL else set()
        seen_edges: set[int] = set()
        while frontier:
            path = frontier.popleft() if self._breadth_first \
                else frontier.pop()
            include, continue_ = self._judge(view, path)
            if include and path.length >= self._min_depth:
                if paths_counter is not None:
                    paths_counter.inc()
                yield path
            if not continue_:
                continue
            if self._max_depth is not None and path.length >= self._max_depth:
                continue
            for edge_id, next_node in self._expand(view, path.end_node):
                if expansions is not None:
                    expansions.inc()
                if not self._admit(path, edge_id, next_node,
                                   seen_nodes, seen_edges):
                    continue
                frontier.append(path.extend(edge_id, next_node))

    def _judge(self, view: GraphView, path: Path) -> tuple[bool, bool]:
        include = True
        continue_ = True
        for evaluator in self._evaluators:
            verdict = evaluator(view, path)
            include = include and verdict.include
            continue_ = continue_ and verdict.continue_
        return include, continue_

    def _expand(self, view: GraphView,
                node_id: int) -> Iterator[tuple[int, int]]:
        filters = self._filters or [RelationshipFilter(None, Direction.BOTH)]
        for rel_filter in filters:
            yield from neighbor_pairs(view, node_id, rel_filter.direction,
                                      rel_filter.types)

    def _admit(self, path: Path, edge_id: int, next_node: int,
               seen_nodes: set[int], seen_edges: set[int]) -> bool:
        uniqueness = self._uniqueness
        if uniqueness is Uniqueness.NODE_GLOBAL:
            if next_node in seen_nodes:
                return False
            seen_nodes.add(next_node)
            return True
        if uniqueness is Uniqueness.RELATIONSHIP_GLOBAL:
            if edge_id in seen_edges:
                return False
            seen_edges.add(edge_id)
            return True
        if uniqueness is Uniqueness.NODE_PATH:
            return next_node not in path.nodes
        if uniqueness is Uniqueness.RELATIONSHIP_PATH:
            return edge_id not in path.edges
        return True  # Uniqueness.NONE
