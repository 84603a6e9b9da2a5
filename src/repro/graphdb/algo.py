"""Graph algorithms used by the Frappé use cases.

:func:`reachable_nodes` is the "~20ms via Neo4j's Java API" transitive
closure of the paper's Section 5.2 footnote — a plain visited-set BFS,
linear in the subgraph it touches. :func:`shortest_path` backs the
code-comprehension shortest-path use case of Section 4.4.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterator

from repro.graphdb.view import (Direction, GraphView, neighbor_ids,
                                neighbor_pairs)


def reachable_nodes(view: GraphView, start: int,
                    types: Collection[str] | None = None,
                    direction: Direction = Direction.OUT,
                    max_depth: int | None = None,
                    include_start: bool = False) -> set[int]:
    """Transitive closure of *start* over the given edge types.

    A backward program slice over calls is
    ``reachable_nodes(g, seed, ("calls",), Direction.OUT)`` (everything
    the seed depends on); the forward slice flips the direction
    (paper Section 4.4).
    """
    registry = getattr(view, "metrics", None)
    expansions = registry.counter("traversal.expansions") \
        if registry is not None else None
    visited = {start}
    frontier = deque([(start, 0)])
    while frontier:
        node_id, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        reached = neighbor_ids(view, node_id, direction, types)
        if expansions is not None:
            expansions.inc(len(reached))
        for neighbor in reached:
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append((neighbor, depth + 1))
    if registry is not None:
        registry.counter("traversal.paths").inc(len(visited))
    if not include_start:
        visited.discard(start)
    return visited


def is_reachable(view: GraphView, source: int, target: int,
                 types: Collection[str] | None = None,
                 direction: Direction = Direction.OUT,
                 max_depth: int | None = None) -> bool:
    """Early-exit reachability check (used by WHERE pattern predicates)."""
    if source == target:
        return True
    visited = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node_id, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in neighbor_ids(view, node_id, direction, types):
            if neighbor == target:
                return True
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return False


def shortest_path(view: GraphView, source: int, target: int,
                  types: Collection[str] | None = None,
                  direction: Direction = Direction.OUT,
                  ) -> list[int] | None:
    """Node ids of one shortest path source -> target, or None.

    Bidirectional BFS; with ``Direction.OUT`` the backward search
    expands incoming edges, so both frontiers meet in the middle.
    """
    if source == target:
        return [source]
    forward_parents: dict[int, tuple[int, int] | None] = {source: None}
    backward_parents: dict[int, tuple[int, int] | None] = {target: None}
    forward_frontier = [source]
    backward_frontier = [target]
    backward_direction = direction.reverse()

    while forward_frontier and backward_frontier:
        # expand the smaller frontier
        expand_forward = len(forward_frontier) <= len(backward_frontier)
        if expand_forward:
            frontier, parents, others = (forward_frontier, forward_parents,
                                         backward_parents)
            step_direction = direction
        else:
            frontier, parents, others = (backward_frontier, backward_parents,
                                         forward_parents)
            step_direction = backward_direction
        next_frontier = []
        meeting = None
        for node_id in frontier:
            for edge_id, neighbor in neighbor_pairs(
                    view, node_id, step_direction, types):
                if neighbor in parents:
                    continue
                parents[neighbor] = (node_id, edge_id)
                if neighbor in others:
                    meeting = neighbor
                    break
                next_frontier.append(neighbor)
            if meeting is not None:
                break
        if meeting is not None:
            return (_unwind(forward_parents, meeting)[::-1]
                    + _unwind(backward_parents, meeting)[1:])
        if expand_forward:
            forward_frontier = next_frontier
        else:
            backward_frontier = next_frontier
    return None


def _unwind(parents: dict[int, tuple[int, int] | None],
            node_id: int) -> list[int]:
    path = [node_id]
    step = parents[node_id]
    while step is not None:
        node_id = step[0]
        path.append(node_id)
        step = parents[node_id]
    return path


def shortest_path_with_edges(
        view: GraphView, source: int, target: int,
        types: Collection[str] | None = None,
        direction: Direction = Direction.OUT,
        edge_filter=None,
        ) -> tuple[list[int], list[int]] | None:
    """Like :func:`shortest_path` but also returns the edge ids.

    Plain forward BFS with parent-edge tracking (the Cypher
    ``shortestPath()`` backend needs the edges to bind the path
    variable). ``edge_filter(edge_id) -> bool`` restricts usable edges.
    """
    if source == target:
        return [source], []
    parents: dict[int, tuple[int, int]] = {}
    visited = {source}
    frontier = [source]
    while frontier:
        next_frontier = []
        for node_id in frontier:
            for edge_id, neighbor in neighbor_pairs(
                    view, node_id, direction, types):
                if edge_filter is not None and not edge_filter(edge_id):
                    continue
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                parents[neighbor] = (node_id, edge_id)
                if neighbor == target:
                    nodes = [target]
                    edges = []
                    cursor = target
                    while cursor != source:
                        previous, via = parents[cursor]
                        edges.append(via)
                        nodes.append(previous)
                        cursor = previous
                    return nodes[::-1], edges[::-1]
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def all_shortest_paths(
        view: GraphView, source: int, target: int,
        types: Collection[str] | None = None,
        direction: Direction = Direction.OUT,
        edge_filter=None, limit: int = 64,
        ) -> list[tuple[list[int], list[int]]]:
    """Every minimum-length path (nodes, edges), up to *limit*.

    Level-synchronous BFS keeping all parent edges per node at its
    discovery depth, then backward enumeration.
    """
    if source == target:
        return [([source], [])]
    depth_of = {source: 0}
    parents: dict[int, list[tuple[int, int]]] = {}
    frontier = [source]
    depth = 0
    target_depth: int | None = None
    while frontier and target_depth is None:
        depth += 1
        next_frontier: list[int] = []
        for node_id in frontier:
            for edge_id, neighbor in neighbor_pairs(
                    view, node_id, direction, types):
                if edge_filter is not None and not edge_filter(edge_id):
                    continue
                known_depth = depth_of.get(neighbor)
                if known_depth is None:
                    depth_of[neighbor] = depth
                    parents[neighbor] = [(node_id, edge_id)]
                    next_frontier.append(neighbor)
                elif known_depth == depth:
                    parents[neighbor].append((node_id, edge_id))
                if neighbor == target:
                    target_depth = depth
        frontier = next_frontier
    if target_depth is None:
        return []
    results: list[tuple[list[int], list[int]]] = []

    def unwind(node_id: int, nodes: list[int], edges: list[int]) -> None:
        if len(results) >= limit:
            return
        if node_id == source:
            results.append(([source] + nodes[::-1], edges[::-1]))
            return
        for previous, via in parents[node_id]:
            if depth_of[previous] == depth_of[node_id] - 1:
                unwind(previous, nodes + [node_id], edges + [via])

    unwind(target, [], [])
    return results


def shortest_path_dag(
        view: GraphView, source: int,
        types: Collection[str] | None = None,
        direction: Direction = Direction.OUT,
        edge_filter=None, max_depth: int | None = None,
        ) -> tuple[dict[int, int], dict[int, list[tuple[int, int]]]]:
    """One BFS from *source* covering every reachable node.

    Returns ``(depth_of, parents)``: minimum hop counts and, per node,
    every ``(previous, edge)`` pair lying on some minimum-length path.
    This is the target-agnostic form of :func:`all_shortest_paths` —
    ``shortestPath`` matching runs it once per source and then answers
    all targets by membership, instead of a BFS per (source, target)
    pair.
    """
    depth_of = {source: 0}
    parents: dict[int, list[tuple[int, int]]] = {}
    frontier = [source]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: list[int] = []
        for node_id in frontier:
            for edge_id, neighbor in neighbor_pairs(
                    view, node_id, direction, types):
                if edge_filter is not None and not edge_filter(edge_id):
                    continue
                known_depth = depth_of.get(neighbor)
                if known_depth is None:
                    depth_of[neighbor] = depth
                    parents[neighbor] = [(node_id, edge_id)]
                    next_frontier.append(neighbor)
                elif known_depth == depth:
                    parents[neighbor].append((node_id, edge_id))
        frontier = next_frontier
    return depth_of, parents


def unwind_shortest_paths(
        source: int, target: int,
        depth_of: dict[int, int],
        parents: dict[int, list[tuple[int, int]]],
        limit: int = 64) -> list[tuple[list[int], list[int]]]:
    """All minimum-length (nodes, edges) paths from a BFS parents DAG."""
    if target == source:
        return [([source], [])]
    if target not in depth_of:
        return []
    results: list[tuple[list[int], list[int]]] = []

    def unwind(node_id: int, nodes: list[int], edges: list[int]) -> None:
        if len(results) >= limit:
            return
        if node_id == source:
            results.append(([source] + nodes[::-1], edges[::-1]))
            return
        for previous, via in parents[node_id]:
            if depth_of[previous] == depth_of[node_id] - 1:
                unwind(previous, nodes + [node_id], edges + [via])

    unwind(target, [], [])
    return results


def all_paths(view: GraphView, source: int, target: int,
              types: Collection[str] | None = None,
              direction: Direction = Direction.OUT,
              max_depth: int = 10,
              limit: int | None = None) -> Iterator[list[int]]:
    """Enumerate simple paths source -> target up to *max_depth* edges."""
    yielded = 0
    stack: list[tuple[int, list[int]]] = [(source, [source])]
    while stack:
        node_id, path = stack.pop()
        if node_id == target and len(path) > 1:
            yield path
            yielded += 1
            if limit is not None and yielded >= limit:
                return
            continue
        if len(path) > max_depth:
            continue
        for neighbor in neighbor_ids(view, node_id, direction, types):
            if neighbor in path and neighbor != target:
                continue
            stack.append((neighbor, path + [neighbor]))


def strongly_connected_components(
        view: GraphView, types: Collection[str] | None = None,
        min_size: int = 2, include_self_loops: bool = True,
        ) -> list[list[int]]:
    """Dependency cycles: Tarjan's SCC, iterative.

    Returns components of ``min_size``+ nodes, plus single nodes with a
    self-loop when ``include_self_loops`` (a function calling itself is
    a cycle too). The paper's introduction names "searching for
    dependency cycles" as a core structured-result query.
    """
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in view.node_ids():
        if root in index_of:
            continue
        # iterative Tarjan: (node, neighbor iterator) work stack
        work = [(root, iter(neighbor_ids(view, root, Direction.OUT,
                                         types)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node_id, neighbor_iter = work[-1]
            advanced = False
            for neighbor in neighbor_iter:
                if neighbor not in index_of:
                    index_of[neighbor] = low[neighbor] = counter
                    counter += 1
                    stack.append(neighbor)
                    on_stack.add(neighbor)
                    work.append((neighbor, iter(neighbor_ids(
                        view, neighbor, Direction.OUT, types))))
                    advanced = True
                    break
                if neighbor in on_stack:
                    low[node_id] = min(low[node_id], index_of[neighbor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node_id])
            if low[node_id] == index_of[node_id]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node_id:
                        break
                if len(component) >= min_size:
                    components.append(sorted(component))
                elif include_self_loops and _has_self_loop(
                        view, component[0], types):
                    components.append(component)
    return components


def _has_self_loop(view: GraphView, node_id: int,
                   types: Collection[str] | None) -> bool:
    return node_id in neighbor_ids(view, node_id, Direction.OUT, types)


def weakly_connected_components(view: GraphView) -> list[set[int]]:
    """Weakly connected components (used by code-map sanity checks)."""
    remaining = set(view.node_ids())
    components = []
    while remaining:
        seed = next(iter(remaining))
        component = reachable_nodes(view, seed, None, Direction.BOTH,
                                    include_start=True)
        component &= remaining
        remaining -= component
        components.append(component)
    return components
