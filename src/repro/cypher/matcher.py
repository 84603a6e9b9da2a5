"""Pattern matching: the heart of MATCH and of pattern predicates.

Semantics follow Cypher:

* Within one ``MATCH`` clause, relationships are unique across the
  whole clause (an edge is never bound twice in the same match row).
* Variable-length relationships (``-[:t*]->``) *enumerate paths* with
  per-path relationship uniqueness. This is deliberately not a
  visited-set reachability search — path enumeration is what makes the
  paper's Figure 6 transitive closure explode in Cypher while the
  embedded traversal answers in linear time (paper Section 6.1), and
  the reproduction keeps that behaviour honest. The one exception is
  planner-proven safe: a var-length relationship whose paths are
  observably *endpoint-distinct* (no rel/path variable, consumed by a
  DISTINCT or ``count(DISTINCT …)`` projection — see
  :func:`repro.cypher.planner.reachability_eligible`) runs as a
  visited-set BFS when the engine's ``use_reachability_rewrite`` gate
  is on, returning the identical row set in linear time.

Matching works outward from an *anchor*. With the cost-based planner
(default) the anchor and the expansion order come from
:func:`repro.cypher.planner.plan_pattern`, costed against live
:class:`~repro.graphdb.stats.GraphStatistics`; with the planner off,
the legacy heuristic applies: the first pattern node whose variable is
already bound, else the most selective scannable node (label scan
beats full scan). Each relationship step expands adjacency through the
:class:`~repro.graphdb.view.GraphView` (memoized per query by
:meth:`~repro.cypher.evaluator.ExecutionContext.adjacency`), so the
same code path serves the in-memory graph and the page-cached disk
store.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Mapping

from repro.cypher import ast
from repro.cypher.evaluator import ExecutionContext, evaluate
from repro.cypher.plan import ANCHOR_OPERATORS
from repro.cypher.planner import (PatternPlan, anchor_strategy,
                                  plan_pattern)
from repro.cypher.result import EdgeRef, NodeRef, PathValue
from repro.errors import CypherSemanticError
from repro.graphdb.view import Direction, other_end

__all__ = ["match_clause", "pattern_exists", "anchor_strategy"]

_DIRECTIONS = {"out": Direction.OUT, "in": Direction.IN,
               "both": Direction.BOTH}


@dataclasses.dataclass(frozen=True)
class _Step:
    """One relationship expansion, oriented away from the anchor."""

    rel: ast.RelPattern
    target: ast.NodePattern
    source_index: int  # index into pattern.nodes of the bound side
    rel_index: int     # index into pattern.rels
    reversed: bool     # True when walking right-to-left

    @property
    def direction(self) -> Direction:
        wanted = _DIRECTIONS[self.rel.direction]
        return wanted.reverse() if self.reversed else wanted


def match_clause(clause: ast.Match, rows: Iterator[Mapping[str, Any]],
                 ctx: ExecutionContext,
                 plan: Any | None = None) -> Iterator[dict[str, Any]]:
    """Apply one MATCH clause to a stream of binding rows.

    ``plan`` is the clause's profiled operator (an
    :class:`~repro.obs.profile.OperatorStats`) when running under
    PROFILE; the matcher hangs anchor/expand operators off it.
    """
    new_variables = sorted({name for pattern in clause.patterns
                            for name in pattern.variables()})
    for row in rows:
        produced = False
        for result in _match_patterns(clause.patterns, 0, dict(row),
                                      frozenset(), ctx, plan):
            produced = True
            yield result
        if clause.optional and not produced:
            padded = dict(row)
            for name in new_variables:
                padded.setdefault(name, None)
            yield padded


def pattern_exists(pattern: ast.Pattern, row: Mapping[str, Any],
                   ctx: ExecutionContext) -> bool:
    """WHERE pattern predicate: does at least one match exist?"""
    for _ in _match_patterns((pattern,), 0, dict(row), frozenset(), ctx):
        return True
    return False


def _match_patterns(patterns: tuple[ast.Pattern, ...], index: int,
                    row: dict[str, Any], used: frozenset[int],
                    ctx: ExecutionContext,
                    plan: Any | None = None) -> Iterator[dict[str, Any]]:
    if index == len(patterns):
        yield row
        return
    for new_row, new_used in _match_one(patterns[index], row, used, ctx,
                                        plan, index):
        yield from _match_patterns(patterns, index + 1, new_row, new_used,
                                   ctx, plan)


def _match_one(pattern: ast.Pattern, row: dict[str, Any],
               used: frozenset[int], ctx: ExecutionContext,
               plan: Any | None = None, pattern_index: int = 0,
               ) -> Iterator[tuple[dict[str, Any], frozenset[int]]]:
    profiler = ctx.profiler if plan is not None else None
    if pattern.shortest is not None:
        found = _match_shortest(pattern, row, used, ctx)
        if profiler is not None:
            operator = profiler.operator(
                plan, ("shortest", pattern_index), "ShortestPath",
                mode=pattern.shortest)
            found = profiler.iterate(operator, found)
        yield from found
        return
    if ctx.use_cost_based_planner:
        pattern_plan = _plan_for(pattern, row, ctx)
        anchor = pattern_plan.anchor
        steps = _steps_from_plan(pattern, pattern_plan)
        estimates = {rel_index: estimate for (rel_index, _, _), estimate
                     in zip(pattern_plan.steps,
                            pattern_plan.step_estimates)}
    else:
        pattern_plan = None
        anchor = _pick_anchor(pattern, row)
        steps = _build_steps(pattern, anchor)
        estimates = None
    track_path = pattern.path_variable is not None
    candidates = _anchor_candidates(pattern.nodes[anchor], row, ctx)
    if profiler is not None:
        if pattern_plan is not None:
            strategy, detail = pattern_plan.strategy, pattern_plan.detail
            anchor_estimate = pattern_plan.anchor_estimate
        else:
            strategy, detail = anchor_strategy(
                pattern.nodes[anchor], set(row),
                tuple(getattr(ctx.view.indexes, "auto_index_keys", ())),
                ctx.use_index_seek)
            anchor_estimate = None
        operator = profiler.operator(
            plan, ("anchor", pattern_index), ANCHOR_OPERATORS[strategy],
            estimated=anchor_estimate,
            variable=pattern.nodes[anchor].variable, on=detail or None)
        candidates = profiler.iterate(operator, candidates,
                                      hits_per_row=1)
    for node_id in candidates:
        if not _node_ok(pattern.nodes[anchor], node_id, row, ctx):
            continue
        anchored = dict(row)
        _bind_node(anchored, pattern.nodes[anchor], node_id)
        bound = {anchor: node_id}
        for match_row, match_used, final_bound, final_rels in _expand(
                steps, 0, anchored, bound, used, ctx, {}, plan,
                pattern_index, estimates):
            if track_path:
                match_row = dict(match_row)
                match_row[pattern.path_variable] = _build_path(
                    pattern, final_bound, final_rels, ctx)
            yield match_row, match_used


def _plan_for(pattern: ast.Pattern, row: Mapping[str, Any],
              ctx: ExecutionContext) -> PatternPlan:
    """The pattern's costed plan, memoized per (pattern, bound vars).

    Only pattern variables already bound in the row affect the plan
    (they decide which nodes can anchor as 'bound'), so the memo key
    intersects the row's keys with the pattern's variables: every row
    of one clause's input stream shares a single planning pass.
    """
    known = frozenset(name for name in pattern.variables()
                      if name in row)
    key = (id(pattern), known)
    cached = ctx._pattern_plans.get(key)
    if cached is None:
        plan = plan_pattern(pattern, set(known), ctx.view,
                            ctx.use_index_seek)
        # the entry pins the pattern object so an engine-persistent
        # memo can never serve a plan for a recycled id()
        cached = (pattern, plan)
        ctx._pattern_plans[key] = cached
    return cached[1]


def _pick_anchor(pattern: ast.Pattern, row: Mapping[str, Any]) -> int:
    """Legacy anchor heuristic: bound > labeled > has-properties > 0."""
    for index, node in enumerate(pattern.nodes):
        if node.variable and node.variable in row:
            return index
    for index, node in enumerate(pattern.nodes):
        if node.labels:
            return index
    for index, node in enumerate(pattern.nodes):
        if node.properties:
            return index
    return 0


def _build_steps(pattern: ast.Pattern, anchor: int) -> list[_Step]:
    """Legacy step order: all rightward steps, then all leftward."""
    steps = []
    for index in range(anchor, len(pattern.rels)):
        steps.append(_Step(pattern.rels[index], pattern.nodes[index + 1],
                           source_index=index, rel_index=index,
                           reversed=False))
    for index in range(anchor - 1, -1, -1):
        steps.append(_Step(pattern.rels[index], pattern.nodes[index],
                           source_index=index + 1, rel_index=index,
                           reversed=True))
    return steps


def _steps_from_plan(pattern: ast.Pattern,
                     pattern_plan: PatternPlan) -> list[_Step]:
    """Materialize the planner's costed step order as ``_Step``s."""
    steps = []
    for rel_index, source, reverse in pattern_plan.steps:
        target = pattern.nodes[rel_index] if reverse \
            else pattern.nodes[rel_index + 1]
        steps.append(_Step(pattern.rels[rel_index], target,
                           source_index=source, rel_index=rel_index,
                           reversed=reverse))
    return steps


def _anchor_candidates(node: ast.NodePattern, row: Mapping[str, Any],
                       ctx: ExecutionContext) -> Iterator[int]:
    indexed_keys = tuple(getattr(ctx.view.indexes, "auto_index_keys",
                                 ()))
    strategy, _detail = anchor_strategy(node, set(row), indexed_keys,
                                        ctx.use_index_seek)
    if strategy == "bound":
        value = row[node.variable]  # type: ignore[index]
        if value is None:
            return
        if not isinstance(value, NodeRef):
            raise CypherSemanticError(
                f"variable {node.variable!r} is not a node")
        yield value.id
        return
    if strategy == "index-seek":
        # a property literal on an auto-indexed key beats a label scan
        for key, expr in node.properties:
            if key in indexed_keys and isinstance(expr, ast.Literal) \
                    and expr.value is not None:
                yield from ctx.view.indexes.lookup(key, expr.value)
                return
    if strategy == "label-scan":
        yield from ctx.view.nodes_with_label(node.labels[0])
        return
    yield from ctx.view.node_ids()


def _use_reachability(step: _Step, used: frozenset[int],
                      ctx: ExecutionContext) -> bool:
    """Run this step as visited-set BFS instead of path enumeration?

    The planner proved eligibility at prepare time (the mark); the
    engine's runtime gate decides per query. ``used`` must be empty:
    consumed edges from a sibling pattern would re-introduce the
    clause-level uniqueness the eligibility proof discharged.
    """
    return (step.rel.var_length and step.rel.reachability
            and ctx.use_reachability_rewrite and not used)


def _expand(steps: list[_Step], step_index: int, row: dict[str, Any],
            bound: dict[int, int], used: frozenset[int],
            ctx: ExecutionContext, rel_values: dict[int, Any],
            plan: Any | None = None, pattern_index: int = 0,
            estimates: Mapping[int, float] | None = None,
            ) -> Iterator[tuple[dict[str, Any], frozenset[int],
                                dict[int, int], dict[int, Any]]]:
    if step_index == len(steps):
        yield row, used, bound, rel_values
        return
    step = steps[step_index]
    results = _expand_step(step, row, bound, used, ctx, rel_values)
    if plan is not None and ctx.profiler is not None:
        operator = ctx.profiler.operator(
            plan, ("expand", pattern_index, step.rel_index),
            "VarLengthExpand" if step.rel.var_length else "Expand",
            estimated=estimates.get(step.rel_index)
            if estimates is not None else None,
            types="|".join(step.rel.types) or None,
            direction=step.rel.direction,
            bounds=_hops_text(step.rel) if step.rel.var_length else None,
            mode="reachability"
            if _use_reachability(step, used, ctx) else None)
        results = ctx.profiler.iterate(operator, results)
    for new_row, new_bound, new_used, new_rels in results:
        yield from _expand(steps, step_index + 1, new_row, new_bound,
                           new_used, ctx, new_rels, plan, pattern_index,
                           estimates)


def _expand_step(step: _Step, row: dict[str, Any],
                 bound: dict[int, int], used: frozenset[int],
                 ctx: ExecutionContext, rel_values: dict[int, Any],
                 ) -> Iterator[tuple[dict[str, Any], dict[int, int],
                                     frozenset[int], dict[int, Any]]]:
    """One relationship step: expand, filter the target, bind."""
    source = bound[step.source_index]
    target_index = step.source_index + (-1 if step.reversed else 1)
    if step.rel.var_length:
        if _use_reachability(step, used, ctx):
            expansions = _expand_reachability(step, source, row, ctx)
        else:
            expansions = _expand_var_length(step, source, row, used, ctx)
    else:
        expansions = _expand_single(step, source, row, used, ctx)
    for target_node, rel_value, edges in expansions:
        if not _node_ok(step.target, target_node, row, ctx):
            continue
        # orient in pattern order: a reversed walk of a var-length
        # relationship produced its edges back to front
        if step.reversed and isinstance(rel_value, tuple):
            oriented = tuple(reversed(rel_value))
        else:
            oriented = rel_value
        new_row = dict(row)
        _bind_node(new_row, step.target, target_node)
        if step.rel.variable:
            if step.rel.variable in row:
                if row[step.rel.variable] != oriented:
                    continue
            else:
                new_row[step.rel.variable] = oriented
        new_bound = dict(bound)
        new_bound[target_index] = target_node
        new_rels = dict(rel_values)
        new_rels[step.rel_index] = oriented
        yield new_row, new_bound, used | edges, new_rels


def _hops_text(rel: ast.RelPattern) -> str:
    upper = "" if rel.max_hops is None else str(rel.max_hops)
    return f"*{rel.min_hops}..{upper}"


def _expand_single(step: _Step, source: int, row: Mapping[str, Any],
                   used: frozenset[int], ctx: ExecutionContext,
                   ) -> Iterator[tuple[int, Any, frozenset[int]]]:
    types = step.rel.types or None
    for edge_id, neighbor in ctx.neighbors(source, step.direction, types):
        ctx.tick()
        if edge_id in used:
            continue
        if not _edge_props_ok(step.rel, edge_id, row, ctx):
            continue
        yield neighbor, EdgeRef(edge_id), frozenset((edge_id,))


def _expand_var_length(step: _Step, source: int, row: Mapping[str, Any],
                       used: frozenset[int], ctx: ExecutionContext,
                       ) -> Iterator[tuple[int, Any, frozenset[int]]]:
    """Depth-first path enumeration with per-path edge uniqueness."""
    rel = step.rel
    types = rel.types or None
    min_hops = rel.min_hops
    max_hops = rel.max_hops
    if min_hops == 0:
        yield source, (), frozenset()
    stack: list[tuple[int, tuple[int, ...]]] = [(source, ())]
    while stack:
        node_id, path_edges = stack.pop()
        depth = len(path_edges)
        if max_hops is not None and depth >= max_hops:
            continue
        for edge_id, neighbor in ctx.neighbors(node_id, step.direction,
                                               types):
            ctx.tick()
            if edge_id in path_edges or edge_id in used:
                continue
            if not _edge_props_ok(rel, edge_id, row, ctx):
                continue
            new_path = path_edges + (edge_id,)
            if len(new_path) >= min_hops:
                yield (neighbor,
                       tuple(EdgeRef(edge) for edge in new_path),
                       frozenset(new_path))
            stack.append((neighbor, new_path))


def _expand_reachability(step: _Step, source: int,
                         row: Mapping[str, Any], ctx: ExecutionContext,
                         ) -> Iterator[tuple[int, Any, frozenset[int]]]:
    """Visited-set BFS for a planner-marked var-length relationship.

    Yields each reachable endpoint exactly once, instead of once per
    path: db-hits become linear in the reachable edge set. Sound only
    under :func:`repro.cypher.planner.reachability_eligible`'s
    preconditions — min_hops <= 1, so "reachable within <= max_hops
    edge-unique hops" equals "BFS level <= max_hops" (a minimum-hop
    path is node-simple, hence edge-unique), and no rel/path variable,
    so the collapsed paths are unobservable. The endpoint binds no
    edges (``frozenset()``): the clause holds a single relationship,
    so clause-level edge uniqueness has nothing left to check.
    """
    rel = step.rel
    max_hops = rel.max_hops
    visited = {source}
    yielded = set()
    if rel.min_hops == 0:
        yielded.add(source)
        yield source, (), frozenset()
    frontier = [source]
    depth = 0
    while frontier and (max_hops is None or depth < max_hops):
        depth += 1
        next_frontier: list[int] = []
        for node_id in frontier:
            for neighbor in _reached(step, node_id, row, ctx):
                if neighbor not in yielded:
                    # the source itself is yielded only when re-reached
                    # through an edge (a cycle), matching enumeration
                    yielded.add(neighbor)
                    yield neighbor, (), frozenset()
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier


def _reached(step: _Step, node_id: int, row: Mapping[str, Any],
             ctx: ExecutionContext) -> Iterator[int]:
    """One closure expansion: the neighbours of *node_id* over edges
    that pass the relationship's property map, ticked per edge looked
    at.  Without a property map the edge ids are never read."""
    rel = step.rel
    types = rel.types or None
    if not rel.properties:
        for neighbor in ctx.neighbor_ids(node_id, step.direction, types):
            ctx.tick()
            yield neighbor
        return
    for edge_id, neighbor in ctx.neighbors(node_id, step.direction,
                                           types):
        ctx.tick()
        if _edge_props_ok(rel, edge_id, row, ctx):
            yield neighbor


def _build_path(pattern: ast.Pattern, bound: dict[int, int],
                rel_values: dict[int, Any],
                ctx: ExecutionContext) -> PathValue:
    """Assemble a PathValue in pattern order, expanding var-length
    segments to include their intermediate nodes."""
    nodes = [NodeRef(bound[0])]
    edges: list[EdgeRef] = []
    current = bound[0]
    for rel_index in range(len(pattern.rels)):
        value = rel_values.get(rel_index)
        segment = value if isinstance(value, tuple) else \
            (() if value is None else (value,))
        for edge_ref in segment:
            edges.append(edge_ref)
            current = other_end(ctx.view, edge_ref.id, current)
            nodes.append(NodeRef(current))
        if not segment:
            # zero-length var-length hop: endpoint equals start
            current = bound[rel_index + 1]
            if nodes[-1].id != current:
                nodes.append(NodeRef(current))
    return PathValue(tuple(nodes), tuple(edges))


def _match_shortest(pattern: ast.Pattern, row: dict[str, Any],
                    used: frozenset[int], ctx: ExecutionContext,
                    ) -> Iterator[tuple[dict[str, Any], frozenset[int]]]:
    """shortestPath()/allShortestPaths() over one var-length pattern.

    Supported shape (the paper's Section 4.4 use case): two endpoint
    nodes joined by a single variable-length relationship. One BFS per
    *source* covers every target (the target candidates are answered
    by membership in the BFS parents DAG), instead of the old
    O(sources x targets) BFS-per-pair loop.
    """
    if len(pattern.rels) != 1 or not pattern.rels[0].var_length:
        raise CypherSemanticError(
            "shortestPath() supports (a)-[:t*]-(b) patterns")
    rel = pattern.rels[0]
    direction = _DIRECTIONS[rel.direction]
    types = rel.types or None

    def edge_ok(edge_id: int) -> bool:
        if edge_id in used:
            return False
        return _edge_props_ok(rel, edge_id, row, ctx)

    from repro.graphdb import algo
    targets = [target
               for target in _anchor_candidates(pattern.nodes[1], row,
                                                ctx)
               if _node_ok(pattern.nodes[1], target, row, ctx)]
    limit = 64 if pattern.shortest == "all" else 1
    for source in _anchor_candidates(pattern.nodes[0], row, ctx):
        ctx.tick()
        if not _node_ok(pattern.nodes[0], source, row, ctx):
            continue
        depth_of, parents = algo.shortest_path_dag(
            ctx.view, source, types, direction, edge_filter=edge_ok,
            max_depth=rel.max_hops)
        for target in targets:
            ctx.tick()
            hops = depth_of.get(target)
            if hops is None or hops < rel.min_hops:
                continue
            if rel.max_hops is not None and hops > rel.max_hops:
                continue
            found = algo.unwind_shortest_paths(source, target, depth_of,
                                               parents, limit=limit)
            for node_path, edge_path in found:
                new_row = dict(row)
                _bind_node(new_row, pattern.nodes[0], source)
                _bind_node(new_row, pattern.nodes[1], target)
                oriented = tuple(EdgeRef(edge) for edge in edge_path)
                if rel.variable and rel.variable not in new_row:
                    new_row[rel.variable] = oriented
                if pattern.path_variable:
                    new_row[pattern.path_variable] = PathValue(
                        tuple(NodeRef(node) for node in node_path),
                        oriented)
                yield new_row, used | frozenset(edge_path)


def _edge_props_ok(rel: ast.RelPattern, edge_id: int,
                   row: Mapping[str, Any], ctx: ExecutionContext) -> bool:
    for key, expr in rel.properties:
        wanted = evaluate(expr, row, ctx)
        ctx.db_hit()
        if ctx.view.edge_property(edge_id, key) != wanted:
            return False
    return True


def _node_ok(node: ast.NodePattern, node_id: int, row: Mapping[str, Any],
             ctx: ExecutionContext) -> bool:
    if node.variable and node.variable in row:
        value = row[node.variable]
        if not isinstance(value, NodeRef) or value.id != node_id:
            return False
    if node.labels:
        ctx.db_hit()
        labels = ctx.view.node_labels(node_id)
        if not all(label in labels for label in node.labels):
            return False
    for key, expr in node.properties:
        wanted = evaluate(expr, row, ctx)
        ctx.db_hit()
        if ctx.view.node_property(node_id, key) != wanted:
            return False
    return True


def _bind_node(row: dict[str, Any], node: ast.NodePattern,
               node_id: int) -> None:
    if node.variable and node.variable not in row:
        row[node.variable] = NodeRef(node_id)
