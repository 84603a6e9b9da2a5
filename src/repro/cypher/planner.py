"""Cost-based query planning over live graph statistics.

The planner makes three kinds of decisions, all fed by
:class:`~repro.graphdb.stats.GraphStatistics` (label and edge-type
cardinalities, average out-degree, index selectivity via
``indexes.seek_count``):

* **Anchor choice** — which pattern node sources candidates. Each
  candidate anchor is costed as its estimated candidate count times
  the cumulative fanout of the expansions it forces; the cheapest
  total wins (ties break towards the leftmost node, matching the old
  heuristic's reading order).
* **Expansion order** — from the anchor, the left and right step
  frontiers are interleaved greedily by estimated fanout, so a
  selective relationship prunes the row stream before a prolific one
  multiplies it.
* **Prepare-time rewrites** (:func:`plan_query`) — equality conjuncts
  of a trailing ``WHERE`` are *copied* into the preceding ``MATCH``'s
  node patterns (filtering at expand time and enabling index-seek
  anchors; the ``Filter`` operator stays, so observed plans keep their
  shape), and var-length relationships whose output is
  endpoint-distinct are marked for the visited-set BFS reachability
  expansion (see :mod:`repro.cypher.matcher`), which turns the paper's
  Section 6.1 exponential path enumeration into a linear traversal.

Everything here is shared by the matcher and ``explain()`` so plan
descriptions can never drift from what actually runs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.cypher import ast
from repro.graphdb.stats import GraphStatistics, graph_statistics_for

#: depth assumed for an unbounded var-length expansion when estimating
#: fanout — deep enough to dominate single hops, small enough not to
#: overflow floats on dense graphs
VAR_LENGTH_DEPTH_ASSUMPTION = 3


def anchor_strategy(node: ast.NodePattern, known_variables: set[str],
                    indexed_keys: tuple[str, ...],
                    use_index_seek: bool = True,
                    ) -> tuple[str, str]:
    """How the planner will source candidates for a pattern node.

    Returns (strategy, detail); shared by the matcher and EXPLAIN so
    the plan description can never drift from what actually runs.
    Strategies: 'bound', 'index-seek', 'label-scan', 'all-nodes'.
    """
    if node.variable and node.variable in known_variables:
        return "bound", node.variable
    if use_index_seek and node.properties:
        for key, expr in node.properties:
            if key in indexed_keys and isinstance(expr, ast.Literal) \
                    and expr.value is not None:
                return "index-seek", f"{key} = {expr.value!r}"
    if node.labels:
        return "label-scan", node.labels[0]
    return "all-nodes", ""


def estimate_anchor(node: ast.NodePattern, strategy: str,
                    view: Any, stats: GraphStatistics) -> float:
    """Estimated candidate count for anchoring on *node*."""
    if strategy == "bound":
        return 1.0
    if strategy == "index-seek":
        seek_count = getattr(view.indexes, "seek_count", None)
        if seek_count is not None:
            for key, expr in node.properties:
                if isinstance(expr, ast.Literal) and expr.value is not None:
                    try:
                        return float(seek_count(key, expr.value))
                    except Exception:
                        break
        return 1.0
    if strategy == "label-scan":
        return float(stats.label_count(node.labels[0]))
    return float(stats.node_count)


def step_fanout(rel: ast.RelPattern, stats: GraphStatistics) -> float:
    """Estimated rows-out-per-row-in for one relationship expansion."""
    fanout = stats.avg_out_degree(rel.types)
    if rel.direction == "both":
        fanout *= 2.0
    if rel.var_length:
        depth = rel.max_hops if rel.max_hops is not None \
            else VAR_LENGTH_DEPTH_ASSUMPTION
        depth = min(depth, VAR_LENGTH_DEPTH_ASSUMPTION)
        # geometric series of path counts up to the assumed depth
        total = 0.0
        level = 1.0
        for _ in range(max(depth, 1)):
            level *= fanout
            total += level
            if total > 1e18:
                break
        fanout = total
    return fanout


@dataclasses.dataclass(frozen=True)
class PatternPlan:
    """A costed traversal order for one pattern.

    ``steps`` are ``(rel_index, source_node_index, reversed)`` triples
    in execution order; ``step_estimates`` carries the estimated row
    count *after* each step (anchor estimate times cumulative fanout).
    """

    anchor: int
    strategy: str
    detail: str
    anchor_estimate: float
    steps: tuple[tuple[int, int, bool], ...]
    step_estimates: tuple[float, ...]
    cost: float


def _ordered_steps(pattern: ast.Pattern, anchor: int,
                   stats: GraphStatistics,
                   ) -> Iterable[tuple[int, int, bool, float]]:
    """Greedy cheapest-fanout-first interleave of the two frontiers."""
    right = anchor       # next rel to the right is rels[right]
    left = anchor        # next rel to the left is rels[left - 1]
    count = len(pattern.rels)
    while right < count or left > 0:
        right_fanout = step_fanout(pattern.rels[right], stats) \
            if right < count else None
        left_fanout = step_fanout(pattern.rels[left - 1], stats) \
            if left > 0 else None
        take_right = left_fanout is None or (
            right_fanout is not None and right_fanout <= left_fanout)
        if take_right:
            yield right, right, False, right_fanout  # type: ignore[misc]
            right += 1
        else:
            yield left - 1, left, True, left_fanout  # type: ignore[misc]
            left -= 1


def plan_pattern(pattern: ast.Pattern, known_variables: set[str],
                 view: Any, use_index_seek: bool = True,
                 stats: GraphStatistics | None = None) -> PatternPlan:
    """Pick the cheapest anchor and expansion order for one pattern."""
    if stats is None:
        stats = graph_statistics_for(view)
    indexed_keys = tuple(getattr(view.indexes, "auto_index_keys", ()))
    best: PatternPlan | None = None
    for index, node in enumerate(pattern.nodes):
        strategy, detail = anchor_strategy(node, known_variables,
                                           indexed_keys, use_index_seek)
        anchor_estimate = estimate_anchor(node, strategy, view, stats)
        steps: list[tuple[int, int, bool]] = []
        estimates: list[float] = []
        rows = anchor_estimate
        cost = anchor_estimate
        for rel_index, source, reverse, fanout in _ordered_steps(
                pattern, index, stats):
            steps.append((rel_index, source, reverse))
            rows *= fanout
            estimates.append(rows)
            cost += rows
        candidate = PatternPlan(
            anchor=index, strategy=strategy, detail=detail,
            anchor_estimate=anchor_estimate, steps=tuple(steps),
            step_estimates=tuple(estimates), cost=cost)
        if best is None or candidate.cost < best.cost:
            best = candidate
    assert best is not None  # patterns always have >= 1 node
    return best


# --------------------------------------------------------------------------
# Execution-mode routing (the 'auto' cost consult)
# --------------------------------------------------------------------------

#: estimated source rows below which 'auto' execution runs the row
#: pipeline: batch setup (per-clause layout work, morsel plumbing) is
#: only recouped once morsels actually fill up
ROW_MODE_SOURCE_THRESHOLD = 64


def _point_estimate(point: ast.StartPoint, view: Any,
                    limit: int) -> float:
    """Candidate count for one START point, probed up to *limit*."""
    if isinstance(point, ast.IndexStartPoint):
        if point.index_name != "node_auto_index":
            return float(limit)
        try:
            probe = view.indexes.query(point.query)
        except Exception:
            return float(limit)
        import itertools
        return float(len(list(itertools.islice(probe, limit))))
    if point.all_nodes:
        return float(view.node_count())
    return float(len(point.ids))


def prefer_rows(query: ast.Query, view: Any,
                use_index_seek: bool = True) -> bool:
    """True when 'auto' execution should run the row pipeline.

    Batch execution wins by amortizing per-clause work over morsels
    and by bulk adjacency on traversals. Two rules, both costed from
    the same statistics the planner uses:

    * any var-length relationship forces batch — reachability/DFS
      expansion over bulk adjacency dominates regardless of source
      size (the Figure 6 comprehension query);
    * otherwise, when the pipeline's source (the START points'
      cartesian product, or the first MATCH pattern's costed anchor)
      is estimated under :data:`ROW_MODE_SOURCE_THRESHOLD` rows, the
      generator pipeline wins — short pipelines like the Table 5
      debugging query never fill a morsel, so batch setup is pure
      overhead.
    """
    for clause in query.clauses:
        if isinstance(clause, ast.Match):
            for pattern in clause.patterns:
                if any(rel.var_length for rel in pattern.rels):
                    return False
    source = next((clause for clause in query.clauses
                   if isinstance(clause, (ast.Start, ast.Match))), None)
    if source is None:
        return True  # expression-only query: one row
    threshold = ROW_MODE_SOURCE_THRESHOLD
    if isinstance(source, ast.Start):
        cardinality = 1.0
        for point in source.points:
            cardinality *= _point_estimate(point, view, threshold + 1)
            if cardinality > threshold:
                return False
        return True
    if source.optional or len(source.patterns) != 1:
        return False  # row-fallback clauses; batch handles per clause
    try:
        plan = plan_pattern(source.patterns[0], set(), view,
                            use_index_seek)
    except Exception:
        return False
    return plan.anchor_estimate <= threshold


# --------------------------------------------------------------------------
# Prepare-time query rewrites
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PlanReport:
    """What :func:`plan_query` did, for planner counters and EXPLAIN."""

    pushed_filters: int = 0
    reachability_rewrites: int = 0


def plan_query(query: ast.Query, *, pushdown: bool = True,
               mark_reachability: bool = True,
               ) -> tuple[ast.Query, PlanReport]:
    """Return a planned copy of *query* plus a report of the rewrites.

    Two semantics-preserving transformations:

    * **Predicate pushdown** — top-level AND conjuncts of a WHERE of
      the form ``v.key = <literal|parameter>``, where ``v`` is a node
      variable of the immediately preceding non-optional MATCH, are
      copied into that MATCH's node patterns. Sound because a row
      survives WHERE only when the whole conjunction is exactly true,
      which requires each conjunct exactly true; the WHERE clause is
      kept, so residual conjuncts (and the Filter operator) stay.
    * **Reachability marking** — var-length relationships satisfying
      :func:`reachability_eligible` get ``reachability=True``, telling
      the matcher it may expand them as visited-set BFS when the
      engine's ``use_reachability_rewrite`` gate is on.
    """
    clauses = list(query.clauses)
    pushed = 0
    rewritten = 0
    if pushdown:
        for index in range(len(clauses) - 1):
            clause, following = clauses[index], clauses[index + 1]
            if not isinstance(clause, ast.Match) or clause.optional:
                continue
            if not isinstance(following, ast.Where):
                continue
            clauses[index], count = _push_conjuncts(clause,
                                                    following.predicate)
            pushed += count
    if mark_reachability:
        for index, clause in enumerate(clauses):
            if isinstance(clause, ast.Match):
                if not _consumer_is_distinct(clauses[index + 1:]):
                    continue
                clauses[index], count = _mark_reachability(clause)
                rewritten += count
            elif isinstance(clause, ast.Where):
                # pattern predicates are pure existence tests, which
                # are multiplicity-insensitive by construction
                predicate, count = _mark_predicate_patterns(
                    clause.predicate)
                if count:
                    clauses[index] = dataclasses.replace(
                        clause, predicate=predicate)
                    rewritten += count
            elif isinstance(clause, (ast.With, ast.Return)) \
                    and getattr(clause, "where", None) is not None:
                where, count = _mark_predicate_patterns(clause.where)
                if count:
                    clauses[index] = dataclasses.replace(clause,
                                                         where=where)
                    rewritten += count
    planned = dataclasses.replace(query, clauses=tuple(clauses))
    return planned, PlanReport(pushed_filters=pushed,
                               reachability_rewrites=rewritten)


def _conjuncts(expr: ast.Expr) -> Iterable[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "and":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _pushable(expr: ast.Expr) -> tuple[str, str, ast.Expr] | None:
    """``v.key = <const>`` (either side) -> (variable, key, value)."""
    if not isinstance(expr, ast.Binary) or expr.op != "=":
        return None
    for access, value in ((expr.left, expr.right),
                          (expr.right, expr.left)):
        if (isinstance(access, ast.PropertyAccess)
                and isinstance(access.subject, ast.Variable)
                and isinstance(value, (ast.Literal, ast.Parameter))):
            if isinstance(value, ast.Literal) and value.value is None:
                continue  # `= null` is never true; leave it to WHERE
            return access.subject.name, access.key, value
    return None


def _push_conjuncts(clause: ast.Match,
                    predicate: ast.Expr) -> tuple[ast.Match, int]:
    wanted: dict[str, list[tuple[str, ast.Expr]]] = {}
    for conjunct in _conjuncts(predicate):
        found = _pushable(conjunct)
        if found is not None:
            variable, key, value = found
            wanted.setdefault(variable, []).append((key, value))
    if not wanted:
        return clause, 0
    pushed = 0
    patterns = []
    for pattern in clause.patterns:
        nodes = []
        for node in pattern.nodes:
            extra = wanted.get(node.variable or "")
            if extra:
                have = {key for key, _ in node.properties}
                fresh = tuple((key, value) for key, value in extra
                              if key not in have)
                if fresh:
                    node = dataclasses.replace(
                        node, properties=node.properties + fresh)
                    pushed += len(fresh)
            nodes.append(node)
        patterns.append(dataclasses.replace(pattern, nodes=tuple(nodes)))
    return dataclasses.replace(clause, patterns=tuple(patterns)), pushed


def _consumer_is_distinct(following: list[ast.Clause]) -> bool:
    """True when every row this MATCH emits is consumed set-wise.

    The first projection clause downstream must either be DISTINCT and
    aggregate-free, or aggregate only through ``count(DISTINCT …)``
    (see :func:`_counts_distinct`): duplicates collapse there, and
    every later stage sees identical inputs either way. Intervening
    MATCH/WHERE clauses are per-row (duplicated inputs produce
    duplicated outputs with the same row *set*), so they are
    transparent to this analysis.
    """
    for clause in following:
        if isinstance(clause, (ast.With, ast.Return)):
            aggregated = [expr for expr in
                          [item.expression for item in clause.items] +
                          [sort.expression for sort in clause.order_by]
                          if ast.contains_aggregate(expr)]
            if aggregated:
                return all(_counts_distinct(expr) for expr in aggregated)
            return clause.distinct
        if not isinstance(clause, (ast.Match, ast.Where)):
            return False
    return False


def _counts_distinct(expr: ast.Expr) -> bool:
    """True when *expr*'s value per group depends on the group's row
    set alone: every aggregate call in it is ``count(DISTINCT …)``,
    and it reads no variable outside those calls (a group-constant
    read takes the group's first row, whose identity depends on row
    order)."""
    if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        return expr.name == "count" and expr.distinct
    if isinstance(expr, (ast.CountStar, ast.Variable,
                         ast.PatternPredicate)):
        return False
    if isinstance(expr, ast.FunctionCall):
        return all(_counts_distinct(arg) for arg in expr.args)
    if isinstance(expr, ast.Unary):
        return _counts_distinct(expr.operand)
    if isinstance(expr, ast.Binary):
        return _counts_distinct(expr.left) and \
            _counts_distinct(expr.right)
    if isinstance(expr, ast.PropertyAccess):
        return _counts_distinct(expr.subject)
    return True


def reachability_eligible(clause: ast.Match) -> list[ast.RelPattern]:
    """Rels of *clause* safe to expand as BFS reachability, given the
    clause's rows are consumed endpoint-distinct.

    Preconditions (each keeps the rewrite semantics-preserving):

    * the clause binds exactly one relationship in total, so Cypher's
      clause-level edge uniqueness has nothing to cross-check;
    * the rel is var-length with ``min_hops <= 1`` (a node's BFS level
      is its minimum edge-unique hop count, so a bounded BFS answers
      "reachable within <= max hops" exactly; ``min_hops >= 2`` would
      need per-depth revisits);
    * the rel is directed: with ``direction='both'`` a BFS can close a
      cycle back to its source through the one undirected edge it left
      by, which path enumeration rejects as edge reuse;
    * neither the relationship nor the enclosing path is bound to a
      variable (nothing downstream can observe the missing paths);
    * the pattern is not a shortestPath (those already BFS).
    """
    rels = [rel for pattern in clause.patterns for rel in pattern.rels]
    if len(rels) != 1:
        return []
    (rel,) = rels
    (pattern,) = [p for p in clause.patterns if p.rels]
    if (rel.var_length and rel.min_hops <= 1
            and rel.direction != "both"
            and rel.variable is None
            and pattern.path_variable is None
            and pattern.shortest is None):
        return [rel]
    return []


def _mark_predicate_patterns(expr: ast.Expr) -> tuple[ast.Expr, int]:
    """Mark eligible var-length rels inside WHERE pattern predicates.

    A pattern predicate asks "does at least one match exist?", so the
    endpoint-distinct requirement is satisfied trivially — any rel
    meeting the structural conditions of
    :func:`reachability_eligible` (checked by wrapping the predicate's
    pattern in a single-pattern MATCH) may collapse to reachability.
    """
    if isinstance(expr, ast.PatternPredicate):
        probe = ast.Match(patterns=(expr.pattern,))
        marked, count = _mark_reachability(probe)
        if count:
            return ast.PatternPredicate(marked.patterns[0]), count
        return expr, 0
    if isinstance(expr, ast.Unary):
        operand, count = _mark_predicate_patterns(expr.operand)
        if count:
            return dataclasses.replace(expr, operand=operand), count
        return expr, 0
    if isinstance(expr, ast.Binary):
        left, left_count = _mark_predicate_patterns(expr.left)
        right, right_count = _mark_predicate_patterns(expr.right)
        if left_count or right_count:
            return (dataclasses.replace(expr, left=left, right=right),
                    left_count + right_count)
        return expr, 0
    return expr, 0


def _mark_reachability(clause: ast.Match) -> tuple[ast.Match, int]:
    eligible = reachability_eligible(clause)
    if not eligible:
        return clause, 0
    patterns = []
    marked = 0
    for pattern in clause.patterns:
        rels = []
        for rel in pattern.rels:
            if rel in eligible and not rel.reachability:
                rel = dataclasses.replace(rel, reachability=True)
                marked += 1
            rels.append(rel)
        patterns.append(dataclasses.replace(pattern, rels=tuple(rels)))
    return dataclasses.replace(clause, patterns=tuple(patterns)), marked
