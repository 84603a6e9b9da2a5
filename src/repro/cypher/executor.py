"""Clause pipeline: START / MATCH / WHERE / WITH / RETURN execution.

Rows flow through the clauses as dict bindings; projection (WITH and
RETURN) handles DISTINCT, implicit-grouping aggregation, ORDER BY,
SKIP and LIMIT. Everything is generator-based so a LIMIT can stop an
expensive MATCH early, and the shared
:class:`~repro.cypher.evaluator.ExecutionContext` enforces the query
time budget throughout.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Iterable, Iterator, Mapping

from repro.cypher import ast
from repro.cypher.evaluator import ExecutionContext, evaluate
from repro.cypher.matcher import match_clause
from repro.cypher.result import (EdgeRef, NodeRef, PathValue, QueryStats,
                                 Result)
from repro.errors import CypherSemanticError, QueryError


def execute(query: ast.Query, ctx: ExecutionContext) -> Result:
    """Run a parsed query to a materialized result.

    When ``ctx.profiler`` is set (PROFILE execution), every clause
    stage is wrapped in a timed iterator so the profiler sees rows,
    self time and db-hits per physical operator; the unprofiled path
    is untouched.
    """
    rows: Iterator[dict[str, Any]] = iter([{}])
    result: Result | None = None
    profiler = ctx.profiler
    for index, clause in enumerate(query.clauses):
        if isinstance(clause, ast.Start):
            if profiler is not None:
                node = profiler.operator(None, ("start", index), "Start")
                rows = profiler.iterate(node,
                                        _start(clause, rows, ctx, node))
            else:
                rows = _start(clause, rows, ctx)
        elif isinstance(clause, ast.Match):
            if profiler is not None:
                from repro.cypher.explain import describe_pattern
                node = profiler.operator(
                    None, ("match", index),
                    "OptionalMatch" if clause.optional else "Match",
                    pattern=", ".join(describe_pattern(pattern)
                                      for pattern in clause.patterns))
                rows = profiler.iterate(
                    node, match_clause(clause, rows, ctx, node))
            else:
                rows = match_clause(clause, rows, ctx)
        elif isinstance(clause, ast.Where):
            if profiler is not None:
                node = profiler.operator(None, ("filter", index),
                                         "Filter")
                rows = profiler.iterate(
                    node, _where(clause.predicate, rows, ctx))
            else:
                rows = _where(clause.predicate, rows, ctx)
        elif isinstance(clause, ast.With):
            if profiler is not None:
                node = profiler.operator(
                    None, ("with", index),
                    _projection_operator(clause.items),
                    distinct=clause.distinct or None)
                rows = profiler.iterate(node,
                                        _with(clause, rows, ctx, node))
            else:
                rows = _with(clause, rows, ctx)
        elif isinstance(clause, ast.Return):
            if profiler is not None:
                node = profiler.operator(
                    None, ("return", index),
                    _projection_operator(clause.items, clause.star),
                    distinct=clause.distinct or None)
                with profiler.timed(node):
                    result = _return(clause, rows, ctx, node)
                node.rows += len(result.rows)
            else:
                result = _return(clause, rows, ctx)
        else:
            raise CypherSemanticError(f"unsupported clause {clause!r}")
    if result is None:
        # queries ending in WITH: materialize its bindings as the result
        materialized = list(rows)
        columns = sorted({key for row in materialized for key in row})
        data = [tuple(row.get(column) for column in columns)
                for row in materialized]
        result = Result(columns, data)
    result.stats.expansions = ctx.expansions
    result.stats.elapsed_seconds = ctx.elapsed
    result.stats.rows_produced = len(result.rows)
    return result


# --------------------------------------------------------------------------
# START
# --------------------------------------------------------------------------

def _start(clause: ast.Start, rows: Iterator[dict[str, Any]],
           ctx: ExecutionContext,
           plan: Any | None = None) -> Iterator[dict[str, Any]]:
    for row in rows:
        yield from _start_points(clause.points, 0, row, ctx, plan)


def _start_points(points: tuple[ast.StartPoint, ...], index: int,
                  row: dict[str, Any], ctx: ExecutionContext,
                  plan: Any | None = None,
                  ) -> Iterator[dict[str, Any]]:
    if index == len(points):
        yield row
        return
    point = points[index]
    if isinstance(point, ast.IndexStartPoint):
        if point.index_name != "node_auto_index":
            raise CypherSemanticError(
                f"unknown index {point.index_name!r}")
        candidates: Iterable[int] = ctx.index_candidates(point.query)
        operator_name = "NodeByIndexQuery"
    elif point.all_nodes:
        candidates = ctx.view.node_ids()
        operator_name = "AllNodesScan"
    else:
        for node_id in point.ids:
            if not ctx.view.has_node(node_id):
                raise QueryError(f"no node with id {node_id}")
        candidates = point.ids
        operator_name = "NodeById"
    if plan is not None and ctx.profiler is not None:
        operator = ctx.profiler.operator(
            plan, ("point", index), operator_name,
            variable=point.variable,
            query=point.query
            if isinstance(point, ast.IndexStartPoint) else None)
        candidates = ctx.profiler.iterate(operator, candidates,
                                          hits_per_row=1)
    for node_id in candidates:
        ctx.tick()
        extended = dict(row)
        extended[point.variable] = NodeRef(node_id)
        yield from _start_points(points, index + 1, extended, ctx, plan)


# --------------------------------------------------------------------------
# WHERE
# --------------------------------------------------------------------------

def _where(predicate: ast.Expr, rows: Iterator[dict[str, Any]],
           ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
    for row in rows:
        ctx.tick()
        if evaluate(predicate, row, ctx) is True:
            yield row


# --------------------------------------------------------------------------
# Projection (WITH / RETURN)
# --------------------------------------------------------------------------

def _projection_operator(items: tuple[ast.ReturnItem, ...],
                         star: bool = False) -> str:
    aggregated = not star and any(
        ast.contains_aggregate(item.expression) for item in items)
    return "EagerAggregation" if aggregated else "Projection"


def _with(clause: ast.With, rows: Iterator[dict[str, Any]],
          ctx: ExecutionContext,
          plan: Any | None = None) -> Iterator[dict[str, Any]]:
    columns, data = _project(clause.items, clause.distinct, clause.order_by,
                             clause.skip, clause.limit, rows, ctx,
                             star=False, plan=plan)
    for values in data:
        row = dict(zip(columns, values))
        if clause.where is None or evaluate(clause.where, row, ctx) is True:
            yield row


def _return(clause: ast.Return, rows: Iterator[dict[str, Any]],
            ctx: ExecutionContext, plan: Any | None = None) -> Result:
    columns, data = _project(clause.items, clause.distinct, clause.order_by,
                             clause.skip, clause.limit, rows, ctx,
                             star=clause.star, plan=plan)
    return Result(columns, data, QueryStats())


def _project(items: tuple[ast.ReturnItem, ...], distinct: bool,
             order_by: tuple[ast.SortItem, ...],
             skip: ast.Expr | None, limit: ast.Expr | None,
             rows: Iterator[dict[str, Any]], ctx: ExecutionContext,
             star: bool, plan: Any | None = None,
             ) -> tuple[list[str], list[tuple[Any, ...]]]:
    profiler = ctx.profiler if plan is not None else None
    if star:
        materialized = list(rows)
        columns = sorted({key for row in materialized for key in row})
        scoped = [(tuple(row.get(column) for column in columns), row)
                  for row in materialized]
    else:
        columns = _column_names(items)
        if any(ast.contains_aggregate(item.expression) for item in items):
            scoped = _aggregate(items, rows, ctx)
        else:
            scoped = []
            for row in rows:
                ctx.tick()
                values = tuple(evaluate(item.expression, row, ctx)
                               for item in items)
                scoped.append((values, row))
    if distinct:
        if profiler is not None:
            operator = profiler.operator(plan, "distinct", "Distinct")
            with profiler.timed(operator):
                scoped = _distinct(scoped)
            operator.rows += len(scoped)
        else:
            scoped = _distinct(scoped)
    if order_by:
        if profiler is not None:
            operator = profiler.operator(plan, "sort", "Sort")
            with profiler.timed(operator):
                scoped = _order(scoped, columns, order_by, ctx)
            operator.rows += len(scoped)
        else:
            scoped = _order(scoped, columns, order_by, ctx)
    data = [values for values, _scope in scoped]
    if skip is not None:
        data = data[_as_count(skip, ctx, "SKIP"):]
        if profiler is not None:
            profiler.operator(plan, "skip", "Skip").rows += len(data)
    if limit is not None:
        count = _as_count(limit, ctx, "LIMIT")
        data = data[:count]
        if profiler is not None:
            profiler.operator(plan, "limit", "Limit").rows += len(data)
    return columns, data


def _column_names(items: tuple[ast.ReturnItem, ...]) -> list[str]:
    names = []
    for item in items:
        rendered = ast.render_expr(item.expression)
        names.append(item.output_name(rendered))
    return names


def _as_count(expr: ast.Expr, ctx: ExecutionContext, what: str) -> int:
    value = evaluate(expr, {}, ctx)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CypherSemanticError(f"{what} needs a non-negative integer")
    return value


def _distinct(scoped: list[tuple[tuple[Any, ...], Mapping[str, Any]]],
              ) -> list[tuple[tuple[Any, ...], Mapping[str, Any]]]:
    """The first row of each distinct value tuple, in input order.

    A tuple holding no list or map is its own ``_hashable`` key, so
    each row is hashed once as it stands; only an input where some
    row is unhashable starts over keyed on ``_hashable`` throughout.
    """
    first: dict[Any, tuple[tuple[Any, ...], Mapping[str, Any]]] = {}
    keep = first.setdefault
    try:
        for entry in scoped:
            keep(entry[0], entry)
    except TypeError:
        first.clear()
        for entry in scoped:
            keep(_hashable(entry[0]), entry)
    return list(first.values())


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item))
                            for key, item in value.items()))
    return value


class _Descending:
    """Inverts a ``_SortKey``'s order for a DESC sort component."""

    __slots__ = ("key",)

    def __init__(self, key: "_SortKey") -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.key == other.key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


def _decorate(scoped: list[tuple[tuple[Any, ...], Mapping[str, Any]]],
              columns: list[str], order_by: tuple[ast.SortItem, ...],
              ctx: ExecutionContext,
              ) -> list[tuple[tuple[Any, ...], int,
                              tuple[tuple[Any, ...], Mapping[str, Any]]]]:
    """Compute each row's full composite sort key exactly once.

    Returns ``(key_tuple, position, entry)`` triples: sorting the
    triples (position breaks ties, so ``entry`` is never compared)
    reproduces the stable multi-pass sort the executor used to do,
    without rebuilding the merged scope and ``_SortKey`` wrappers on
    every comparison.
    """
    decorated = []
    for position, entry in enumerate(scoped):
        values, scope = entry
        merged = dict(scope)
        merged.update(zip(columns, values))
        key = tuple(
            _SortKey(evaluate(item.expression, merged, ctx))
            if item.ascending else
            _Descending(_SortKey(evaluate(item.expression, merged, ctx)))
            for item in order_by)
        decorated.append((key, position, entry))
    return decorated


def _order(scoped: list[tuple[tuple[Any, ...], Mapping[str, Any]]],
           columns: list[str], order_by: tuple[ast.SortItem, ...],
           ctx: ExecutionContext,
           ) -> list[tuple[tuple[Any, ...], Mapping[str, Any]]]:
    decorated = _decorate(scoped, columns, order_by, ctx)
    decorated.sort()
    return [entry for _key, _position, entry in decorated]


def _top_k(scoped: list[tuple[tuple[Any, ...], Mapping[str, Any]]],
           columns: list[str], order_by: tuple[ast.SortItem, ...],
           ctx: ExecutionContext, count: int,
           ) -> list[tuple[tuple[Any, ...], Mapping[str, Any]]]:
    """The first ``count`` rows of ``_order``, via a bounded heap.

    ``heapq.nsmallest`` over the same decorated triples returns
    exactly ``sorted(decorated)[:count]`` (the position tiebreak keeps
    ties in input order), so ORDER BY + LIMIT can skip the full sort
    without changing which tied rows survive.
    """
    if count <= 0:
        return []
    decorated = _decorate(scoped, columns, order_by, ctx)
    return [entry for _key, _position, entry
            in heapq.nsmallest(count, decorated)]


@functools.total_ordering
class _SortKey:
    """Total order over heterogeneous values; None sorts last."""

    __slots__ = ("rank", "value")

    _RANKS = {bool: 0, int: 1, float: 1, str: 2}

    def __init__(self, value: Any) -> None:
        if value is None:
            self.rank = 9
            self.value: Any = 0
        elif isinstance(value, NodeRef):
            self.rank = 3
            self.value = value.id
        elif isinstance(value, EdgeRef):
            self.rank = 4
            self.value = value.id
        elif isinstance(value, PathValue):
            self.rank = 6
            self.value = (len(value),
                          tuple(node.id for node in value.nodes))
        elif isinstance(value, (list, tuple)):
            self.rank = 5
            self.value = tuple(_SortKey(item) for item in value)
        else:
            self.rank = self._RANKS.get(type(value), 8)
            self.value = value

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _SortKey) and self.rank == other.rank
                and self.value == other.value)

    def __lt__(self, other: "_SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.value < other.value


def _sort_key(value: Any) -> _SortKey:
    return _SortKey(value)


# --------------------------------------------------------------------------
# Aggregation (implicit grouping, as Cypher does)
# --------------------------------------------------------------------------

def _aggregate(items: tuple[ast.ReturnItem, ...],
               rows: Iterator[dict[str, Any]], ctx: ExecutionContext,
               ) -> list[tuple[tuple[Any, ...], Mapping[str, Any]]]:
    grouping_positions = [index for index, item in enumerate(items)
                          if not ast.contains_aggregate(item.expression)]
    groups: dict[Any, tuple[tuple[Any, ...], list[dict[str, Any]]]] = {}
    order: list[Any] = []
    for row in rows:
        ctx.tick()
        key_values = tuple(evaluate(items[index].expression, row, ctx)
                           for index in grouping_positions)
        key = _hashable(key_values)
        if key not in groups:
            groups[key] = (key_values, [])
            order.append(key)
        groups[key][1].append(row)
    if not groups and not grouping_positions:
        # aggregates over an empty input still produce one row
        groups[()] = ((), [])
        order.append(())
    scoped = []
    for key in order:
        key_values, group_rows = groups[key]
        key_iter = iter(key_values)
        values = []
        for index, item in enumerate(items):
            if index in grouping_positions:
                values.append(next(key_iter))
            else:
                values.append(_eval_aggregate(item.expression, group_rows,
                                              ctx))
        representative = group_rows[0] if group_rows else {}
        scoped.append((tuple(values), representative))
    return scoped


def _eval_aggregate(expr: ast.Expr, rows: list[dict[str, Any]],
                    ctx: ExecutionContext) -> Any:
    if isinstance(expr, ast.CountStar):
        return len(rows)
    if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        return _apply_aggregate(expr, rows, ctx)
    if isinstance(expr, ast.Binary):
        left = _eval_aggregate(expr.left, rows, ctx)
        right = _eval_aggregate(expr.right, rows, ctx)
        return evaluate(ast.Binary(expr.op, ast.Literal(left),
                                   ast.Literal(right)), {}, ctx)
    if isinstance(expr, ast.Unary):
        inner = _eval_aggregate(expr.operand, rows, ctx)
        return evaluate(ast.Unary(expr.op, ast.Literal(inner)), {}, ctx)
    # group-constant sub-expression
    return evaluate(expr, rows[0] if rows else {}, ctx)


def _apply_aggregate(call: ast.FunctionCall, rows: list[dict[str, Any]],
                     ctx: ExecutionContext) -> Any:
    if len(call.args) != 1:
        raise CypherSemanticError(
            f"{call.name}() takes exactly one argument")
    raw = [evaluate(call.args[0], row, ctx) for row in rows]
    values = [value for value in raw if value is not None]
    if call.distinct:
        seen: set[Any] = set()
        unique = []
        for value in values:
            key = _hashable(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    name = call.name
    if name == "count":
        return len(values)
    if name == "collect":
        return values
    if name == "sum":
        return sum(values) if values else 0
    if name == "min":
        return min(values, key=_sort_key) if values else None
    if name == "max":
        return max(values, key=_sort_key) if values else None
    if name == "avg":
        return sum(values) / len(values) if values else None
    raise CypherSemanticError(f"unknown aggregate {name}()")
