"""Vectorized batch-at-a-time clause execution (morsel-driven).

The row executor (:mod:`repro.cypher.executor`) pipes one ``dict``
binding per row through a stack of generators; every MATCH step copies
the whole row dict per expansion, and every ``next()`` pays generator
resumption. This module executes the same clause pipeline over
:class:`RowBatch` morsels instead: slot-addressed columns over flat
Python lists. MATCH writes its output a column at a time and
aggregation groups on column-kernel outputs; where an expression or
aggregate must read one row, a lightweight :class:`BatchRow` mapping
view lets the evaluator and the matcher's expansion kernels run
unchanged — the semantics (and the produced row *order*) are
identical to row mode by construction, because the batch kernels
reuse the matcher's own anchor/expand primitives and process states
in the same lexicographic order the row executor's nested loops visit
them.

Batch kernels exist for the hot operators: START scans/seeks, single
non-OPTIONAL MATCH patterns (including var-length expansion and the
planner's reachability rewrite), WHERE filters, and WITH/RETURN
projection (DISTINCT, implicit-grouping aggregation, ORDER BY — with a
bounded top-K heap when LIMIT is present — SKIP and LIMIT). A clause
with no batch kernel (OPTIONAL MATCH, multi-pattern MATCH,
shortestPath) falls back to the row executor for that clause only:
rows are materialized, the existing generator runs with identical
profiler wiring, and the output is re-batched, so every query still
runs end to end in batch mode.

Morsels keep LIMIT cheap: stages yield batches of at most
``morsel_size`` rows (default :data:`DEFAULT_MORSEL_SIZE`), and the
MATCH kernel expands anchor states in morsel-sized chunks, so a
downstream LIMIT stops pulling after a bounded amount of wasted work —
the same early-exit property the generator pipeline has.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping as MappingView
from typing import Any, Collection, Iterator, Mapping

from repro.cypher import ast
from repro.cypher import matcher as _matcher
from repro.cypher.evaluator import (ExecutionContext, compile_expr,
                                    compile_props, literal_props)
from repro.cypher.executor import (_as_count, _column_names, _distinct,
                                   _eval_aggregate, _hashable, _order,
                                   _projection_operator, _top_k)
from repro.cypher.matcher import match_clause
from repro.cypher.plan import ANCHOR_OPERATORS
from repro.cypher.result import EdgeRef, NodeRef, QueryStats, Result
from repro.errors import CypherSemanticError, QueryError

__all__ = ["DEFAULT_MORSEL_SIZE", "RowBatch", "BatchRow", "batch_supported",
           "execute_batch"]

#: Default morsel size: rows per batch flowing between operators.
DEFAULT_MORSEL_SIZE = 1024

#: Marks a pattern relationship slot not yet bound during matching.
_UNSET = object()


class RowBatch:
    """A morsel of rows in columnar form.

    ``slots`` maps a variable name to an index into ``columns``; each
    column is a flat list of ``count`` values. Batches are immutable
    once yielded by a stage (builders hand off their lists and start
    fresh ones), so a downstream operator may keep views into a batch
    while upstream processing continues.
    """

    __slots__ = ("slots", "columns", "count")

    def __init__(self, slots: dict[str, int], columns: list[list[Any]],
                 count: int) -> None:
        self.slots = slots
        self.columns = columns
        self.count = count

    @classmethod
    def unit(cls) -> "RowBatch":
        """The pipeline seed: one row with no bindings."""
        return cls({}, [], 1)

    def row_view(self, index: int) -> "BatchRow":
        return BatchRow(self, index)

    def views(self) -> Iterator["BatchRow"]:
        for index in range(self.count):
            yield BatchRow(self, index)

    def row_values(self, index: int, width: int | None = None,
                   ) -> list[Any]:
        """One row's values in slot order, padded to ``width``."""
        values = [column[index] for column in self.columns]
        if width is not None and width > len(values):
            values.extend([None] * (width - len(values)))
        return values

    def __repr__(self) -> str:
        return (f"RowBatch({self.count} rows x "
                f"{len(self.slots)} columns)")


class BatchRow(MappingView):
    """A zero-copy mapping view of one row inside a :class:`RowBatch`.

    The expression evaluator, the matcher and the aggregation helpers
    only need mapping reads (``name in row``, ``row[name]``,
    ``row.get(key)``), so a view avoids materializing a dict per row.
    """

    __slots__ = ("_batch", "_index")

    def __init__(self, batch: RowBatch, index: int) -> None:
        self._batch = batch
        self._index = index

    def __getitem__(self, key: str) -> Any:
        slot = self._batch.slots.get(key)
        if slot is None:
            raise KeyError(key)
        return self._batch.columns[slot][self._index]

    def __contains__(self, key: object) -> bool:
        return key in self._batch.slots

    def __iter__(self) -> Iterator[str]:
        return iter(self._batch.slots)

    def __len__(self) -> int:
        return len(self._batch.slots)


class _Builder:
    """Accumulates rows for one output :class:`RowBatch`."""

    __slots__ = ("slots", "columns", "count", "capacity")

    def __init__(self, slots: dict[str, int], capacity: int) -> None:
        self.slots = slots
        self.columns: list[list[Any]] = [[] for _ in slots]
        self.count = 0
        self.capacity = capacity

    def append(self, values: list[Any]) -> None:
        for column, value in zip(self.columns, values):
            column.append(value)
        self.count += 1

    def extend(self, columns: list[list[Any]],
               count: int) -> Iterator[RowBatch]:
        """Append *count* rows given column-wise, yielding each batch
        as it fills — the same morsel boundaries row-at-a-time
        :meth:`append` would produce."""
        start = 0
        while start < count:
            stop = min(count, start + self.capacity - self.count)
            for column, values in zip(self.columns, columns):
                column.extend(values[start:stop])
            self.count += stop - start
            start = stop
            if self.full:
                yield self.take()

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    def take(self) -> RowBatch:
        batch = RowBatch(self.slots, self.columns, self.count)
        self.columns = [[] for _ in self.slots]
        self.count = 0
        return batch


# --------------------------------------------------------------------------
# Mode selection
# --------------------------------------------------------------------------

def _batchable_match(clause: ast.Match) -> bool:
    """A MATCH the batch kernel handles natively (everything else
    falls back to the row matcher for that clause)."""
    return (len(clause.patterns) == 1 and not clause.optional
            and clause.patterns[0].shortest is None)


def batch_supported(query: ast.Query) -> bool:
    """True when every clause has a native batch kernel (the 'auto'
    execution mode picks batch exactly then; a query needing per-
    clause fallbacks runs faster as a plain generator pipeline)."""
    for clause in query.clauses:
        if isinstance(clause, ast.Match):
            if not _batchable_match(clause):
                return False
        elif not isinstance(clause, (ast.Start, ast.Where, ast.With,
                                     ast.Return)):
            return False
    return True


# --------------------------------------------------------------------------
# Pipeline driver
# --------------------------------------------------------------------------

def execute_batch(query: ast.Query, ctx: ExecutionContext,
                  morsel_size: int = DEFAULT_MORSEL_SIZE) -> Result:
    """Run a parsed query batch-at-a-time to a materialized result.

    Mirrors :func:`repro.cypher.executor.execute` clause for clause —
    same operator names, keys and profiler wiring — so ``PROFILE``
    output lines up across modes (batch operators additionally report
    ``batches``).
    """
    profiler = ctx.profiler
    batches: Iterator[RowBatch] = iter((RowBatch.unit(),))
    result: Result | None = None
    for index, clause in enumerate(query.clauses):
        if isinstance(clause, ast.Start):
            if profiler is not None:
                node = profiler.operator(None, ("start", index), "Start")
                batches = profiler.iterate_batches(
                    node, _start_stage(clause, batches, ctx, morsel_size,
                                       node))
            else:
                batches = _start_stage(clause, batches, ctx, morsel_size)
        elif isinstance(clause, ast.Match) and _batchable_match(clause):
            if profiler is not None:
                from repro.cypher.explain import describe_pattern
                node = profiler.operator(
                    None, ("match", index), "Match",
                    pattern=", ".join(describe_pattern(pattern)
                                      for pattern in clause.patterns))
                batches = profiler.iterate_batches(
                    node, _match_stage(clause, batches, ctx, morsel_size,
                                       node))
            else:
                batches = _match_stage(clause, batches, ctx, morsel_size)
        elif isinstance(clause, ast.Match):
            # no batch kernel: run the row matcher for this clause
            rows = _dict_rows(batches)
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
            batches = _rebatch(rows, morsel_size)
        elif isinstance(clause, ast.Where):
            if profiler is not None:
                node = profiler.operator(None, ("filter", index),
                                         "Filter")
                batches = profiler.iterate_batches(
                    node, _filter_stage(clause.predicate, batches, ctx))
            else:
                batches = _filter_stage(clause.predicate, batches, ctx)
        elif isinstance(clause, ast.With):
            if profiler is not None:
                node = profiler.operator(
                    None, ("with", index),
                    _projection_operator(clause.items),
                    distinct=clause.distinct or None)
                batches = profiler.iterate_batches(
                    node, _with_stage(clause, batches, ctx, morsel_size,
                                      node))
            else:
                batches = _with_stage(clause, batches, ctx, morsel_size)
        elif isinstance(clause, ast.Return):
            if profiler is not None:
                node = profiler.operator(
                    None, ("return", index),
                    _projection_operator(clause.items, clause.star),
                    distinct=clause.distinct or None)
                with profiler.timed(node):
                    result = _return_batch(clause, batches, ctx, node)
                node.rows += len(result.rows)
            else:
                result = _return_batch(clause, batches, ctx)
        else:
            raise CypherSemanticError(f"unsupported clause {clause!r}")
    if result is None:
        # queries ending in WITH: materialize its bindings as the result
        views = [view for batch in batches for view in batch.views()]
        columns = sorted({key for view in views for key in view})
        data = [tuple(view.get(column) for column in columns)
                for view in views]
        result = Result(columns, data)
    result.stats.expansions = ctx.expansions
    result.stats.elapsed_seconds = ctx.elapsed
    result.stats.rows_produced = len(result.rows)
    return result


def _dict_rows(batches: Iterator[RowBatch],
               ) -> Iterator[dict[str, Any]]:
    """Materialize dict rows for a row-mode fallback clause."""
    for batch in batches:
        for index in range(batch.count):
            yield dict(BatchRow(batch, index))


def _rebatch(rows: Iterator[Mapping[str, Any]],
             morsel_size: int) -> Iterator[RowBatch]:
    """Re-batch a row stream; a new batch starts whenever the key set
    changes, so every batch has uniform slots."""
    builder: _Builder | None = None
    names: tuple[str, ...] | None = None
    for row in rows:
        row_names = tuple(row)
        if builder is None or row_names != names:
            if builder is not None and builder.count:
                yield builder.take()
            names = row_names
            builder = _Builder(
                {name: slot for slot, name in enumerate(row_names)},
                morsel_size)
        builder.append([row[name] for name in row_names])
        if builder.full:
            yield builder.take()
    if builder is not None and builder.count:
        yield builder.take()


# --------------------------------------------------------------------------
# START
# --------------------------------------------------------------------------

def _start_stage(clause: ast.Start, batches: Iterator[RowBatch],
                 ctx: ExecutionContext, morsel_size: int,
                 plan: Any | None = None) -> Iterator[RowBatch]:
    for batch in batches:
        slots = dict(batch.slots)
        for point in clause.points:
            if point.variable not in slots:
                slots[point.variable] = len(slots)
        builder = _Builder(slots, morsel_size)
        width = len(slots)
        for index in range(batch.count):
            values = batch.row_values(index, width)
            yield from _start_product(clause.points, 0, values, ctx,
                                      builder, plan)
        if builder.count:
            yield builder.take()


def _start_product(points: tuple[ast.StartPoint, ...], index: int,
                   values: list[Any], ctx: ExecutionContext,
                   builder: _Builder, plan: Any | None,
                   ) -> Iterator[RowBatch]:
    if index == len(points):
        builder.append(list(values))
        if builder.full:
            yield builder.take()
        return
    point = points[index]
    candidates, operator_name = _point_candidates(point, ctx)
    if plan is not None and ctx.profiler is not None:
        operator = ctx.profiler.operator(
            plan, ("point", index), operator_name,
            variable=point.variable,
            query=point.query
            if isinstance(point, ast.IndexStartPoint) else None)
        candidates = ctx.profiler.iterate(operator, candidates,
                                          hits_per_row=1)
    slot = builder.slots[point.variable]
    for node_id in candidates:
        ctx.tick()
        values[slot] = NodeRef(node_id)
        yield from _start_product(points, index + 1, values, ctx,
                                  builder, plan)


def _point_candidates(point: ast.StartPoint, ctx: ExecutionContext,
                      ) -> tuple[Any, str]:
    if isinstance(point, ast.IndexStartPoint):
        if point.index_name != "node_auto_index":
            raise CypherSemanticError(
                f"unknown index {point.index_name!r}")
        return ctx.index_candidates(point.query), "NodeByIndexQuery"
    if point.all_nodes:
        return ctx.view.node_ids(), "AllNodesScan"
    for node_id in point.ids:
        if not ctx.view.has_node(node_id):
            raise QueryError(f"no node with id {node_id}")
    return point.ids, "NodeById"


# --------------------------------------------------------------------------
# MATCH
# --------------------------------------------------------------------------

class _MatchRow(MappingView):
    """The evaluator-visible row during batch pattern expansion: the
    source batch row overlaid with the bindings of one in-flight match
    state (pattern nodes/rels bound so far), without copying either."""

    __slots__ = ("_base", "_node_slots", "_rel_slots", "_bound", "_rels")

    def __init__(self, base: BatchRow,
                 node_slots: Mapping[str, tuple[int, ...]],
                 rel_slots: Mapping[str, tuple[int, ...]],
                 bound: list[int | None], rels: list[Any]) -> None:
        self._base = base
        self._node_slots = node_slots
        self._rel_slots = rel_slots
        self._bound = bound
        self._rels = rels

    def __getitem__(self, key: str) -> Any:
        # the source row wins: the matcher never rebinds a variable
        # that arrived already bound
        if key in self._base:
            return self._base[key]
        for node_index in self._node_slots.get(key, ()):
            node_id = self._bound[node_index]
            if node_id is not None:
                return NodeRef(node_id)
        for rel_index in self._rel_slots.get(key, ()):
            value = self._rels[rel_index]
            if value is not _UNSET:
                return value
        raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        if key in self._base:
            return True
        return (any(self._bound[node_index] is not None
                    for node_index in self._node_slots.get(key, ()))
                or any(self._rels[rel_index] is not _UNSET
                       for rel_index in self._rel_slots.get(key, ())))

    def __iter__(self) -> Iterator[str]:
        yield from self._base
        for key in self._node_slots:
            if key not in self._base and key in self:
                yield key
        for key in self._rel_slots:
            if key not in self._base and key not in self._node_slots \
                    and key in self:
                yield key

    def __len__(self) -> int:
        return sum(1 for _key in self)


class _MatchSetup:
    """Per-(pattern, input-slot-layout) expansion state, computed once
    per MATCH clause and reused for every batch with the same slots
    (anchored queries produce many small batches; redoing plan and
    layout work per batch would swamp them)."""

    __slots__ = ("anchor", "steps", "estimates", "anchor_node",
                 "anchor_op", "anchor_proven", "node_slots", "rel_slots",
                 "out_slots", "outputs")


#: Where an output column of the MATCH kernel comes from (see
#: :attr:`_MatchSetup.outputs`).
_INPUT, _NODE, _REL, _PATH = "input", "node", "rel", "path"


def _match_stage(clause: ast.Match, batches: Iterator[RowBatch],
                 ctx: ExecutionContext, morsel_size: int,
                 plan: Any | None = None) -> Iterator[RowBatch]:
    pattern = clause.patterns[0]
    setups: dict[tuple[str, ...], _MatchSetup] = {}
    for batch in batches:
        key = tuple(batch.slots)
        setup = setups.get(key)
        if setup is None:
            setup = _match_setup(pattern, batch.slots, ctx, plan)
            setups[key] = setup
        yield from _match_batch(pattern, batch, ctx, morsel_size, plan,
                                setup)


def _match_setup(pattern: ast.Pattern, slots: Mapping[str, int],
                 ctx: ExecutionContext,
                 plan: Any | None) -> _MatchSetup:
    setup = _MatchSetup()
    profiler = ctx.profiler if plan is not None else None
    if ctx.use_cost_based_planner:
        pattern_plan = _matcher._plan_for(pattern, slots, ctx)
        setup.anchor = pattern_plan.anchor
        setup.steps = _matcher._steps_from_plan(pattern, pattern_plan)
        setup.estimates = {rel_index: estimate
                           for (rel_index, _, _), estimate
                           in zip(pattern_plan.steps,
                                  pattern_plan.step_estimates)}
    else:
        pattern_plan = None
        setup.anchor = _matcher._pick_anchor(pattern, slots)
        setup.steps = _matcher._build_steps(pattern, setup.anchor)
        setup.estimates = None
    anchor_node = setup.anchor_node = pattern.nodes[setup.anchor]
    strategy, detail = _matcher.anchor_strategy(
        anchor_node, set(slots),
        tuple(getattr(ctx.view.indexes, "auto_index_keys", ())),
        ctx.use_index_seek)
    # a label scan of the node's only label, with no property map and
    # the variable unbound, already proves everything _node_ok checks
    setup.anchor_proven = (strategy == "label-scan"
                           and len(anchor_node.labels) == 1
                           and not anchor_node.properties)
    setup.anchor_op = None
    if profiler is not None:
        if pattern_plan is not None:
            strategy, detail = pattern_plan.strategy, pattern_plan.detail
            anchor_estimate = pattern_plan.anchor_estimate
        else:
            anchor_estimate = None
        setup.anchor_op = profiler.operator(
            plan, ("anchor", 0), ANCHOR_OPERATORS[strategy],
            estimated=anchor_estimate,
            variable=setup.anchor_node.variable, on=detail or None)

    node_slots: dict[str, tuple[int, ...]] = {}
    for node_index, node in enumerate(pattern.nodes):
        if node.variable:
            node_slots[node.variable] = \
                node_slots.get(node.variable, ()) + (node_index,)
    rel_slots: dict[str, tuple[int, ...]] = {}
    for rel_index, rel in enumerate(pattern.rels):
        if rel.variable:
            rel_slots[rel.variable] = \
                rel_slots.get(rel.variable, ()) + (rel_index,)
    setup.node_slots = node_slots
    setup.rel_slots = rel_slots

    # output layout: input columns, then newly bound pattern variables
    out_slots = dict(slots)
    for name in pattern.variables():
        if name not in out_slots:
            out_slots[name] = len(out_slots)
    setup.out_slots = out_slots
    # each output slot's source, in slot order: after the last step
    # every pattern node and relationship is bound, so a variable
    # named twice reads its first position; the path overwrites an
    # input binding of its name, as the row matcher's does
    outputs: list[tuple[str, int]] = []
    for name, slot in out_slots.items():
        if name == pattern.path_variable:
            outputs.append((_PATH, slot))
        elif name in slots:
            outputs.append((_INPUT, slot))
        elif name in node_slots:
            outputs.append((_NODE, node_slots[name][0]))
        else:
            outputs.append((_REL, rel_slots[name][0]))
    setup.outputs = outputs
    return setup


def _match_batch(pattern: ast.Pattern, batch: RowBatch,
                 ctx: ExecutionContext, morsel_size: int,
                 plan: Any | None,
                 setup: _MatchSetup) -> Iterator[RowBatch]:
    """Expand one pattern over one input batch, morsel by morsel.

    Anchor states are drawn lazily and expanded through the step list
    a chunk at a time; each chunk's surviving states are written into
    the output columns in the exact order the row matcher's
    depth-first nested loops would yield them (states are processed in
    order and expansions appended in adjacency order, so the flattened
    output is the same lexicographic sequence).
    """
    if batch.count == 0:
        return
    profiler = ctx.profiler if plan is not None else None
    anchor = setup.anchor
    steps = setup.steps
    estimates = setup.estimates
    anchor_node = setup.anchor_node
    anchor_op = setup.anchor_op
    anchor_proven = setup.anchor_proven
    node_slots = setup.node_slots
    rel_slots = setup.rel_slots
    outputs = setup.outputs

    def anchor_states() -> Iterator[tuple[int, list[int | None],
                                          frozenset[int], list[Any]]]:
        no_edges: frozenset[int] = frozenset()
        unbound = [None] * len(pattern.nodes)
        # shared by every state: steps copy the list before binding
        unset = [_UNSET] * len(pattern.rels)
        db_hit = ctx.db_hit
        for index in range(batch.count):
            view = batch.row_view(index)
            candidates = _matcher._anchor_candidates(anchor_node, view,
                                                     ctx)
            if profiler is not None:
                candidates = profiler.iterate(anchor_op, candidates,
                                              hits_per_row=1)
            for node_id in candidates:
                if anchor_proven:
                    db_hit()  # the label check's hit, as _node_ok charges
                elif not _matcher._node_ok(anchor_node, node_id, view,
                                           ctx):
                    continue
                bound = unbound.copy()
                bound[anchor] = node_id
                yield index, bound, no_edges, unset

    builder = _Builder(setup.out_slots, morsel_size)

    def run_steps(chunk: list[Any]) -> list[Any]:
        """The per-morsel operator chain: every step over one chunk."""
        for step in steps:
            if not chunk:
                break
            if profiler is not None:
                step_op = profiler.operator(
                    plan, ("expand", 0, step.rel_index),
                    "VarLengthExpand" if step.rel.var_length
                    else "Expand",
                    estimated=estimates.get(step.rel_index)
                    if estimates is not None else None,
                    types="|".join(step.rel.types) or None,
                    direction=step.rel.direction,
                    bounds=_matcher._hops_text(step.rel)
                    if step.rel.var_length else None,
                    mode="reachability"
                    if _matcher._use_reachability(step, chunk[0][2],
                                                  ctx) else None)
                with profiler.timed(step_op):
                    chunk = _expand_chunk(step, chunk, batch,
                                          node_slots, rel_slots, ctx)
                step_op.rows += len(chunk)
            else:
                chunk = _expand_chunk(step, chunk, batch, node_slots,
                                      rel_slots, ctx)
        return chunk

    def columns_of(chunk: list[Any]) -> list[list[Any]]:
        """Output columns (in state order) for one fully-expanded
        chunk: one pass per output slot."""
        columns: list[list[Any]] = []
        for kind, index in outputs:
            if kind == _INPUT:
                column = batch.columns[index]
                columns.append([column[state[0]] for state in chunk])
            elif kind == _NODE:
                columns.append([NodeRef(state[1][index])
                                for state in chunk])
            elif kind == _REL:
                columns.append([state[3][index] for state in chunk])
            else:
                columns.append([
                    _matcher._build_path(pattern, dict(enumerate(bound)),
                                         dict(enumerate(rels)), ctx)
                    for _src, bound, _used, rels in chunk])
        return columns

    states = anchor_states()
    while True:
        chunk = list(itertools.islice(states, morsel_size))
        if not chunk:
            break
        chunk = run_steps(chunk)
        yield from builder.extend(columns_of(chunk), len(chunk))
    if builder.count:
        yield builder.take()


def _edge_filter(rel: ast.RelPattern, ctx: ExecutionContext):
    """A ``(edge_id, row, ctx) -> bool`` check for a relationship's
    property map — the compiled restatement of
    :func:`repro.cypher.matcher._edge_props_ok` (same per-key db-hit
    charging, same short-circuit order) — or ``None`` when the map is
    empty. Compiled checks are cached on the AST node, so they live
    with the plan."""
    if not rel.properties:
        return None
    check = getattr(rel, "_compiled_edge_check", None)
    if check is None:
        literals = literal_props(rel.properties)
        if literals is not None:
            # all-literal map: the wanted values are row-independent,
            # so the per-edge kernel calls disappear entirely
            def check(edge_id: int, row: Mapping[str, Any],
                      context: ExecutionContext) -> bool:
                edge_property = context.view.edge_property
                for key, wanted in literals:
                    context.db_hit()
                    if edge_property(edge_id, key) != wanted:
                        return False
                return True
        else:
            props = compile_props(rel.properties)

            def check(edge_id: int, row: Mapping[str, Any],
                      context: ExecutionContext) -> bool:
                edge_property = context.view.edge_property
                for key, kernel in props:
                    wanted = kernel(row, context)
                    context.db_hit()
                    if edge_property(edge_id, key) != wanted:
                        return False
                return True

        object.__setattr__(rel, "_compiled_edge_check", check)
    return check


def _node_filter(node: ast.NodePattern, ctx: ExecutionContext):
    """A ``(node_id, row, ctx) -> bool`` check mirroring
    :func:`repro.cypher.matcher._node_ok` exactly (prior-binding,
    labels, then the property map — db-hits in that order)."""
    check = getattr(node, "_compiled_node_check", None)
    if check is None:
        variable = node.variable
        labels = node.labels
        literals = literal_props(node.properties)
        props = compile_props(node.properties) \
            if literals is None else ()

        def check(node_id: int, row: Mapping[str, Any],
                  context: ExecutionContext) -> bool:
            if variable and variable in row:
                value = row[variable]
                if not isinstance(value, NodeRef) or value.id != node_id:
                    return False
            if labels:
                context.db_hit()
                node_labels = context.view.node_labels(node_id)
                if not all(label in node_labels for label in labels):
                    return False
            if literals is not None:
                for key, wanted in literals:
                    context.db_hit()
                    if context.view.node_property(node_id, key) \
                            != wanted:
                        return False
                return True
            for key, kernel in props:
                wanted = kernel(row, context)
                context.db_hit()
                if context.view.node_property(node_id, key) != wanted:
                    return False
            return True

        object.__setattr__(node, "_compiled_node_check", check)
    return check


def _expand_chunk(step: Any,
                  states: list[tuple[int, list[int | None],
                                     frozenset[int], list[Any]]],
                  batch: RowBatch,
                  node_slots: Mapping[str, tuple[int, ...]],
                  rel_slots: Mapping[str, tuple[int, ...]],
                  ctx: ExecutionContext,
                  ) -> list[tuple[int, list[int | None], frozenset[int],
                                  list[Any]]]:
    """Run one relationship step over a chunk of match states.

    The kernels below are vectorized restatements of the matcher's
    per-row generators (:func:`repro.cypher.matcher._expand_single`
    and friends): adjacency arrives endpoint-resolved in bulk from
    :meth:`ExecutionContext.neighbors`, ticks are charged per
    adjacency list instead of per edge (same totals), and filters that
    the row kernels would evaluate to a constant no-op — empty
    relationship property maps, target nodes with no labels, property
    map or prior binding — are hoisted out of the per-edge loop
    entirely. Expansion order is the adjacency order the row kernels
    iterate in, so output rows stay identical.
    """
    out = []
    rel = step.rel
    target = step.target
    source_index = step.source_index
    rel_index = step.rel_index
    target_index = source_index + (-1 if step.reversed else 1)
    direction = step.direction
    types = rel.types or None
    rel_variable = rel.variable
    has_rel_props = bool(rel.properties)
    plain_target = not target.labels and not target.properties
    target_variable = target.variable
    if rel.var_length:
        target_check = _node_filter(target, ctx)
        for src, bound, used, rels in states:
            view = _MatchRow(batch.row_view(src), node_slots,
                             rel_slots, bound, rels)
            source = bound[source_index]
            check_target = not plain_target or (
                target_variable is not None and target_variable in view)
            if _matcher._use_reachability(step, used, ctx):
                # endpoints only: the planner proved there is no rel
                # variable to bind, and no edge is consumed
                reached = _expand_reachability_vec(step, source, view,
                                                   ctx)
                if check_target:
                    reached = [node for node in reached
                               if target_check(node, view, ctx)]
                new_rels = list(rels)
                new_rels[rel_index] = ()
                for node in reached:
                    new_bound = bound.copy()
                    new_bound[target_index] = node
                    out.append((src, new_bound, used, new_rels))
                continue
            expansions = _expand_var_length_vec(step, source, view,
                                                used, ctx)
            prior = view[rel_variable] if rel_variable \
                and rel_variable in view else _UNSET
            for target_node, rel_value, edges in expansions:
                if check_target and not target_check(target_node, view,
                                                     ctx):
                    continue
                oriented = tuple(reversed(rel_value)) \
                    if step.reversed else rel_value
                if prior is not _UNSET and prior != oriented:
                    continue
                new_bound = list(bound)
                new_bound[target_index] = target_node
                new_rels = list(rels)
                new_rels[rel_index] = oriented
                out.append((src, new_bound, used | edges, new_rels))
        return out
    target_labels = target.labels
    target_props = target.properties
    target_prop_literals = literal_props(target_props) \
        if target_props else None
    target_prop_checks = compile_props(target_props) \
        if target_props and target_prop_literals is None else None
    edge_ok = _edge_filter(rel, ctx)
    view_node_labels = ctx.view.node_labels
    view_node_property = ctx.view.node_property
    bulk_labels = getattr(ctx.view, "labels_of", None) \
        if target_labels else None
    db_hit = ctx.db_hit
    for src, bound, used, rels in states:
        view = _MatchRow(batch.row_view(src), node_slots, rel_slots,
                         bound, rels)
        source = bound[source_index]
        pairs = ctx.neighbors(source, direction, types)
        ctx.tick(len(pairs))
        # per-state constants the row kernel re-derives per edge:
        # required target id when the variable is already bound (None
        # = bound to a non-node, matches nothing), prior rel binding
        if target_variable is not None and target_variable in view:
            value = view[target_variable]
            required = value.id if isinstance(value, NodeRef) else None
        else:
            required = _UNSET
        prior = view[rel_variable] if rel_variable \
            and rel_variable in view else _UNSET
        # bulk-resolve the label sets for the whole adjacency list
        # when every edge will be label-checked anyway (db hits are
        # still charged per edge below, exactly as the row kernel
        # charges them)
        labelsets = bulk_labels([n for _e, n in pairs]) \
            if bulk_labels is not None and required is _UNSET \
            and not has_rel_props else None
        for index, (edge_id, neighbor) in enumerate(pairs):
            if edge_id in used:
                continue
            if has_rel_props and not edge_ok(edge_id, view, ctx):
                continue
            # inline _node_ok, in its exact check (and db-hit) order:
            # prior binding, then labels, then the property map
            if required is not _UNSET and neighbor != required:
                continue
            if target_labels:
                db_hit()
                labels = labelsets[index] if labelsets is not None \
                    else view_node_labels(neighbor)
                if not all(label in labels
                           for label in target_labels):
                    continue
            if target_props:
                ok = True
                if target_prop_literals is not None:
                    for key, wanted in target_prop_literals:
                        db_hit()
                        if view_node_property(neighbor, key) != wanted:
                            ok = False
                            break
                else:
                    for key, kernel in target_prop_checks:
                        wanted = kernel(view, ctx)
                        db_hit()
                        if view_node_property(neighbor, key) != wanted:
                            ok = False
                            break
                if not ok:
                    continue
            oriented = EdgeRef(edge_id)
            if prior is not _UNSET and prior != oriented:
                continue
            new_bound = list(bound)
            new_bound[target_index] = neighbor
            new_rels = list(rels)
            new_rels[rel_index] = oriented
            out.append((src, new_bound, used | {edge_id}, new_rels))
    return out


def _expand_var_length_vec(step: Any, source: int,
                           view: Mapping[str, Any],
                           used: frozenset[int], ctx: ExecutionContext,
                           ) -> list[tuple[int, Any, frozenset[int]]]:
    """Vectorized :func:`repro.cypher.matcher._expand_var_length`:
    same depth-first path enumeration and per-path edge uniqueness,
    over bulk-resolved adjacency."""
    rel = step.rel
    direction = step.direction
    types = rel.types or None
    min_hops = rel.min_hops
    max_hops = rel.max_hops
    edge_ok = _edge_filter(rel, ctx)
    results: list[tuple[int, Any, frozenset[int]]] = []
    if min_hops == 0:
        results.append((source, (), frozenset()))
    stack: list[tuple[int, tuple[int, ...]]] = [(source, ())]
    while stack:
        node_id, path_edges = stack.pop()
        if max_hops is not None and len(path_edges) >= max_hops:
            continue
        pairs = ctx.neighbors(node_id, direction, types)
        ctx.tick(len(pairs))
        for edge_id, neighbor in pairs:
            if edge_id in path_edges or edge_id in used:
                continue
            if edge_ok is not None and not edge_ok(edge_id, view, ctx):
                continue
            new_path = path_edges + (edge_id,)
            if len(new_path) >= min_hops:
                results.append((neighbor,
                                tuple(EdgeRef(edge)
                                      for edge in new_path),
                                frozenset(new_path)))
            stack.append((neighbor, new_path))
    return results


def _expand_reachability_vec(step: Any, source: int,
                             view: Mapping[str, Any],
                             ctx: ExecutionContext) -> list[int]:
    """Vectorized :func:`repro.cypher.matcher._expand_reachability`:
    the same visited-set BFS, returning the endpoints (each once, in
    first-reach order) over bulk-resolved adjacency.

    One ``visited`` test per neighbour decides both questions the row
    kernel asks apart — yield it? expand it? — because every node but
    the source is yielded exactly when it is first visited. The source
    joins ``visited`` only once yielded (at once for ``min_hops`` 0,
    else when a cycle reaches it again), and is never expanded twice.
    """
    rel = step.rel
    direction = step.direction
    types = rel.types or None
    max_hops = rel.max_hops
    edge_ok = _edge_filter(rel, ctx)
    reached: list[int] = []
    visited: set[int] = set()
    if rel.min_hops == 0:
        visited.add(source)
        reached.append(source)
    source_open = source not in visited
    add = visited.add
    frontier = [source]
    depth = 0
    while frontier and (max_hops is None or depth < max_hops):
        depth += 1
        start = len(reached)
        for neighbors in _reach_level(frontier, direction, types,
                                      edge_ok, view, ctx):
            # add() returns None: keeps, and marks, each first visit
            reached += [neighbor for neighbor in neighbors
                        if not (neighbor in visited or add(neighbor))]
        frontier = reached[start:]
        if source_open and source in visited:
            source_open = False
            frontier.remove(source)
    return reached


def _reach_level(frontier: list[int], direction: Any,
                 types: tuple[str, ...] | None, edge_ok: Any,
                 view: Mapping[str, Any],
                 ctx: ExecutionContext) -> list[Collection[int]]:
    """One BFS level: each frontier node's neighbours over edges that
    pass *edge_ok*, in frontier order, each node ticked per edge looked
    at. Without a filter the edge ids are never read."""
    level = []
    for node_id in frontier:
        if edge_ok is None:
            reached = ctx.neighbor_ids(node_id, direction, types)
            ctx.tick(len(reached))
        else:
            pairs = ctx.neighbors(node_id, direction, types)
            ctx.tick(len(pairs))
            reached = [neighbor for edge_id, neighbor in pairs
                       if edge_ok(edge_id, view, ctx)]
        level.append(reached)
    return level


# --------------------------------------------------------------------------
# WHERE
# --------------------------------------------------------------------------

def _filter_stage(predicate: ast.Expr, batches: Iterator[RowBatch],
                  ctx: ExecutionContext) -> Iterator[RowBatch]:
    kernel = compile_expr(predicate)
    for batch in batches:
        keep = []
        append = keep.append
        ctx.tick(batch.count)  # same totals as the per-row tick
        # one reusable row view: the predicate kernels read the row
        # only inside the call, so re-pointing the index is safe
        row = BatchRow(batch, 0)
        for index in range(batch.count):
            row._index = index
            if kernel(row, ctx) is True:
                append(index)
        if not keep:
            continue
        if len(keep) == batch.count:
            yield batch
            continue
        columns = [[column[index] for index in keep]
                   for column in batch.columns]
        yield RowBatch(batch.slots, columns, len(keep))


# --------------------------------------------------------------------------
# Projection (WITH / RETURN)
# --------------------------------------------------------------------------

def _with_stage(clause: ast.With, batches: Iterator[RowBatch],
                ctx: ExecutionContext, morsel_size: int,
                plan: Any | None = None) -> Iterator[RowBatch]:
    columns, data = _project_batch(
        clause.items, clause.distinct, clause.order_by, clause.skip,
        clause.limit, batches, ctx, star=False, plan=plan)
    # duplicate output names collapse to the last occurrence, exactly
    # as the row executor's dict(zip(columns, values)) does
    last = {name: position for position, name in enumerate(columns)}
    slots = {name: slot for slot, name in enumerate(last)}
    sources = list(last.values())
    where_kernel = compile_expr(clause.where) \
        if clause.where is not None else None
    builder = _Builder(slots, morsel_size)
    for values in data:
        if where_kernel is not None:
            row = dict(zip(columns, values))
            if where_kernel(row, ctx) is not True:
                continue
        builder.append([values[source] for source in sources])
        if builder.full:
            yield builder.take()
    if builder.count:
        yield builder.take()


def _return_batch(clause: ast.Return, batches: Iterator[RowBatch],
                  ctx: ExecutionContext,
                  plan: Any | None = None) -> Result:
    columns, data = _project_batch(
        clause.items, clause.distinct, clause.order_by, clause.skip,
        clause.limit, batches, ctx, star=clause.star, plan=plan)
    return Result(columns, data, QueryStats())


#: Shared scope placeholder for projected rows whose scope can never
#: be read back (no ORDER BY): skips a BatchRow allocation per row.
_EMPTY_SCOPE: dict[str, Any] = {}


def _column_kernel(expr: ast.Expr):
    """A column-at-a-time evaluator for *expr*, or None.

    Covers the projection shapes that dominate the paper's workload —
    ``RETURN n``, ``RETURN n.prop`` and literals — with the exact
    per-row semantics of :func:`evaluate` (including its unknown-
    variable error and ``_property``'s null/db-hit behaviour), minus
    the per-row AST dispatch.
    """
    if isinstance(expr, ast.Variable):
        name = expr.name

        def variable_kernel(batch: RowBatch, ctx: ExecutionContext,
                            ) -> list[Any]:
            slot = batch.slots.get(name)
            if slot is None:
                raise CypherSemanticError(f"unknown variable {name!r}")
            return batch.columns[slot]

        return variable_kernel
    if isinstance(expr, ast.Literal):
        value = expr.value

        def literal_kernel(batch: RowBatch, ctx: ExecutionContext,
                           ) -> list[Any]:
            return [value] * batch.count

        return literal_kernel
    if isinstance(expr, ast.PropertyAccess) and \
            isinstance(expr.subject, ast.Variable):
        name = expr.subject.name
        key = expr.key

        def property_kernel(batch: RowBatch, ctx: ExecutionContext,
                            ) -> list[Any]:
            slot = batch.slots.get(name)
            if slot is None:
                raise CypherSemanticError(f"unknown variable {name!r}")
            view = ctx.view
            node_property = view.node_property
            edge_property = view.edge_property
            hits = 0
            out = []
            for subject in batch.columns[slot]:
                if subject is None:
                    out.append(None)
                elif isinstance(subject, NodeRef):
                    hits += 1
                    out.append(node_property(subject.id, key))
                elif isinstance(subject, EdgeRef):
                    hits += 1
                    out.append(edge_property(subject.id, key))
                elif isinstance(subject, MappingView):
                    out.append(subject.get(key))
                else:
                    raise CypherSemanticError(
                        f"cannot read property {key!r} of "
                        f"{type(subject).__name__}")
            if hits:
                ctx.db_hit(hits)
            return out

        return property_kernel
    return None


def _compiled_column_kernel(expr: ast.Expr):
    """Column kernel for any non-aggregate expression: the compiled
    row kernel mapped over per-row batch views. Slower than the
    shape-specialized kernels above (one BatchRow per row), still well
    ahead of per-row AST dispatch."""
    row_kernel = compile_expr(expr)

    def column(batch: RowBatch, ctx: ExecutionContext) -> list[Any]:
        return [row_kernel(BatchRow(batch, index), ctx)
                for index in range(batch.count)]

    return column


def _aggregate_batch(items: tuple[ast.ReturnItem, ...],
                     batches: Iterator[RowBatch], ctx: ExecutionContext,
                     ) -> list[tuple[tuple[Any, ...], Mapping[str, Any]]]:
    """Implicit-grouping aggregation over morsels, with row-mode
    :func:`~repro.cypher.executor._aggregate` semantics: groups in
    first-seen order, each scoped by its first row, keyed on the zipped
    outputs of the grouping items' column kernels (``_hashable`` only
    for a key holding a list or map). ``count(*)`` is the group size;
    row views are kept only when another aggregate reads the rows."""
    keyed = {index for index, item in enumerate(items)
             if not ast.contains_aggregate(item.expression)}
    kernels = [_column_kernel(item.expression)
               or _compiled_column_kernel(item.expression)
               for index, item in enumerate(items) if index in keyed]
    reads_rows = any(not isinstance(item.expression, ast.CountStar)
                     for index, item in enumerate(items)
                     if index not in keyed)
    # hashable key -> [key values, size, first row, rows if read]
    groups: dict[Any, list[Any]] = {}
    for batch in batches:
        count = batch.count
        if not count:
            continue
        ctx.tick(count)
        if not kernels:
            group = groups.get(())
            if group is None:
                group = groups[()] = [(), 0, BatchRow(batch, 0), []]
            group[1] += count
            if reads_rows:
                group[3].extend(batch.views())
            continue
        keys = zip(*[kernel(batch, ctx) for kernel in kernels])
        for index, values in enumerate(keys):
            key = values
            try:
                group = groups.get(key)
            except TypeError:
                key = _hashable(values)
                group = groups.get(key)
            if group is None:
                group = groups[key] = [values, 0, BatchRow(batch, index),
                                       []]
            group[1] += 1
            if reads_rows:
                group[3].append(BatchRow(batch, index))
    if not groups and not keyed:
        # aggregates over an empty input still produce one row
        groups[()] = [(), 0, {}, []]
    scoped = []
    for key_values, size, first, rows in groups.values():
        key_iter = iter(key_values)
        scoped.append((tuple(
            next(key_iter) if index in keyed
            else size if isinstance(item.expression, ast.CountStar)
            else _eval_aggregate(item.expression, rows, ctx)
            for index, item in enumerate(items)), first))
    return scoped


def _project_batch(items: tuple[ast.ReturnItem, ...], distinct: bool,
                   order_by: tuple[ast.SortItem, ...],
                   skip: ast.Expr | None, limit: ast.Expr | None,
                   batches: Iterator[RowBatch], ctx: ExecutionContext,
                   star: bool, plan: Any | None = None,
                   ) -> tuple[list[str], list[tuple[Any, ...]]]:
    """The batch projection kernel; row-mode ``_project`` semantics
    over batch views, with a top-K heap when ORDER BY meets LIMIT."""
    profiler = ctx.profiler if plan is not None else None
    if star:
        views = [view for batch in batches for view in batch.views()]
        columns = sorted({key for view in views for key in view})
        scoped = [(tuple(view.get(column) for column in columns), view)
                  for view in views]
    else:
        columns = _column_names(items)
        if any(ast.contains_aggregate(item.expression)
               for item in items):
            scoped = _aggregate_batch(items, batches, ctx)
        else:
            kernels = [_column_kernel(item.expression)
                       or _compiled_column_kernel(item.expression)
                       for item in items]
            # scope rows are only ever read back by ORDER BY's key
            # evaluation; everything else uses the value tuples
            need_scope = bool(order_by)
            scoped = []
            for batch in batches:
                count = batch.count
                if not count:
                    continue
                ctx.tick(count)
                out_columns = [kernel(batch, ctx) for kernel in kernels]
                scopes = batch.views() if need_scope \
                    else itertools.repeat(_EMPTY_SCOPE, count)
                scoped.extend(zip(zip(*out_columns), scopes))
    if distinct:
        if profiler is not None:
            operator = profiler.operator(plan, "distinct", "Distinct")
            with profiler.timed(operator):
                scoped = _distinct(scoped)
            operator.rows += len(scoped)
        else:
            scoped = _distinct(scoped)
    if order_by:
        if limit is not None:
            keep = _as_count(limit, ctx, "LIMIT")
            if skip is not None:
                keep += _as_count(skip, ctx, "SKIP")
            if profiler is not None:
                operator = profiler.operator(plan, "sort", "Sort")
                with profiler.timed(operator):
                    scoped = _top_k(scoped, columns, order_by, ctx,
                                    keep)
                operator.rows += len(scoped)
            else:
                scoped = _top_k(scoped, columns, order_by, ctx, keep)
        elif profiler is not None:
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
