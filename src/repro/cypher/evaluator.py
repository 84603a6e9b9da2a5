"""Expression evaluation with Cypher's three-valued null semantics.

``None`` plays SQL NULL's role: comparisons against it yield ``None``,
``AND``/``OR`` follow Kleene logic, and ``WHERE`` keeps a row only when
the predicate evaluates to exactly ``True``.
"""

from __future__ import annotations

import time
from typing import Any, Collection, Mapping

from repro.cypher import ast
from repro.cypher.result import EdgeRef, NodeRef, PathValue
from repro.errors import CypherSemanticError, QueryTimeoutError
from repro.graphdb.view import Direction, GraphView, other_end

_DIRECTIONS = {"out": Direction.OUT, "in": Direction.IN,
               "both": Direction.BOTH}


class ExecutionContext:
    """Shared per-query state: graph view, parameters, time budget."""

    _CHECK_EVERY = 4096
    #: adjacency memo entries kept before the memo stops growing; a
    #: per-query cache, so the bound only guards pathological queries
    _ADJACENCY_MEMO_LIMIT = 100_000

    def __init__(self, view: GraphView,
                 parameters: Mapping[str, Any] | None = None,
                 timeout: float | None = None,
                 use_index_seek: bool = True,
                 profiler: Any | None = None,
                 use_reachability_rewrite: bool = True,
                 use_cost_based_planner: bool = True,
                 pattern_plans: dict | None = None,
                 start_candidates: dict | None = None) -> None:
        self.view = view
        self.parameters = dict(parameters or {})
        self.timeout = timeout
        #: planner switch: anchor MATCH patterns on auto-index seeks
        #: when a node pattern carries an indexed property literal.
        #: Disabled only by the E5 planner-ablation benchmark.
        self.use_index_seek = use_index_seek
        #: honor planner reachability marks on var-length rels (the
        #: Section 6.1 ablation gate)
        self.use_reachability_rewrite = use_reachability_rewrite
        #: cost the anchor/step order from graph statistics instead of
        #: the fixed bound > label > property heuristic
        self.use_cost_based_planner = use_cost_based_planner
        #: :class:`~repro.obs.profile.QueryProfiler` under PROFILE,
        #: else None; None keeps the unprofiled hot path branch-cheap
        self.profiler = profiler
        self.started = time.monotonic()
        self.expansions = 0
        # start one short of the check interval so the very first tick
        # verifies the deadline — tiny budgets must fail promptly even
        # on queries that never reach _CHECK_EVERY expansions
        self._tick_counter = self._CHECK_EVERY - 1
        # per-query (node, direction, types) -> edge tuple memo; the
        # matcher's bulk fast path for repeated expansions of hot nodes
        self._adjacency_memo: dict[tuple[int, Any, Any],
                                   tuple[int, ...]] = {}
        # (node, direction, types) -> [(edge, other_end)] memo for the
        # batch executor's resolved-adjacency fast path
        self._neighbor_memo: dict[tuple[int, Any, Any],
                                  list[tuple[int, int]]] = {}
        # (node, direction, types) -> neighbour ids, for the closure
        # kernels that never look at the edge
        self._neighbor_id_memo: dict[tuple[int, Any, Any],
                                     Collection[int]] = {}
        self._resolve_neighbors = getattr(view, "resolve_neighbors",
                                          None)
        self._bulk_neighbors = getattr(view, "neighbors_of", None)
        self._bulk_neighbor_ids = getattr(view, "neighbor_ids_of", None)
        self.adjacency_hits = 0
        self.adjacency_misses = 0
        # per-clause pattern plans (anchor + step order), keyed on
        # pattern identity and the bound-variable set; the engine may
        # hand in its epoch-scoped memo so plans survive across runs
        # of the same cached query (values keep the pattern AST alive,
        # so id() keys cannot alias a recycled object)
        self._pattern_plans: dict[tuple[int, frozenset[str]], Any] = \
            pattern_plans if pattern_plans is not None else {}
        # START index-query candidates, keyed by query string; like
        # the plan memo the engine may hand in its epoch-scoped dict,
        # so repeated executions skip the postings evaluation (PROFILE
        # still charges per candidate row — only the index work is
        # memoized, not its accounting)
        self._start_candidates: dict[str, tuple[int, ...]] = \
            start_candidates if start_candidates is not None else {}

    def tick(self, count: int = 1) -> None:
        """Account work; raise if the time budget is exhausted."""
        self.expansions += count
        self._tick_counter += count
        if self.timeout is not None and \
                self._tick_counter >= self._CHECK_EVERY:
            self._tick_counter = 0
            if time.monotonic() - self.started > self.timeout:
                raise QueryTimeoutError(self.timeout)

    def db_hit(self, count: int = 1) -> None:
        """Charge store accesses to the profiled operator, if any."""
        if self.profiler is not None:
            self.profiler.hit(count)

    def index_candidates(self, query: str) -> tuple[int, ...]:
        """Memoized START index lookup: one postings evaluation per
        query string (per epoch, when the engine hands in its
        persistent memo).  Execution still ticks and PROFILE still
        charges one db-hit per candidate row consumed downstream.
        """
        cached = self._start_candidates.get(query)
        if cached is None:
            cached = tuple(self.view.indexes.query(query))
            self._start_candidates[query] = cached
        return cached

    def adjacency(self, node_id: int, direction: Any,
                  types: tuple[str, ...] | None) -> tuple[int, ...]:
        """Memoized ``view.edges_of``: store layers are touched once
        per (node, direction, types) within a query.

        Callers still :meth:`tick`/:meth:`db_hit` per edge consumed;
        db-hits are charged only on the miss that actually reads the
        store, so PROFILE keeps counting real accesses.
        """
        key = (node_id, direction, types)
        edges = self._adjacency_memo.get(key)
        if edges is not None:
            self.adjacency_hits += 1
            return edges
        self.adjacency_misses += 1
        edges = tuple(self.view.edges_of(node_id, direction, types))
        self.db_hit(len(edges) or 1)
        if len(self._adjacency_memo) < self._ADJACENCY_MEMO_LIMIT:
            self._adjacency_memo[key] = edges
        return edges

    def neighbors(self, node_id: int, direction: Any,
                  types: tuple[str, ...] | None,
                  ) -> list[tuple[int, int]]:
        """Memoized, endpoint-resolved :meth:`adjacency`: the batch
        executor's expansion kernels consume ``(edge_id, other_end)``
        pairs, so the per-edge endpoint lookups happen once per
        (node, direction, types) within a query.

        Misses route through :meth:`adjacency`, so store reads are
        charged as db-hits exactly as the row kernels charge them;
        callers still :meth:`tick` per edge consumed.
        """
        key = (node_id, direction, types)
        pairs = self._neighbor_memo.get(key)
        if pairs is not None:
            self.adjacency_hits += 1
            return pairs
        if self._bulk_neighbors is not None:
            # the logical access is charged here, once per key per
            # query, exactly as the adjacency() miss path charges it —
            # and not again when neighbor_ids() already paid for it
            self.adjacency_misses += 1
            pairs = self._bulk_neighbors(node_id, direction, types)
            if key not in self._neighbor_id_memo:
                self.db_hit(len(pairs) or 1)
        else:
            edges = self.adjacency(node_id, direction, types)
            resolver = self._resolve_neighbors
            if resolver is not None:
                pairs = resolver(node_id, edges)
            else:
                view = self.view
                pairs = []
                for edge_id in edges:
                    source = view.edge_source(edge_id)
                    pairs.append((edge_id, source if source != node_id
                                  else view.edge_target(edge_id)))
        if len(self._neighbor_memo) < self._ADJACENCY_MEMO_LIMIT:
            self._neighbor_memo[key] = pairs
        return pairs

    def neighbor_ids(self, node_id: int, direction: Any,
                     types: tuple[str, ...] | None) -> Collection[int]:
        """:meth:`neighbors` without the edges, for kernels that only
        follow them: a view that stores neighbours apart from edge ids
        (``neighbor_ids_of``) is read for that column alone.

        Charged like :meth:`neighbors` — one db-hit per neighbour (at
        least one) on the miss that reads the store, once per key per
        query whichever of the two methods read it first; callers
        still :meth:`tick` per neighbour consumed.
        """
        key = (node_id, direction, types)
        ids = self._neighbor_id_memo.get(key)
        if ids is not None:
            self.adjacency_hits += 1
            return ids
        pairs = self._neighbor_memo.get(key)
        if pairs is None and self._bulk_neighbor_ids is not None:
            self.adjacency_misses += 1
            ids = self._bulk_neighbor_ids(node_id, direction, types)
            self.db_hit(len(ids) or 1)
        else:
            if pairs is None:
                pairs = self.neighbors(node_id, direction, types)
            ids = [neighbor for _edge_id, neighbor in pairs]
        if len(self._neighbor_id_memo) < self._ADJACENCY_MEMO_LIMIT:
            self._neighbor_id_memo[key] = ids
        return ids

    def check_deadline(self) -> None:
        if self.timeout is not None and \
                time.monotonic() - self.started > self.timeout:
            raise QueryTimeoutError(self.timeout)

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started


def evaluate(expr: ast.Expr, row: Mapping[str, Any],
             ctx: ExecutionContext) -> Any:
    """Evaluate an expression against one row binding."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter):
        if expr.name not in ctx.parameters:
            raise CypherSemanticError(f"missing parameter ${expr.name}")
        return ctx.parameters[expr.name]
    if isinstance(expr, ast.Variable):
        if expr.name not in row:
            raise CypherSemanticError(f"unknown variable {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, ast.PropertyAccess):
        return _property(evaluate(expr.subject, row, ctx), expr.key, ctx)
    if isinstance(expr, ast.Unary):
        return _unary(expr, row, ctx)
    if isinstance(expr, ast.Binary):
        return _binary(expr, row, ctx)
    if isinstance(expr, ast.CountStar):
        raise CypherSemanticError("count(*) outside RETURN/WITH")
    if isinstance(expr, ast.FunctionCall):
        if expr.is_aggregate:
            raise CypherSemanticError(
                f"aggregate {expr.name}() outside RETURN/WITH")
        return _function(expr, row, ctx)
    if isinstance(expr, ast.PatternPredicate):
        # resolved lazily to avoid a circular import with the matcher
        from repro.cypher.matcher import pattern_exists
        return pattern_exists(expr.pattern, row, ctx)
    raise CypherSemanticError(f"cannot evaluate {expr!r}")


def _property(subject: Any, key: str, ctx: ExecutionContext) -> Any:
    if subject is None:
        return None
    if isinstance(subject, NodeRef):
        ctx.db_hit()
        return ctx.view.node_property(subject.id, key)
    if isinstance(subject, EdgeRef):
        ctx.db_hit()
        return ctx.view.edge_property(subject.id, key)
    if isinstance(subject, Mapping):
        return subject.get(key)
    raise CypherSemanticError(
        f"cannot read property {key!r} of {type(subject).__name__}")


def _unary(expr: ast.Unary, row: Mapping[str, Any],
           ctx: ExecutionContext) -> Any:
    value = evaluate(expr.operand, row, ctx)
    if expr.op == "not":
        if value is None:
            return None
        return not _truthy(value)
    if expr.op == "-":
        if value is None:
            return None
        return -value
    raise CypherSemanticError(f"unknown unary operator {expr.op!r}")


def _binary(expr: ast.Binary, row: Mapping[str, Any],
            ctx: ExecutionContext) -> Any:
    op = expr.op
    if op in ("and", "or", "xor"):
        return _logical(op, expr, row, ctx)
    left = evaluate(expr.left, row, ctx)
    right = evaluate(expr.right, row, ctx)
    if op == "=":
        if left is None or right is None:
            return None
        return left == right
    if op == "<>":
        if left is None or right is None:
            return None
        return left != right
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return None
        if not _comparable(left, right):
            return None  # Cypher: incomparable orderings yield null
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op == "=~":
        import re
        if left is None or right is None:
            return None
        return re.fullmatch(str(right), str(left)) is not None
    if op == "in":
        if right is None:
            return None
        if not isinstance(right, (list, tuple)):
            raise CypherSemanticError("IN needs a list on the right")
        if left is None:
            return None
        if left in right:
            return True
        # Cypher: unknown membership when the list contains nulls
        return None if any(item is None for item in right) else False
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise CypherSemanticError("integer division by zero")
            return left // right if left * right >= 0 else -(-left // right)
        return left / right
    if op == "%":
        return left % right
    if op == "^":
        return left ** right
    raise CypherSemanticError(f"unknown operator {op!r}")


def _logical(op: str, expr: ast.Binary, row: Mapping[str, Any],
             ctx: ExecutionContext) -> Any:
    left = evaluate(expr.left, row, ctx)
    left = None if left is None else _truthy(left)
    if op == "and":
        if left is False:
            return False
        right = evaluate(expr.right, row, ctx)
        right = None if right is None else _truthy(right)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "or":
        if left is True:
            return True
        right = evaluate(expr.right, row, ctx)
        right = None if right is None else _truthy(right)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False
    # xor
    right = evaluate(expr.right, row, ctx)
    right = None if right is None else _truthy(right)
    if left is None or right is None:
        return None
    return left != right


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise CypherSemanticError(
        f"expected a boolean, got {type(value).__name__}")


def _comparable(left: Any, right: Any) -> bool:
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return True
    return isinstance(left, str) and isinstance(right, str)


def _function(expr: ast.FunctionCall, row: Mapping[str, Any],
              ctx: ExecutionContext) -> Any:
    args = [evaluate(arg, row, ctx) for arg in expr.args]
    return _apply_function(expr.name, args, ctx)


def _apply_function(name: str, args: list[Any],
                    ctx: ExecutionContext) -> Any:
    if name == "id":
        subject = args[0]
        if subject is None:
            return None
        if isinstance(subject, (NodeRef, EdgeRef)):
            return subject.id
        raise CypherSemanticError("id() needs a node or relationship")
    if name == "type":
        subject = args[0]
        if subject is None:
            return None
        if isinstance(subject, EdgeRef):
            return ctx.view.edge_type(subject.id)
        raise CypherSemanticError("type() needs a relationship")
    if name == "labels":
        subject = args[0]
        if subject is None:
            return None
        if isinstance(subject, NodeRef):
            return sorted(ctx.view.node_labels(subject.id))
        raise CypherSemanticError("labels() needs a node")
    if name == "isnull":
        return args[0] is None
    if name == "has":
        return args[0] is not None
    if name == "coalesce":
        for value in args:
            if value is not None:
                return value
        return None
    if name in ("size", "length"):
        subject = args[0]
        if subject is None:
            return None
        return len(subject)  # PathValue.__len__ is the hop count
    if name == "nodes":
        subject = args[0]
        if subject is None:
            return None
        if isinstance(subject, PathValue):
            return list(subject.nodes)
        raise CypherSemanticError("nodes() needs a path")
    if name in ("relationships", "rels"):
        subject = args[0]
        if subject is None:
            return None
        if isinstance(subject, PathValue):
            return list(subject.edges)
        raise CypherSemanticError("relationships() needs a path")
    if name == "startnode":
        subject = args[0]
        if isinstance(subject, PathValue):
            return subject.start
        raise CypherSemanticError("startNode() needs a path")
    if name == "endnode":
        subject = args[0]
        if isinstance(subject, PathValue):
            return subject.end
        raise CypherSemanticError("endNode() needs a path")
    if name == "abs":
        return None if args[0] is None else abs(args[0])
    if name == "tostring":
        return None if args[0] is None else str(args[0])
    if name == "toint":
        return None if args[0] is None else int(args[0])
    if name == "tolower":
        return None if args[0] is None else str(args[0]).lower()
    if name == "toupper":
        return None if args[0] is None else str(args[0]).upper()
    if name == "__list__":
        return list(args)
    raise CypherSemanticError(f"unknown function {name}()")


# --------------------------------------------------------------------------
# Compiled expression kernels
# --------------------------------------------------------------------------
# The batch engine's hot loops call evaluate() per row, and evaluate()
# pays an isinstance ladder per AST node per row. compile_expr() lowers
# an expression tree ONCE into a composition of plain Python closures —
# each node's dispatch decided at compile time — with semantics
# byte-identical to evaluate(): same three-valued null logic, same
# db-hit charging points, same error messages, same evaluation order.
# Kernels are cached on the AST node itself (frozen dataclasses accept
# object.__setattr__), so they live exactly as long as the plan-cache
# entry that owns the tree: compiled once at prepare time, reused by
# every execution of the cached plan.

_KERNEL_ATTR = "_compiled_kernel"


def compile_expr(expr: ast.Expr):
    """The compiled ``(row, ctx) -> value`` kernel for *expr*, cached
    on the expression node."""
    kernel = getattr(expr, _KERNEL_ATTR, None)
    if kernel is None:
        kernel = _compile(expr)
        object.__setattr__(expr, _KERNEL_ATTR, kernel)
    return kernel


def _compile(expr: ast.Expr):
    if isinstance(expr, ast.Literal):
        value = expr.value

        def literal_kernel(row: Mapping[str, Any],
                           ctx: ExecutionContext) -> Any:
            return value

        return literal_kernel
    if isinstance(expr, ast.Parameter):
        name = expr.name

        def parameter_kernel(row: Mapping[str, Any],
                             ctx: ExecutionContext) -> Any:
            try:
                return ctx.parameters[name]
            except KeyError:
                raise CypherSemanticError(
                    f"missing parameter ${name}") from None

        return parameter_kernel
    if isinstance(expr, ast.Variable):
        name = expr.name

        def variable_kernel(row: Mapping[str, Any],
                            ctx: ExecutionContext) -> Any:
            try:
                return row[name]
            except KeyError:
                raise CypherSemanticError(
                    f"unknown variable {name!r}") from None

        return variable_kernel
    if isinstance(expr, ast.PropertyAccess):
        key = expr.key
        if isinstance(expr.subject, ast.Variable):
            # fused variable.property kernel: the overwhelmingly
            # common shape skips the intermediate variable closure
            name = expr.subject.name

            def var_property_kernel(row: Mapping[str, Any],
                                    ctx: ExecutionContext) -> Any:
                try:
                    subject = row[name]
                except KeyError:
                    raise CypherSemanticError(
                        f"unknown variable {name!r}") from None
                if subject is None:
                    return None
                if isinstance(subject, NodeRef):
                    ctx.db_hit()
                    return ctx.view.node_property(subject.id, key)
                if isinstance(subject, EdgeRef):
                    ctx.db_hit()
                    return ctx.view.edge_property(subject.id, key)
                if isinstance(subject, Mapping):
                    return subject.get(key)
                raise CypherSemanticError(
                    f"cannot read property {key!r} of "
                    f"{type(subject).__name__}")

            return var_property_kernel
        subject_kernel = compile_expr(expr.subject)

        def property_kernel(row: Mapping[str, Any],
                            ctx: ExecutionContext) -> Any:
            subject = subject_kernel(row, ctx)
            if subject is None:
                return None
            if isinstance(subject, NodeRef):
                ctx.db_hit()
                return ctx.view.node_property(subject.id, key)
            if isinstance(subject, EdgeRef):
                ctx.db_hit()
                return ctx.view.edge_property(subject.id, key)
            if isinstance(subject, Mapping):
                return subject.get(key)
            raise CypherSemanticError(
                f"cannot read property {key!r} of "
                f"{type(subject).__name__}")

        return property_kernel
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr)
    if isinstance(expr, ast.CountStar):

        def countstar_kernel(row: Mapping[str, Any],
                             ctx: ExecutionContext) -> Any:
            raise CypherSemanticError("count(*) outside RETURN/WITH")

        return countstar_kernel
    if isinstance(expr, ast.FunctionCall):
        name = expr.name
        if expr.is_aggregate:

            def aggregate_kernel(row: Mapping[str, Any],
                                 ctx: ExecutionContext) -> Any:
                raise CypherSemanticError(
                    f"aggregate {name}() outside RETURN/WITH")

            return aggregate_kernel
        arg_kernels = tuple(compile_expr(arg) for arg in expr.args)

        def function_kernel(row: Mapping[str, Any],
                            ctx: ExecutionContext) -> Any:
            return _apply_function(
                name, [kernel(row, ctx) for kernel in arg_kernels], ctx)

        return function_kernel
    if isinstance(expr, ast.PatternPredicate):
        pattern = expr.pattern
        fast = _compile_exists(pattern)
        if fast is not None:
            return fast
        state: list[Any] = []

        def pattern_kernel(row: Mapping[str, Any],
                           ctx: ExecutionContext) -> Any:
            if not state:
                from repro.cypher.matcher import pattern_exists
                state.append(pattern_exists)
            return state[0](pattern, row, ctx)

        return pattern_kernel

    # anything the compiler doesn't know falls back to the interpreter
    def fallback_kernel(row: Mapping[str, Any],
                        ctx: ExecutionContext) -> Any:
        return evaluate(expr, row, ctx)

    return fallback_kernel


def _compile_unary(expr: ast.Unary):
    operand_kernel = compile_expr(expr.operand)
    if expr.op == "not":

        def not_kernel(row: Mapping[str, Any],
                       ctx: ExecutionContext) -> Any:
            value = operand_kernel(row, ctx)
            if value is None:
                return None
            return not _truthy(value)

        return not_kernel
    if expr.op == "-":

        def negate_kernel(row: Mapping[str, Any],
                          ctx: ExecutionContext) -> Any:
            value = operand_kernel(row, ctx)
            if value is None:
                return None
            return -value

        return negate_kernel
    op = expr.op

    def unknown_unary_kernel(row: Mapping[str, Any],
                             ctx: ExecutionContext) -> Any:
        raise CypherSemanticError(f"unknown unary operator {op!r}")

    return unknown_unary_kernel


def _compile_binary(expr: ast.Binary):
    op = expr.op
    if op in ("and", "or", "xor"):
        return _compile_logical(expr)
    left_kernel = compile_expr(expr.left)
    right_kernel = compile_expr(expr.right)
    if op == "=":

        def eq_kernel(row: Mapping[str, Any],
                      ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            return left == right

        return eq_kernel
    if op == "<>":

        def ne_kernel(row: Mapping[str, Any],
                      ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            return left != right

        return ne_kernel
    if op in ("<", "<=", ">", ">="):
        import operator as _operator
        compare = {"<": _operator.lt, "<=": _operator.le,
                   ">": _operator.gt, ">=": _operator.ge}[op]

        def compare_kernel(row: Mapping[str, Any],
                           ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            if not _comparable(left, right):
                return None  # Cypher: incomparable orderings yield null
            return compare(left, right)

        return compare_kernel
    if op == "=~":
        import re

        def regex_kernel(row: Mapping[str, Any],
                         ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            return re.fullmatch(str(right), str(left)) is not None

        return regex_kernel
    if op == "in":

        def in_kernel(row: Mapping[str, Any],
                      ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if right is None:
                return None
            if not isinstance(right, (list, tuple)):
                raise CypherSemanticError("IN needs a list on the right")
            if left is None:
                return None
            if left in right:
                return True
            # Cypher: unknown membership when the list contains nulls
            return None if any(item is None for item in right) else False

        return in_kernel
    if op == "/":

        def divide_kernel(row: Mapping[str, Any],
                          ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise CypherSemanticError("integer division by zero")
                return left // right if left * right >= 0 \
                    else -(-left // right)
            return left / right

        return divide_kernel
    arithmetic = {"+": lambda left, right: left + right,
                  "-": lambda left, right: left - right,
                  "*": lambda left, right: left * right,
                  "%": lambda left, right: left % right,
                  "^": lambda left, right: left ** right}
    apply = arithmetic.get(op)
    if apply is not None:

        def arithmetic_kernel(row: Mapping[str, Any],
                              ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            right = right_kernel(row, ctx)
            if left is None or right is None:
                return None
            return apply(left, right)

        return arithmetic_kernel

    def unknown_binary_kernel(row: Mapping[str, Any],
                              ctx: ExecutionContext) -> Any:
        # evaluate the operands first, exactly as the interpreter does
        left_kernel(row, ctx)
        right_kernel(row, ctx)
        raise CypherSemanticError(f"unknown operator {op!r}")

    return unknown_binary_kernel


def _compile_logical(expr: ast.Binary):
    op = expr.op
    left_kernel = compile_expr(expr.left)
    right_kernel = compile_expr(expr.right)
    if op == "and":

        def and_kernel(row: Mapping[str, Any],
                       ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            left = None if left is None else _truthy(left)
            if left is False:
                return False
            right = right_kernel(row, ctx)
            right = None if right is None else _truthy(right)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True

        return and_kernel
    if op == "or":

        def or_kernel(row: Mapping[str, Any],
                      ctx: ExecutionContext) -> Any:
            left = left_kernel(row, ctx)
            left = None if left is None else _truthy(left)
            if left is True:
                return True
            right = right_kernel(row, ctx)
            right = None if right is None else _truthy(right)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False

        return or_kernel

    def xor_kernel(row: Mapping[str, Any],
                   ctx: ExecutionContext) -> Any:
        left = left_kernel(row, ctx)
        left = None if left is None else _truthy(left)
        right = right_kernel(row, ctx)
        right = None if right is None else _truthy(right)
        if left is None or right is None:
            return None
        return left != right

    return xor_kernel


def _compile_exists(pattern: ast.Pattern):
    """A specialized kernel for hot WHERE exists shapes, or None.

    The Table 5 xref and debugging queries spend their WHERE time in
    2-node/1-rel existence checks, where the generic matcher pays a
    per-row plan lookup, a ``dict(row)`` copy and a generator stack
    just to learn whether one expansion yields anything. Two shapes
    compile to flat loops:

    * **single hop** (xref's ``(n) <-[{props}]- ()``): iterate the
      bound endpoint's memoized adjacency, prop-filtering each edge —
      the same work and the same db-hit charging as the generic
      ``_expand_single``/``_edge_props_ok`` walk;
    * **unbounded var-length between two bound endpoints**
      (debugging's ``direct -[:calls*]-> writer``): visited-set BFS
      with early exit. Sound because for *distinct* endpoints,
      existence under edge-unique path semantics equals plain
      reachability (any walk contains a node-simple, hence
      edge-unique, path); the ``source == target`` cycle case keeps
      the generic path-enumeration semantics via the fallback.

    Anything beyond these shapes — endpoint labels or properties, rel
    or path variables, shortestPath, longer chains, bounded hops,
    rows where the needed endpoints are unbound or bound to
    non-nodes — falls back to the generic ``pattern_exists`` (at
    runtime when the binding shape decides it).
    """
    if (pattern.shortest is not None or pattern.path_variable
            or len(pattern.nodes) != 2 or len(pattern.rels) != 1):
        return None
    left, right = pattern.nodes
    rel = pattern.rels[0]
    if rel.variable is not None:
        return None
    for node in (left, right):
        if node.labels or node.properties:
            return None
    types = rel.types or None
    forward = _DIRECTIONS[rel.direction]
    prop_kernels = compile_props(rel.properties)

    def generic(row: Mapping[str, Any],
                ctx: ExecutionContext) -> bool:
        from repro.cypher.matcher import pattern_exists
        return pattern_exists(pattern, row, ctx)

    def bound_id(variable, row):
        """The endpoint's node id, or None when unbound/non-node."""
        if not variable:
            return None
        value = row.get(variable)
        return value.id if isinstance(value, NodeRef) else None

    if not rel.var_length:

        def single_hop_exists(row: Mapping[str, Any],
                              ctx: ExecutionContext) -> bool:
            source = bound_id(left.variable, row)
            if source is not None:
                direction, target = forward, bound_id(
                    right.variable, row)
            else:
                source = bound_id(right.variable, row)
                if source is None:
                    return generic(row, ctx)
                direction, target = forward.reverse(), None
            view = ctx.view
            for edge_id in ctx.adjacency(source, direction, types):
                ctx.tick()
                ok = True
                for key, kernel in prop_kernels:
                    wanted = kernel(row, ctx)
                    ctx.db_hit()
                    if view.edge_property(edge_id, key) != wanted:
                        ok = False
                        break
                if not ok:
                    continue
                if target is None or \
                        other_end(view, edge_id, source) == target:
                    return True
            return False

        return single_hop_exists

    if rel.min_hops > 1 or rel.max_hops is not None:
        return None

    def reachability_exists(row: Mapping[str, Any],
                            ctx: ExecutionContext) -> bool:
        source = bound_id(left.variable, row)
        target = bound_id(right.variable, row)
        if source is None or target is None or source == target:
            return generic(row, ctx)
        view = ctx.view
        visited = {source}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node_id in frontier:
                for edge_id in ctx.adjacency(node_id, forward, types):
                    ctx.tick()
                    ok = True
                    for key, kernel in prop_kernels:
                        wanted = kernel(row, ctx)
                        ctx.db_hit()
                        if view.edge_property(edge_id, key) != wanted:
                            ok = False
                            break
                    if not ok:
                        continue
                    neighbor = other_end(view, edge_id, node_id)
                    if neighbor == target:
                        return True
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return False

    return reachability_exists


def compile_props(properties: tuple[tuple[str, ast.Expr], ...]):
    """A pattern element's ``{key: expr}`` map as (key, kernel) pairs."""
    return tuple((key, compile_expr(expr)) for key, expr in properties)


def literal_props(properties: tuple[tuple[str, ast.Expr], ...]):
    """The map as constant (key, value) pairs when every value is a
    literal — the overwhelmingly common ``{key: 42}`` form — else
    ``None``.  Callers use this to hoist the wanted values out of
    per-edge loops; db-hit charging is theirs and stays per check.
    """
    if all(isinstance(expr, ast.Literal) for _key, expr in properties):
        return tuple((key, expr.value) for key, expr in properties)
    return None


def precompile_query(query: ast.Query) -> None:
    """Compile every hot expression of a planned query, at prepare
    time, so execution (and the plan cache) reuses the kernels."""
    for clause in query.clauses:
        if isinstance(clause, ast.Where):
            compile_expr(clause.predicate)
        elif isinstance(clause, (ast.With, ast.Return)):
            for item in clause.items:
                if not ast.contains_aggregate(item.expression):
                    compile_expr(item.expression)
            for sort in clause.order_by:
                if not ast.contains_aggregate(sort.expression):
                    compile_expr(sort.expression)
            where = getattr(clause, "where", None)
            if where is not None:
                compile_expr(where)
        elif isinstance(clause, ast.Match):
            for pattern in clause.patterns:
                precompile_pattern(pattern)


def precompile_pattern(pattern: ast.Pattern) -> None:
    for node in pattern.nodes:
        compile_props(node.properties)
    for rel in pattern.rels:
        compile_props(rel.properties)
