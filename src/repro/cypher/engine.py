"""The public query-engine facade.

:class:`CypherEngine` binds a graph view, caches parsed queries, and
runs them with per-query :class:`~repro.cypher.options.QueryOptions`
(time budget, row cap, profiling) — the budget is how the benchmark
harness reproduces the paper's "aborted after 15 minutes" protocol for
the Figure 6 comprehension query, and ``PROFILE`` execution is how the
Section 6.1 operator-level blow-up is attributed rather than asserted.

Every run is booked into the engine's
:class:`~repro.obs.Observability` bundle: query counters and latency
histogram, the slow-query log, and a trace span per execution.

Concurrency: each :meth:`CypherEngine.run` pins one epoch snapshot of
the bound view (:func:`~repro.graphdb.snapshot.pin_view`) and uses it
for plan-cache keying, planner statistics *and* execution, so a query
observes exactly one graph state even while a writer mutates the live
graph — and the plan it was given was costed at that same state. The
plan cache itself is lock-protected, making a single engine safe to
share across the serving executor's worker threads.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cypher import ast
from repro.cypher.batch import (DEFAULT_MORSEL_SIZE, batch_supported,
                                execute_batch)
from repro.cypher.evaluator import ExecutionContext, precompile_query
from repro.cypher.executor import execute
from repro.cypher.options import QueryOptions
from repro.cypher.parser import parse
from repro.cypher.plan import PlanDescription
from repro.cypher.plan_cache import DEFAULT_CAPACITY, PlanCache
from repro.cypher.planner import plan_query, prefer_rows
from repro.cypher.result import Result
from repro.errors import QueryTimeoutError
from repro.graphdb.snapshot import pin_view
from repro.graphdb.view import GraphView
from repro.obs import Observability, QueryProfiler


class CypherEngine:
    """Runs Cypher text against one graph view.

    Parameters
    ----------
    view:
        Any :class:`~repro.graphdb.view.GraphView` — the in-memory
        graph or a page-cached disk store.
    default_timeout:
        Seconds allowed per query unless overridden per run;
        ``None`` means unbounded.
    obs:
        The :class:`~repro.obs.Observability` bundle to record into;
        a private one is created when not supplied (the Frappé facade
        shares its bundle so engine and storage counters land in one
        registry).
    """

    def __init__(self, view: GraphView,
                 default_timeout: float | None = None,
                 use_index_seek: bool = True,
                 obs: Observability | None = None,
                 use_reachability_rewrite: bool = True,
                 use_cost_based_planner: bool = True,
                 plan_cache_capacity: int = DEFAULT_CAPACITY,
                 execution_mode: str = "auto",
                 morsel_size: int = DEFAULT_MORSEL_SIZE) -> None:
        self.view = view
        self.default_timeout = default_timeout
        self.use_index_seek = use_index_seek
        if execution_mode not in ("auto", "batch", "rows"):
            raise ValueError(
                "execution_mode must be 'auto', 'batch' or 'rows'")
        #: 'auto' runs a query batch-at-a-time when every clause has a
        #: batch kernel; 'batch'/'rows' force one engine (per-query
        #: override via QueryOptions.execution_mode)
        self.execution_mode = execution_mode
        #: rows per batch in batch execution
        self.morsel_size = morsel_size
        # engine-persistent pattern-plan memo: cached plans outlive a
        # single run so re-executions of a cached query skip replanning
        # every MATCH clause; invalidated wholesale on epoch change
        # (plans are costed against the pinned view's statistics)
        self._pattern_plan_memo: dict = {}
        # START index candidates, keyed by query string, same epoch
        # lifecycle as the plan memo
        self._start_candidate_memo: dict = {}
        self._pattern_plan_epoch: int | None = None
        #: run endpoint-distinct var-length patterns as visited-set BFS
        #: (Section 6.1 ablation gate; per-query override via
        #: QueryOptions.use_reachability_rewrite)
        self.use_reachability_rewrite = use_reachability_rewrite
        #: cost anchors/step order from GraphStatistics and push WHERE
        #: equality conjuncts into MATCH (off = legacy heuristic)
        self.use_cost_based_planner = use_cost_based_planner
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._plans_built = registry.counter("planner.plans")
        self._pushdowns = registry.counter("planner.pushed_filters")
        self._rewrites = registry.counter(
            "planner.reachability_rewrites")
        self._plan_cache = PlanCache(
            plan_cache_capacity,
            hits=registry.counter("planner.cache.hits"),
            misses=registry.counter("planner.cache.misses"),
            evictions=registry.counter("planner.cache.evictions"),
            invalidations=registry.counter(
                "planner.cache.invalidations"))

    @staticmethod
    def _epoch_of(view: Any) -> int:
        """A view's statistics epoch (0 for immutable stores)."""
        statistics = getattr(view, "statistics", None)
        return getattr(statistics, "epoch", 0)

    def _graph_epoch(self) -> int:
        """The live view's statistics epoch."""
        return self._epoch_of(self.view)

    def prepare(self, text: str, *, epoch: int | None = None) -> ast.Query:
        """Parse and plan (with caching) without executing.

        Cached plans are invalidated by graph mutation: entries carry
        the statistics epoch they were planned at, and any mutation
        bumps the epoch. ``run()`` passes the epoch of the snapshot it
        pinned so the cached plan and the executed graph state agree.
        """
        if epoch is None:
            epoch = self._graph_epoch()
        query = self._plan_cache.get(text, epoch)
        if query is None:
            query, report = plan_query(
                parse(text), pushdown=self.use_cost_based_planner)
            self._plans_built.inc()
            if report.pushed_filters:
                self._pushdowns.inc(report.pushed_filters)
            if report.reachability_rewrites:
                self._rewrites.inc(report.reachability_rewrites)
            # lower WHERE/projection expressions to closure kernels at
            # prepare time; kernels cache on the AST nodes, so they
            # live exactly as long as this plan-cache entry
            precompile_query(query)
            self._plan_cache.put(text, query, epoch)
        return query

    def run(self, text: str,
            parameters: Mapping[str, Any] | None = None,
            *,
            timeout: float | None = None,
            options: QueryOptions | None = None) -> Result:
        """Execute Cypher text and materialize the result.

        ``options`` carries the structured knobs (timeout, max_rows,
        profile, parameters); explicit ``parameters=``/``timeout=``
        keywords win over the corresponding option fields.

        Raises :class:`~repro.errors.QueryTimeoutError` when the time
        budget (from whichever source) is exceeded.
        """
        # QueryOptions is the one knob surface: the keywords fold into
        # a single canonical options value, and everything below reads
        # only `opts`
        opts = QueryOptions.resolve(options, parameters=parameters,
                                    timeout=timeout)
        parameters = opts.parameters
        budget = opts.timeout
        if budget is None:
            budget = self.default_timeout
        # pin ONE graph state for planning and execution: the cache
        # key, the planner's statistics and every store read below all
        # come from this snapshot, so concurrent writers cannot slip a
        # newer epoch between plan lookup and row production
        pinned = pin_view(self.view)
        epoch = self._epoch_of(pinned)
        query = self.prepare(text, epoch=epoch)
        profiler = QueryProfiler() \
            if opts.profile or query.profile else None
        rewrite = opts.use_reachability_rewrite
        if rewrite is None:
            rewrite = self.use_reachability_rewrite
        mode = opts.execution_mode
        if mode is None:
            mode = self.execution_mode
        use_batch = mode == "batch" or \
            (mode == "auto" and batch_supported(query)
             and not self._route_to_rows(query, pinned, epoch))
        if epoch != self._pattern_plan_epoch or \
                len(self._pattern_plan_memo) > 4096 or \
                len(self._start_candidate_memo) > 4096:
            # plans are costed against this epoch's statistics and
            # START candidates against its index state; a new epoch
            # means every cached choice is suspect
            self._pattern_plan_memo = {}
            self._start_candidate_memo = {}
            self._pattern_plan_epoch = epoch
        ctx = ExecutionContext(
            pinned, parameters, budget,
            use_index_seek=self.use_index_seek,
            profiler=profiler,
            use_reachability_rewrite=rewrite,
            use_cost_based_planner=self.use_cost_based_planner,
            pattern_plans=self._pattern_plan_memo,
            start_candidates=self._start_candidate_memo)
        morsel_size = opts.morsel_size
        if morsel_size is None:
            morsel_size = self.morsel_size
        with self.obs.tracer.span("cypher.query", query=text):
            try:
                if use_batch:
                    result = execute_batch(query, ctx, morsel_size)
                else:
                    result = execute(query, ctx)
            except QueryTimeoutError:
                self.obs.record_query(text, ctx.elapsed, rows=None,
                                      timed_out=True)
                raise
        result.stats.epoch = epoch
        result.stats.execution_mode = "batch" if use_batch else "rows"
        if opts.max_rows is not None:
            result.truncate(opts.max_rows)
        if profiler is not None:
            profiler.finish(len(result.rows),
                            result.stats.elapsed_seconds)
            result.profile = profiler.to_plan()
            result.stats.db_hits = result.profile.total_db_hits()
        self.obs.record_query(text, result.stats.elapsed_seconds,
                              len(result.rows))
        return result

    def _route_to_rows(self, query: ast.Query, pinned: Any,
                       epoch: int) -> bool:
        """The 'auto' mode cost consult, memoized per plan + epoch.

        :func:`~repro.cypher.planner.prefer_rows` probes statistics
        (and, for START points, the index itself, bounded); caching
        the verdict on the cached plan keeps the consult off the
        per-run hot path.
        """
        hint = getattr(query, "_route_hint", None)
        if hint is not None and hint[0] == epoch:
            return hint[1]
        prefer = prefer_rows(query, pinned, self.use_index_seek)
        object.__setattr__(query, "_route_hint", (epoch, prefer))
        return prefer

    def explain(self, text: str) -> PlanDescription:
        """The structured execution plan, without running the query.

        ``str()`` of the returned tree is the classic text plan.
        """
        from repro.cypher.explain import explain
        pinned = pin_view(self.view)
        query = self.prepare(text, epoch=self._epoch_of(pinned))
        return explain(query, pinned,
                       self.use_index_seek,
                       self.use_cost_based_planner,
                       self.use_reachability_rewrite)

    def profile(self, text: str,
                parameters: Mapping[str, Any] | None = None,
                timeout: float | None = None,
                options: QueryOptions | None = None) -> Result:
        """Run with profiling on; ``result.profile`` holds the tree."""
        opts = QueryOptions.resolve(options, parameters=parameters,
                                    timeout=timeout, profile=True)
        return self.run(text, options=opts)

    def clear_cache(self) -> None:
        self._plan_cache.clear()
        self.evict_epoch_memos()

    def evict_epoch_memos(self) -> None:
        """Drop the cross-run plan and START-candidate memos (cold
        measurements must pay planning and index evaluation again)."""
        self._pattern_plan_memo = {}
        self._start_candidate_memo = {}
        self._pattern_plan_epoch = None
