"""The Frappé facade — what a downstream user drives.

Typical flows::

    # index a codebase from sources + build commands
    frappe = Frappe.index_sources(
        {"foo.h": ..., "foo.c": ..., "main.c": ...},
        build_script=\"\"\"
            gcc foo.c -c -o foo.o
            gcc main.c foo.o -o prog
        \"\"\")

    # query it
    frappe.query("MATCH (n:function) RETURN n.short_name")
    frappe.search("pci_*", node_type="function")
    frappe.backward_slice("pci_read_bases")

    # persist and reopen as a page-cached disk store
    frappe.save("/var/lib/frappe/kernel")
    frappe = Frappe.open("/var/lib/frappe/kernel")
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Iterable, Mapping, Optional

from repro.build.buildsys import FAIL_FAST, Build, BuildReport
from repro.core import model, queries, slicing
from repro.core.config import StoreConfig
from repro.core.extractor import extract_build
from repro.cypher import CypherEngine, QueryOptions, Result
from repro.graphdb import PropertyGraph, stats
from repro.graphdb.storage import GraphStore
from repro.graphdb.view import Direction, GraphView
from repro.lang.source import VirtualFileSystem
from repro.obs import (MetricsSnapshot, Observability, SlowQueryEntry,
                       Span)
from repro.server import Executor


class Frappe:
    """A queryable dependency graph of one codebase."""

    def __init__(self, view: GraphView,
                 default_timeout: float | None = None,
                 obs: Observability | None = None,
                 use_reachability_rewrite: bool = True,
                 use_cost_based_planner: bool = True,
                 execution_mode: str = "auto",
                 morsel_size: int | None = None) -> None:
        self.view = view
        #: one observability bundle per instance: the engine, page
        #: cache, store reader, indexes and traversals all emit into
        #: its registry
        self.obs = obs if obs is not None else Observability()
        attach = getattr(view, "attach_metrics", None)
        if attach is not None:
            attach(self.obs.registry)
        engine_kw: dict[str, Any] = {}
        if morsel_size is not None:
            engine_kw["morsel_size"] = morsel_size
        self.engine = CypherEngine(
            view, default_timeout, obs=self.obs,
            use_reachability_rewrite=use_reachability_rewrite,
            use_cost_based_planner=use_cost_based_planner,
            execution_mode=execution_mode, **engine_kw)
        #: per-unit outcomes of the build this graph came from (None
        #: for stores opened from disk)
        self.build_report: BuildReport | None = None
        #: lazily-started concurrent serving executor (query_async)
        self._executor: Executor | None = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def index_build(cls, build: Build,
                    default_timeout: float | None = None) -> "Frappe":
        """Extract a dependency graph from a finished build."""
        frappe = cls(extract_build(build), default_timeout)
        frappe.build_report = getattr(build, "report", None)
        return frappe

    @classmethod
    def index_sources(cls, files: Mapping[str, str], build_script: str,
                      include_paths: Iterable[str] = (),
                      defines: Mapping[str, str] | None = None,
                      ignore_missing_includes: bool = False,
                      default_timeout: float | None = None,
                      policy: str = FAIL_FAST,
                      max_errors: int | None = None,
                      jobs: int = 1) -> "Frappe":
        """Compile an in-memory source tree and index it.

        ``policy=KEEP_GOING`` indexes through broken translation units:
        failures become diagnostics on the build report (reachable as
        ``frappe.build_report``) and the graph is partial but valid.
        ``jobs > 1`` compiles units on a process pool; the resulting
        graph is identical to a serial build.
        """
        build = Build(VirtualFileSystem(dict(files)),
                      include_paths=include_paths,
                      defines=dict(defines or {}),
                      ignore_missing_includes=ignore_missing_includes,
                      policy=policy, max_errors=max_errors, jobs=jobs)
        build.run_script(build_script)
        return cls.index_build(build, default_timeout)

    @classmethod
    def open(cls, directory: str, *,
             config: StoreConfig | None = None) -> "Frappe":
        """Open a saved store as a page-cached read view.

        All open-time knobs live on one :class:`StoreConfig` value::

            Frappe.open(path, config=StoreConfig(mmap=True))
        """
        if config is None:
            config = StoreConfig()
        engine_kw: dict[str, Any] = {}
        if config.morsel_size is not None:
            engine_kw["morsel_size"] = config.morsel_size
        return cls(GraphStore.open(directory, config.make_page_cache()),
                   config.default_timeout,
                   use_reachability_rewrite=config.use_reachability_rewrite,
                   use_cost_based_planner=config.use_cost_based_planner,
                   execution_mode=config.execution_mode,
                   **engine_kw)

    def save(self, directory: str) -> dict[str, int]:
        """Persist to a store directory; returns the size breakdown."""
        if not isinstance(self.view, PropertyGraph):
            raise TypeError("only an in-memory graph can be saved; "
                            "this Frappe wraps a disk store already")
        return GraphStore.write(self.view, directory)

    # -- cache control (benchmark protocol) -------------------------------------------

    def evict_caches(self) -> None:
        """Cold-start the store-backed view (no-op for in-memory).

        Also resets the metric counters, so a cold-run measurement
        doesn't inherit hit/miss traffic from earlier queries.
        """
        evict = getattr(self.view, "evict_caches", None)
        if evict is not None:
            evict()
        self.engine.evict_epoch_memos()
        self.reset_counters()

    def close(self) -> None:
        if self._executor is not None:
            # drain, don't hang: queued-but-unstarted queries fail
            # deterministically with ServerClosedError
            self._executor.close(wait=True)
            self._executor = None
        # duck-typed: StoreGraph and ShardedStore both own file
        # handles; in-memory graphs have nothing to close
        closer = getattr(self.view, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "Frappe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot(self) -> GraphView:
        """An epoch-pinned read view of the graph.

        For an in-memory graph this is the O(1) copy-on-write
        :class:`~repro.graphdb.GraphSnapshot` — hand it to the native
        query helpers (``queries``, ``traversal``) to read one
        consistent state while a writer keeps ingesting. Disk stores
        are immutable, so the store itself is returned.
        """
        from repro.graphdb.snapshot import pin_view
        return pin_view(self.view)

    # -- querying ------------------------------------------------------------------------

    def query(self, text: str,
              parameters: Mapping[str, Any] | None = None,
              *,
              timeout: float | None = None,
              options: QueryOptions | None = None) -> Result:
        """Run Cypher text against the graph.

        ``options`` is the structured knob surface
        (:class:`~repro.cypher.QueryOptions`: timeout, max_rows,
        profile, parameters); explicit keywords win over option
        fields.
        """
        return self.engine.run(text, parameters, timeout=timeout,
                               options=options)

    # -- concurrent serving ------------------------------------------------------------

    def serve(self, workers: int = 4, *,
              queue_capacity: int = 64,
              max_per_client: int | None = None) -> Executor:
        """Start (or return) the concurrent serving executor.

        Safe to call repeatedly; the first call fixes the pool shape.
        Each served query pins its own epoch snapshot, so serving
        proceeds while a writer mutates an in-memory graph.
        """
        if self._executor is None:
            self._executor = Executor(
                self.engine.run, workers=workers,
                queue_capacity=queue_capacity,
                max_per_client=max_per_client, obs=self.obs)
        return self._executor

    def query_async(self, text: str,
                    parameters: Mapping[str, Any] | None = None,
                    *, timeout: float | None = None,
                    options: QueryOptions | None = None,
                    client: str = "anonymous") -> Future:
        """Submit a query to the serving executor; returns a Future.

        The future resolves to the same :class:`~repro.cypher.Result`
        a synchronous :meth:`query` would produce. A ``timeout`` (or
        ``options.timeout``) is a *latency from submission* budget —
        time spent waiting in the executor queue counts against it.
        Raises :class:`~repro.errors.AdmissionError` on backpressure.
        """
        opts = QueryOptions.resolve(options, parameters=parameters,
                                    timeout=timeout)
        return self.serve().submit(text, opts, client=client)

    def profile(self, text: str,
                parameters: Mapping[str, Any] | None = None,
                timeout: float | None = None,
                options: QueryOptions | None = None) -> Result:
        """Run a query with profiling; ``result.profile`` is the
        measured operator tree."""
        return self.engine.profile(text, parameters, timeout, options)

    def search(self, name: str, node_type: Optional[str] = None,
               module: Optional[str] = None) -> list[int]:
        """Code search (paper Section 4.1 / Figure 3)."""
        return queries.code_search(self.view, name, node_type, module)

    def goto_definition(self, name: str, file_id: int, line: int,
                        column: int) -> list[int]:
        """Go-to-definition (Section 4.2 / Figure 4)."""
        return queries.goto_definition(self.view, name, file_id, line,
                                       column)

    def find_references(self, node_id: int) -> list[queries.Reference]:
        """Find-references (Section 4.2)."""
        return queries.find_references(self.view, node_id)

    def writers_of_field_between(self, from_function: str,
                                 to_function: str, container: str,
                                 field: str) -> list[queries.FieldWriter]:
        """Debugging helper (Section 4.3 / Figure 5)."""
        return queries.writers_of_field_between(
            self.view, from_function, to_function, container, field)

    def backward_slice(self, function_short_name: str) -> set[int]:
        """All functions the seed depends on (Section 4.4 / Figure 6)."""
        return queries.call_closure(self.view, function_short_name,
                                    Direction.OUT)

    def forward_slice(self, function_short_name: str) -> set[int]:
        """All functions potentially affected by the seed."""
        return queries.call_closure(self.view, function_short_name,
                                    Direction.IN)

    def macro_impact(self, macro_name: str,
                     through_calls: bool = True) -> set[int]:
        """'How much code could be affected if I change this macro?'"""
        impacted: set[int] = set()
        for node_id in self.view.indexes.lookup(model.P_SHORT_NAME,
                                                macro_name):
            if model.MACRO in self.view.node_labels(node_id):
                impacted |= slicing.macro_impact(self.view, node_id,
                                                 through_calls)
        return impacted

    def path_between(self, entry: str, target: str) -> list[int] | None:
        """Shortest call path from an entry point to a target."""
        return queries.entry_point_path(self.view, entry, target)

    def dead_code(self, entry_points: Iterable[str] = ("main",
                                                       "start_kernel"),
                  ) -> list[int]:
        """Functions nothing calls or takes the address of."""
        return queries.unreferenced_functions(self.view, entry_points)

    def cycles(self, edge_types: Iterable[str] = (model.CALLS,),
               ) -> list[list[int]]:
        """Dependency cycles (recursion groups, include cycles, ...)."""
        return queries.dependency_cycles(self.view, edge_types)

    # -- observability -----------------------------------------------------------------------

    def counters(self) -> MetricsSnapshot:
        """A snapshot of every metric the read path has emitted:
        query counts/latency, page-cache hits/misses/evictions, store
        record faults, index lookups, traversal expansions."""
        return self.obs.registry.snapshot()

    def reset_counters(self) -> None:
        """Zero the metric counters without evicting any cache."""
        self.obs.registry.reset()

    def cache_hit_ratio(self) -> float:
        """Hit ratio of the store's read caches since the last reset.

        Counts page-cache hits plus decoded-object cache hits over
        that total plus page-cache misses (each disk page read is a
        miss) — the figure the Table 5 cold/warm benchmark rows print.
        Returns 0.0 for an in-memory graph (no cache traffic).
        """
        snapshot = self.counters()
        hits = (snapshot.counter("pagecache.hits")
                + snapshot.counter("store.object_cache.hits"))
        misses = snapshot.counter("pagecache.misses")
        total = hits + misses
        return hits / total if total else 0.0

    def slow_queries(self) -> list[SlowQueryEntry]:
        """Recent slow/timed-out queries, oldest first."""
        return self.obs.slow_log.entries()

    def traces(self) -> list[Span]:
        """Recently finished trace spans (one root per query)."""
        return self.obs.tracer.recent()

    # -- metrics (Tables 3–4, Figure 7) -------------------------------------------------------

    def metrics(self) -> stats.GraphMetrics:
        return stats.graph_metrics(self.view)

    def degree_distribution(self) -> dict[int, int]:
        return stats.degree_distribution(self.view)

    def describe(self, node_id: int) -> dict[str, Any]:
        """Node labels + properties, for display."""
        description = dict(self.view.node_properties(node_id))
        description["labels"] = sorted(self.view.node_labels(node_id))
        description["id"] = node_id
        return description
