"""Scatter/gather serving over a subtree-sharded store.

The topology stacks the PR 9 shard layer under the PR 7 replica
tier::

    client ── HTTP ──▶ ShardBackend (fair-share Executor)
                          │ ShardRouter.execute
          ┌───────────────┼────────────────┐
          ▼               ▼                ▼
      shard 0          shard 1          shard 2        (ReplicaSet each)
      replica procs    replica procs    replica procs  (mmap, respawn)
          └───────────────┴────────────────┘
                          ▼
               gateway Frappe(ShardedStore)            (composite view)

Three routing tiers, picked per query by :meth:`ShardRouter.classify`:

* **dispatch** — the query is provably answerable by one shard alone:
  it is START-anchored, the anchor's exact index seek (or node-id set)
  lands in exactly one shard's postings, and it expands nothing (zero
  relationships), so every row is an owned node of that shard. The
  query runs on that shard's replica set and the reply bytes are
  forwarded as-is, with the owning shard id spliced into the summary
  frame. This is the tier the BENCH_PR9 "never slower than unsharded"
  gate measures: the store a worker opens is a fraction of the graph.
* **scatter** — a zero-relationship aggregation (``count``/``sum``/
  ``min``/``max`` over a label scan) decomposes into per-shard
  partials: ghost nodes are excluded from shard indexes, so the
  per-shard scans partition the source scan and the partial
  aggregates merge losslessly. Shards whose label postings are empty
  are pruned by the manifest statistics before fan-out.
* **gateway** — everything else (var-length traversals, multi-hop
  expansions, ``PROFILE``, ``collect``/``avg``/``DISTINCT``, ordered
  or paginated returns) runs on the in-process gateway engine over
  :class:`~repro.graphdb.storage.sharding.ShardedStore`. The
  composite view preserves ids, iteration order and planner
  statistics, so the gateway is *result-identical* to an unsharded
  store by construction — including db-hit accounting and PROFILE
  trees. Var-length expansion over the composite view is exactly the
  iterative frontier exchange of
  :func:`~repro.graphdb.storage.sharding.frontier_exchange`: each BFS
  level reads adjacency only on the frontier node's owner shard and
  ships foreign neighbor ids to their owners for the next round,
  with the visited set deduplicating boundary edges that are
  replicated on both sides of the cut.

A worker-process crash inside one shard's replica set stays invisible
(the set retries on a survivor and respawns in the background); only
when a whole shard's worker tier is exhausted does the client see a
structured :class:`~repro.errors.ShardCrashedError` naming the shard.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterator

from repro.cypher import ast
from repro.cypher.options import QueryOptions
from repro.cypher.parser import parse
from repro.cypher.result import Result
from repro.errors import (FrappeError, ReplicaCrashedError, ServerError,
                          ShardCrashedError)
from repro.graphdb.storage.sharding import (ShardedStore,
                                            load_shard_manifest,
                                            parse_exact_seek,
                                            shard_directory_name)
from repro.obs import Observability
from repro.server import wire
from repro.server.executor import Executor, TaskHandle
from repro.server.replica import ReplicaSet

#: aggregate functions whose partials merge losslessly across shards
#: (``avg`` needs a sum/count pair and ``collect`` a posting-order
#: merge — both route to the gateway instead)
DECOMPOSABLE_AGGREGATES = frozenset({"count", "sum", "min", "max"})

#: routing decisions memoized per query text (the store is immutable,
#: so a decision can never go stale)
DECISION_CACHE_SIZE = 512


@dataclasses.dataclass(frozen=True)
class RoutingDecision:
    """Where one query runs, and why."""

    tier: str              # 'dispatch' | 'scatter' | 'gateway'
    shards: tuple[int, ...]
    reason: str

    #: merge plan for the scatter tier: one aggregate kind per column
    merge: tuple[str, ...] = ()


def _walk_expr(expr: Any) -> Iterator[Any]:
    """Every sub-expression of an AST expression, including itself."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            yield from _walk_expr(arg)
    elif isinstance(expr, ast.Unary):
        yield from _walk_expr(expr.operand)
    elif isinstance(expr, ast.Binary):
        yield from _walk_expr(expr.left)
        yield from _walk_expr(expr.right)
    elif isinstance(expr, ast.PropertyAccess):
        yield from _walk_expr(expr.subject)


def _has_pattern_predicate(expr: Any) -> bool:
    return any(isinstance(node, ast.PatternPredicate)
               for node in _walk_expr(expr))


def _aggregate_kind(item: ast.ReturnItem) -> str | None:
    """The merge kind of one RETURN item, or None if not mergeable."""
    expr = item.expression
    if isinstance(expr, ast.CountStar):
        return "count"
    if isinstance(expr, ast.FunctionCall) and not expr.distinct \
            and expr.name in DECOMPOSABLE_AGGREGATES \
            and not any(isinstance(sub, (ast.FunctionCall,
                                         ast.CountStar))
                        for arg in expr.args
                        for sub in _walk_expr(arg)):
        return expr.name
    return None


def merge_partial_aggregates(kinds: tuple[str, ...] | list[str],
                             partial_rows: list[tuple[Any, ...]],
                             ) -> tuple[Any, ...]:
    """Fold per-shard aggregate rows into the global aggregate row.

    ``kinds[i]`` names the aggregate in column ``i``: ``count`` and
    ``sum`` partials add up; ``min``/``max`` partials compare, with
    ``None`` partials (a shard whose scan matched nothing) ignored —
    exactly the semantics the single-store aggregation has over the
    union of the shards' disjoint row sets.
    """
    merged: list[Any] = []
    for column, kind in enumerate(kinds):
        values = [row[column] for row in partial_rows]
        if kind in ("count", "sum"):
            present = [value for value in values if value is not None]
            if kind == "count":
                merged.append(sum(present))
            else:
                merged.append(sum(present) if present else None)
        elif kind in ("min", "max"):
            present = [value for value in values if value is not None]
            fold = min if kind == "min" else max
            merged.append(fold(present) if present else None)
        else:
            raise ValueError(f"cannot merge aggregate kind {kind!r}")
    return tuple(merged)


def splice_shards(payload: bytes, shards: list[int]) -> bytes:
    """Rewrite an NDJSON reply's summary frame with the serving shards.

    The dispatch tier forwards a replica's pre-serialized bytes; only
    the final summary line is decoded and re-encoded, so row frames —
    the bulk of the payload — are never touched.
    """
    body = payload.rstrip(b"\n")
    head, _, last = body.rpartition(b"\n")
    try:
        frame = json.loads(last)
    except json.JSONDecodeError:
        return payload
    summary = frame.get("summary")
    if not isinstance(summary, dict):
        return payload
    stats = summary.get("stats")
    if not isinstance(stats, dict):
        stats = {}
        summary["stats"] = stats
    stats["shards"] = list(shards)
    spliced = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    prefix = head + b"\n" if head else b""
    return prefix + spliced + b"\n"


class ShardRouter:
    """Scatter/gather query routing over one shard root.

    Parameters
    ----------
    root:
        A shard root written by ``frappe shard-split``.
    replicas:
        Worker processes per shard (each shard gets its own
        :class:`~repro.server.replica.ReplicaSet` over its shard
        store, mmap-shared like the PR 7 tier). ``0`` runs the
        dispatch and scatter tiers in-process on per-shard engines
        instead — same shard-local execution and wire payloads, no
        worker processes (the equivalence harness's mode).
    respawn:
        Replace crashed shard workers automatically.
    obs:
        Shared metrics sink; also carries the
        ``router.dispatched`` / ``router.scattered`` /
        ``router.gatewayed`` tier counters and
        ``router.shards_pruned``.
    """

    def __init__(self, root: str, replicas: int = 2, *,
                 config: Any = None, respawn: bool = True,
                 obs: Observability | None = None) -> None:
        # imported lazily: repro.core.frappe itself imports
        # repro.server, so a module-level import would re-enter the
        # half-initialized package (same pattern as replica.py)
        from repro.core.config import StoreConfig
        from repro.core.frappe import Frappe

        self.root = root
        self.manifest = load_shard_manifest(root)
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._dispatched = registry.counter("router.dispatched")
        self._scattered = registry.counter("router.scattered")
        self._gatewayed = registry.counter("router.gatewayed")
        self._pruned = registry.counter("router.shards_pruned")
        self._decision_hits = registry.counter(
            "router.decision_cache_hits")
        self._decisions: OrderedDict[tuple[str, bool],
                                     RoutingDecision] = OrderedDict()
        self._decision_lock = threading.Lock()
        if config is None:
            config = StoreConfig(mmap=True)
        self.store = ShardedStore(root)
        self.gateway = Frappe(self.store, obs=self.obs)
        self.replica_sets: list[ReplicaSet] = []
        self.shard_engines: list[Any] = []
        try:
            for entry in self.manifest["shards"]:
                directory = os.path.join(root, entry["directory"])
                if replicas > 0:
                    self.replica_sets.append(ReplicaSet(
                        directory, replicas, config=config,
                        respawn=respawn, obs=self.obs))
                else:
                    self.shard_engines.append(
                        Frappe.open(directory, config=config))
        except BaseException:
            self.close()
            raise

    @property
    def shard_count(self) -> int:
        return len(self.manifest["shards"])

    # -- classification ------------------------------------------------

    def classify(self, text: str,
                 options: QueryOptions | None = None) -> RoutingDecision:
        """Pick the routing tier for one query (side-effect free).

        The dispatch and scatter tiers only accept shapes whose
        shard-local execution is *provably* identical to the
        single-store execution; anything uncertain — including any
        text the parser rejects — falls through to the gateway, whose
        composite view is identical by construction.

        Decisions are memoized per (text, profiled) — the store is
        immutable, so they never go stale, and a serving workload's
        repeated queries skip the parse entirely (the BENCH_PR9
        dispatch gate counts this cost).
        """
        key = (text, bool(options is not None and options.profile))
        with self._decision_lock:
            cached = self._decisions.get(key)
            if cached is not None:
                self._decisions.move_to_end(key)
                self._decision_hits.inc()
                return cached
        decision = self._classify(text, options)
        with self._decision_lock:
            self._decisions[key] = decision
            while len(self._decisions) > DECISION_CACHE_SIZE:
                self._decisions.popitem(last=False)
        return decision

    def _classify(self, text: str,
                  options: QueryOptions | None) -> RoutingDecision:
        every = tuple(range(self.shard_count))
        if options is not None and options.profile:
            return RoutingDecision("gateway", every,
                                   "profiled run (options)")
        try:
            query = parse(text)
        except FrappeError:
            return RoutingDecision("gateway", every, "unparseable")
        if query.profile:
            return RoutingDecision("gateway", every, "profiled run")
        starts = [c for c in query.clauses if isinstance(c, ast.Start)]
        matches = [c for c in query.clauses if isinstance(c, ast.Match)]
        wheres = [c for c in query.clauses if isinstance(c, ast.Where)]
        returns = [c for c in query.clauses
                   if isinstance(c, ast.Return)]
        others = [c for c in query.clauses
                  if not isinstance(c, (ast.Start, ast.Match,
                                        ast.Where, ast.Return))]
        if others or len(returns) != 1:
            return RoutingDecision("gateway", every,
                                   "pipelined clauses")
        if any(_has_pattern_predicate(w.predicate) for w in wheres):
            return RoutingDecision("gateway", every,
                                   "pattern predicate in WHERE")
        patterns = [pattern for clause in matches
                    for pattern in clause.patterns]
        if any(pattern.rels or pattern.shortest
               for pattern in patterns):
            # any expansion can read a ghost's (incomplete) shard-local
            # adjacency or let the planner anchor on a shard-local scan
            return RoutingDecision("gateway", every, "expands edges")

        anchored = self._anchor_shards(starts)
        if anchored is not None:
            bound = {point.variable for start in starts
                     for point in start.points}
            free = any(node.variable not in bound
                       for pattern in patterns
                       for node in pattern.nodes)
            if free:
                # an unbound node pattern is a scan, and a shard-local
                # scan sees only owned nodes — not dispatchable
                return RoutingDecision("gateway", every,
                                       "scan beside the anchor")
            if len(anchored) == 1:
                return RoutingDecision(
                    "dispatch", (anchored[0],),
                    "anchor seek owned by one shard")
            return RoutingDecision("gateway", every,
                                   "anchor spans shards")
        if starts:
            return RoutingDecision("gateway", every,
                                   "unprunable START")

        return self._classify_scan(patterns, returns[0], every)

    def _anchor_shards(self, starts: list[ast.Start]) -> list[int] | None:
        """Shards an exact START anchor can live in, or None.

        ``None`` means "not a prunable anchor" (no START clause, a
        wildcard index query, ``node(*)``); a list means the anchor's
        rows are provably confined to those shards. An empty seek
        pins shard 0 — any shard returns the same empty result.
        """
        if len(starts) != 1 or len(starts[0].points) != 1:
            return None
        point = starts[0].points[0]
        if isinstance(point, ast.NodeIdStartPoint):
            if point.all_nodes:
                return None
            owners: set[int] = set()
            for node_id in point.ids:
                try:
                    owners.add(self.store.node_owner(node_id))
                except KeyError:
                    # a dead id raises the same NodeNotFoundError on
                    # every shard; let any target shard report it
                    continue
            return sorted(owners) if owners else [0]
        seek = parse_exact_seek(point.query)
        if seek is None:
            return None
        counts = self.store.shard_seek_counts(*seek)
        hit = [index for index, count in enumerate(counts) if count]
        self._pruned.inc(max(0, len(counts) - max(1, len(hit))))
        return hit if hit else [0]

    def _classify_scan(self, patterns: list[ast.Pattern],
                       returns: ast.Return,
                       every: tuple[int, ...]) -> RoutingDecision:
        """Scatter decision for anchorless zero-rel queries."""
        if len(patterns) != 1 or len(patterns[0].nodes) != 1:
            return RoutingDecision("gateway", every,
                                   "not a single node scan")
        if returns.distinct or returns.order_by or returns.skip \
                or returns.limit or returns.star or not returns.items:
            return RoutingDecision("gateway", every,
                                   "order-sensitive return")
        kinds = [_aggregate_kind(item) for item in returns.items]
        if any(kind is None for kind in kinds):
            return RoutingDecision("gateway", every,
                                   "non-decomposable return item")
        labels = patterns[0].nodes[0].labels
        if not labels:
            # ghosts stay out of label indexes, not out of a shard's
            # all-nodes scan: scattered, they would be counted twice
            return RoutingDecision("gateway", every, "unlabelled scan")
        # manifest label statistics prune shards that cannot
        # contribute a row; keep one shard so the empty aggregate
        # row (count=0, min=null) still materializes
        counts = self.store.shard_label_counts(labels[0])
        shards = [index for index, count in enumerate(counts)
                  if count] or [0]
        self._pruned.inc(len(every) - len(shards))
        return RoutingDecision("scatter", tuple(shards),
                               "decomposable aggregation",
                               merge=tuple(kinds))

    # -- execution -----------------------------------------------------

    def execute(self, text: str, options: QueryOptions | None = None,
                *, spawn: Callable[[Callable[[], Any]], TaskHandle]
                | None = None) -> bytes:
        """Run one query through the router; returns NDJSON bytes.

        ``spawn`` (an :meth:`Executor.spawn_task`) parallelizes the
        scatter fan-out; without it partials run sequentially.
        """
        decision = self.classify(text, options)
        if decision.tier == "dispatch":
            self._dispatched.inc()
            shard = decision.shards[0]
            payload = self._execute_on(shard, text, options)
            return splice_shards(payload, [shard])
        if decision.tier == "scatter":
            self._scattered.inc()
            return self._scatter(text, options, decision, spawn)
        self._gatewayed.inc()
        result = self.gateway.query(text, options=options)
        result.stats.shards = list(decision.shards)
        return wire.result_to_ndjson(result)

    def _execute_on(self, shard: int, text: str,
                    options: QueryOptions | None) -> bytes:
        """One shard's replica set, with crashes escalated by name."""
        if not self.replica_sets:
            return wire.result_to_ndjson(
                self.shard_engines[shard].query(text, options=options))
        try:
            return self.replica_sets[shard].execute(text, options)
        except ReplicaCrashedError as error:
            raise ShardCrashedError(
                f"shard {shard} lost every worker mid-query",
                shard=shard) from error
        except ServerError as error:
            # ReplicaSet's retry-exhaustion paths raise the bare base
            # class; narrower server errors (admission etc.) pass on
            if type(error) is ServerError:
                raise ShardCrashedError(
                    f"shard {shard} is unrecoverable: {error}",
                    shard=shard) from error
            raise

    def _scatter(self, text: str, options: QueryOptions | None,
                 decision: RoutingDecision,
                 spawn: Callable[..., TaskHandle] | None) -> bytes:
        shards = list(decision.shards)
        if spawn is not None:
            handles = [spawn(lambda shard=shard: self._execute_on(
                shard, text, options)) for shard in shards]
            payloads = []
            try:
                for handle in handles:
                    payloads.append(handle.result())
            finally:
                # a failed partial must not leave siblings claimable
                # on the pool (nobody will ever collect them)
                for handle in handles[len(payloads):]:
                    handle.cancel()
        else:
            payloads = [self._execute_on(shard, text, options)
                        for shard in shards]
        partials = [wire.result_from_ndjson(payload)
                    for payload in payloads]
        merged_row = merge_partial_aggregates(
            decision.merge,
            [partial.rows[0] for partial in partials if partial.rows])
        first = partials[0]
        result = Result(list(first.columns), [merged_row],
                        dataclasses.replace(
                            first.stats, rows_produced=1,
                            expansions=sum(p.stats.expansions
                                           for p in partials),
                            elapsed_seconds=max(p.stats.elapsed_seconds
                                                for p in partials),
                            db_hits=sum(p.stats.db_hits
                                        for p in partials),
                            shards=shards))
        return wire.result_to_ndjson(result)

    # -- introspection / lifecycle -------------------------------------

    def alive(self) -> list[int]:
        """Live worker count per shard."""
        return [replica_set.alive()
                for replica_set in self.replica_sets]

    def pids(self) -> list[list[int]]:
        """Live worker pids per shard (the fault tests kill these)."""
        return [replica_set.pids()
                for replica_set in self.replica_sets]

    def topology(self) -> list[dict[str, Any]]:
        entries = []
        for index, entry in enumerate(self.manifest["shards"]):
            replica_set = self.replica_sets[index] \
                if index < len(self.replica_sets) else None
            entries.append({
                "shard": index,
                "directory": shard_directory_name(index),
                "alive": replica_set.alive()
                if replica_set is not None else 0,
                "configured": replica_set.configured
                if replica_set is not None else 0,
                "path_prefixes": list(entry.get("path_prefixes", ()))})
        return entries

    def close(self) -> None:
        for replica_set in self.replica_sets:
            replica_set.close()
        self.replica_sets = []
        for engine in self.shard_engines:
            engine.close()
        self.shard_engines = []
        gateway = getattr(self, "gateway", None)
        if gateway is not None:
            gateway.close()
            self.gateway = None

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardRouter({self.root!r}, "
                f"shards={self.shard_count}, alive={self.alive()})")


class ShardBackend:
    """The :class:`~repro.server.http.HttpServer` backend for a
    :class:`ShardRouter`.

    Admission reuses the fair-share executor exactly like
    :class:`~repro.server.replica.ReplicaBackend`; its worker threads
    dispatch to shard replica sets (blocking on pipes, not the GIL)
    and double as the scatter tier's partial-collection pool via
    ``spawn_task`` — which is what ties scattered partials into
    ``Executor.close``'s drain guarantee.
    """

    def __init__(self, router: ShardRouter, *,
                 workers: int | None = None,
                 queue_capacity: int = 64,
                 max_per_client: int | None = None) -> None:
        self.router = router
        self.obs = router.obs
        if workers is None:
            workers = max(2, 2 * router.shard_count)
        self._executor = Executor(
            self._run, workers=workers, queue_capacity=queue_capacity,
            max_per_client=max_per_client, obs=self.obs)

    def _run(self, text: str, options: Any = None) -> bytes:
        return self.router.execute(text, options,
                                   spawn=self._executor.spawn_task)

    def submit(self, text: str, options: Any, client: str):
        return self._executor.submit(text, options, client=client)

    def health(self) -> dict[str, Any]:
        return {"mode": "sharded",
                "shards": self.router.topology(),
                "workers": self._executor.workers}

    def metrics(self) -> dict[str, Any]:
        return {"server": self.obs.registry.snapshot().as_dict(),
                "shards": [{"shard": index,
                            "replicas": replica_set.metrics()}
                           for index, replica_set in enumerate(
                               self.router.replica_sets)]}

    def close(self) -> None:
        self._executor.close(wait=True)
        self.router.close()


__all__ = ["DECOMPOSABLE_AGGREGATES", "RoutingDecision", "ShardBackend",
           "ShardRouter", "merge_partial_aggregates", "splice_shards"]
