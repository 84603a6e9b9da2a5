"""The traced run: spans at every layer boundary, and the waterfall.

Spans are recorded by this file, around calls into each layer's
public function — the program itself is not instrumented (that is a
later issue). Because the boundaries are called from outside, one
after the other on the same ops, a layer's self time is the median
measured at its boundary minus the medians measured at the boundaries
directly inside it (:func:`stats.self_time`):

    executor.submit  = cypher.run + executor.self
    replica.execute  = cypher.run + wire.encode + replica.self
    http.query       = replica.execute + wire.decode + http.self
    shard.execute    = cypher.run + wire.encode + shard.self

The traced run never contributes to an end-to-end metric.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Callable, Sequence

import ops
import stages
import stats

#: ops replayed at every boundary (the first 5 rounds of the stream)
TRACE_OPS = 100

#: counters read around every in-process run, by their registry names
COUNTERS = ("pagecache.hits", "pagecache.misses", "pagecache.evictions",
            "store.record_faults", "index.lookups",
            "planner.cache.hits", "planner.cache.misses")

CLASSES = (ops.LIGHT, ops.HEAVY)


class Tracer:
    """In-memory spans: one root per op, one child per boundary."""

    def __init__(self, stream: Sequence[ops.Op]) -> None:
        self.ops = list(stream)
        self.spans: list[dict[str, Any]] = [
            {"id": index, "parent": None, "op": index, "name": "op",
             "kind": op.kind, "class": op.cls, "start": None,
             "end": None}
            for index, op in enumerate(self.ops)]

    def timed(self, name: str, op_id: int,
              fn: Callable[..., Any], *args: Any) -> Any:
        started = time.perf_counter()
        value = fn(*args)
        finished = time.perf_counter()
        root = self.spans[op_id]
        self.spans.append({"id": len(self.spans), "parent": op_id,
                           "op": op_id, "name": name,
                           "start": started, "end": finished})
        root["start"] = started if root["start"] is None \
            else min(root["start"], started)
        root["end"] = finished if root["end"] is None \
            else max(root["end"], finished)
        return value

    def durations_ms(self, name: str, cls: str | None = None
                     ) -> list[float]:
        return [(span["end"] - span["start"]) * 1000.0
                for span in self.spans
                if span["name"] == name and
                (cls is None or self.ops[span["op"]].cls == cls)]

    def median_ms(self, name: str, cls: str | None = None) -> float:
        return stats.median(self.durations_ms(name, cls))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(directory)
               for name in names)


def _ms(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> float:
    """Milliseconds one call took (timings that belong to no op)."""
    started = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - started) * 1000.0


class LayerWalk:
    """Replays the workload's first ``TRACE_OPS`` ops at every layer
    boundary, innermost first, filling ``metrics``."""

    def __init__(self, workload: str, run_dir: str) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.setup = stages.load_setup(run_dir)
        self.store = self.setup["store"]
        self.refs = self.setup["refs"]
        self.stream = self.setup["stream"][:TRACE_OPS]
        self.texts = ops.distinct_texts(self.stream)
        self.tracer = Tracer(self.stream)
        self.checks = stages.Phase()
        self.metrics: dict[str, float] = {}

    def run(self) -> None:
        self.storage_at_rest()
        self.engine()
        self.executor()
        self.replica()
        self.http()
        self.shard()
        self.self_times()
        self.build()

    # -- helpers -------------------------------------------------------------

    def check(self, rows: Any, op: ops.Op, where: str) -> None:
        self.checks.attempted += 1
        if stats.digest(rows) != self.refs[op.text]:
            self.checks.fail(
                f"{where}: {op.kind} rows differ from reference")

    def per_class(self, span: str) -> None:
        """``<span>_ms.light`` / ``.heavy`` from the recorded spans."""
        for cls in CLASSES:
            self.metrics[f"{span}_ms.{cls}"] = \
                self.tracer.median_ms(span, cls)

    def replay(self, span: str, execute: Callable[[str], Any],
               decode: Callable[[Any], Any] = lambda reply: reply
               ) -> None:
        """One boundary: a checked warm-up pass, then every op timed
        under ``span`` and its (decoded) rows checked."""
        self.checks.merge(stages.warm_up(
            lambda op: decode(execute(op.text)), self.stream, self.refs))
        for index, op in enumerate(self.stream):
            reply = self.tracer.timed(span, index, execute, op.text)
            self.check(decode(reply).rows, op, span)
        self.per_class(span)

    # -- storage at rest: open, verify, Table 4's breakdown ----------------

    def storage_at_rest(self) -> None:
        from repro.core.frappe import Frappe
        from repro.graphdb.storage import GraphStore

        m, sizes = self.metrics, self.setup["sizes"]
        m["storage.open_ms"] = stats.median(
            [_ms(lambda: Frappe.open(self.store).close())
             for _ in range(stages.OPEN_PROBES)])
        started = time.perf_counter()
        verdict = GraphStore.verify(self.store)
        m["storage.verify_s"] = time.perf_counter() - started
        self.checks.attempted += 1
        if verdict.status != "clean":
            self.checks.fail(f"written store: {verdict.status}")
        m["storage.write_s"] = self.setup["write_s"]
        m["storage.bytes_per_edge"] = \
            sizes["total"] / self.setup["edges"]
        m["storage.csr_share"] = sizes["csr"] / sizes["total"]
        for category, size in sizes.items():
            if category != "total":
                m[f"storage.file_mb.{category}"] = size / 1e6

    # -- cypher, graphdb, storage reads, wire: in process --------------------

    def engine(self) -> None:
        from repro.core.frappe import Frappe

        with Frappe.open(self.store) as frappe:
            if self.workload != "cold_open":
                self.checks.merge(stages.warm_up(
                    stages.in_process_caller(frappe, self.store),
                    self.stream, self.refs))
            self.regime_pass(frappe)
            self.cold_warm_pass(frappe)
            self.forced_engines_pass(frappe)
            self.native_pass(frappe)

    def regime_pass(self, frappe: Any) -> None:
        """The workload's own regime (cold before every op on
        ``cold_open``), with the counters read at the boundary."""
        from repro.server import wire

        m, tracer, stream = self.metrics, self.tracer, self.stream
        engine = frappe.engine
        totals = dict.fromkeys(COUNTERS, 0)
        expansions = 0
        reply_bytes: dict[str, list[int]] = {cls: [] for cls in CLASSES}
        for index, op in enumerate(stream):
            if self.workload == "cold_open":
                frappe.evict_caches()
                engine.clear_cache()
            before = frappe.counters()
            result = tracer.timed("cypher.run", index, engine.run,
                                  op.text)
            after = frappe.counters()
            for name in COUNTERS:
                totals[name] += after.counter(name) - \
                    before.counter(name)
            expansions += result.stats.expansions
            self.check(result.rows, op, "cypher.run")
            payload = tracer.timed("wire.encode", index,
                                   wire.result_to_ndjson, result)
            decoded = tracer.timed("wire.decode", index,
                                   wire.result_from_ndjson, payload)
            self.check(decoded.rows, op, "wire round trip")
            reply_bytes[op.cls].append(len(payload))
            tracer.timed("wire.parse_request", index,
                         wire.parse_query_request,
                         wire.query_request(op.text))
        for span in ("cypher.run", "wire.encode", "wire.decode"):
            self.per_class(span)
        m["wire.parse_request_ms"] = tracer.median_ms(
            "wire.parse_request")
        for cls in CLASSES:
            m[f"wire.bytes_per_op.{cls}"] = stats.median(
                reply_bytes[cls])
        count = len(stream)
        m["cypher.plan_cache.hit_ratio"] = \
            totals["planner.cache.hits"] / (
                totals["planner.cache.hits"]
                + totals["planner.cache.misses"])
        reads = totals["pagecache.hits"] + totals["pagecache.misses"]
        m["storage.pagecache.hit_ratio"] = \
            totals["pagecache.hits"] / reads if reads else 1.0
        m["storage.pagecache.misses_per_op"] = \
            totals["pagecache.misses"] / count
        m["storage.pagecache.evictions"] = totals["pagecache.evictions"]
        m["storage.record_faults_per_op"] = \
            totals["store.record_faults"] / count
        m["graphdb.index_lookups_per_op"] = \
            totals["index.lookups"] / count
        m["graphdb.expansions_per_op"] = expansions / count

    def cold_warm_pass(self, frappe: Any) -> None:
        """The same op cold then warm, and the planner alone."""
        from repro.cypher.parser import parse

        m, tracer, engine = self.metrics, self.tracer, frappe.engine
        for index, op in enumerate(self.stream):
            frappe.evict_caches()
            engine.clear_cache()
            tracer.timed("cypher.run_cold", index, engine.run, op.text)
            tracer.timed("cypher.run_warm", index, engine.run, op.text)
            parse(op.text)  # untimed: the timed parse below and the
            # one inside prepare then both run on a warm parser
            tracer.timed("cypher.parse", index, parse, op.text)
            engine.clear_cache()
            tracer.timed("cypher.prepare_miss", index, engine.prepare,
                         op.text)
            tracer.timed("cypher.prepare_hit", index, engine.prepare,
                         op.text)
        for cls in CLASSES:
            m[f"storage.cold_penalty_ms.{cls}"] = stats.self_time(
                tracer.median_ms("cypher.run_cold", cls),
                tracer.median_ms("cypher.run_warm", cls))
        m["cypher.parse_ms"] = tracer.median_ms("cypher.parse")
        m["cypher.plan_ms"] = stats.self_time(
            tracer.median_ms("cypher.prepare_miss"), m["cypher.parse_ms"])
        m["cypher.prepare_hit_ms"] = tracer.median_ms(
            "cypher.prepare_hit")

    def forced_engines_pass(self, frappe: Any) -> None:
        """Per distinct text: each engine forced, exact db-hits."""
        from repro.cypher import QueryOptions

        m = self.metrics
        cls_of = {op.text: op.cls for op in self.stream}
        forced: dict[str, dict[str, list[float]]] = {
            mode: {cls: [] for cls in CLASSES}
            for mode in ("rows", "batch")}
        hits: dict[str, list[int]] = {cls: [] for cls in CLASSES}
        hit_total = row_total = 0
        for text in self.texts:
            for mode, samples in forced.items():
                samples[cls_of[text]].append(_ms(
                    frappe.query, text,
                    options=QueryOptions(execution_mode=mode)))
            profiled = frappe.query(
                text, options=QueryOptions(profile=True))
            hits[cls_of[text]].append(profiled.stats.db_hits)
            hit_total += profiled.stats.db_hits
            row_total += max(1, len(profiled.rows))
        for cls in CLASSES:
            for mode in forced:
                m[f"cypher.run_{mode}_ms.{cls}"] = stats.median(
                    forced[mode][cls])
            m[f"cypher.db_hits.{cls}"] = stats.median(hits[cls])
        m["cypher.db_hits_per_row"] = hit_total / row_total

    def native_pass(self, frappe: Any) -> None:
        """graphdb called directly (Section 6.1: Cypher over native)."""
        from repro.core import model
        from repro.graphdb import algo
        from repro.graphdb.view import Direction

        m, view = self.metrics, frappe.view
        lookup, native, cypher = [], [], []
        for name, node in self.setup["closure_nodes"].items():
            lookup.append(_ms(lambda: list(view.indexes.lookup(
                model.P_SHORT_NAME, name))))
            native.append(_ms(algo.reachable_nodes, view, node,
                              (model.CALLS,), Direction.OUT))
            cypher.append(_ms(frappe.query,
                              ops.CLOSURE_TEMPLATE.format(name=name)))
        m["graphdb.index_lookup_ms"] = stats.median(lookup)
        m["graphdb.closure_ms"] = stats.median(native)
        m["cypher.closure_over_native"] = \
            stats.median(cypher) / m["graphdb.closure_ms"]

    # -- the serving stack, one boundary at a time ---------------------------

    def executor(self) -> None:
        """The in-process admission pool."""
        from repro.core.frappe import Frappe

        with Frappe.open(self.store) as frappe:
            pool = frappe.serve()
            depth = frappe.obs.registry.gauge("server.queue_depth")
            deepest = 0

            def submit(text: str) -> Any:
                nonlocal deepest
                future = pool.submit(text)
                deepest = max(deepest, depth.value)
                return future.result()

            self.replay("executor.submit", submit)
            self.metrics["executor.rejected"] = \
                frappe.counters().counter("server.rejected")
            self.metrics["executor.queue_depth_max"] = deepest

    def replica(self) -> None:
        """One worker process behind a pipe."""
        from repro.server import ReplicaSet, wire

        started = time.perf_counter()
        with ReplicaSet(self.store, 1) as replicas:
            self.metrics["replica.spawn_s"] = \
                time.perf_counter() - started
            self.replay("replica.execute", replicas.execute,
                        wire.result_from_ndjson)
            counters = replicas.obs.registry.snapshot()
        for name in ("replica.retries", "replica.respawns"):
            self.metrics[name] = counters.counter(name)

    def http(self) -> None:
        """``frappe serve --http --replicas 1``, as a user starts it."""
        server = stages.Server(
            self.store, os.path.join(self.run_dir, "serve.log"))
        try:
            with server.client("spine-traced") as client:
                # the first request pays the TCP connect
                self.metrics["http.connect_ms"] = _ms(client.health)
                self.replay("http.query", client.query)
                self.metrics["http.error_responses"] = \
                    client.metrics()["server"].get(
                        "http.error_responses", 0)
        finally:
            server.stop()

    def shard(self) -> None:
        """The store split in two, one worker per shard."""
        from repro.graphdb.storage import split_store
        from repro.server import ShardRouter, wire

        m = self.metrics
        root = os.path.join(self.run_dir, "shards")
        started = time.perf_counter()
        split_store(self.store, root, 2)
        m["shard.split_s"] = time.perf_counter() - started
        m["shard.store_overhead"] = \
            _tree_bytes(root) / self.setup["sizes"]["total"]
        with ShardRouter(root, 1) as router:
            # first sight of each text: parse and decide
            m["shard.classify_ms"] = stats.median(
                [_ms(router.classify, text) for text in self.texts])
            before = router.obs.registry.snapshot()
            self.replay("shard.execute", router.execute,
                        wire.result_from_ndjson)
            after = router.obs.registry.snapshot()
        # the warm-up pass inside replay() is routed too
        for tier in ("dispatched", "scattered", "gatewayed"):
            m[f"shard.tier.{tier}"] = \
                after.counter(f"router.{tier}") - \
                before.counter(f"router.{tier}")
        shutil.rmtree(root)

    def warm_run_ms(self, cls: str) -> float:
        return self.tracer.median_ms("cypher.run_warm", cls)

    def self_times(self) -> None:
        """Each boundary minus the boundaries directly inside it."""
        m = self.metrics
        for cls in CLASSES:
            run, encode, decode = (
                self.warm_run_ms(cls), m[f"wire.encode_ms.{cls}"],
                m[f"wire.decode_ms.{cls}"])
            replica = m[f"replica.execute_ms.{cls}"]
            m[f"executor.self_ms.{cls}"] = stats.self_time(
                m[f"executor.submit_ms.{cls}"], run)
            m[f"replica.self_ms.{cls}"] = stats.self_time(
                replica, run, encode)
            m[f"http.self_ms.{cls}"] = stats.self_time(
                m[f"http.query_ms.{cls}"], replica, decode)
            # most ops take the gateway tier, which runs in the
            # router's own process over the composite view: the work
            # inside it is the engine and the encoder, not a replica
            m[f"shard.self_ms.{cls}"] = stats.self_time(
                m[f"shard.execute_ms.{cls}"], run, encode)

    # -- build / extractor: one tree, front end and extractor apart ----------

    def build(self) -> None:
        m = self.metrics
        shape = stages.TREE_SHAPE if self.workload == "index_build" \
            else stages.SMOKE_SHAPE
        tree = stages.index_tree(self.setup["seed"], shape, split=True)
        self.checks.attempted += 1
        if not tree["ok"]:
            self.checks.fail(
                "traced tree: graph does not match the generator")
        m["build.run_script_s"] = tree["run_script_s"]
        m["build.units"] = tree["units"]
        m["build.failed_units"] = tree["failed_units"]
        m["extractor.extract_s"] = tree["extract_s"]
        m["extractor.nodes"] = tree["nodes"]
        m["extractor.edges"] = tree["edges"]
        m["workloads.generate_s"] = self.setup["generate_s"]


def run_traced(workload: str, run_dir: str,
               trace_path: str) -> dict[str, Any]:
    walk = LayerWalk(workload, run_dir)
    walk.run()
    walk.tracer.write(trace_path)
    warm = {cls: walk.warm_run_ms(cls) for cls in CLASSES}
    return {"metrics": walk.metrics, "extras": {},
            "attempted": walk.checks.attempted,
            "failed": walk.checks.failed, "errors": walk.checks.errors,
            "waterfall": waterfall(walk.metrics, warm,
                                   len(walk.stream))}


def waterfall(m: dict[str, float], warm_run_ms: dict[str, float],
              count: int) -> str:
    """The served path as named costs, per class; each indented line
    is a layer's self time and each ``=`` line the boundary it adds
    up to."""
    lines = [f"waterfall (median ms over the first {count} ops; "
             "q/s = 1000 / ms for one closed-loop caller)"]
    for cls in CLASSES:
        run = warm_run_ms[cls]
        rows = [
            ("  cypher.parse", m["cypher.parse_ms"]),
            ("  cypher.plan (on a plan-cache miss)", m["cypher.plan_ms"]),
            ("= cypher.run, warm", run),
            ("  + wire.encode", m[f"wire.encode_ms.{cls}"]),
            ("  + replica.self", m[f"replica.self_ms.{cls}"]),
            ("= replica.execute", m[f"replica.execute_ms.{cls}"]),
            ("  + wire.decode", m[f"wire.decode_ms.{cls}"]),
            ("  + http.self", m[f"http.self_ms.{cls}"]),
            ("= http.query", m[f"http.query_ms.{cls}"]),
            ("  executor.self (submit - run)",
             m[f"executor.self_ms.{cls}"]),
            ("  shard.self (over run + encode)",
             m[f"shard.self_ms.{cls}"]),
            ("= shard.execute", m[f"shard.execute_ms.{cls}"]),
        ]
        lines.append(f" {cls}")
        for label, value in rows:
            rate = f"{1000.0 / value:9.1f} q/s" \
                if label.startswith("=") and value > 0 else ""
            lines.append(f"   {label:<38}{value:10.3f} ms {rate}")
    return "\n".join(lines)
