"""Experiment E17 — persistent compiled CSR adjacency (PR 10).

The PR-10 tentpole moves adjacency compilation from open-time to
build-time: ``GraphStore.write`` persists per-(direction, edge-type)
CSR segments plus a string dictionary page, and the reader serves
typed expansions straight from the mapped segments.  The claims this
suite measures and gates:

* **Cold**: the first execution of the traversal-heavy Table 5
  queries (code search Fig. 3, comprehension Fig. 6, native backward
  slice) on a compiled store is >= 2x faster than the same store with
  the compiled segments ignored (``use_compiled_csr=False`` — the
  runtime record-decode ablation, exactly what ``--no-csr`` does).
  Cold is where build-time compilation pays: the record path must
  fault and decode adjacency blocks before it can traverse.
* **Warm**: across the same mix, the compiled path is never slower
  once caches are hot (``MIX_TOLERANCE`` from the PR-5 suite).
* **Size**: the compiled segments + dictionary cost is reported as a
  fraction of the legacy (v2) store — Table 4's "what does the
  derived layer cost on disk" row.

Result counts are cross-checked between the two configurations on
every query: a cold-start gate is meaningless if the compiled path
returns different rows.
"""

import os

from repro.bench.harness import bench_record, run_cold_warm
from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.graphdb.storage import GraphStore

from test_bench_execution_modes import MIX_TOLERANCE
from test_bench_table5_queries import FIGURE3, FIGURE6

#: generous per-run ceiling — Fig. 6 with the reachability rewrite on
#: finishes in tens of milliseconds; this only catches pathology
TIMEOUT_SECONDS = 30.0

#: the traversal-heavy slice of Table 5: every query is dominated by
#: adjacency expansion, which is exactly what the CSR layer serves
TRAVERSAL_MIX = (
    ("code-search", lambda fr: fr.query(FIGURE3,
                                        timeout=TIMEOUT_SECONDS)),
    ("comprehension", lambda fr: fr.query(FIGURE6,
                                          timeout=TIMEOUT_SECONDS)),
    ("backward-slice", lambda fr: fr.backward_slice("pci_read_bases")),
)


def _measure_mix(frappe, label, runs=5):
    rows = {}
    for name, run in TRAVERSAL_MIX:
        rows[name] = run_cold_warm(
            f"{name} [{label}]",
            lambda run=run: run(frappe),
            frappe.evict_caches,
            runs=runs,
            abort_after=TIMEOUT_SECONDS,
            hit_ratio=frappe.cache_hit_ratio,
            reset_counters=frappe.reset_counters)
    return rows


def _cold_total(rows):
    return sum(row.cold.min for row in rows.values())


def _warm_total(rows):
    return sum(row.warm.min for row in rows.values())


def _tree_bytes(directory):
    total = 0
    for root, _dirs, names in os.walk(directory):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
    return total


class TestCompiledCsrColdStart:
    """Tentpole: build-time compilation vs runtime record decode."""

    def test_cold_traversals_2x_and_warm_never_slower(
            self, store_dir, report, scale, benchmark,
            bench_records_pr10):
        # interleave per query so box drift over the session cannot
        # skew the ratio; both configurations read the same on-disk
        # store through the same mmap cache mode, so the only variable
        # is whether the compiled segments are consulted
        with Frappe.open(store_dir, config=StoreConfig(
                mmap=True)) as compiled, \
            Frappe.open(store_dir, config=StoreConfig(
                mmap=True, use_compiled_csr=False)) as runtime:
            assert compiled.view._csr_reader is not None
            assert runtime.view._csr_reader is None
            compiled_rows = _measure_mix(compiled, "compiled-csr")
            runtime_rows = _measure_mix(runtime, "record-decode")

        lines = []
        for name, _run in TRAVERSAL_MIX:
            fast = compiled_rows[name]
            slow = runtime_rows[name]
            assert not fast.aborted and not slow.aborted
            assert fast.result_count == slow.result_count, name
            lines.append(
                f"{name:<16} compiled {fast.cold.min:8.2f}ms  "
                f"runtime {slow.cold.min:8.2f}ms  "
                f"cold speedup {slow.cold.min / fast.cold.min:5.2f}x")
            bench_records_pr10.append(bench_record(
                fast, query_id=f"csr/{name}/compiled"))
            bench_records_pr10.append(bench_record(
                slow, query_id=f"csr/{name}/runtime"))

        cold_speedup = _cold_total(runtime_rows) / \
            _cold_total(compiled_rows)
        report(f"== Compiled CSR cold start (min ms, scale {scale:g}, "
               f"mix speedup {cold_speedup:.2f}x) ==\n" +
               "\n".join(lines))
        bench_records_pr10.append({
            "query": "csr/mix/cold_speedup",
            "speedup": round(cold_speedup, 3)})

        # acceptance: >= 2x cold on the traversal mix...
        assert cold_speedup >= 2.0, (cold_speedup, lines)
        # ...and warm never slower once both sides are cache-hot
        assert _warm_total(compiled_rows) <= \
            _warm_total(runtime_rows) * MIX_TOLERANCE

        benchmark.pedantic(
            lambda: None, rounds=1, iterations=1)


class TestCompiledStoreSize:
    """Satellite: what the derived layer costs on disk (Table 4)."""

    def test_compiled_overhead_reported_and_bounded(
            self, kernel_graph, store_dir, tmp_path_factory, report,
            bench_records_pr10):
        legacy_dir = str(tmp_path_factory.mktemp("legacy") / "v2")
        GraphStore.write(kernel_graph, legacy_dir, compiled=False)
        compiled_bytes = _tree_bytes(store_dir)
        legacy_bytes = _tree_bytes(legacy_dir)
        csr_bytes = sum(
            os.path.getsize(os.path.join(store_dir, name))
            for name in ("csr.db", "csr.offsets.db"))
        dict_bytes = os.path.getsize(
            os.path.join(store_dir, "dictionary.db"))
        overhead = (compiled_bytes - legacy_bytes) / legacy_bytes
        report(f"== Compiled store size ==\n"
               f"legacy v2        {legacy_bytes / 1024:10.1f} KiB\n"
               f"compiled v3      {compiled_bytes / 1024:10.1f} KiB\n"
               f"  csr segments   {csr_bytes / 1024:10.1f} KiB\n"
               f"  dictionary     {dict_bytes / 1024:10.1f} KiB\n"
               f"overhead         {overhead:10.1%}")
        bench_records_pr10.append({
            "query": "csr/store_size",
            "legacy_bytes": legacy_bytes,
            "compiled_bytes": compiled_bytes,
            "csr_bytes": csr_bytes,
            "dictionary_bytes": dict_bytes,
            "overhead": round(overhead, 4)})
        # the fixed-width CSR columns + dictionary must stay a modest
        # fraction of the record store they are derived from
        assert overhead < 0.5, overhead
