"""Experiment E15 — compiled kernels.

Compiled columnar kernels close the PR-5 speedup holes:
cross-reference, stuck near 1x batch-over-rows, must clear 1.2x warm,
and debugging must never be slower. This suite measures that with the
Table 5 cold/warm protocol and gates on per-query rows-vs-batch warm
timings (BENCH_PR8.json): batch never slower on the full mix and on
debugging, and >= 1.2x warm on xref.

Result counts are cross-checked between the two modes — a perf gate
is meaningless if the fast path returns different rows.

The committed BENCH_PR8.json also holds the ``parallel/*`` records of
E15's retired worker sweep (EXPERIMENTS.md); a re-run of this suite
rewrites the file with the kernel records alone.
"""

from repro.bench.harness import bench_record, run_cold_warm
from repro.cypher import QueryOptions

from test_bench_execution_modes import MIX_TOLERANCE, _mix, _warm_total
from test_bench_table5_queries import ABORT_AFTER_SECONDS

#: queries whose compiled kernels must deliver >= 1.2x warm over rows
#: (the PR-5 report measured it at ~1x; PR 8 closes that hole)
EXPECT_1_2X = ("xref",)

#: sub-millisecond queries sampled 30x.  debugging held a 1.2x floor
#: until PR 12 re-measured it on a 2-core box: 1.04-1.11x at the PR 11
#: commit, 1.15-1.20x after, so its gate is never-slower
SAMPLED_30X = ("xref", "debugging")


class TestCompiledKernels:
    """Compiled kernels versus the row engine."""

    def test_kernels_close_the_table5_holes(self, frappe_store, report,
                                            scale, benchmark,
                                            bench_records_pr8):
        # interleave the two modes per query so box drift over the
        # session cannot skew the ratio between them; the two gated
        # sub-millisecond queries get extra samples because their
        # warm minimum moves by tens of microseconds run to run —
        # the same order as the margin the 1.2x floor is judged on
        row_mode = {}
        batch_mode = {}
        for name, text in _mix(frappe_store):
            runs = 30 if name in SAMPLED_30X else 10
            for label, mode, dest in (
                    ("rows", "rows", row_mode),
                    ("batch+kernels", "batch", batch_mode)):
                options = QueryOptions(timeout=ABORT_AFTER_SECONDS,
                                       execution_mode=mode)
                dest[name] = run_cold_warm(
                    f"{name} [{label}]",
                    lambda text=text, options=options:
                        frappe_store.query(text, options=options),
                    frappe_store.evict_caches,
                    runs=runs,
                    abort_after=ABORT_AFTER_SECONDS,
                    hit_ratio=frappe_store.cache_hit_ratio,
                    reset_counters=frappe_store.reset_counters)
        lines = []
        speedups = {}
        for name in row_mode:
            rows = row_mode[name]
            batch = batch_mode[name]
            assert not rows.aborted and not batch.aborted
            assert rows.result_count == batch.result_count
            speedups[name] = rows.warm.min / batch.warm.min
            lines.append(f"{name:<24} rows {rows.warm.min:8.2f}ms  "
                         f"batch {batch.warm.min:8.2f}ms  "
                         f"warm speedup {speedups[name]:5.2f}x")
            bench_records_pr8.append(bench_record(
                rows, query_id=f"kernels/{name}/rows"))
            bench_records_pr8.append(bench_record(
                batch, query_id=f"kernels/{name}/batch"))
        report(f"== Compiled kernels: batch vs rows (warm min ms, "
               f"scale {scale:g}) ==\n" + "\n".join(lines))
        # acceptance: the PR-5 ~1x query now clears 1.2x...
        for name in EXPECT_1_2X:
            assert speedups[name] >= 1.2, (name, speedups)
        # ...and batch stays never-slower on debugging and across the
        # whole mix
        assert speedups["debugging"] * MIX_TOLERANCE >= 1.0, speedups
        assert _warm_total(batch_mode) \
            <= _warm_total(row_mode) * MIX_TOLERANCE
        benchmark.pedantic(
            frappe_store.query, args=(_mix(frappe_store)[1][1],),
            kwargs={"options": QueryOptions(
                timeout=ABORT_AFTER_SECONDS, execution_mode="batch")},
            rounds=1, iterations=1)

