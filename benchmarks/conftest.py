"""Shared benchmark fixtures.

All benchmarks run against a synthetic UEK-shaped dependency graph at
``FRAPPE_BENCH_SCALE`` times the paper's size (default 1/50 so the
suite finishes in CI). The graph is generated once per session, saved
to a disk store, and reopened page-cached — the same deployment shape
the paper measures.

Paper-style result tables are appended to ``benchmarks/reports/`` so
the rows that mirror the paper's Tables 3–5 and Figure 7 survive
pytest's output capture.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import bench_scale, write_bench_records
from repro.core.frappe import Frappe
from repro.graphdb.storage import GraphStore
from repro.workloads import generate_kernel_graph
from repro.workloads.profiles import UEK_PROFILE

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def kernel_graph(scale):
    """The in-memory synthetic kernel graph."""
    return generate_kernel_graph(UEK_PROFILE.scaled(scale))


@pytest.fixture(scope="session")
def store_dir(kernel_graph, tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("bench") / "kernel.store")
    GraphStore.write(kernel_graph, directory)
    return directory


@pytest.fixture(scope="session")
def frappe_store(store_dir):
    """Frappé over the page-cached disk store (what Table 5 measures)."""
    with Frappe.open(store_dir) as frappe:
        yield frappe


@pytest.fixture(scope="session")
def bench_records():
    """Per-query benchmark records (query id, cold/warm ms, db-hits,
    cache hit ratio, planner used); written to
    ``benchmarks/reports/BENCH_PR3.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR3.json"), records)


@pytest.fixture(scope="session")
def bench_records_pr4():
    """Concurrency benchmark records (thread-sweep query throughput,
    parallel vs serial extraction); written to
    ``benchmarks/reports/BENCH_PR4.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR4.json"), records)


@pytest.fixture(scope="session")
def bench_records_pr5():
    """Execution-mode benchmark records (Table 5 mix rows vs batch,
    mmap vs buffered reads, morsel-size ablation); written to
    ``benchmarks/reports/BENCH_PR5.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR5.json"), records)


@pytest.fixture(scope="session")
def bench_records_pr7():
    """HTTP serving-tier benchmark records (1/2/4-replica warm
    throughput and p50/p99 latency over the Table 5 mix); written to
    ``benchmarks/reports/BENCH_PR7.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR7.json"), records)


@pytest.fixture(scope="session")
def bench_records_pr8():
    """Compiled-kernel benchmark records (rows-vs-batch warm timings
    on the Table 5 mix); written to
    ``benchmarks/reports/BENCH_PR8.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR8.json"), records)


@pytest.fixture(scope="session")
def bench_records_pr9():
    """Sharded serving-tier benchmark records (1/2/4-shard warm
    throughput and p50/p99 latency over the Table 5 mix, anchored
    dispatch vs unsharded, crash transparency); written to
    ``benchmarks/reports/BENCH_PR9.json`` at session end."""
    records: list[dict] = []
    yield records
    if records:
        write_bench_records(
            os.path.join(REPORT_DIR, "BENCH_PR9.json"), records)


@pytest.fixture(scope="session")
def report():
    """Append paper-style tables to benchmarks/reports/summary.txt."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "summary.txt")
    handle = open(path, "w", encoding="utf-8")

    def write(text: str) -> None:
        handle.write(text + "\n\n")
        handle.flush()

    yield write
    handle.close()
