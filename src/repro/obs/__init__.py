"""Observability for the query engine and storage stack.

One :class:`Observability` bundle per Frappé instance ties together:

- a :class:`~repro.obs.metrics.MetricsRegistry` every component on the
  read path (page cache, store reader, indexes, traversals, Cypher
  engine) emits counters into,
- a :class:`~repro.obs.slowlog.SlowQueryLog` ring buffer,
- a :class:`~repro.obs.trace.Tracer` for nestable spans, and
- :class:`~repro.obs.profile.QueryProfiler`, which powers
  ``PROFILE <query>`` / ``Result.profile``.
"""

from __future__ import annotations

from repro.obs.metrics import (Counter, Gauge, Histogram,
                               HistogramSnapshot, MetricsRegistry,
                               MetricsSnapshot)
from repro.obs.profile import OperatorStats, QueryProfiler
from repro.obs.slowlog import (DEFAULT_THRESHOLD_SECONDS, SlowQueryEntry,
                               SlowQueryLog)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "HistogramSnapshot",
    "MetricsRegistry", "MetricsSnapshot", "Observability",
    "OperatorStats", "QueryProfiler", "SlowQueryEntry", "SlowQueryLog",
    "Span", "Tracer", "DEFAULT_THRESHOLD_SECONDS",
]


class Observability:
    """The per-instance bundle of registry + slow log + tracer."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 slow_log: SlowQueryLog | None = None,
                 tracer: Tracer | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.slow_log = slow_log if slow_log is not None \
            else SlowQueryLog()
        self.tracer = tracer if tracer is not None else Tracer()

    def record_query(self, query: str, elapsed_seconds: float,
                     rows: int | None = None,
                     timed_out: bool = False) -> None:
        """Book one query execution into counters, histogram and log."""
        self.registry.counter("query.count").inc()
        if timed_out:
            self.registry.counter("query.timeouts").inc()
        self.registry.histogram("query.seconds").observe(elapsed_seconds)
        if self.slow_log.observe(query, elapsed_seconds, rows,
                                 timed_out):
            self.registry.counter("query.slow").inc()
