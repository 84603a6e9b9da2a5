"""Operator-level query profiler (the engine behind ``PROFILE``).

The Cypher executor is a pipeline of generators, so an operator's cost
is smeared across every ``next()`` call that pulls rows through it. The
profiler measures *self time* (exclusive wall time) with a clock
stack: entering an operator's frame pauses the frame below it, so time
spent deeper in the pipeline — or inside a var-length expansion's DFS —
is attributed to the operator doing the work, not to whoever happened
to be draining it.

``db_hits`` follow the same stack: a record/property/adjacency access
is charged to whichever operator frame is open at that moment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator


class OperatorStats:
    """Mutable per-operator accumulator; converts to PlanDescription."""

    __slots__ = ("name", "args", "rows", "batches", "db_hits",
                 "time_ns", "estimated_rows", "children",
                 "_child_index")

    def __init__(self, name: str, args: dict[str, Any]) -> None:
        self.name = name
        self.args = args
        self.rows = 0
        #: morsels produced under batch execution (0 in row mode)
        self.batches = 0
        self.db_hits = 0
        self.time_ns = 0
        #: planner's cardinality estimate, when it costed this operator
        self.estimated_rows: int | None = None
        self.children: list[OperatorStats] = []
        self._child_index: dict[Any, OperatorStats] = {}

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    def __repr__(self) -> str:
        return (f"OperatorStats({self.name}, rows={self.rows}, "
                f"db_hits={self.db_hits}, {self.time_ms:.2f}ms)")


class QueryProfiler:
    """Builds an annotated operator tree while a query executes."""

    def __init__(self) -> None:
        self.root = OperatorStats("Query", {})
        # each frame is [operator, started_ns]; entering a child frame
        # flushes the parent's elapsed time and pauses its clock
        self._stack: list[list[Any]] = []

    # -- tree construction ------------------------------------------------------

    def operator(self, parent: OperatorStats | None, key: Any,
                 name: str, estimated: float | None = None,
                 **args: Any) -> OperatorStats:
        """Get or create a child operator of ``parent`` (root if None).

        ``key`` identifies the operator across repeated visits (a
        pattern matched once per incoming row still profiles as one
        operator); the first visit's ``name``/``args``/``estimated``
        win. ``estimated`` is the planner's cardinality estimate, shown
        next to the measured rows so misestimates are visible.
        """
        parent = parent if parent is not None else self.root
        child = parent._child_index.get(key)
        if child is None:
            child = OperatorStats(
                name, {k: v for k, v in args.items() if v is not None})
            if estimated is not None:
                child.estimated_rows = int(estimated)
            parent._child_index[key] = child
            parent.children.append(child)
        return child

    # -- accounting ------------------------------------------------------------

    def hit(self, count: int = 1) -> None:
        """Charge db-hits to the operator whose frame is open."""
        target = self._stack[-1][0] if self._stack else self.root
        target.db_hits += count

    def _enter(self, operator: OperatorStats) -> None:
        now = time.perf_counter_ns()
        if self._stack:
            frame = self._stack[-1]
            frame[0].time_ns += now - frame[1]
        self._stack.append([operator, now])

    def _exit(self) -> None:
        now = time.perf_counter_ns()
        operator, started = self._stack.pop()
        operator.time_ns += now - started
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def timed(self, operator: OperatorStats) -> Iterator[OperatorStats]:
        """Attribute the body's (self) time and db-hits to operator."""
        self._enter(operator)
        try:
            yield operator
        finally:
            self._exit()

    def iterate(self, operator: OperatorStats, iterable: Iterable[Any],
                hits_per_row: int = 0) -> Iterator[Any]:
        """Wrap a pipeline stage: time each pull, count each row."""
        iterator = iter(iterable)
        while True:
            self._enter(operator)
            try:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            finally:
                self._exit()
            operator.rows += 1
            if hits_per_row:
                operator.db_hits += hits_per_row
            yield item

    def iterate_batches(self, operator: OperatorStats,
                        iterable: Iterable[Any]) -> Iterator[Any]:
        """Wrap a batch pipeline stage: time each pull, count the
        rows inside each morsel and the morsels themselves."""
        iterator = iter(iterable)
        while True:
            self._enter(operator)
            try:
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
            finally:
                self._exit()
            operator.rows += batch.count
            operator.batches += 1
            yield batch

    # -- output ----------------------------------------------------------------

    def finish(self, rows: int, elapsed_seconds: float) -> None:
        """Stamp the root with end-to-end figures before to_plan()."""
        self.root.rows = rows
        self.root.time_ns = int(elapsed_seconds * 1e9)

    def to_plan(self) -> Any:
        """Convert the accumulated tree to a PlanDescription."""
        # imported lazily: repro.cypher.plan is import-free of obs, but
        # repro.cypher's package __init__ pulls in the engine, which
        # imports this package
        from repro.cypher.plan import PlanDescription

        def convert(op: OperatorStats) -> PlanDescription:
            return PlanDescription(
                name=op.name, args=dict(op.args),
                children=tuple(convert(child) for child in op.children),
                estimated_rows=op.estimated_rows,
                rows=op.rows, db_hits=op.db_hits, time_ms=op.time_ms,
                batches=op.batches or None)

        return convert(self.root)
