"""Pure helpers for the spine benchmark: percentiles, self time,
digests and run-to-run spread. Standard library only, no program
imports — the unit tests under ``tests/`` cover exactly this file and
``ops.py``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Any, Sequence

#: a tail percentile is only reported from a rank that leaves at
#: least this many samples beyond it (choosing-metrics, section 1)
SAMPLES_BEYOND_TAIL = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_rank(count: int, quantile: float = 0.95) -> int:
    """1-based rank reported as the tail of ``count`` sorted samples.

    The rank of ``quantile``, lowered until ``SAMPLES_BEYOND_TAIL``
    samples lie beyond it, and never below the median's rank — with
    few samples the "p95" column honestly degrades towards the p50.
    """
    if count < 1:
        raise ValueError("no samples")
    wanted = math.ceil(quantile * count)
    supported = count - SAMPLES_BEYOND_TAIL
    return max(min(wanted, supported), math.ceil(count / 2))


def tail(values: Sequence[float], quantile: float = 0.95) -> float:
    ordered = sorted(values)
    return float(ordered[tail_rank(len(ordered), quantile) - 1])


def round_rates(started: float, done_at: Sequence[float],
                chunk: int) -> list[float]:
    """Completions per second of each whole chunk of ``chunk``
    consecutive completions (one round of the op stream). The median
    of these moves far less with a few slow seconds than total /
    elapsed does."""
    marks = [started, *done_at[chunk - 1::chunk]]
    return [chunk / (later - earlier)
            for earlier, later in zip(marks, marks[1:])]


def windowed_tail(values: Sequence[float],
                  quantile: float = 0.95) -> float:
    """Median, over consecutive windows of samples in the order they
    were taken, of each window's :func:`tail`.

    As many windows as still leave each one a true ``quantile`` with
    ``SAMPLES_BEYOND_TAIL`` samples beyond it (200 samples for a p95),
    and at least one. A few seconds of machine noise inflate the tail
    of the windows they fall in, not the tail of the median window; a
    tail over the pooled samples would carry them whole.
    """
    size = math.ceil(round(SAMPLES_BEYOND_TAIL / (1.0 - quantile), 6))
    count = max(1, len(values) // size)
    edges = [len(values) * index // count for index in range(count + 1)]
    return median([tail(values[low:high], quantile)
                   for low, high in zip(edges, edges[1:])])


def self_time(outer: float, *inner: float) -> float:
    """A layer's own cost: the time measured at its boundary minus
    the time measured at the boundaries directly inside it. Not
    clamped: a negative value says the two medians are within noise
    of each other, which is worth seeing."""
    return outer - sum(inner)


def digest(rows: Sequence[Any]) -> str:
    """Order-sensitive fingerprint of a result's rows.

    ``repr`` is stable across processes for everything a row can hold
    (``Node(7)``, ``Rel(3)``, scalars, lists), unlike ``hash`` of a
    string, so a reference digest computed in the set-up process can
    be compared in a workload process and after a wire round trip.
    """
    return hashlib.blake2b(repr(list(rows)).encode("utf-8"),
                           digest_size=8).hexdigest()


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the driver gates on."""
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (<= 0: not)."""
    change = (second - first) / first
    return change if better == "lower" else -change
