"""Structured open-time configuration for a Frappé store.

One :class:`StoreConfig` value replaces the keyword sprawl that had
accreted on ``Frappe.open`` (page cache, mmap flag, execution mode,
morsel size, planner gates)::

    frappe = Frappe.open("/var/lib/frappe/kernel",
                         config=StoreConfig(mmap=True,
                                            execution_mode="batch"))

A config value is picklable (when ``page_cache`` is left to its
default), which is what lets the multi-process replica tier ship one
config to every worker it spawns.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.graphdb.storage import PageCache


@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """How to open (and query) a saved store.

    page_cache
        An explicit :class:`~repro.graphdb.storage.PageCache` to read
        through; fixes the caching mode, so ``mmap`` is ignored when
        it is set.
    mmap
        Memory-map the store files and serve reads as zero-copy
        slices (files that cannot be mapped fall back to the buffered
        LRU per file).
    default_timeout
        Engine-wide per-query budget in seconds (None = unbounded);
        overridable per query via ``QueryOptions``.
    execution_mode
        Engine-wide default: ``"auto"`` picks batch execution when
        every clause has a batch kernel, ``"batch"``/``"rows"`` force
        one engine. Per-query override via ``QueryOptions``.
    morsel_size
        Rows per batch under batch execution (None = engine default).
    use_reachability_rewrite
        Run endpoint-distinct var-length patterns as visited-set BFS
        (the Section 6.1 ablation gate).
    use_cost_based_planner
        Cost anchors and expansion order from graph statistics and
        push WHERE equality conjuncts into MATCH.
    """

    page_cache: PageCache | None = None
    mmap: bool = False
    default_timeout: float | None = None
    execution_mode: str = "auto"
    morsel_size: int | None = None
    use_reachability_rewrite: bool = True
    use_cost_based_planner: bool = True

    def __post_init__(self) -> None:
        if self.execution_mode not in ("auto", "batch", "rows"):
            raise ValueError(
                "execution_mode must be 'auto', 'batch' or 'rows'")
        if self.morsel_size is not None and self.morsel_size < 1:
            raise ValueError("morsel_size must be >= 1")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")

    def make_page_cache(self) -> PageCache | None:
        """The cache to open the store with: the explicit one, a fresh
        mmap-mode cache when ``mmap=True``, else None (store default)."""
        if self.page_cache is not None:
            return self.page_cache
        if self.mmap:
            return PageCache(mode="mmap")
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON/pickle-friendly encoding (drops ``page_cache``, which
        is process-local); the replica tier sends this to workers."""
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
                if field.name != "page_cache"}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StoreConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError("unknown store config key(s): "
                             + ", ".join(sorted(unknown)))
        return cls(**payload)


#: Open with every default: buffered LRU page cache, auto execution.
DEFAULT_CONFIG = StoreConfig()
