"""Structured per-query execution options.

One :class:`QueryOptions` value replaces the accretion of positional
parameters on ``Frappe.query()`` / ``CypherEngine.run()``::

    frappe.query("MATCH (n:function) RETURN n.short_name",
                 options=QueryOptions(timeout=2.0, max_rows=100,
                                      profile=True))

Explicit keyword arguments (``parameters=``, ``timeout=``) win over
the same field inside ``options``, so callers can share one options
value and override per call.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping


@dataclasses.dataclass(frozen=True)
class QueryOptions:
    """Execution options for one Cypher query run.

    timeout
        Wall-clock budget in seconds (None = the engine default).
    max_rows
        Truncate the result to this many rows after execution;
        ``result.stats.truncated`` records that it happened.
    profile
        Collect an operator-level execution profile on
        ``result.profile`` (same effect as a ``PROFILE`` prefix on
        the query text).
    parameters
        Query parameters, ``$name`` -> value.
    use_reachability_rewrite
        Tri-state override of the engine's reachability-rewrite gate
        for this run: ``None`` (default) inherits the engine setting,
        ``True``/``False`` force the var-length BFS rewrite on or off
        (the Section 6.1 ablation knob).
    execution_mode
        Per-run override of the engine's execution mode: ``None``
        (default) inherits the engine setting; ``"auto"`` picks
        batch execution when every clause has a batch kernel,
        ``"batch"`` forces morsel-at-a-time execution (clauses
        without a kernel fall back per clause), ``"rows"`` forces the
        row-at-a-time generator pipeline.
    morsel_size
        Rows per batch in batch execution; ``None`` inherits the
        engine's morsel size (default 1024).
    """

    timeout: float | None = None
    max_rows: int | None = None
    profile: bool = False
    parameters: Mapping[str, Any] | None = None
    use_reachability_rewrite: bool | None = None
    execution_mode: str | None = None
    morsel_size: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        if self.execution_mode is not None and \
                self.execution_mode not in ("auto", "batch", "rows"):
            raise ValueError(
                "execution_mode must be 'auto', 'batch' or 'rows'")
        if self.morsel_size is not None and self.morsel_size < 1:
            raise ValueError("morsel_size must be >= 1")

    @classmethod
    def resolve(cls, options: "QueryOptions | None" = None, *,
                parameters: Mapping[str, Any] | None = None,
                timeout: float | None = None,
                profile: bool | None = None) -> "QueryOptions":
        """The one canonical options value for a query run.

        Every public entry point (``Frappe.query``,
        ``CypherEngine.run``, ``Frappe.query_async``, the HTTP wire)
        funnels its convenience keywords through here, so there is a
        single precedence rule: an explicit keyword wins over the same
        field inside ``options``, and ``options=None`` means defaults.
        """
        merged = options if options is not None else cls()
        overrides: dict[str, Any] = {}
        if parameters is not None:
            overrides["parameters"] = parameters
        if timeout is not None:
            overrides["timeout"] = timeout
        if profile is not None:
            overrides["profile"] = profile
        if overrides:
            merged = dataclasses.replace(merged, **overrides)
        return merged

    # -- wire format (the HTTP tier's request schema) ------------------

    def to_dict(self) -> dict[str, Any]:
        """Non-default fields as a JSON-compatible mapping.

        The inverse of :meth:`from_dict`; the HTTP client sends this
        as the request's ``options`` object.
        """
        payload: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                if field.name == "parameters" and value is not None:
                    value = dict(value)
                payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryOptions":
        """Build options from a wire mapping; unknown keys are errors.

        Raises :class:`ValueError` (never a silent drop) so a client
        typo like ``max_row`` comes back as a structured 400 instead
        of an ignored knob.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown query option(s): "
                + ", ".join(sorted(str(key) for key in unknown)))
        return cls(**dict(payload))


#: Default options: no timeout override, no truncation, no profiling.
DEFAULT_OPTIONS = QueryOptions()
