"""Query results and graph entity references.

Rows hold :class:`NodeRef`/:class:`EdgeRef` wrappers rather than bare
ints so that callers (and the executor's type checks) can tell a node
apart from an integer property value.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator

from repro.errors import QueryError

#: Version stamp on every serialized result payload. Bump when the
#: wire shape below changes incompatibly; readers refuse versions they
#: do not know instead of misdecoding rows.
RESULT_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class NodeRef:
    """Reference to a node in the queried graph."""

    id: int

    def __repr__(self) -> str:
        return f"Node({self.id})"


@dataclasses.dataclass(frozen=True)
class EdgeRef:
    """Reference to a relationship in the queried graph."""

    id: int

    def __repr__(self) -> str:
        return f"Rel({self.id})"


@dataclasses.dataclass(frozen=True)
class PathValue:
    """A bound path: alternating nodes and relationships.

    ``len(path)`` is the hop count, matching Cypher's ``length()``.
    """

    nodes: tuple[NodeRef, ...]
    edges: tuple[EdgeRef, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def start(self) -> NodeRef:
        return self.nodes[0]

    @property
    def end(self) -> NodeRef:
        return self.nodes[-1]

    def __repr__(self) -> str:
        return f"Path({len(self.edges)} hops, {self.nodes[0]}" + \
            (f"->{self.nodes[-1]})" if len(self.nodes) > 1 else ")")


@dataclasses.dataclass
class QueryStats:
    """Execution counters, exposed for the benchmark harness."""

    rows_produced: int = 0
    expansions: int = 0
    elapsed_seconds: float = 0.0
    #: total store accesses measured by PROFILE (0 when not profiled)
    db_hits: int = 0
    #: True when QueryOptions.max_rows cut the result short
    truncated: bool = False
    #: statistics epoch of the snapshot the query was planned *and*
    #: executed against (0 for immutable stores). The concurrency
    #: harness asserts plan/execution epoch agreement with this.
    epoch: int = 0
    #: which engine ran the query: 'rows' (generator pipeline) or
    #: 'batch' (vectorized morsel execution)
    execution_mode: str = "rows"
    #: shard ids that served this query (None when the query did not
    #: pass through the scatter/gather router; omitted from the wire
    #: payload in that case, so unsharded payloads are unchanged)
    shards: list[int] | None = None


def encode_value(value: Any) -> Any:
    """One row cell as a JSON-compatible value.

    Graph references become tagged objects (``{"@node": id}``,
    ``{"@rel": id}``, ``{"@path": {...}}``) so a decoder can tell a
    node apart from an integer property; plain scalars pass through.
    """
    if isinstance(value, NodeRef):
        return {"@node": value.id}
    if isinstance(value, EdgeRef):
        return {"@rel": value.id}
    if isinstance(value, PathValue):
        return {"@path": {"nodes": [node.id for node in value.nodes],
                          "edges": [edge.id for edge in value.edges]}}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise QueryError(
        f"cannot serialize result value of type {type(value).__name__}")


_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Deepest list/map nesting :func:`decode_value` accepts in one cell.
#: An explicit bound rather than the interpreter's recursion limit, so
#: a hostile payload is refused the same way on every Python version.
MAX_CELL_DEPTH = 100


def decode_value(value: Any, depth: int = 0) -> Any:
    """Inverse of :func:`encode_value`.

    Raises :class:`~repro.errors.QueryError` on a malformed ``@path``
    or a cell nested deeper than :data:`MAX_CELL_DEPTH`.
    """
    # fast path first: a served row is mostly scalars and node refs
    if type(value) in _SCALARS:
        return value
    if depth >= MAX_CELL_DEPTH:
        raise QueryError(
            f"result cell nested deeper than {MAX_CELL_DEPTH} levels")
    if isinstance(value, dict):
        if "@node" in value:
            return NodeRef(value["@node"])
        if "@rel" in value:
            return EdgeRef(value["@rel"])
        if "@path" in value:
            path = value["@path"]
            try:
                return PathValue(nodes=tuple(map(NodeRef, path["nodes"])),
                                 edges=tuple(map(EdgeRef, path["edges"])))
            except (KeyError, TypeError) as error:
                raise QueryError(
                    f"malformed @path value {path!r:.80}") from error
        return {key: decode_value(item, depth + 1)
                for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item, depth + 1) for item in value]
    return value


def decode_rows(rows: list[list[Any]]) -> list[tuple[Any, ...]]:
    """Decode encoded rows (lists of cells) into result row tuples."""
    return [tuple(map(decode_value, row)) for row in rows]


def decode_profile(profile: dict[str, Any] | None) -> Any | None:
    """Rebuild an encoded ``PlanDescription`` tree (``None`` stays
    ``None``); raises :class:`~repro.errors.QueryError` on a tree that
    cannot be decoded, however deep."""
    if profile is None:
        return None
    from repro.cypher.plan import PlanDescription
    try:
        return PlanDescription.from_dict(profile)
    except (KeyError, TypeError, ValueError, RecursionError) as error:
        raise QueryError(f"malformed profile tree: {error!r:.80}") \
            from None


class Result:
    """Materialized query result: named columns and a list of rows.

    When the query ran under ``PROFILE`` (or
    ``QueryOptions(profile=True)``), :attr:`profile` holds the
    measured :class:`~repro.cypher.plan.PlanDescription` tree.
    """

    def __init__(self, columns: list[str], rows: list[tuple[Any, ...]],
                 stats: QueryStats | None = None) -> None:
        self.columns = columns
        self.rows = rows
        self.stats = stats or QueryStats(rows_produced=len(rows))
        self.profile: Any | None = None

    def truncate(self, max_rows: int) -> None:
        """Keep only the first ``max_rows`` rows (QueryOptions)."""
        if max_rows < 0:
            raise QueryError("max_rows must be >= 0")
        if len(self.rows) > max_rows:
            self.rows = self.rows[:max_rows]
            self.stats.rows_produced = len(self.rows)
            self.stats.truncated = True

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for row in self.rows:
            yield dict(zip(self.columns, row))

    def __bool__(self) -> bool:
        return bool(self.rows)

    def value(self, column: str | int = 0) -> Any:
        """The single value of the first row (convenience accessor)."""
        if not self.rows:
            raise QueryError("result is empty")
        index = column if isinstance(column, int) \
            else self.columns.index(column)
        return self.rows[0][index]

    def values(self, column: str | int = 0) -> list[Any]:
        """One column of all rows."""
        index = column if isinstance(column, int) \
            else self.columns.index(column)
        return [row[index] for row in self.rows]

    def single(self) -> dict[str, Any]:
        """The only row, as a dict; raises unless exactly one row."""
        if len(self.rows) != 1:
            raise QueryError(
                f"expected exactly one row, got {len(self.rows)}")
        return dict(zip(self.columns, self.rows[0]))

    # -- canonical wire payload (ResultPayload) ------------------------

    def to_dict(self) -> dict[str, Any]:
        """The canonical serialized form of a result.

        Every JSON-producing surface — the HTTP tier, ``frappe serve``
        stdin mode, the CLI ``--json`` flag — emits exactly this
        shape; :meth:`from_dict` rebuilds an equivalent
        :class:`Result` on the other end.
        """
        stats = dataclasses.asdict(self.stats)
        if stats.get("shards") is None:
            # keep unsharded payloads byte-identical to pre-shard wire
            del stats["shards"]
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "columns": list(self.columns),
            "rows": [[encode_value(value) for value in row]
                     for row in self.rows],
            "stats": stats,
            "profile": self.profile.to_dict()
            if self.profile is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Result":
        """Rebuild a result serialized by :meth:`to_dict`.

        Raises :class:`~repro.errors.QueryError` on a payload whose
        ``schema_version`` this reader does not understand, or whose
        cells or profile tree cannot be decoded.
        """
        version = payload.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise QueryError(
                f"unsupported result schema_version {version!r} "
                f"(this reader speaks {RESULT_SCHEMA_VERSION})")
        stats = QueryStats(**payload.get("stats", {}))
        result = cls(list(payload["columns"]),
                     decode_rows(payload["rows"]), stats)
        result.profile = decode_profile(payload.get("profile"))
        return result

    def __repr__(self) -> str:
        return f"Result(columns={self.columns}, rows={len(self.rows)})"
