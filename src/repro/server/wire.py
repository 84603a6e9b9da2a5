"""The versioned HTTP/JSON wire schema.

One module owns everything that crosses a process or network boundary
so every surface speaks the same dialect:

* **Requests** — ``POST /v1/query`` bodies: ``{"query": "...",
  "options": {...QueryOptions fields...}}``. Unknown option keys are
  rejected (a client typo must not become a silently-ignored knob).
* **Results** — the canonical ``ResultPayload``
  (:meth:`repro.cypher.Result.to_dict`), streamed as NDJSON frames: a
  header line carrying ``wire_version``, ``schema_version`` and
  ``columns``, one ``{"rows": [[...], ...]}`` line per
  :data:`ROWS_PER_FRAME` rows (none for an empty result), and a
  trailing ``{"summary": {...}}`` line with stats and the optional
  profile tree. The decoder checks every frame and raises
  :class:`WireFormatError` naming the one that is malformed.
* **Errors** — ``{"schema_version": 2, "error": {"type": ...,
  "message": ...}}`` plus an HTTP status per error class
  (:data:`ERROR_STATUS`); :func:`exception_from_dict` rebuilds the
  matching Python exception client-side, so ``FrappeClient.query``
  raises exactly what an in-process ``Frappe.query`` would have.

The replica tier reuses the same encoding over its worker pipes:
workers ship back pre-serialized NDJSON payload bytes, which the
router streams into HTTP responses without re-encoding.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterable, Iterator

from repro import errors
from repro.cypher.options import QueryOptions
from repro.cypher.result import (RESULT_SCHEMA_VERSION, QueryStats,
                                 Result, decode_profile, decode_rows)

#: Version of the request/response envelope, carried as
#: ``wire_version`` in a result stream's header frame (independent of
#: the result payload's own ``schema_version``). Version 1 sent one
#: ``{"row": ...}`` frame per row; such streams are refused.
WIRE_SCHEMA_VERSION = 2

class WireFormatError(errors.ServerError):
    """A request or frame did not match the wire schema (HTTP 400)."""


#: Error class -> HTTP status. Ordered most-specific-first; the first
#: ``isinstance`` match wins.
ERROR_STATUS: tuple[tuple[type[BaseException], int], ...] = (
    (errors.AdmissionError, 429),
    (errors.QueryTimeoutError, 504),
    (errors.ServerClosedError, 503),
    (WireFormatError, 400),
    (errors.CypherSyntaxError, 400),
    (errors.CypherSemanticError, 400),
    (errors.QueryError, 400),
    (errors.FrappeError, 500),
)

#: Seconds a 429'd client is told to back off (the Retry-After header).
RETRY_AFTER_SECONDS = 1


# -- requests ----------------------------------------------------------


def parse_query_request(body: bytes | str) -> tuple[str, QueryOptions]:
    """Decode a ``POST /v1/query`` body into (text, options).

    Raises :class:`WireFormatError` on malformed JSON, a missing
    ``query`` field, or unknown option keys.
    """
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise WireFormatError(f"request body is not JSON: {error}") \
            from error
    if not isinstance(payload, dict):
        raise WireFormatError("request body must be a JSON object")
    text = payload.get("query")
    if not isinstance(text, str) or not text.strip():
        raise WireFormatError(
            'request body needs a non-empty "query" string')
    unknown = set(payload) - {"query", "options"}
    if unknown:
        raise WireFormatError("unknown request field(s): "
                              + ", ".join(sorted(unknown)))
    options_payload = payload.get("options") or {}
    if not isinstance(options_payload, dict):
        raise WireFormatError('"options" must be a JSON object')
    try:
        options = QueryOptions.from_dict(options_payload)
    except (ValueError, TypeError) as error:
        raise WireFormatError(str(error)) from error
    return text, options


def query_request(text: str,
                  options: QueryOptions | None = None) -> bytes:
    """Encode the client side of :func:`parse_query_request`."""
    payload: dict[str, Any] = {"query": text}
    if options is not None:
        encoded = options.to_dict()
        if encoded:
            payload["options"] = encoded
    return json.dumps(payload).encode("utf-8")


# -- results (NDJSON framing of the canonical ResultPayload) -----------


#: Most rows one ``{"rows": [...]}`` frame carries: the batch engine's
#: morsel size. Every hop handles a frame, not a row, so encoding,
#: streaming and decoding a reply cost O(frames) interpreter calls.
ROWS_PER_FRAME = 1024

#: One compact encoder for every frame (``json.dumps`` with
#: non-default separators builds a fresh encoder on each call).
_encode = json.JSONEncoder(separators=(",", ":")).encode

_STATS_FIELDS = frozenset(field.name
                          for field in dataclasses.fields(QueryStats))


def result_to_ndjson(result: Result) -> bytes:
    """Frame one result as NDJSON: header, rows frames, summary."""
    return payload_to_ndjson(result.to_dict())


def payload_to_ndjson(payload: dict[str, Any]) -> bytes:
    """Frame a :meth:`Result.to_dict` payload as NDJSON lines."""
    rows = payload["rows"]
    frames = [_encode({"wire_version": WIRE_SCHEMA_VERSION,
                       "schema_version": payload["schema_version"],
                       "columns": payload["columns"]})]
    frames.extend(_encode({"rows": rows[start:start + ROWS_PER_FRAME]})
                  for start in range(0, len(rows), ROWS_PER_FRAME))
    frames.append(_encode({"summary": {
        "stats": payload["stats"], "profile": payload["profile"]}}))
    frames.append("")
    return "\n".join(frames).encode("utf-8")


def iter_frames(data: bytes | str | Iterable[bytes | str],
                ) -> Iterator[tuple[str, Any]]:
    """Check a result stream frame by frame as it arrives.

    Accepts the whole stream as bytes/str or an iterable of lines (a
    streaming client hands the response line iterator straight in).
    Yields ``("header", {...})``, one ``("rows", [row tuples])`` per
    rows frame with its cells decoded, then ``("summary", {"stats":
    {...}, "profile": PlanDescription | None})``, each already checked
    against the schema. This is the only place wire rows are decoded.
    Anything else raises :class:`WireFormatError` naming the frame: a
    line that is not a JSON object, a frame out of order or of the
    wrong shape, an undecodable cell or profile, a wire version 1
    stream, a stream cut short. An error frame raises the exception it
    carries.
    """
    if isinstance(data, (bytes, str)):
        data = data.splitlines()
    width: int | None = None  # the column count, once the header is in
    finished = False
    number = 0
    for line in data:
        line = line.strip()
        if not line:
            continue
        number += 1
        where = f"frame {number}"
        if finished:
            raise WireFormatError(f"{where}: data after the summary frame")
        frame = _load_frame(line, where)
        if "rows" in frame:
            if width is None:
                raise WireFormatError(
                    f"{where}: rows frame before the header frame")
            rows = frame["rows"]
            if type(rows) is not list or not all(
                    type(row) is list and len(row) == width
                    for row in rows):
                raise WireFormatError(
                    f'{where}: "rows" must be a list of {width}-cell '
                    "lists")
            try:
                rows = decode_rows(rows)
            except errors.QueryError as error:
                raise WireFormatError(f"{where}: {error}") from None
            yield "rows", rows
        elif "summary" in frame:
            if width is None:
                raise WireFormatError(
                    f"{where}: summary frame before the header frame")
            finished = True
            yield "summary", _check_summary(frame["summary"], where)
        elif "columns" in frame:
            if width is not None:
                raise WireFormatError(f"{where}: a second header frame")
            header = _check_header(frame, where)
            width = len(header["columns"])
            yield "header", header
        elif "error" in frame:
            raise exception_from_dict(frame["error"])
        elif "row" in frame:
            raise WireFormatError(
                f"{where}: a per-row frame of wire version 1; this "
                f"reader speaks wire version {WIRE_SCHEMA_VERSION}")
        else:
            raise WireFormatError(
                f"{where}: unrecognized frame {line[:80]!r}")
    if width is None:
        raise WireFormatError("result stream carried no header frame")
    if not finished:
        raise WireFormatError("result stream ended without a summary "
                              "frame (truncated response?)")


def _load_frame(line: bytes | str, where: str) -> dict[str, Any]:
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise WireFormatError(f"{where}: not JSON: {error}") from None
    if type(frame) is not dict:
        raise WireFormatError(f"{where}: a frame is a JSON object, "
                              f"not {type(frame).__name__}")
    return frame


def _check_header(frame: dict[str, Any], where: str) -> dict[str, Any]:
    version = frame.get("wire_version", 1)
    if version != WIRE_SCHEMA_VERSION:
        raise WireFormatError(
            f"{where}: a wire version {version!r} stream; this reader "
            f"speaks wire version {WIRE_SCHEMA_VERSION}")
    schema = frame.get("schema_version")
    if schema != RESULT_SCHEMA_VERSION:
        raise WireFormatError(
            f"{where}: result schema_version {schema!r}; this reader "
            f"speaks {RESULT_SCHEMA_VERSION}")
    columns = frame["columns"]
    if type(columns) is not list or not all(
            type(column) is str for column in columns):
        raise WireFormatError(
            f'{where}: "columns" must be a list of strings')
    return frame


def _check_summary(summary: Any, where: str) -> dict[str, Any]:
    if type(summary) is not dict:
        raise WireFormatError(f'{where}: "summary" must be an object')
    stats = summary.get("stats", {})
    if type(stats) is not dict:
        raise WireFormatError(f'{where}: "stats" must be an object')
    unknown = stats.keys() - _STATS_FIELDS
    if unknown:
        raise WireFormatError(f"{where}: unknown stats key(s): "
                              + ", ".join(sorted(unknown)))
    profile = summary.get("profile")
    if profile is not None and type(profile) is not dict:
        raise WireFormatError(f'{where}: "profile" must be an object')
    try:
        profile = decode_profile(profile)
    except errors.QueryError as error:
        raise WireFormatError(f"{where}: {error}") from None
    return {"stats": stats, "profile": profile}


def result_from_ndjson(data: bytes | str | Iterable[bytes | str],
                       ) -> Result:
    """Decode a result stream; a malformed one is a
    :class:`WireFormatError`, an error frame the exception it carries."""
    rows: list[tuple[Any, ...]] = []
    for kind, body in iter_frames(data):
        if kind == "header":
            columns = body["columns"]
        elif kind == "rows":
            rows.extend(body)
        else:
            summary = body
    result = Result(columns, rows, QueryStats(**summary["stats"]))
    result.profile = summary["profile"]
    return result


def payload_from_ndjson(data: bytes | str | Iterable[bytes | str],
                        ) -> dict[str, Any]:
    """Reassemble NDJSON frames into the canonical ResultPayload."""
    return result_from_ndjson(data).to_dict()


# -- errors ------------------------------------------------------------


def status_for(error: BaseException) -> int:
    """The HTTP status a given exception maps to (500 fallback)."""
    for cls, status in ERROR_STATUS:
        if isinstance(error, cls):
            return status
    return 500


def error_to_dict(error: BaseException) -> dict[str, Any]:
    """Encode an exception for the wire (or a worker pipe)."""
    payload: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, errors.QueryTimeoutError):
        payload["seconds"] = error.seconds
    if isinstance(error, errors.AdmissionError):
        payload["client"] = error.client
        payload["retry_after"] = RETRY_AFTER_SECONDS
    if isinstance(error, errors.ShardCrashedError):
        payload["shard"] = error.shard
    return payload


def error_body(error: BaseException) -> bytes:
    """The JSON body of a non-200 response."""
    return json.dumps({"schema_version": WIRE_SCHEMA_VERSION,
                       "error": error_to_dict(error)}).encode("utf-8")


def exception_from_dict(payload: dict[str, Any]) -> errors.FrappeError:
    """Rebuild the Python exception an error payload describes.

    Unknown types degrade to :class:`~repro.errors.ServerError` with
    the original type name preserved in the message — a client talking
    to a newer server fails usefully instead of crashing the decoder.
    A payload that is not an object is a :class:`WireFormatError`.
    """
    if not isinstance(payload, dict):
        return WireFormatError(
            f"error payload is not an object: {payload!r:.80}")
    kind = payload.get("type", "")
    kind = kind if isinstance(kind, str) else repr(kind)
    message = str(payload.get("message", ""))
    if kind == "QueryTimeoutError":
        seconds = payload.get("seconds", 0.0)
        if not isinstance(seconds, (int, float)):
            seconds = 0.0
        error = errors.QueryTimeoutError(seconds)
        # keep the server's exact message (it names the server-side
        # budget, which is what the operator greps for)
        error.args = (message,)
        return error
    if kind == "AdmissionError":
        return errors.AdmissionError(message,
                                     client=payload.get("client"))
    if kind == "ShardCrashedError":
        return errors.ShardCrashedError(message,
                                        shard=payload.get("shard"))
    cls = getattr(errors, kind, None)
    if isinstance(cls, type) and issubclass(cls, errors.FrappeError):
        try:
            return cls(message)
        except TypeError:
            pass  # odd constructor signature; fall through
    return errors.ServerError(f"{kind or 'unknown error'}: {message}")
