"""Compiled CSR adjacency segments: build-time-persisted neighbor lists.

``GraphStore.write`` (and ``frappe compact``) serialize one **CSR
segment** per (direction, edge-type) pair; the reader serves a node's
neighbours, edge ids or degree by offset arithmetic on fixed-width
columns — Neo4j's fixed-size-record rule (paper Section 5) applied to
adjacency, so a cold read costs the page fault and nothing else.

On-disk layout (descriptor version 2) — two flat files plus a JSON
descriptor in ``metadata.json`` under the ``"csr"`` key:

``csr.db``
    Concatenated per-segment payloads.  A segment with *E* directed
    entries is two parallel little-endian ``u32`` columns,
    ``neighbours[E]`` then ``edge_ids[E]``: entry *i* of both columns
    describes the same edge.  Entries are grouped by node in ascending
    node-id order and keep adjacency-group order within a node, so a
    node's slice of the two columns is exactly the (edge id, neighbor
    id) list its adjacency block and relationship records describe.

``csr.offsets.db``
    Per-segment ``u32`` offset arrays, counted in *elements*.  A
    segment covering node ids ``[base, base + span)`` stores
    ``span + 1`` offsets; node ``n``'s run is
    ``column[offsets[n - base]:offsets[n - base + 1]]`` in either
    column, its degree is the difference of the two offsets, and an
    empty run is two equal offsets.

Both files are read as ``memoryview.cast("I")`` over the page-cache
read: one whole-file view in mmap mode, one view per run in buffered
mode (so a store larger than memory never gets pinned wholesale).
There is no decode loop on any path.

Descriptor (per segment): direction (0=out, 1=in), type token, base,
span, payload/offsets extents, CRC32 per region, and degree statistics
(edge count, max degree, log2-bucketed degree histogram) that the
planner picks up for free at open.  :func:`descriptor_problem` checks
every segment's fields and extents against the two file sizes at open;
a descriptor of another version is never decoded: the store is refused
and ``frappe compact`` rewrites it.

Segments are deterministic: ordered by (direction, token), runs in
ascending node-id order, entries in adjacency-group order — the same
order an untyped ``edges_of`` reads from the adjacency block, which is
what makes typed and untyped reads of one store agree down to PROFILE
trees.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Any, Sequence

from repro.errors import StoreCorruptionError, StoreFormatError

#: direction codes used in segment descriptors
OUT = 0
IN = 1

CSR_DESCRIPTOR_VERSION = 2
OFFSET_WIDTH = 4

#: log2 degree-histogram buckets; bucket b counts nodes whose run
#: degree d satisfies 2**(b-1) <= d < 2**b (bucket 0 = degree 0)
DEGREE_BUCKETS = 16

if sys.byteorder == "little":
    def _u32(buffer: Any) -> Sequence[int]:
        """*buffer* (bytes or memoryview) as its ``u32`` elements,
        zero-copy."""
        return memoryview(buffer).cast("I")

    def _u32_bytes(column: array) -> bytes:
        return column.tobytes()
else:  # the files are little-endian whatever the host is
    def _u32(buffer: Any) -> Sequence[int]:
        return struct.unpack(f"<{len(buffer) // 4}I", buffer)

    def _u32_bytes(column: array) -> bytes:
        swapped = array("I", column)
        swapped.byteswap()
        return swapped.tobytes()


class _Segment:
    """One (direction, token) segment being accumulated by the writer."""

    __slots__ = ("direction", "token", "base", "neighbours", "edge_ids",
                 "offsets", "max_degree", "degree_hist")

    def __init__(self, direction: int, token: int, base: int) -> None:
        self.direction = direction
        self.token = token
        self.base = base
        self.neighbours = array("I")
        self.edge_ids = array("I")
        self.offsets = array("I", [0])
        self.max_degree = 0
        self.degree_hist = [0] * DEGREE_BUCKETS


class CsrBuilder:
    """Accumulates per-node runs into ``u32`` columns; nodes must
    arrive in ascending id order (the store writer's natural iteration
    order)."""

    def __init__(self) -> None:
        self._segments: dict[tuple[int, int], _Segment] = {}

    def add(self, node_id: int, direction: int, token: int,
            edge_ids: Sequence[int], neighbours: Sequence[int]) -> None:
        """Append node *node_id*'s run: ``edge_ids[i]`` leads to
        ``neighbours[i]``."""
        degree = len(edge_ids)
        if len(neighbours) != degree:
            raise ValueError("a CSR run needs one neighbour per edge")
        if not degree:
            return
        key = (direction, token)
        segment = self._segments.get(key)
        if segment is None:
            segment = self._segments[key] = _Segment(direction, token,
                                                     node_id)
        covered = segment.base + len(segment.offsets) - 1
        if node_id < covered:
            raise ValueError(
                f"CSR runs must arrive in ascending node order "
                f"(got {node_id} after {covered - 1})")
        size = len(segment.edge_ids)
        try:
            segment.edge_ids.extend(edge_ids)
            segment.neighbours.extend(neighbours)
        except OverflowError:
            raise StoreFormatError(
                f"CSR run of node {node_id} in segment {key} holds an "
                "id outside the u32 column range") from None
        # empty runs for the node ids skipped since the last add
        segment.offsets.extend([size] * (node_id - covered))
        segment.offsets.append(size + degree)
        if degree > segment.max_degree:
            segment.max_degree = degree
        segment.degree_hist[min(degree.bit_length(),
                                DEGREE_BUCKETS - 1)] += 1

    def finish(self) -> tuple[bytes, bytes, dict[str, Any]]:
        """Serialize to (payload file, offsets file, descriptor)."""
        payload_parts: list[bytes] = []
        offsets_parts: list[bytes] = []
        segments: list[dict[str, Any]] = []
        payload_at = 0
        offsets_at = 0
        for key in sorted(self._segments):
            segment = self._segments[key]
            payload = _u32_bytes(segment.neighbours) + \
                _u32_bytes(segment.edge_ids)
            offsets = _u32_bytes(segment.offsets)
            segments.append({
                "direction": segment.direction,
                "token": segment.token,
                "base": segment.base,
                "span": len(segment.offsets) - 1,
                "payload_offset": payload_at,
                "payload_bytes": len(payload),
                "payload_crc32": zlib.crc32(payload),
                "offsets_offset": offsets_at,
                "offsets_bytes": len(offsets),
                "offsets_crc32": zlib.crc32(offsets),
                "edges": len(segment.edge_ids),
                "max_degree": segment.max_degree,
                "degree_hist": list(segment.degree_hist),
            })
            payload_parts.append(payload)
            offsets_parts.append(offsets)
            payload_at += len(payload)
            offsets_at += len(offsets)
        descriptor = {
            "version": CSR_DESCRIPTOR_VERSION,
            "offset_width": OFFSET_WIDTH,
            "payload_bytes": payload_at,
            "offsets_bytes": offsets_at,
            "segments": segments,
        }
        return b"".join(payload_parts), b"".join(offsets_parts), descriptor


class CsrReader:
    """Serves neighbor runs from the compiled CSR files.

    Offset arrays are read once per segment through the page cache —
    a zero-copy memoryview in mmap mode — and cached until
    :meth:`evict`.  Column reads touch only the queried run, and every
    run is range-checked against *high_node* / *rel_high* as it is
    read: a flipped byte is a :class:`StoreCorruptionError` here, not
    a dangling id three layers up.
    """

    def __init__(self, payload_file: Any, offsets_file: Any,
                 descriptor: dict[str, Any], high_node: int,
                 rel_high: int) -> None:
        self._payload = payload_file
        self._offsets = offsets_file
        self._mapped = bool(getattr(payload_file, "mapped", False))
        self._high_node = high_node
        self._rel_high = rel_high
        # (direction, token) -> (base, span, first column element,
        # edges, offsets position): column positions are in u32
        # elements from the start of csr.db
        self._segments: dict[tuple[int, int], tuple[int, ...]] = {
            (entry["direction"], entry["token"]):
            (entry["base"], entry["span"], entry["payload_offset"] // 4,
             entry["edges"], entry["offsets_offset"])
            for entry in descriptor.get("segments", ())}
        self._tokens: dict[int, list[int]] = {
            direction: sorted(token for side, token in self._segments
                              if side == direction)
            for direction in (OUT, IN)}
        self._views: dict[tuple[int, int], Sequence[int]] = {}
        #: whole-payload u32 view, mmap mode only: runs are sliced
        #: zero-copy with no per-run page-cache round trip
        self._buffer: Any = None

    def evict(self) -> None:
        """Drop the cached offset-array views and the payload buffer
        (cold-start emulation; also releases exported mmap views so
        the underlying files can close)."""
        self._views.clear()
        self._buffer = None

    def _runs(self, node_id: int, directions: Sequence[int],
              wanted: "Sequence[int] | None",
              column: int | None) -> list[Any]:
        """One entry per non-empty run of *node_id*, direction by
        direction over the *wanted* type tokens (ascending; None =
        every type) — with ``(OUT, IN)`` the group order of a decoded
        adjacency block.  The entry is the run's slice of a column
        (0 = neighbours, 1 = edge ids), every id checked against the
        store's, or with ``column=None`` just its length: offset
        arithmetic, no ``csr.db`` page touched."""
        found = []
        segments = self._segments
        views = self._views
        limit = self._rel_high if column else self._high_node
        buffer = self._buffer
        if buffer is None and self._mapped and column is not None:
            buffer = self._buffer = _u32(
                self._payload.read(0, self._payload.size))
        for direction in directions:
            for token in self._tokens[direction] \
                    if wanted is None else wanted:
                key = (direction, token)
                segment = segments.get(key)
                if segment is None:
                    continue
                base, span, column_at, edges, offsets_offset = segment
                index = node_id - base
                if index < 0 or index >= span:
                    continue
                view = views.get(key)
                if view is None:
                    view = views[key] = _u32(self._offsets.read(
                        offsets_offset, 4 * (span + 1)))
                start = view[index]
                end = view[index + 1]
                if start == end:
                    continue
                if end < start or end > edges:
                    raise StoreCorruptionError(
                        f"CSR offsets of node {node_id} in segment {key} "
                        f"are [{start}, {end}) of {edges} entries",
                        file=self._offsets.path,
                        offset=offsets_offset + 4 * index)
                if column is None:
                    found.append(end - start)
                    continue
                # a segment is neighbours[edges] then edge_ids[edges]
                first = column_at + column * edges + start
                if buffer is not None:
                    run = buffer[first:first + end - start]  # zero-copy
                else:
                    run = _u32(self._payload.read(4 * first,
                                                  4 * (end - start)))
                if max(run) >= limit:
                    raise StoreCorruptionError(
                        f"CSR column holds id {max(run)}, store ids "
                        f"end at {limit}", file=self._payload.path,
                        offset=4 * first)
                found.append(run)
        return found

    def degree(self, node_id: int, directions: Sequence[int],
               wanted: "Sequence[int] | None" = None) -> int:
        """Entries of *node_id*'s runs: differences of offsets, no
        ``csr.db`` page touched."""
        return sum(self._runs(node_id, directions, wanted, None))

    def neighbor_ids(self, node_id: int, directions: Sequence[int],
                     wanted: "Sequence[int] | None" = None,
                     ) -> list[Sequence[int]]:
        """The neighbour column of each non-empty run of *node_id*."""
        return self._runs(node_id, directions, wanted, 0)

    def edge_ids(self, node_id: int, directions: Sequence[int],
                 wanted: "Sequence[int] | None" = None,
                 ) -> list[Sequence[int]]:
        """The edge-id column of each non-empty run of *node_id*."""
        return self._runs(node_id, directions, wanted, 1)


#: the integer fields every segment entry carries (the CRCs and degree
#: statistics are fsck's and the planner's, not the reader's)
_SEGMENT_FIELDS = ("direction", "token", "base", "span", "payload_offset",
                   "payload_bytes", "offsets_offset", "offsets_bytes",
                   "edges")


def descriptor_problem(descriptor: Any, payload_size: int,
                       offsets_size: int,
                       ) -> tuple[str, str, int | None] | None:
    """The first structural fault of *descriptor* against the sizes of
    ``csr.db`` and ``csr.offsets.db``, as ``(file-kind, message, byte
    offset or None)``, or None when the reader can serve it.

    O(segments), file contents unread: the layout version, the offset
    width, both file sizes, and per segment its integer fields, 4-byte
    alignment, ``payload_bytes == 8 * edges``, ``offsets_bytes == 4 *
    (span + 1)`` and both extents inside their files — so no run the
    reader slices can overrun a file.
    """
    if not isinstance(descriptor, dict):
        return ("payload", "no csr descriptor", None)
    version = descriptor.get("version")
    if version != CSR_DESCRIPTOR_VERSION:
        return ("payload", f"csr layout {version}", None)
    if descriptor.get("offset_width") != OFFSET_WIDTH:
        return ("offsets", "unsupported CSR offset width "
                f"{descriptor.get('offset_width')!r}", None)
    for kind, name, key, actual in (
            ("payload", "csr.db", "payload_bytes", payload_size),
            ("offsets", "csr.offsets.db", "offsets_bytes", offsets_size)):
        if descriptor.get(key) != actual:
            return (kind, f"{name} is {actual} bytes, descriptor says "
                    f"{descriptor.get(key)}", None)
    segments = descriptor.get("segments")
    if not isinstance(segments, list):
        return ("payload", "csr descriptor has no segment list", None)
    for index, entry in enumerate(segments):
        name = f"csr segment {index}"
        if not isinstance(entry, dict):
            return ("payload", f"{name} is not an object", None)
        for field in _SEGMENT_FIELDS:
            value = entry.get(field)
            if type(value) is not int or value < 0:
                return ("payload", f"{name}: {field} is {value!r}, not "
                        "a non-negative integer", None)
        payload_at = entry["payload_offset"]
        offsets_at = entry["offsets_offset"]
        edges = entry["edges"]
        span = entry["span"]
        if entry["direction"] not in (OUT, IN):
            return ("payload", f"{name}: direction "
                    f"{entry['direction']} is neither out nor in", None)
        if payload_at % 4 or offsets_at % 4:
            return ("payload" if payload_at % 4 else "offsets",
                    f"{name}: extent not 4-byte aligned", None)
        if entry["payload_bytes"] != 8 * edges:
            return ("payload", f"{name}: columns are "
                    f"{entry['payload_bytes']} bytes, {edges} entries "
                    f"need {8 * edges}", payload_at)
        if entry["offsets_bytes"] != 4 * (span + 1):
            return ("offsets", f"{name}: offsets are "
                    f"{entry['offsets_bytes']} bytes, a span of {span} "
                    f"needs {4 * (span + 1)}", offsets_at)
        if payload_at + 8 * edges > payload_size:
            return ("payload", f"{name}: columns end at byte "
                    f"{payload_at + 8 * edges}, past csr.db's "
                    f"{payload_size}", payload_at)
        if offsets_at + 4 * (span + 1) > offsets_size:
            return ("offsets", f"{name}: offsets end at byte "
                    f"{offsets_at + 4 * (span + 1)}, past "
                    f"csr.offsets.db's {offsets_size}", offsets_at)
    return None


def _first_at_or_above(column: Sequence[int], limit: int) -> int:
    return next(index for index, value in enumerate(column)
                if value >= limit)


def verify_descriptor(descriptor: Any, payload: bytes,
                      offsets: bytes, high_node: int, rel_high: int,
                      ) -> list[tuple[str, str, int | None]]:
    """Structural fsck of the CSR files against their descriptor.

    Returns (file-kind, message, byte offset or None) problems;
    file-kind is ``"payload"`` or ``"offsets"``.  The structure open
    checks comes first (:func:`descriptor_problem`); then columns are
    checked whole (CRC, monotone offsets, largest id), so a clean
    verdict means every run is readable and every edge/neighbor id is
    in range.
    """
    structural = descriptor_problem(descriptor, len(payload), len(offsets))
    if structural is not None:
        kind, message, offset = structural
        return [(kind, f"{message}, run `frappe compact`", offset)]
    problems: list[tuple[str, str, int | None]] = []
    payload_view = memoryview(payload)
    offsets_view = memoryview(offsets)
    for entry in descriptor.get("segments", ()):
        name = f"segment (dir={entry['direction']}, token={entry['token']})"
        payload_at = entry["payload_offset"]
        offsets_at = entry["offsets_offset"]
        edges = entry["edges"]
        span = entry["span"]
        segment_payload = payload_view[
            payload_at:payload_at + entry["payload_bytes"]]
        segment_offsets = offsets_view[
            offsets_at:offsets_at + entry["offsets_bytes"]]
        if zlib.crc32(segment_payload) != entry.get("payload_crc32"):
            problems.append(("payload", f"{name}: payload CRC mismatch",
                             payload_at))
        elif zlib.crc32(segment_offsets) != entry.get("offsets_crc32"):
            problems.append(("offsets", f"{name}: offsets CRC mismatch",
                             offsets_at))
        elif entry["base"] + span > high_node:
            problems.append(("offsets",
                             f"{name}: covers node ids past the node "
                             f"store ({entry['base'] + span} > "
                             f"{high_node})", offsets_at))
        else:
            bounds = list(_u32(segment_offsets))
            neighbours = _u32(segment_payload[:4 * edges])
            edge_ids = _u32(segment_payload[4 * edges:])
            if bounds != sorted(bounds):
                index = next(index for index in range(span)
                             if bounds[index] > bounds[index + 1])
                problems.append(("offsets",
                                 f"{name}: offsets not monotonic at "
                                 f"node {entry['base'] + index} "
                                 f"(element {index})",
                                 offsets_at + 4 * index))
            elif bounds[0] != 0 or bounds[-1] != edges:
                problems.append(("offsets",
                                 f"{name}: offsets span [{bounds[0]}, "
                                 f"{bounds[-1]}), not the {edges} "
                                 "entries of the columns", offsets_at))
            elif edges and max(neighbours) >= high_node:
                index = _first_at_or_above(neighbours, high_node)
                problems.append(("payload",
                                 f"{name}: neighbor id "
                                 f"{neighbours[index]} out of range "
                                 f"(element {index})",
                                 payload_at + 4 * index))
            elif edges and max(edge_ids) >= rel_high:
                index = _first_at_or_above(edge_ids, rel_high)
                problems.append(("payload",
                                 f"{name}: edge id {edge_ids[index]} "
                                 f"out of range (element {index})",
                                 payload_at + 4 * (edges + index)))
    return problems


__all__ = ["CSR_DESCRIPTOR_VERSION", "CsrBuilder", "CsrReader",
           "DEGREE_BUCKETS", "IN", "OFFSET_WIDTH", "OUT",
           "descriptor_problem", "verify_descriptor"]
