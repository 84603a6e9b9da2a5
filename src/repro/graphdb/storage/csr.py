"""Compiled CSR adjacency segments: build-time-persisted neighbor lists.

The runtime CSR snapshot (PR 8) made the batch engine fast *once warm*
by decoding every adjacency block into Python dicts on first touch.
This module moves that work to build time: ``GraphStore.write`` (and
``frappe compact``) serialize one **CSR segment** per (direction,
edge-type) pair, and the reader serves neighbor lists straight off the
mmap with a varint decode of only the touched run.

On-disk layout — two flat files plus a JSON descriptor in
``metadata.json`` under the ``"csr"`` key:

``csr.db``
    Concatenated per-segment payloads.  A segment's payload is the
    concatenation of its nodes' *pair runs*
    (:func:`repro.graphdb.storage.records.encode_pair_run`): uvarint
    count, zigzag-varint edge-id deltas, zigzag-varint neighbor-id
    deltas — order-preserving, so a decoded run is byte-for-byte the
    (edge id, neighbor id) list the record path would produce.

``csr.offsets.db``
    Per-segment fixed-width ``u32`` offset arrays.  A segment covering
    node ids ``[base, base + span)`` stores ``span + 1`` offsets
    relative to its payload start; node ``n``'s run is
    ``payload[offsets[n - base]:offsets[n - base + 1]]`` and an empty
    run is two equal offsets.  The whole array is served as one
    zero-copy memoryview in mmap mode — locating a run is two ``u32``
    reads, no scan.

Descriptor (per segment): direction (0=out, 1=in), type token, base,
span, payload/offsets extents, CRC32 per region, and degree statistics
(edge count, max degree, log2-bucketed degree histogram) that the
planner picks up for free at open.

Segments are deterministic: ordered by (direction, token), runs in
ascending node-id order, pairs in adjacency-group order — the same
order the record-decode path yields, which is what makes the two
paths row-identical down to PROFILE trees.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Sequence

from repro.errors import StoreFormatError
from repro.graphdb.storage import records

#: direction codes used in segment descriptors
OUT = 0
IN = 1

CSR_DESCRIPTOR_VERSION = 1
OFFSET_WIDTH = 4
_U32_MAX = 0xFFFFFFFF
_UNPACK_BOUNDS = struct.Struct("<II").unpack_from

#: log2 degree-histogram buckets; bucket b counts nodes whose run
#: degree d satisfies 2**(b-1) <= d < 2**b (bucket 0 = degree 0)
DEGREE_BUCKETS = 16


class _Segment:
    """One (direction, token) segment being accumulated by the writer."""

    __slots__ = ("direction", "token", "base", "payload", "offsets",
                 "edges", "max_degree", "degree_hist")

    def __init__(self, direction: int, token: int, base: int) -> None:
        self.direction = direction
        self.token = token
        self.base = base
        self.payload = bytearray()
        self.offsets = [0]
        self.edges = 0
        self.max_degree = 0
        self.degree_hist = [0] * DEGREE_BUCKETS


class CsrBuilder:
    """Accumulates per-node pair runs; nodes must arrive in ascending
    id order (the store writer's natural iteration order)."""

    def __init__(self) -> None:
        self._segments: dict[tuple[int, int], _Segment] = {}

    def add(self, node_id: int, direction: int, token: int,
            pairs: Sequence[tuple[int, int]]) -> None:
        """Append node *node_id*'s (edge id, neighbor id) run."""
        if not pairs:
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
        size = len(segment.payload)
        # empty runs for the node ids skipped since the last add
        segment.offsets.extend([size] * (node_id - covered))
        segment.payload += records.encode_pair_run(pairs)
        segment.offsets.append(len(segment.payload))
        degree = len(pairs)
        segment.edges += degree
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
            payload = bytes(segment.payload)
            if len(payload) > _U32_MAX:
                raise StoreFormatError(
                    f"CSR segment {key} exceeds the u32 offset range")
            offsets = struct.pack(f"<{len(segment.offsets)}I",
                                  *segment.offsets)
            segments.append({
                "direction": segment.direction,
                "token": segment.token,
                "base": segment.base,
                "span": len(segment.offsets) - 1,
                "payload_offset": payload_at,
                "payload_bytes": len(payload),
                "payload_crc32": zlib.crc32(payload) & _U32_MAX,
                "offsets_offset": offsets_at,
                "offsets_bytes": len(offsets),
                "offsets_crc32": zlib.crc32(offsets) & _U32_MAX,
                "edges": segment.edges,
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
    :meth:`evict`.  Payload reads touch only the queried run.
    """

    def __init__(self, payload_file: Any, offsets_file: Any,
                 descriptor: dict[str, Any]) -> None:
        self._payload = payload_file
        self._offsets = offsets_file
        self._segments: dict[tuple[int, int], dict[str, Any]] = {}
        self._by_direction: dict[int, list[dict[str, Any]]] = {OUT: [],
                                                               IN: []}
        for entry in descriptor.get("segments", ()):
            key = (entry["direction"], entry["token"])
            self._segments[key] = entry
            self._by_direction.setdefault(entry["direction"],
                                          []).append(entry)
        for entries in self._by_direction.values():
            entries.sort(key=lambda entry: entry["token"])
        # flat per-direction scan tables: plain int tuples so groups()
        # can reject a non-covering segment with two comparisons, no
        # dict subscripts or method calls
        self._flat: dict[int, tuple[tuple, ...]] = {
            direction: tuple(
                (entry["token"], entry["base"], entry["span"],
                 entry["payload_offset"], entry["payload_bytes"],
                 entry["offsets_offset"], (direction, entry["token"]))
                for entry in entries)
            for direction, entries in self._by_direction.items()}
        self._views: dict[tuple[int, int], Any] = {}
        #: whole-payload memoryview, mmap mode only: runs are sliced
        #: zero-copy with no per-run page-cache round trip
        self._buffer: Any = None

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def tokens(self, direction: int) -> list[int]:
        """Type tokens with a segment in *direction*, ascending."""
        return [entry["token"]
                for entry in self._by_direction.get(direction, ())]

    def evict(self) -> None:
        """Drop the cached offset-array views and the payload buffer
        (cold-start emulation; also releases exported mmap views so
        the underlying files can close)."""
        self._views.clear()
        self._buffer = None

    def _payload_buffer(self) -> Any:
        """The whole payload as one zero-copy view (mmap mode), else
        None — the buffered path reads runs individually so a store
        larger than memory never gets pinned wholesale."""
        buffer = self._buffer
        if buffer is None and getattr(self._payload, "mapped", False):
            size = self._payload.size
            if size:
                buffer = self._payload.read(0, size)
                self._buffer = buffer
        return buffer

    def groups(self, node_id: int, direction: int,
               wanted: "set[int] | frozenset[int] | None" = None,
               ) -> list[tuple[int, list[tuple[int, int]]]]:
        """Non-empty (token, pairs) groups for *node_id*, token-ascending
        — the exact group order of a decoded adjacency block, whatever
        order *wanted* came in."""
        out: list[tuple[int, list[tuple[int, int]]]] = []
        views = self._views
        offsets_read = self._offsets.read
        buffer = self._payload_buffer()
        payload_read = self._payload.read
        unpack_bounds = _UNPACK_BOUNDS
        decode_run = records.decode_pair_run
        for (token, base, span, payload_offset, payload_bytes,
             offsets_offset, key) in self._flat.get(direction, ()):
            index = node_id - base
            if index < 0 or index >= span:
                continue
            if wanted is not None and token not in wanted:
                continue
            view = views.get(key)
            if view is None:
                view = offsets_read(offsets_offset, 4 * (span + 1))
                views[key] = view
            start, end = unpack_bounds(view, 4 * index)
            if start == end:
                continue
            if end < start or end > payload_bytes:
                raise StoreFormatError(
                    f"CSR offsets corrupt for node {node_id} in segment "
                    f"{key}: [{start}, {end})")
            if buffer is not None:
                at = payload_offset + start
                run = buffer[at:at + (end - start)]  # zero-copy slice
            else:
                run = payload_read(payload_offset + start, end - start)
            pairs, _consumed = decode_run(run)
            out.append((token, pairs))
        return out


def verify_descriptor(descriptor: dict[str, Any], payload: bytes,
                      offsets: bytes, high_node: int,
                      rel_high: int) -> list[tuple[str, str]]:
    """Structural fsck of the CSR files against their descriptor.

    Returns (file-kind, message) problems; file-kind is ``"payload"``
    or ``"offsets"``.  Every run of every segment is decoded, so a
    clean verdict means the whole compiled adjacency is readable and
    every edge/neighbor id is in range.
    """
    problems: list[tuple[str, str]] = []
    if descriptor.get("offset_width") != OFFSET_WIDTH:
        problems.append(("offsets", "unsupported CSR offset width "
                         f"{descriptor.get('offset_width')!r}"))
        return problems
    if descriptor.get("payload_bytes") != len(payload):
        problems.append(
            ("payload", f"csr payload is {len(payload)} bytes, "
             f"descriptor says {descriptor.get('payload_bytes')}"))
        return problems
    if descriptor.get("offsets_bytes") != len(offsets):
        problems.append(
            ("offsets", f"csr offsets file is {len(offsets)} bytes, "
             f"descriptor says {descriptor.get('offsets_bytes')}"))
        return problems
    for entry in descriptor.get("segments", ()):
        name = f"segment (dir={entry['direction']}, token={entry['token']})"
        segment_payload = payload[
            entry["payload_offset"]:
            entry["payload_offset"] + entry["payload_bytes"]]
        if zlib.crc32(segment_payload) & _U32_MAX != \
                entry.get("payload_crc32"):
            problems.append(("payload", f"{name}: payload CRC mismatch"))
            continue
        segment_offsets = offsets[
            entry["offsets_offset"]:
            entry["offsets_offset"] + entry["offsets_bytes"]]
        if zlib.crc32(segment_offsets) & _U32_MAX != \
                entry.get("offsets_crc32"):
            problems.append(("offsets", f"{name}: offsets CRC mismatch"))
            continue
        span = entry["span"]
        if len(segment_offsets) != 4 * (span + 1):
            problems.append(("offsets",
                             f"{name}: offsets array truncated"))
            continue
        if entry["base"] + span > high_node:
            problems.append(("offsets",
                             f"{name}: covers node ids past the node "
                             f"store ({entry['base'] + span} > "
                             f"{high_node})"))
            continue
        bounds = struct.unpack_from(f"<{span + 1}I", segment_offsets)
        if bounds[-1] != entry["payload_bytes"]:
            problems.append(("offsets",
                             f"{name}: final offset {bounds[-1]} != "
                             f"payload extent {entry['payload_bytes']}"))
            continue
        edges = 0
        previous = 0
        for index in range(span):
            start, end = bounds[index], bounds[index + 1]
            if start < previous or end < start:
                problems.append(("offsets",
                                 f"{name}: offsets not monotonic at "
                                 f"node {entry['base'] + index}"))
                break
            previous = start
            if start == end:
                continue
            try:
                pairs, consumed = records.decode_pair_run(
                    segment_payload[start:end])
            except StoreFormatError as error:
                problems.append(("payload",
                                 f"{name}: node {entry['base'] + index} "
                                 f"run undecodable: {error}"))
                break
            if consumed != end - start:
                problems.append(("payload",
                                 f"{name}: node {entry['base'] + index} "
                                 "run has trailing bytes"))
                break
            edges += len(pairs)
            for edge_id, neighbor in pairs:
                if not 0 <= edge_id < rel_high:
                    problems.append(
                        ("payload", f"{name}: edge id {edge_id} out of "
                         f"range at node {entry['base'] + index}"))
                    break
                if not 0 <= neighbor < high_node:
                    problems.append(
                        ("payload", f"{name}: neighbor id {neighbor} "
                         f"out of range at node "
                         f"{entry['base'] + index}"))
                    break
            else:
                continue
            break
        else:
            if edges != entry.get("edges"):
                problems.append(
                    ("payload", f"{name}: {edges} edges decoded, "
                     f"descriptor says {entry.get('edges')}"))
    return problems


__all__ = ["CSR_DESCRIPTOR_VERSION", "CsrBuilder", "CsrReader",
           "DEGREE_BUCKETS", "IN", "OFFSET_WIDTH", "OUT",
           "verify_descriptor"]
