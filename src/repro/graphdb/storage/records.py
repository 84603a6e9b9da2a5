"""Binary record codecs for the store files.

Record layouts (little endian):

Node record — fixed ``NODE_RECORD_SIZE`` bytes, indexed by node id::

    u8   in_use          1 = live, 0 = hole
    u32  labelset_id     index into the metadata labelset table
    u64  prop_offset     offset of the property block, NO_OFFSET if none
    u64  adj_offset      offset of the adjacency block
    u32  adj_length      adjacency block length in bytes

Relationship record — fixed ``REL_RECORD_SIZE`` bytes, indexed by id::

    u8   in_use
    u32  type_token      edge type, as a token id
    u64  source          source node id
    u64  target          target node id
    u64  prop_offset     property block offset, NO_OFFSET if none

Adjacency block (variable, in the adjacency store)::

    u16  out_group_count
    u16  in_group_count
    groups (out first, then in), each:
        u32  type_token
        u32  edge_count
        u64  edge ids × edge_count

Grouping edges by type per node is the dense-node optimization that
makes type-filtered Cypher expansions (``-[:calls]->``) read only the
relevant postings — Neo4j 2.1's relationship groups play the same role.

Property block (variable, in the property store)::

    u16  count
    entries × count:
        u32  key_token
        u8   tag          (TAG_* below)
        u64  payload      int bits / float bits / bool / string id / blob id

Strings and list blobs live in the string store as length-prefixed
byte runs; the offset table is a separate flat ``u64`` array file.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.errors import StoreFormatError

NODE_STRUCT = struct.Struct("<BIQQI")
NODE_RECORD_SIZE = 32  # padded
REL_STRUCT = struct.Struct("<BIQQQ")
REL_RECORD_SIZE = 32  # padded

NO_OFFSET = 0xFFFFFFFFFFFFFFFF

TAG_INT = 0
TAG_FLOAT = 1
TAG_BOOL = 2
TAG_STRING = 3
TAG_LIST = 4
TAG_BIGINT = 5
TAG_DICT_STRING = 6  # payload = id into the store dictionary page

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1

_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_GROUP_HEADER = struct.Struct("<II")
_ADJ_HEADER = struct.Struct("<HH")
_PROP_HEADER = struct.Struct("<H")
_PROP_ENTRY = struct.Struct("<IBQ")


# --------------------------------------------------------------------------
# Node records
# --------------------------------------------------------------------------

def encode_node(in_use: bool, labelset_id: int, prop_offset: int,
                adj_offset: int, adj_length: int) -> bytes:
    packed = NODE_STRUCT.pack(1 if in_use else 0, labelset_id, prop_offset,
                              adj_offset, adj_length)
    return packed.ljust(NODE_RECORD_SIZE, b"\x00")


def decode_node(record: bytes) -> tuple[bool, int, int, int, int]:
    if len(record) < NODE_STRUCT.size:
        raise StoreFormatError(
            f"node record truncated: {len(record)} bytes")
    in_use, labelset_id, prop_offset, adj_offset, adj_length = \
        NODE_STRUCT.unpack_from(record)
    return bool(in_use), labelset_id, prop_offset, adj_offset, adj_length


# --------------------------------------------------------------------------
# Relationship records
# --------------------------------------------------------------------------

def encode_rel(in_use: bool, type_token: int, source: int, target: int,
               prop_offset: int) -> bytes:
    packed = REL_STRUCT.pack(1 if in_use else 0, type_token, source, target,
                             prop_offset)
    return packed.ljust(REL_RECORD_SIZE, b"\x00")


def decode_rel(record: bytes) -> tuple[bool, int, int, int, int]:
    if len(record) < REL_STRUCT.size:
        raise StoreFormatError(f"rel record truncated: {len(record)} bytes")
    in_use, type_token, source, target, prop_offset = \
        REL_STRUCT.unpack_from(record)
    return bool(in_use), type_token, source, target, prop_offset


# --------------------------------------------------------------------------
# Adjacency blocks
# --------------------------------------------------------------------------

def encode_adjacency(out_groups: Sequence[tuple[int, Sequence[int]]],
                     in_groups: Sequence[tuple[int, Sequence[int]]]) -> bytes:
    """Encode per-type edge-id groups; see the module docstring."""
    parts = [_ADJ_HEADER.pack(len(out_groups), len(in_groups))]
    for type_token, edge_ids in list(out_groups) + list(in_groups):
        parts.append(_GROUP_HEADER.pack(type_token, len(edge_ids)))
        parts.append(struct.pack(f"<{len(edge_ids)}Q", *edge_ids))
    return b"".join(parts)


def decode_adjacency(block: bytes) -> tuple[
        list[tuple[int, tuple[int, ...]]], list[tuple[int, tuple[int, ...]]]]:
    """Decode to (out_groups, in_groups) of (type_token, edge ids)."""
    if len(block) < _ADJ_HEADER.size:
        raise StoreFormatError("adjacency block truncated")
    out_count, in_count = _ADJ_HEADER.unpack_from(block)
    offset = _ADJ_HEADER.size
    groups: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(out_count + in_count):
        if offset + _GROUP_HEADER.size > len(block):
            raise StoreFormatError("adjacency group header truncated")
        type_token, edge_count = _GROUP_HEADER.unpack_from(block, offset)
        offset += _GROUP_HEADER.size
        end = offset + 8 * edge_count
        if end > len(block):
            raise StoreFormatError("adjacency group postings truncated")
        edge_ids = struct.unpack_from(f"<{edge_count}Q", block, offset)
        offset += 8 * edge_count
        groups.append((type_token, edge_ids))
    return groups[:out_count], groups[out_count:]


# --------------------------------------------------------------------------
# Property blocks
# --------------------------------------------------------------------------

def encode_property_block(
        entries: Sequence[tuple[int, int, int]]) -> bytes:
    """Encode (key_token, tag, payload) triples into one block."""
    parts = [_PROP_HEADER.pack(len(entries))]
    for key_token, tag, payload in entries:
        parts.append(_PROP_ENTRY.pack(key_token, tag, payload))
    return b"".join(parts)


def property_block_size(entry_count: int) -> int:
    return _PROP_HEADER.size + entry_count * _PROP_ENTRY.size


def decode_property_block_header(block: bytes) -> int:
    if len(block) < _PROP_HEADER.size:
        raise StoreFormatError("property block truncated")
    return _PROP_HEADER.unpack_from(block)[0]


def decode_property_entries(block: bytes,
                            count: int) -> list[tuple[int, int, int]]:
    entries = []
    offset = _PROP_HEADER.size
    for _ in range(count):
        if offset + _PROP_ENTRY.size > len(block):
            raise StoreFormatError("property entry truncated")
        entries.append(_PROP_ENTRY.unpack_from(block, offset))
        offset += _PROP_ENTRY.size
    return entries


# --------------------------------------------------------------------------
# Scalar payload packing
# --------------------------------------------------------------------------

def pack_int(value: int) -> int:
    """Signed 64-bit int reinterpreted as the u64 payload."""
    return _U64.unpack(_I64.pack(value))[0]


def unpack_int(payload: int) -> int:
    return _I64.unpack(_U64.pack(payload))[0]


def fits_inline_int(value: int) -> bool:
    return _I64_MIN <= value <= _I64_MAX


def pack_float(value: float) -> int:
    return _U64.unpack(_F64.pack(value))[0]


def unpack_float(payload: int) -> float:
    return _F64.unpack(_U64.pack(payload))[0]


# --------------------------------------------------------------------------
# List blob encoding (stored in the string store as a byte run)
# --------------------------------------------------------------------------

_LIST_KIND_INT = 0
_LIST_KIND_FLOAT = 1
_LIST_KIND_BOOL = 2
_LIST_KIND_STR = 3


def encode_list_blob(values: Sequence[Any]) -> bytes:
    """Serialize a homogeneous scalar list to a self-describing blob."""
    if not values:
        return struct.pack("<BI", _LIST_KIND_INT, 0)
    first = values[0]
    if isinstance(first, bool):
        body = struct.pack(f"<{len(values)}B",
                           *(1 if item else 0 for item in values))
        kind = _LIST_KIND_BOOL
    elif isinstance(first, int):
        body = struct.pack(f"<{len(values)}q", *values)
        kind = _LIST_KIND_INT
    elif isinstance(first, float):
        body = struct.pack(f"<{len(values)}d", *values)
        kind = _LIST_KIND_FLOAT
    else:
        encoded = [str(item).encode("utf-8") for item in values]
        body = b"".join(struct.pack("<I", len(item)) + item
                        for item in encoded)
        kind = _LIST_KIND_STR
    return struct.pack("<BI", kind, len(values)) + body


def decode_list_blob(blob: bytes) -> list[Any]:
    if len(blob) < 5:
        raise StoreFormatError("list blob truncated")
    kind, count = struct.unpack_from("<BI", blob)
    offset = 5
    if kind == _LIST_KIND_BOOL:
        raw = struct.unpack_from(f"<{count}B", blob, offset)
        return [bool(item) for item in raw]
    if kind == _LIST_KIND_INT:
        return list(struct.unpack_from(f"<{count}q", blob, offset))
    if kind == _LIST_KIND_FLOAT:
        return list(struct.unpack_from(f"<{count}d", blob, offset))
    if kind == _LIST_KIND_STR:
        values = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            # str(buffer, encoding) accepts bytes and memoryview alike
            # (mmap-mode page cache reads are zero-copy views)
            values.append(str(blob[offset:offset + length], "utf-8"))
            offset += length
        return values
    raise StoreFormatError(f"unknown list blob kind {kind}")


# --------------------------------------------------------------------------
# String store runs
# --------------------------------------------------------------------------

def encode_string_run(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def decode_string_run_length(header: bytes) -> int:
    if len(header) < 4:
        raise StoreFormatError("string run header truncated")
    return struct.unpack_from("<I", header)[0]


# --------------------------------------------------------------------------
# Dictionary page
# --------------------------------------------------------------------------
#
# The store dictionary maps small integer ids to the high-frequency
# strings of a store (labels, edge types, property keys, repeated
# property values)::
#
#     u32  count
#     u32  offsets × (count + 1)   (relative to the start of the data
#                                   area that follows the offset table)
#     utf-8 data, concatenated
#
# Entry *i* is ``data[offsets[i]:offsets[i + 1]]`` — decoding one entry
# is an mmap slice, not a scan.

_DICT_HEADER = struct.Struct("<I")


def encode_dictionary(values: Sequence[str]) -> bytes:
    encoded = [value.encode("utf-8") for value in values]
    offsets = [0]
    for blob in encoded:
        offsets.append(offsets[-1] + len(blob))
    return b"".join([
        _DICT_HEADER.pack(len(encoded)),
        struct.pack(f"<{len(offsets)}I", *offsets),
        b"".join(encoded),
    ])


def decode_dictionary_count(buffer: bytes) -> int:
    if len(buffer) < _DICT_HEADER.size:
        raise StoreFormatError("dictionary page truncated")
    return _DICT_HEADER.unpack_from(buffer)[0]


def decode_dictionary_entry(buffer: bytes, index: int) -> str:
    """Decode entry *index* with two offset reads and one slice."""
    count = decode_dictionary_count(buffer)
    if not 0 <= index < count:
        raise StoreFormatError(
            f"dictionary id {index} out of range (count {count})")
    base = _DICT_HEADER.size
    start, end = struct.unpack_from("<II", buffer, base + 4 * index)
    data_start = base + 4 * (count + 1)
    if data_start + end > len(buffer) or start > end:
        raise StoreFormatError("dictionary entry out of bounds")
    return str(buffer[data_start + start:data_start + end], "utf-8")


def decode_dictionary(buffer: bytes) -> list[str]:
    """Decode the whole dictionary page (fsck / eager paths)."""
    count = decode_dictionary_count(buffer)
    base = _DICT_HEADER.size
    if base + 4 * (count + 1) > len(buffer):
        raise StoreFormatError("dictionary offset table truncated")
    offsets = struct.unpack_from(f"<{count + 1}I", buffer, base)
    data_start = base + 4 * (count + 1)
    if data_start + offsets[-1] > len(buffer):
        raise StoreFormatError("dictionary data truncated")
    values = []
    for index in range(count):
        start, end = offsets[index], offsets[index + 1]
        if start > end:
            raise StoreFormatError("dictionary offsets not monotonic")
        values.append(str(buffer[data_start + start:data_start + end],
                          "utf-8"))
    return values
