"""Writing and opening the on-disk graph store.

:func:`GraphStore.write` serializes a populated
:class:`~repro.graphdb.graph.PropertyGraph` into a store directory whose
file decomposition mirrors Neo4j's (this is what paper Table 4's
per-category size breakdown measures):

====================  =======================================  ==========
file                  contents                                 Table 4 row
====================  =======================================  ==========
nodestore.db          fixed node records                       Nodes
relationshipstore.db  fixed relationship records               Relationships
adjacencystore.db     per-node, per-type edge-id groups        Relationships
propertystore.db      property blocks                          Properties
stringstore.db        interned strings and list blobs          Properties
stringstore.offsets   flat u64 offset table                    Properties
index.postings.db     auto-index and label postings            Indexes
index.dict.json       term dictionaries (term -> postings)     Indexes
metadata.json         tokens, labelsets, counts                (overhead)
====================  =======================================  ==========

:func:`GraphStore.open` returns a :class:`StoreGraph`: a read-only
:class:`~repro.graphdb.view.GraphView` whose every record access goes
through the shared page cache plus a decoded-object cache, so
``StoreGraph.evict_caches()`` produces a genuine cold start for the
Table 5 benchmark protocol.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import struct
import sys
import zlib
from typing import Any, Callable, Collection, Iterable, Iterator

from repro.errors import (EdgeNotFoundError, NodeNotFoundError,
                          StoreCorruptionError, StoreError,
                          StoreFormatError)
from repro.graphdb import luceneql
from repro.graphdb.stats import GraphStatistics
from repro.graphdb.storage import csr as csr_mod
from repro.graphdb.storage import records
from repro.graphdb.storage.pagecache import PageCache, PagedFile
from repro.graphdb.view import Direction, GraphView, other_end

MAGIC = "frappe-graph-store"
#: Format 3 added the compiled CSR adjacency segments and the string
#: dictionary page. A version-2 store has no CSR, so ``open`` refuses
#: it; it stays readable only to ``compact_store``, which rewrites it.
FORMAT_VERSION = 3
SUPPORTED_VERSIONS = (2, FORMAT_VERSION)

METADATA_FILE = "metadata.json"
NODE_FILE = "nodestore.db"
REL_FILE = "relationshipstore.db"
ADJ_FILE = "adjacencystore.db"
PROP_FILE = "propertystore.db"
STRING_FILE = "stringstore.db"
STRING_OFFSETS_FILE = "stringstore.offsets.db"
INDEX_POSTINGS_FILE = "index.postings.db"
INDEX_DICT_FILE = "index.dict.json"
#: format >= 3: compiled CSR adjacency payloads and offset arrays
CSR_FILE = "csr.db"
CSR_OFFSETS_FILE = "csr.offsets.db"
#: format >= 3: the string dictionary page (labels, edge types,
#: property keys, high-frequency property values)
DICT_FILE = "dictionary.db"

#: Written last during a commit; its presence marks a complete store.
MANIFEST_FILE = "manifest.json"

ALL_FILES = (METADATA_FILE, NODE_FILE, REL_FILE, ADJ_FILE, PROP_FILE,
             STRING_FILE, STRING_OFFSETS_FILE, INDEX_POSTINGS_FILE,
             INDEX_DICT_FILE, CSR_FILE, CSR_OFFSETS_FILE, DICT_FILE)

#: maximum dictionary-page entries; beyond the token vocabularies only
#: the highest-frequency property values make the cut
DICTIONARY_CAPACITY = 65536
#: a property value must repeat at least this often to be dictionarized
DICTIONARY_MIN_FREQUENCY = 2

#: Table 4 category -> store files whose sizes sum into it.
SIZE_CATEGORIES = {
    "nodes": (NODE_FILE,),
    "relationships": (REL_FILE, ADJ_FILE),
    "properties": (PROP_FILE, STRING_FILE, STRING_OFFSETS_FILE),
    "indexes": (INDEX_POSTINGS_FILE, INDEX_DICT_FILE),
    "csr": (CSR_FILE, CSR_OFFSETS_FILE),
    "dictionary": (DICT_FILE,),
}

#: fsck categories whose damage is derivable from the record stores —
#: the store still answers correctly without them ("repairable").
#: Compiled CSR segments are a projection of the adjacency +
#: relationship stores (rebuild with ``frappe compact``); the
#: dictionary page is NOT here: it holds the only copy of
#: dict-encoded property values.
DERIVABLE_CATEGORIES = frozenset({"indexes", "csr"})

#: file name -> fsck category ("metadata" for the bookkeeping files).
CATEGORY_BY_FILE = {name: category
                    for category, names in SIZE_CATEGORIES.items()
                    for name in names}
CATEGORY_BY_FILE[METADATA_FILE] = "metadata"
CATEGORY_BY_FILE[MANIFEST_FILE] = "metadata"

#: :meth:`GraphStore.verify` statuses.
CLEAN = "clean"
REPAIRABLE = "repairable"
CORRUPT = "corrupt"


@dataclasses.dataclass
class StoreProblem:
    """One defect :meth:`GraphStore.verify` found, located precisely."""

    file: str                  # store file name, e.g. nodestore.db
    category: str              # nodes|relationships|properties|indexes|metadata
    message: str
    offset: int | None = None  # byte offset when known

    def __str__(self) -> str:
        location = f" @ byte {self.offset}" if self.offset is not None \
            else ""
        return f"[{self.category}] {self.file}{location}: {self.message}"


@dataclasses.dataclass
class StoreVerification:
    """The fsck verdict for one store directory.

    ``status`` is :data:`CLEAN` (no problems), :data:`REPAIRABLE`
    (damage confined to the index files, which are derivable from the
    record stores), or :data:`CORRUPT` (primary data damaged).
    """

    directory: str
    status: str
    problems: list[StoreProblem] = dataclasses.field(default_factory=list)
    #: per-file report gathered during verification (one pass):
    #: ``{file: {"category", "bytes", "records"}}`` where ``records``
    #: is the live record/entry count when the file has one — the
    #: Table-4-style breakdown ``frappe fsck`` prints.
    files: dict[str, dict[str, Any]] = dataclasses.field(
        default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == CLEAN

    def problems_in(self, category: str) -> list[StoreProblem]:
        return [p for p in self.problems if p.category == category]

    def corrupt_files(self) -> list[str]:
        return sorted({p.file for p in self.problems})

    def summary(self) -> str:
        if not self.problems:
            return f"{self.directory}: clean"
        return (f"{self.directory}: {self.status} — "
                f"{len(self.problems)} problem(s) in "
                f"{', '.join(self.corrupt_files())}")


class _TokenTable:
    """String -> dense int token mapping, write side."""

    def __init__(self) -> None:
        self._tokens: dict[str, int] = {}

    def token(self, text: str) -> int:
        existing = self._tokens.get(text)
        if existing is not None:
            return existing
        token = len(self._tokens)
        self._tokens[text] = token
        return token

    def to_list(self) -> list[str]:
        ordered = [""] * len(self._tokens)
        for text, token in self._tokens.items():
            ordered[token] = text
        return ordered


class _StringStoreWriter:
    """Appends interned strings/blobs; produces the offsets table."""

    def __init__(self, path: str, opener: Callable[..., Any] = open) -> None:
        self._opener = opener
        self._handle = opener(path, "wb")
        self._offsets: list[int] = []
        self._position = 0
        self._interned: dict[bytes, int] = {}

    def put_bytes(self, data: bytes) -> int:
        existing = self._interned.get(data)
        if existing is not None:
            return existing
        string_id = len(self._offsets)
        run = records.encode_string_run(data)
        self._handle.write(run)
        self._offsets.append(self._position)
        self._position += len(run)
        self._interned[data] = string_id
        return string_id

    def put_string(self, text: str) -> int:
        return self.put_bytes(text.encode("utf-8"))

    def finish(self, offsets_path: str) -> None:
        self._handle.close()
        with self._opener(offsets_path, "wb") as handle:
            handle.write(struct.pack(f"<{len(self._offsets)}Q",
                                     *self._offsets))


class GraphStore:
    """Namespace for store write/open/size operations."""

    @staticmethod
    def write(graph: GraphView, directory: str, *,
              injector: Any = None,
              ghost_nodes: Collection[int] | None = None,
              vocabulary: dict[str, list[str]] | None = None,
              ) -> dict[str, int]:
        """Serialize *graph* into *directory*; returns the size breakdown.

        The graph's node/edge ids become the store's record ids, so ids
        are stable across a write/open round trip.

        ``ghost_nodes`` (keyword-only, used by the shard-split writer)
        names node ids of *graph* that are boundary replicas owned by
        another shard: they are written with their full labels and
        properties so cross-boundary expansions resolve locally, but
        they are **excluded** from the index postings, the label
        counts and the metadata ``node_count`` — a shard-local label
        scan or index seek therefore yields only nodes this store
        owns, which is what keeps scattered results disjoint across
        shards.  The ids are recorded under metadata ``ghost_nodes``.

        ``vocabulary`` (keyword-only) pre-seeds the key/type/label
        token tables from a source store's metadata (``key_tokens``,
        ``type_tokens``, ``label_tokens`` lists).  Adjacency groups
        are ordered by type token, so shard stores seeded with the
        source vocabulary reproduce the source store's exact
        ``edges_of`` iteration order — the bedrock of the sharded
        result-equivalence guarantee.

        The write is **atomic at the directory level**: everything goes
        to a ``<directory>.tmp`` sibling first, every file is fsynced,
        a CRC32 :data:`MANIFEST_FILE` seals the staging directory, and
        only then is the old store displaced (``<directory>.old``) and
        the staging directory renamed into place.  A crash at any step
        leaves either the complete old store or the complete new store
        on disk — :meth:`open` runs :meth:`recover` to finish or roll
        back an interrupted swap.

        ``injector`` (keyword-only, used by the fault-injection tests)
        is a :class:`repro.graphdb.storage.faults.FaultInjector`-shaped
        object: its ``checkpoint(label)`` is called at every durability
        step and its ``open(path, mode)`` supplies the output streams.
        """
        directory = directory.rstrip("/\\") or directory
        staging = directory + ".tmp"
        previous = directory + ".old"
        opener: Callable[..., Any] = \
            injector.open if injector is not None else open

        def checkpoint(label: str) -> None:
            if injector is not None:
                injector.checkpoint(label)

        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        GraphStore._write_contents(graph, staging, opener, checkpoint,
                                   ghost_nodes=ghost_nodes,
                                   vocabulary=vocabulary)

        for name in ALL_FILES:
            _fsync_file(os.path.join(staging, name))
        checkpoint("files_synced")

        manifest: dict[str, Any] = {"version": 1, "files": {}}
        for name in ALL_FILES:
            path = os.path.join(staging, name)
            manifest["files"][name] = {"size": os.path.getsize(path),
                                       "crc32": _crc32_file(path)}
        manifest_path = os.path.join(staging, MANIFEST_FILE)
        with opener(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        _fsync_file(manifest_path)
        _fsync_dir(staging)
        checkpoint("manifest_written")

        if os.path.exists(previous):
            shutil.rmtree(previous)
        if os.path.exists(directory):
            os.rename(directory, previous)
            checkpoint("old_store_displaced")
        os.rename(staging, directory)
        _fsync_dir(os.path.dirname(directory) or ".")
        checkpoint("new_store_committed")
        if os.path.exists(previous):
            shutil.rmtree(previous)
        checkpoint("old_store_removed")
        return GraphStore.size_breakdown(directory)

    @staticmethod
    def _write_contents(graph: GraphView, directory: str,
                        opener: Callable[..., Any],
                        checkpoint: Callable[[str], None],
                        ghost_nodes: Collection[int] | None = None,
                        vocabulary: dict[str, list[str]] | None = None,
                        ) -> None:
        """Serialize every store file of *graph* into *directory*."""
        ghosts = frozenset(ghost_nodes or ())
        key_tokens = _TokenTable()
        type_tokens = _TokenTable()
        label_tokens = _TokenTable()
        if vocabulary is not None:
            for text in vocabulary.get("key_tokens", ()):
                key_tokens.token(text)
            for text in vocabulary.get("type_tokens", ()):
                type_tokens.token(text)
            for text in vocabulary.get("label_tokens", ()):
                label_tokens.token(text)
        labelsets: dict[frozenset[str], int] = {}
        labelset_rows: list[list[int]] = []

        # dictionary page (format 3) -----------------------------------
        # One pre-pass over properties to find the strings worth a
        # small dict id instead of a string-store run: every label,
        # edge type and property key (they repeat per record by
        # construction), plus property values that repeat at least
        # DICTIONARY_MIN_FREQUENCY times. Deterministic order: names
        # first (first-seen order of the iteration), then values by
        # descending frequency with a lexicographic tiebreak.
        names: dict[str, None] = {}
        frequencies: dict[str, int] = {}
        live_count = 0
        for node_id in graph.node_ids():
            live_count += 1
            for label in graph.node_labels(node_id):
                names.setdefault(label, None)
            for key, value in graph.node_properties(node_id).items():
                names.setdefault(key, None)
                if isinstance(value, str):
                    frequencies[value] = frequencies.get(value, 0) + 1
        for edge_id in graph.edge_ids():
            names.setdefault(graph.edge_type(edge_id), None)
            for key, value in graph.edge_properties(edge_id).items():
                names.setdefault(key, None)
                if isinstance(value, str):
                    frequencies[value] = frequencies.get(value, 0) + 1
        dictionary_ids = {text: index
                          for index, text in enumerate(names)}
        hot = sorted(
            ((count, value) for value, count in frequencies.items()
             if count >= DICTIONARY_MIN_FREQUENCY
             and value not in dictionary_ids),
            key=lambda item: (-item[0], item[1]))
        for _count, value in hot:
            if len(dictionary_ids) >= DICTIONARY_CAPACITY:
                break
            dictionary_ids[value] = len(dictionary_ids)
        dict_path = os.path.join(directory, DICT_FILE)
        with opener(dict_path, "wb") as handle:
            handle.write(records.encode_dictionary(
                list(dictionary_ids)))
        checkpoint("dictionary_written")

        strings = _StringStoreWriter(os.path.join(directory, STRING_FILE),
                                     opener)

        # property store ---------------------------------------------------
        prop_path = os.path.join(directory, PROP_FILE)
        prop_offsets_nodes: dict[int, int] = {}
        prop_offsets_edges: dict[int, int] = {}
        with opener(prop_path, "wb") as prop_handle:
            position = 0

            def write_props(properties: dict[str, Any]) -> int:
                nonlocal position
                if not properties:
                    return records.NO_OFFSET
                entries = []
                for key in sorted(properties):
                    value = properties[key]
                    key_token = key_tokens.token(key)
                    tag, payload = _encode_value(value, strings,
                                                 dictionary_ids)
                    entries.append((key_token, tag, payload))
                block = records.encode_property_block(entries)
                offset = position
                prop_handle.write(block)
                position += len(block)
                return offset

            for node_id in graph.node_ids():
                prop_offsets_nodes[node_id] = write_props(
                    graph.node_properties(node_id))
            for edge_id in graph.edge_ids():
                prop_offsets_edges[edge_id] = write_props(
                    graph.edge_properties(edge_id))

        checkpoint("properties_written")

        # adjacency store + compiled CSR segments ------------------------
        # Node ids ascend, so the same pass that serializes each node's
        # adjacency block appends its edge ids, and the neighbours
        # they lead to, onto the per-(direction, type) CSR columns —
        # ghost replicas included, exactly like their adjacency blocks,
        # which is what keeps shard-local one-hop expansion on the
        # compiled path.
        adj_path = os.path.join(directory, ADJ_FILE)
        adjacency: dict[int, tuple[int, int]] = {}
        csr_builder = csr_mod.CsrBuilder()
        with opener(adj_path, "wb") as adj_handle:
            position = 0
            for node_id in graph.node_ids():
                out_groups = _group_edges(graph, node_id, Direction.OUT,
                                          type_tokens)
                in_groups = _group_edges(graph, node_id, Direction.IN,
                                         type_tokens)
                block = records.encode_adjacency(out_groups, in_groups)
                adj_handle.write(block)
                adjacency[node_id] = (position, len(block))
                position += len(block)
                for direction, groups in ((csr_mod.OUT, out_groups),
                                          (csr_mod.IN, in_groups)):
                    for token, edge_ids in groups:
                        csr_builder.add(
                            node_id, direction, token, edge_ids,
                            [other_end(graph, edge_id, node_id)
                             for edge_id in edge_ids])

        checkpoint("adjacency_written")

        csr_payload, csr_offsets, csr_descriptor = csr_builder.finish()
        with opener(os.path.join(directory, CSR_FILE), "wb") as handle:
            handle.write(csr_payload)
        with opener(os.path.join(directory, CSR_OFFSETS_FILE),
                    "wb") as handle:
            handle.write(csr_offsets)
        checkpoint("csr_written")

        # node store -----------------------------------------------------------
        high_node = max(graph.node_ids(), default=-1) + 1
        node_path = os.path.join(directory, NODE_FILE)
        with opener(node_path, "wb") as node_handle:
            hole = records.encode_node(False, 0, records.NO_OFFSET, 0, 0)
            for node_id in range(high_node):
                if not graph.has_node(node_id):
                    node_handle.write(hole)
                    continue
                labels = graph.node_labels(node_id)
                labelset_id = labelsets.get(labels)
                if labelset_id is None:
                    labelset_id = len(labelset_rows)
                    labelsets[labels] = labelset_id
                    labelset_rows.append(
                        sorted(label_tokens.token(lbl) for lbl in labels))
                adj_offset, adj_length = adjacency[node_id]
                node_handle.write(records.encode_node(
                    True, labelset_id, prop_offsets_nodes[node_id],
                    adj_offset, adj_length))

        checkpoint("nodes_written")

        # relationship store -------------------------------------------------------
        high_edge = max(graph.edge_ids(), default=-1) + 1
        rel_path = os.path.join(directory, REL_FILE)
        with opener(rel_path, "wb") as rel_handle:
            hole = records.encode_rel(False, 0, 0, 0, records.NO_OFFSET)
            for edge_id in range(high_edge):
                if not graph.has_edge(edge_id):
                    rel_handle.write(hole)
                    continue
                rel_handle.write(records.encode_rel(
                    True,
                    type_tokens.token(graph.edge_type(edge_id)),
                    graph.edge_source(edge_id),
                    graph.edge_target(edge_id),
                    prop_offsets_edges[edge_id]))

        checkpoint("relationships_written")

        strings.finish(os.path.join(directory, STRING_OFFSETS_FILE))
        checkpoint("strings_written")

        # index files ------------------------------------------------------------
        auto_keys = tuple(getattr(graph.indexes, "auto_index_keys", ()))
        _write_index_files(graph, directory, auto_keys, opener,
                           skip_nodes=ghosts)
        checkpoint("indexes_written")

        # planner statistics: cheap O(V+E) counts the reader exposes as
        # a GraphStatistics without re-scanning the store. Optional keys
        # (same format version) — older stores fall back to estimates.
        # Ghost replicas are invisible here too: a shard's label counts
        # describe only the nodes it owns.
        label_counts: dict[str, int] = {}
        for node_id in graph.node_ids():
            if node_id in ghosts:
                continue
            for label in graph.node_labels(node_id):
                label_counts[label] = label_counts.get(label, 0) + 1
        edge_type_counts: dict[str, int] = {}
        for edge_id in graph.edge_ids():
            name = graph.edge_type(edge_id)
            edge_type_counts[name] = edge_type_counts.get(name, 0) + 1

        # metadata ------------------------------------------------------------------
        metadata = {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            # Count what was actually serialized rather than trusting
            # graph.node_count(): a StoreGraph source already excludes
            # its ghosts there, so compacting a shard must not subtract
            # them twice.
            "node_count": live_count - len(ghosts),
            "edge_count": graph.edge_count(),
            "high_node_id": high_node,
            "high_edge_id": high_edge,
            "key_tokens": key_tokens.to_list(),
            "type_tokens": type_tokens.to_list(),
            "label_tokens": label_tokens.to_list(),
            "labelsets": labelset_rows,
            "auto_index_keys": list(auto_keys),
            "label_counts": label_counts,
            "edge_type_counts": edge_type_counts,
        }
        if ghosts:
            metadata["ghost_nodes"] = sorted(ghosts)
        metadata["csr"] = csr_descriptor
        metadata["dictionary_count"] = len(dictionary_ids)
        with opener(os.path.join(directory, METADATA_FILE), "w",
                    encoding="utf-8") as handle:
            json.dump(metadata, handle)
        checkpoint("metadata_written")

    @staticmethod
    def open(directory: str,
             page_cache: PageCache | None = None,
             record_cache_capacity: int | None = None) -> "StoreGraph":
        """Open a store directory as a read-only graph view.

        Runs best-effort crash :meth:`recover` first, so a directory
        left mid-swap by a crashed :meth:`write` opens as either the
        complete old or the complete new store.  Checksums are *not*
        verified here (that is :meth:`verify` / ``frappe fsck``) — open
        stays O(metadata + CSR segments), corruption surfaces as
        precise :class:`StoreCorruptionError`\\ s on access.

        The compiled CSR is part of the format: a store without one
        this build serves (format 2, another CSR layout, files or
        segments that disagree with the descriptor) is refused with a
        :class:`StoreFormatError` naming the store and the reason and
        ending "run `frappe compact`".
        """
        metadata = _load_metadata(directory)
        problem = _csr_open_check(directory, metadata)
        if problem is not None:
            raise StoreFormatError(
                f"store {directory!r}: {problem}, run `frappe compact`")
        return StoreGraph(directory, metadata,
                          page_cache or PageCache(),
                          record_cache_capacity=record_cache_capacity)

    @staticmethod
    def recover(directory: str) -> str | None:
        """Finish or roll back an interrupted :meth:`write` swap.

        Returns ``"rolled_forward"`` (the sealed staging directory
        became the store), ``"rolled_back"`` (the displaced old store
        was restored), or ``None`` (nothing to do).  Stale siblings of
        a complete store are removed either way.  Never raises for an
        ordinary non-store directory.
        """
        directory = directory.rstrip("/\\") or directory
        staging = directory + ".tmp"
        previous = directory + ".old"
        action = None
        if not GraphStore._commit_complete(directory):
            if GraphStore._commit_complete(staging):
                # crash after the manifest sealed staging: roll forward
                if os.path.exists(directory):
                    shutil.rmtree(directory)
                os.rename(staging, directory)
                action = "rolled_forward"
            elif GraphStore._commit_complete(previous):
                # crash before staging was sealed: roll back
                if os.path.exists(directory):
                    shutil.rmtree(directory)
                os.rename(previous, directory)
                action = "rolled_back"
        if GraphStore._commit_complete(directory):
            for leftover in (staging, previous):
                if os.path.exists(leftover):
                    shutil.rmtree(leftover, ignore_errors=True)
        return action

    @staticmethod
    def _commit_complete(directory: str) -> bool:
        """Did a write commit fully here?

        The manifest is written last, so its presence seals the commit
        — but a torn manifest write must not count, so it also has to
        parse.  (Its checksums are *not* validated here; that is
        :meth:`verify`'s job.)
        """
        if not (os.path.isdir(directory) and os.path.exists(
                os.path.join(directory, METADATA_FILE))):
            return False
        try:
            with open(os.path.join(directory, MANIFEST_FILE),
                      encoding="utf-8") as handle:
                return isinstance(json.load(handle), dict)
        except (OSError, ValueError):
            return False

    @staticmethod
    def verify(directory: str) -> StoreVerification:
        """Full integrity check: checksums plus record-level validation.

        Classifies the store as :data:`CLEAN`, :data:`REPAIRABLE`
        (problems confined to the derivable index files) or
        :data:`CORRUPT`, with one :class:`StoreProblem` per defect
        naming the exact file, Table 4 category and (where known) byte
        offset.  This is the engine behind ``frappe fsck``.
        """
        problems: list[StoreProblem] = []
        metadata_path = os.path.join(directory, METADATA_FILE)
        if not os.path.exists(metadata_path):
            problems.append(StoreProblem(
                METADATA_FILE, "metadata",
                "missing metadata — not a graph store"))
            return StoreVerification(directory, CORRUPT, problems)
        try:
            with open(metadata_path, encoding="utf-8") as handle:
                metadata = json.load(handle)
            if not isinstance(metadata, dict):
                raise ValueError("metadata is not a JSON object")
        except (OSError, ValueError) as error:
            problems.append(StoreProblem(
                METADATA_FILE, "metadata", f"unreadable: {error}"))
            return StoreVerification(directory, CORRUPT, problems)
        if metadata.get("magic") != MAGIC:
            problems.append(StoreProblem(METADATA_FILE, "metadata",
                                         "bad magic"))
        if metadata.get("version") not in SUPPORTED_VERSIONS:
            problems.append(StoreProblem(
                METADATA_FILE, "metadata",
                f"unsupported version {metadata.get('version')!r}"))
        if problems:
            return StoreVerification(directory, CORRUPT, problems)

        problems.extend(GraphStore._verify_checksums(directory))
        record_problems, files = GraphStore._verify_records(
            directory, metadata)
        problems.extend(record_problems)

        # only problems confined to files rebuildable from the primary
        # records (indexes, compiled CSR segments) are repairable
        if not problems:
            status = CLEAN
        elif {p.category for p in problems} <= DERIVABLE_CATEGORIES:
            status = REPAIRABLE
        else:
            status = CORRUPT
        return StoreVerification(directory, status, problems, files)

    @staticmethod
    def _verify_checksums(directory: str) -> list[StoreProblem]:
        """Compare every store file against the CRC32 manifest."""
        problems: list[StoreProblem] = []
        manifest_path = os.path.join(directory, MANIFEST_FILE)
        if not os.path.exists(manifest_path):
            problems.append(StoreProblem(
                MANIFEST_FILE, "metadata", "missing checksum manifest "
                "(store was not committed by an atomic write)"))
            return problems
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            files = dict(manifest["files"])
        except (OSError, ValueError, KeyError, TypeError) as error:
            problems.append(StoreProblem(
                MANIFEST_FILE, "metadata",
                f"unreadable manifest: {error}"))
            return problems
        for name, entry in sorted(files.items()):
            category = CATEGORY_BY_FILE.get(name, "metadata")
            path = os.path.join(directory, name)
            if not os.path.exists(path):
                problems.append(StoreProblem(
                    name, category, "file missing"))
                continue
            size = os.path.getsize(path)
            if size != entry.get("size"):
                problems.append(StoreProblem(
                    name, category,
                    f"size {size} != manifest size {entry.get('size')}",
                    offset=min(size, entry.get("size") or 0)))
            elif _crc32_file(path) != entry.get("crc32"):
                problems.append(StoreProblem(
                    name, category, "CRC32 checksum mismatch"))
        return problems

    @staticmethod
    def _verify_records(directory: str, metadata: dict[str, Any],
                        ) -> tuple[list[StoreProblem],
                                   dict[str, dict[str, Any]]]:
        """Record-level validation of every store file's structure.

        Returns (problems, per-file report); the report carries each
        file's Table 4 category, on-disk byte size and — where the
        format defines one — live record/entry count, all gathered in
        the same pass the validation makes anyway.
        """
        problems: list[StoreProblem] = []
        files: dict[str, dict[str, Any]] = {}

        def report(name: str, record_count: int | None = None) -> None:
            path = os.path.join(directory, name)
            if not os.path.exists(path):
                return
            files[name] = {
                "category": CATEGORY_BY_FILE.get(name, "metadata"),
                "bytes": os.path.getsize(path),
                "records": record_count,
            }

        def load(name: str) -> bytes | None:
            path = os.path.join(directory, name)
            try:
                with open(path, "rb") as handle:
                    return handle.read()
            except OSError as error:
                problems.append(StoreProblem(
                    name, CATEGORY_BY_FILE.get(name, "metadata"),
                    f"unreadable: {error}"))
                return None

        try:
            high_node = int(metadata["high_node_id"])
            high_edge = int(metadata["high_edge_id"])
            labelset_count = len(metadata["labelsets"])
            key_count = len(metadata["key_tokens"])
            type_count = len(metadata["type_tokens"])
        except (KeyError, TypeError, ValueError) as error:
            problems.append(StoreProblem(
                METADATA_FILE, "metadata", f"malformed metadata: {error}"))
            return problems, files

        nodes_raw = load(NODE_FILE)
        rels_raw = load(REL_FILE)
        adj_raw = load(ADJ_FILE)
        props_raw = load(PROP_FILE)
        strings_raw = load(STRING_FILE)
        offsets_raw = load(STRING_OFFSETS_FILE)

        # string dictionary page (format 3): primary data — every
        # TAG_DICT_STRING payload resolves here, so structural damage
        # is CORRUPT, not repairable
        dict_count = None
        if metadata.get("version", FORMAT_VERSION) >= 3 or \
                os.path.exists(os.path.join(directory, DICT_FILE)):
            dict_raw = load(DICT_FILE)
            if dict_raw is not None:
                try:
                    dict_count = len(records.decode_dictionary(dict_raw))
                except StoreFormatError as error:
                    problems.append(StoreProblem(
                        DICT_FILE, "dictionary", str(error)))
            declared = metadata.get("dictionary_count")
            if dict_count is not None and declared is not None and \
                    dict_count != declared:
                problems.append(StoreProblem(
                    DICT_FILE, "dictionary",
                    f"{dict_count} entries on disk, metadata says "
                    f"{declared}"))

        string_count = None
        if offsets_raw is not None:
            if len(offsets_raw) % 8:
                problems.append(StoreProblem(
                    STRING_OFFSETS_FILE, "properties",
                    f"size {len(offsets_raw)} not a u64 multiple",
                    offset=len(offsets_raw) - len(offsets_raw) % 8))
            else:
                string_count = len(offsets_raw) // 8
                offsets = struct.unpack(f"<{string_count}Q", offsets_raw)
                if strings_raw is not None:
                    for index, offset in enumerate(offsets):
                        if offset + 4 > len(strings_raw):
                            problems.append(StoreProblem(
                                STRING_FILE, "properties",
                                f"string {index} starts past EOF",
                                offset=offset))
                            continue
                        length = records.decode_string_run_length(
                            strings_raw[offset:offset + 4])
                        if offset + 4 + length > len(strings_raw):
                            problems.append(StoreProblem(
                                STRING_FILE, "properties",
                                f"string {index} run truncated",
                                offset=offset))

        checked_blocks: set[int] = set()

        def check_props(offset: int, owner: str) -> None:
            if offset == records.NO_OFFSET or props_raw is None or \
                    offset in checked_blocks:
                return
            checked_blocks.add(offset)
            if offset + 2 > len(props_raw):
                problems.append(StoreProblem(
                    PROP_FILE, "properties",
                    f"property block of {owner} starts past EOF",
                    offset=offset))
                return
            count = records.decode_property_block_header(
                props_raw[offset:offset + 2])
            end = offset + records.property_block_size(count)
            if end > len(props_raw):
                problems.append(StoreProblem(
                    PROP_FILE, "properties",
                    f"property block of {owner} truncated "
                    f"(needs {end - len(props_raw)} more bytes)",
                    offset=offset))
                return
            for key_token, tag, payload in records.decode_property_entries(
                    props_raw[offset:end], count):
                if key_token >= key_count:
                    problems.append(StoreProblem(
                        PROP_FILE, "properties",
                        f"unknown key token {key_token} in block of "
                        f"{owner}", offset=offset))
                if tag in (records.TAG_STRING, records.TAG_LIST,
                           records.TAG_BIGINT):
                    if string_count is not None and payload >= string_count:
                        problems.append(StoreProblem(
                            PROP_FILE, "properties",
                            f"bad string id {payload} in block of "
                            f"{owner}", offset=offset))
                elif tag == records.TAG_DICT_STRING:
                    if dict_count is not None and payload >= dict_count:
                        problems.append(StoreProblem(
                            PROP_FILE, "properties",
                            f"bad dictionary id {payload} in block of "
                            f"{owner}", offset=offset))
                elif tag not in (records.TAG_INT, records.TAG_FLOAT,
                                 records.TAG_BOOL):
                    problems.append(StoreProblem(
                        PROP_FILE, "properties",
                        f"unknown property tag {tag} in block of "
                        f"{owner}", offset=offset))

        live_nodes = 0
        if nodes_raw is not None:
            expected = high_node * records.NODE_RECORD_SIZE
            if len(nodes_raw) != expected:
                problems.append(StoreProblem(
                    NODE_FILE, "nodes",
                    f"size {len(nodes_raw)} != {expected} "
                    f"({high_node} records)",
                    offset=min(len(nodes_raw), expected)))
            for node_id in range(
                    min(high_node,
                        len(nodes_raw) // records.NODE_RECORD_SIZE)):
                at = node_id * records.NODE_RECORD_SIZE
                record = records.decode_node(
                    nodes_raw[at:at + records.NODE_RECORD_SIZE])
                if not record[0]:
                    continue
                live_nodes += 1
                if record[1] >= labelset_count:
                    problems.append(StoreProblem(
                        NODE_FILE, "nodes",
                        f"node {node_id} has unknown labelset "
                        f"{record[1]}", offset=at))
                check_props(record[2], f"node {node_id}")
                if adj_raw is not None and \
                        record[3] + record[4] > len(adj_raw):
                    problems.append(StoreProblem(
                        ADJ_FILE, "relationships",
                        f"adjacency block of node {node_id} past EOF",
                        offset=record[3]))
            # ghost replicas (shard stores) are live records that do
            # not count toward the owned node_count
            expected_live = (metadata.get("node_count") or 0) + \
                len(metadata.get("ghost_nodes", ()))
            if len(nodes_raw) == expected and live_nodes != expected_live:
                problems.append(StoreProblem(
                    METADATA_FILE, "metadata",
                    f"metadata node_count {metadata.get('node_count')} "
                    f"(+{len(metadata.get('ghost_nodes', ()))} ghosts) "
                    f"!= {live_nodes} live records"))

        live_edges = 0
        if rels_raw is not None:
            expected = high_edge * records.REL_RECORD_SIZE
            if len(rels_raw) != expected:
                problems.append(StoreProblem(
                    REL_FILE, "relationships",
                    f"size {len(rels_raw)} != {expected} "
                    f"({high_edge} records)",
                    offset=min(len(rels_raw), expected)))
            for edge_id in range(
                    min(high_edge,
                        len(rels_raw) // records.REL_RECORD_SIZE)):
                at = edge_id * records.REL_RECORD_SIZE
                record = records.decode_rel(
                    rels_raw[at:at + records.REL_RECORD_SIZE])
                if not record[0]:
                    continue
                live_edges += 1
                if record[1] >= type_count:
                    problems.append(StoreProblem(
                        REL_FILE, "relationships",
                        f"edge {edge_id} has unknown type token "
                        f"{record[1]}", offset=at))
                if record[2] >= high_node or record[3] >= high_node:
                    problems.append(StoreProblem(
                        REL_FILE, "relationships",
                        f"edge {edge_id} endpoints ({record[2]}, "
                        f"{record[3]}) outside node space", offset=at))
                check_props(record[4], f"edge {edge_id}")
            if len(rels_raw) == expected and \
                    live_edges != metadata.get("edge_count"):
                problems.append(StoreProblem(
                    METADATA_FILE, "metadata",
                    f"metadata edge_count {metadata.get('edge_count')} "
                    f"!= {live_edges} live records"))

        # index files: dictionary must parse, postings must be in range
        postings_size = None
        postings_path = os.path.join(directory, INDEX_POSTINGS_FILE)
        if os.path.exists(postings_path):
            postings_size = os.path.getsize(postings_path)
        else:
            problems.append(StoreProblem(INDEX_POSTINGS_FILE, "indexes",
                                         "file missing"))
        dict_path = os.path.join(directory, INDEX_DICT_FILE)
        try:
            with open(dict_path, encoding="utf-8") as handle:
                dictionary = json.load(handle)
            entries: list[tuple[int, int]] = []
            for terms in dictionary.get("auto", {}).values():
                entries.extend(tuple(entry) for entry in terms.values())
            entries.extend(tuple(entry) for entry in
                           dictionary.get("labels", {}).values())
            if postings_size is not None:
                for offset, count in entries:
                    if offset + 8 * count > postings_size:
                        problems.append(StoreProblem(
                            INDEX_POSTINGS_FILE, "indexes",
                            f"postings run of {count} ids past EOF",
                            offset=offset))
        except (OSError, ValueError, TypeError) as error:
            problems.append(StoreProblem(
                INDEX_DICT_FILE, "indexes",
                f"unreadable dictionary: {error}"))
            entries = []

        # compiled CSR segments: fully derivable from the record
        # stores, so damage here — or a format-2 store that has none —
        # is REPAIRABLE (frappe compact rebuilds them)
        csr_descriptor = metadata.get("csr")
        csr_edges = None
        csr_segments = None
        if metadata["version"] != FORMAT_VERSION:
            problems.append(StoreProblem(
                CSR_FILE, "csr", f"format {metadata['version']}: no "
                "compiled CSR, run `frappe compact`"))
        else:
            csr_payload = load(CSR_FILE)
            csr_offsets = load(CSR_OFFSETS_FILE)
            if csr_payload is not None and csr_offsets is not None:
                for kind, message, offset in csr_mod.verify_descriptor(
                        csr_descriptor, csr_payload, csr_offsets,
                        high_node, high_edge):
                    problems.append(StoreProblem(
                        CSR_FILE if kind == "payload"
                        else CSR_OFFSETS_FILE, "csr", message,
                        offset=offset))
                if csr_mod.descriptor_problem(
                        csr_descriptor, len(csr_payload),
                        len(csr_offsets)) is None:
                    csr_segments = len(csr_descriptor["segments"])
                    csr_edges = sum(entry["edges"]
                                    for entry in csr_descriptor["segments"])

        report(NODE_FILE, live_nodes if nodes_raw is not None else None)
        report(REL_FILE, live_edges if rels_raw is not None else None)
        report(ADJ_FILE, live_nodes if nodes_raw is not None else None)
        report(PROP_FILE, len(checked_blocks))
        report(STRING_FILE, string_count)
        report(STRING_OFFSETS_FILE, string_count)
        report(INDEX_DICT_FILE, len(entries))
        report(INDEX_POSTINGS_FILE,
               sum(count for _offset, count in entries))
        report(DICT_FILE, dict_count)
        report(CSR_FILE, csr_edges)
        report(CSR_OFFSETS_FILE, csr_segments)
        report(METADATA_FILE)
        report(MANIFEST_FILE)
        return problems, files

    @staticmethod
    def size_breakdown(directory: str) -> dict[str, int]:
        """Per-category byte sizes (the Table 4 rows) plus ``total``."""
        breakdown = {}
        for category, files in SIZE_CATEGORIES.items():
            breakdown[category] = sum(
                os.path.getsize(os.path.join(directory, name))
                for name in files if os.path.exists(
                    os.path.join(directory, name)))
        breakdown["total"] = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in ALL_FILES
            if os.path.exists(os.path.join(directory, name)))
        return breakdown


def compact_store(directory: str,
                  page_cache: PageCache | None = None) -> dict[str, int]:
    """Rewrite *directory* in the current compiled store format.

    The only reader of a store with its compiled CSR set aside: the
    rewrite takes adjacency from the adjacency block (untyped
    ``edges_of``) and never trusts the existing segments, which is
    what makes this the ``fsck`` repair for damaged, missing or
    other-layout CSR files and for format-2 stores.  The store is
    rewritten in place with the same atomic staging/rename protocol as
    any other :meth:`GraphStore.write`.  Token tables are re-seeded
    from the source metadata so record ids, token ids and iteration
    order all survive the round trip; shard stores keep their ghost
    replicas.  Returns the post-compaction size breakdown.
    """
    metadata = _load_metadata(directory)
    metadata.pop("csr", None)
    store = StoreGraph(directory, metadata, page_cache or PageCache())
    try:
        GraphStore.write(store, directory,
                         ghost_nodes=store.ghost_nodes,
                         vocabulary={
                             "key_tokens": store._key_tokens,
                             "type_tokens": store._type_tokens,
                             "label_tokens": store._label_tokens,
                         })
    finally:
        store.close()
    return GraphStore.size_breakdown(directory)


def _group_edges(graph: GraphView, node_id: int, direction: Direction,
                 type_tokens: _TokenTable) -> list[tuple[int, list[int]]]:
    groups: dict[int, list[int]] = {}
    for edge_id in graph.edges_of(node_id, direction):
        token = type_tokens.token(graph.edge_type(edge_id))
        groups.setdefault(token, []).append(edge_id)
    return sorted(groups.items())


def _encode_value(value: Any,
                  strings: _StringStoreWriter,
                  dictionary: dict[str, int]) -> tuple[int, int]:
    if isinstance(value, bool):
        return records.TAG_BOOL, 1 if value else 0
    if isinstance(value, int):
        if records.fits_inline_int(value):
            return records.TAG_INT, records.pack_int(value)
        return records.TAG_BIGINT, strings.put_string(str(value))
    if isinstance(value, float):
        return records.TAG_FLOAT, records.pack_float(value)
    if isinstance(value, str):
        dict_id = dictionary.get(value)
        if dict_id is not None:
            return records.TAG_DICT_STRING, dict_id
        return records.TAG_STRING, strings.put_string(value)
    if isinstance(value, (list, tuple)):
        return records.TAG_LIST, strings.put_bytes(
            records.encode_list_blob(list(value)))
    raise StoreFormatError(f"unstorable property value {value!r}")


def _fsync_file(path: str) -> None:
    """Force one file's contents to stable storage."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _fsync_dir(path: str) -> None:
    """Force a directory entry to stable storage (best effort)."""
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass  # some filesystems refuse directory fsync
    finally:
        os.close(descriptor)


def _crc32_file(path: str, chunk_size: int = 1 << 20) -> int:
    """Streaming CRC32 of a whole file (for the manifest)."""
    crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_size), b""):
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def _write_index_files(graph: GraphView, directory: str,
                       auto_keys: tuple[str, ...],
                       opener: Callable[..., Any] = open,
                       skip_nodes: frozenset[int] = frozenset()) -> None:
    """Serialize auto-index and label postings.

    Dictionary (term -> postings offset/count) goes to JSON and is
    loaded eagerly at open; the postings themselves are read through
    the page cache, so cold index lookups fault pages like Lucene
    segment reads would.

    ``skip_nodes`` (the shard writer's ghost replicas) are left out of
    every posting list, so index seeks and label scans return only the
    nodes this store owns.
    """
    postings_path = os.path.join(directory, INDEX_POSTINGS_FILE)
    dictionary: dict[str, Any] = {"auto": {}, "labels": {}}
    with opener(postings_path, "wb") as handle:
        position = 0

        def write_postings(ids: list[int]) -> tuple[int, int]:
            nonlocal position
            ids = sorted(ids)
            handle.write(struct.pack(f"<{len(ids)}Q", *ids))
            entry = (position, len(ids))
            position += 8 * len(ids)
            return entry

        auto_terms: dict[str, dict[str, list[int]]] = {
            key: {} for key in auto_keys}
        labels: dict[str, list[int]] = {}
        for node_id in graph.node_ids():
            if node_id in skip_nodes:
                continue
            for label in graph.node_labels(node_id):
                labels.setdefault(label, []).append(node_id)
            properties = graph.node_properties(node_id)
            for key in auto_keys:
                value = properties.get(key)
                if value is None:
                    continue
                term = _index_term(value)
                auto_terms[key].setdefault(term, []).append(node_id)
        for key, term_dict in auto_terms.items():
            dictionary["auto"][key] = {
                term: write_postings(ids)
                for term, ids in sorted(term_dict.items())}
        dictionary["labels"] = {
            label: write_postings(ids)
            for label, ids in sorted(labels.items())}
    with opener(os.path.join(directory, INDEX_DICT_FILE), "w",
                encoding="utf-8") as handle:
        json.dump(dictionary, handle)


def _index_term(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value).lower()


class StoreIndexes:
    """Disk-backed index reader (implements the IndexReader protocol)."""

    def __init__(self, dictionary: dict[str, Any],
                 postings: PagedFile, node_universe_size: int) -> None:
        self._auto: dict[str, dict[str, tuple[int, int]]] = {
            key: {term: tuple(entry) for term, entry in terms.items()}
            for key, terms in dictionary.get("auto", {}).items()}
        self._labels: dict[str, tuple[int, int]] = {
            label: tuple(entry)
            for label, entry in dictionary.get("labels", {}).items()}
        self._postings = postings
        self._universe_size = node_universe_size
        self._all_ids_cache: set[int] | None = None
        self.attach_metrics(postings.cache.metrics)

    def attach_metrics(self, registry: Any) -> None:
        """(Re)bind index counters to a metrics registry."""
        self._lookup_counter = registry.counter("index.lookups")
        self._postings_counter = registry.counter(
            "index.postings_read")

    @property
    def auto_index_keys(self) -> tuple[str, ...]:
        return tuple(self._auto)

    @property
    def postings_file(self) -> PagedFile:
        """The paged postings file (owned by these indexes)."""
        return self._postings

    def close(self) -> None:
        """Release the postings file; safe to call twice."""
        self._postings.close()

    def evict_caches(self) -> None:
        """Drop the memoized all-ids universe so the next full-index
        scan re-reads postings (keeps cold runs honest)."""
        self._all_ids_cache = None

    def lookup(self, key: str, value: Any) -> Iterator[int]:
        self._lookup_counter.inc()
        entry = self._auto.get(key.lower(), {}).get(_index_term(value))
        if entry is None:
            return iter(())
        return iter(self._read_postings(entry))

    def query(self, query_string: str) -> Iterator[int]:
        self._lookup_counter.inc()
        ast = luceneql.parse_query(query_string)
        return iter(sorted(luceneql.evaluate(ast, self)))

    def label(self, label: str) -> Iterator[int]:
        self._lookup_counter.inc()
        entry = self._labels.get(label)
        if entry is None:
            return iter(())
        return iter(self._read_postings(entry))

    def label_count(self, label: str) -> int:
        entry = self._labels.get(label)
        return entry[1] if entry else 0

    def seek_count(self, key: str, value: Any) -> int:
        """Posting-list length for an exact term — the planner's index
        selectivity estimate. Reads only the dictionary entry, never
        the postings file."""
        entry = self._auto.get(key.lower(), {}).get(_index_term(value))
        return entry[1] if entry else 0

    def labels(self) -> Iterator[str]:
        return iter(sorted(self._labels))

    # -- luceneql.TermSource -------------------------------------------------

    def all_ids(self) -> set[int]:
        if self._all_ids_cache is None:
            ids: set[int] = set()
            for entry in self._labels.values():
                ids.update(self._read_postings(entry))
            self._all_ids_cache = ids
        return set(self._all_ids_cache)

    def terms(self, field: str) -> Iterable[str]:
        return self._auto.get(field.lower(), {}).keys()

    def postings(self, field: str, term: str) -> set[int]:
        entry = self._auto.get(field.lower(), {}).get(term)
        if entry is None:
            return set()
        return set(self._read_postings(entry))

    # -- internals ----------------------------------------------------------------

    def _read_postings(self, entry: tuple[int, int]) -> tuple[int, ...]:
        offset, count = entry
        if not count:
            return ()
        self._postings_counter.inc(count)
        raw = self._postings.read(offset, 8 * count)
        return struct.unpack(f"<{count}Q", raw)


#: default per-cache bound of the decoded-object caches (entries, not
#: bytes): five caches × 256 Ki entries keeps whole-graph scans of the
#: evaluation kernels resident while bounding worst-case memory
DEFAULT_RECORD_CACHE_CAPACITY = 262_144


#: the parts of a node's adjacency ``StoreGraph._neighbor_cache``
#: holds: csr.db's two columns, and their zip
_NEIGHBOURS, _EDGE_IDS, _PAIRS = 0, 1, 2

#: the CSR segment directions a view-level direction reads, in
#: ``edges_of`` order
_CSR_DIRECTIONS = {Direction.OUT: (csr_mod.OUT,),
                   Direction.IN: (csr_mod.IN,),
                   Direction.BOTH: (csr_mod.OUT, csr_mod.IN)}


def _load_metadata(directory: str) -> dict[str, Any]:
    """*directory*'s metadata, after crash :meth:`GraphStore.recover`
    and the magic and version checks."""
    GraphStore.recover(directory)
    metadata_path = os.path.join(directory, METADATA_FILE)
    if not os.path.exists(metadata_path):
        raise StoreError(f"not a graph store: {directory!r}")
    with open(metadata_path, encoding="utf-8") as handle:
        metadata = json.load(handle)
    if metadata.get("magic") != MAGIC:
        raise StoreFormatError(f"bad magic in {metadata_path!r}")
    if metadata.get("version") not in SUPPORTED_VERSIONS:
        raise StoreFormatError(
            f"store version {metadata.get('version')} unsupported "
            f"(expected one of {SUPPORTED_VERSIONS})")
    return metadata


def _csr_open_check(directory: str,
                    metadata: dict[str, Any]) -> str | None:
    """Why *directory*'s compiled CSR cannot be served, or None when
    it can: the store is format 3, the descriptor is of the one layout
    this build reads, and every segment lies inside files of the sizes
    it records (O(segments): contents are fsck's)."""
    version = metadata["version"]
    if version != FORMAT_VERSION:
        return f"format {version}: no compiled CSR"
    sizes = []
    for name in (CSR_FILE, CSR_OFFSETS_FILE):
        try:
            sizes.append(os.path.getsize(os.path.join(directory, name)))
        except OSError as error:
            return f"{name} unreadable ({error.strerror})"
    problem = csr_mod.descriptor_problem(metadata.get("csr"), *sizes)
    return None if problem is None else problem[1]


class _FIFOCache(dict):
    """Insertion-order-bounded dict for decoded records.

    A :class:`StoreGraph` holds six: node records, rel records,
    adjacency blocks, node and edge property blocks, and resolved
    adjacency (neighbour ids, edge ids and their pairs).  They are
    the only per-record state between a query and the page cache, and
    :meth:`StoreGraph.evict_caches` empties all of them.

    FIFO rather than LRU on purpose: get stays a plain dict lookup (no
    move-to-end bookkeeping on the hottest path in the codebase), and
    sequential scans — the access pattern that overflows the cache in
    the first place — gain nothing from recency ordering. A dict
    subclass so callers (and benchmarks that poke ``_node_cache``
    directly) keep their ``clear()``/``len()`` idioms.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.capacity and key not in self:
            del self[next(iter(self))]
        dict.__setitem__(self, key, value)


class StoreGraph:
    """Read-only :class:`GraphView` over a store directory.

    Two cache layers sit between queries and the files:

    * the shared :class:`PageCache` (raw 8 KiB pages), and
    * per-record decoded-object caches (Neo4j 2.x's "object cache").

    :meth:`evict_caches` clears both, which is the cold-cache lever the
    Table 5 protocol pulls between runs.
    """

    def __init__(self, directory: str, metadata: dict[str, Any],
                 page_cache: PageCache,
                 record_cache_capacity: int | None = None) -> None:
        if record_cache_capacity is None:
            record_cache_capacity = DEFAULT_RECORD_CACHE_CAPACITY
        if record_cache_capacity < 1:
            raise ValueError("record cache needs at least one entry")
        self.directory = directory
        self.page_cache = page_cache
        self._node_count = metadata["node_count"]
        self._edge_count = metadata["edge_count"]
        self._high_node = metadata["high_node_id"]
        self._high_edge = metadata["high_edge_id"]
        # intern the token tables once at open: every decoded record
        # resolves its key/type/label tokens to these exact string
        # objects, so equality checks on the hot path are pointer
        # comparisons and repeated decodes share one string each
        self._key_tokens: list[str] = [
            sys.intern(token) for token in metadata["key_tokens"]]
        self._type_tokens: list[str] = [
            sys.intern(token) for token in metadata["type_tokens"]]
        self._label_tokens: list[str] = [
            sys.intern(token) for token in metadata["label_tokens"]]
        self._labelsets = [
            frozenset(self._label_tokens[token] for token in row)
            for row in metadata["labelsets"]]
        self._type_token_by_name = {
            name: token for token, name in enumerate(self._type_tokens)}
        #: boundary replicas owned by another shard (empty for a
        #: normal store); live records excluded from indexes/counts
        self.ghost_nodes: frozenset[int] = frozenset(
            metadata.get("ghost_nodes", ()))

        def paged(name: str) -> PagedFile:
            return PagedFile(os.path.join(directory, name), page_cache)

        self._nodes = paged(NODE_FILE)
        self._rels = paged(REL_FILE)
        self._adj = paged(ADJ_FILE)
        self._props = paged(PROP_FILE)
        self._strings = paged(STRING_FILE)
        with open(os.path.join(directory, STRING_OFFSETS_FILE),
                  "rb") as handle:
            raw = handle.read()
        self._string_offsets = struct.unpack(f"<{len(raw) // 8}Q", raw)
        with open(os.path.join(directory, INDEX_DICT_FILE),
                  encoding="utf-8") as handle:
            dictionary = json.load(handle)
        self._indexes = StoreIndexes(dictionary, paged(INDEX_POSTINGS_FILE),
                                     self._node_count)
        # compiled read structures (format 3): per-(direction, type)
        # CSR adjacency segments, checked by GraphStore.open, and the
        # string dictionary page.  Only compact_store opens a store
        # with no descriptor here: its CSR set aside, typed and
        # neighbour reads raise
        self._csr_reader: csr_mod.CsrReader | None = None
        self._csr_payload_file: PagedFile | None = None
        self._csr_offsets_file: PagedFile | None = None
        csr_descriptor = metadata.get("csr")
        if csr_descriptor is not None:
            self._csr_payload_file = paged(CSR_FILE)
            self._csr_offsets_file = paged(CSR_OFFSETS_FILE)
            self._csr_reader = csr_mod.CsrReader(
                self._csr_payload_file, self._csr_offsets_file,
                csr_descriptor, self._high_node, self._high_edge)
        self._dict_file: PagedFile | None = None
        self._dict_buffer: Any = None
        self._dict_values: list[str | None] | None = None
        self._dictionary_count = int(metadata.get("dictionary_count", 0))
        if os.path.exists(os.path.join(directory, DICT_FILE)):
            self._dict_file = paged(DICT_FILE)
        # decoded-object caches, bounded so a scan of a store larger
        # than memory cannot pin every decoded record at once
        capacity = record_cache_capacity
        self._node_cache: dict[int, tuple[bool, int, int, int, int]] = \
            _FIFOCache(capacity)
        self._rel_cache: dict[int, tuple[bool, int, int, int, int]] = \
            _FIFOCache(capacity)
        self._adj_cache: dict[int, tuple[Any, Any]] = _FIFOCache(capacity)
        self._node_prop_cache: dict[int, dict[str, Any]] = \
            _FIFOCache(capacity)
        self._edge_prop_cache: dict[int, dict[str, Any]] = \
            _FIFOCache(capacity)
        # resolved adjacency read so far, keyed (node, direction,
        # types, part): neighbour ids, edge ids, (edge, neighbour)
        # pairs — each cached when first asked for.  On a compiled
        # store the two columns are the CSR runs as stored (u32
        # views, nothing decoded) — what the cache saves a warm query
        # is the page-cache round trip per run, which measured 3.6 us
        # against 0.7 us for the hit (CHANGES, PR 15)
        self._neighbor_cache: dict[
            tuple[int, Any, tuple[str, ...] | None, int],
            Collection[Any]] = _FIFOCache(capacity)
        # planner statistics: exact counts when the writer recorded
        # them, estimates (uniform edge-type split) for older stores.
        label_counts = metadata.get("label_counts")
        if label_counts is None:
            label_counts = {label: self._indexes.label_count(label)
                            for label in self._indexes.labels()}
        edge_type_counts = metadata.get("edge_type_counts")
        if edge_type_counts is None and self._type_tokens:
            uniform = self._edge_count / len(self._type_tokens)
            edge_type_counts = {name: int(uniform)
                                for name in self._type_tokens}
        self.statistics = GraphStatistics.from_counts(
            self._node_count, self._edge_count,
            label_counts, edge_type_counts)
        # degree summaries fall out of the CSR segment descriptors for
        # free
        if csr_descriptor is not None:
            for entry in csr_descriptor["segments"]:
                try:
                    self.statistics.set_degree_stats(
                        "out" if entry["direction"] == csr_mod.OUT
                        else "in",
                        self._type_tokens[entry["token"]],
                        entry["edges"], entry["max_degree"],
                        entry["degree_hist"])
                except (KeyError, TypeError, IndexError):
                    continue
        self.attach_metrics(page_cache.metrics)

    def attach_metrics(self, registry: Any) -> None:
        """(Re)bind the whole read path — page cache, index reader and
        the decoded-object caches — to one metrics registry, so a
        single snapshot covers every layer (``Frappe.counters()``)."""
        self.metrics = registry
        self.page_cache.attach_metrics(registry)
        self._indexes.attach_metrics(registry)
        self._object_hit_counter = registry.counter(
            "store.object_cache.hits")
        self._fault_counter = registry.counter("store.record_faults")

    # -- cache control ----------------------------------------------------------

    def evict_caches(self) -> None:
        """Drop pages and decoded objects: the next access is cold."""
        self.page_cache.clear()
        self._node_cache.clear()
        self._rel_cache.clear()
        self._adj_cache.clear()
        self._node_prop_cache.clear()
        self._edge_prop_cache.clear()
        self._neighbor_cache.clear()
        # compiled-layer caches: memoized index universe, CSR offset
        # views, decoded dictionary entries
        self._indexes.evict_caches()
        if self._csr_reader is not None:
            self._csr_reader.evict()
        self._dict_buffer = None
        self._dict_values = None

    def close(self) -> None:
        """Release every underlying file; safe to call twice."""
        # views into the mappings go first, so the mappings can close
        self._neighbor_cache.clear()
        if self._csr_reader is not None:
            self._csr_reader.evict()
        self._dict_buffer = None
        self._dict_values = None
        for paged_file in (self._nodes, self._rels, self._adj,
                           self._props, self._strings,
                           self._csr_payload_file,
                           self._csr_offsets_file, self._dict_file):
            if paged_file is not None:
                paged_file.close()
        self._indexes.close()

    def __enter__(self) -> "StoreGraph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- GraphView: population ----------------------------------------------------

    def node_ids(self) -> Iterable[int]:
        for node_id in range(self._high_node):
            if self._node_record(node_id)[0]:
                yield node_id

    def edge_ids(self) -> Iterable[int]:
        for edge_id in range(self._high_edge):
            if self._rel_record(edge_id)[0]:
                yield edge_id

    def node_count(self) -> int:
        return self._node_count

    def edge_count(self) -> int:
        return self._edge_count

    def has_node(self, node_id: int) -> bool:
        if not 0 <= node_id < self._high_node:
            return False
        return self._node_record(node_id)[0]

    def has_edge(self, edge_id: int) -> bool:
        if not 0 <= edge_id < self._high_edge:
            return False
        return self._rel_record(edge_id)[0]

    # -- GraphView: nodes -----------------------------------------------------------

    def node_labels(self, node_id: int) -> frozenset[str]:
        record = self._live_node(node_id)
        return self._labelsets[record[1]]

    def labels_of(self, node_ids: Collection[int],
                  ) -> list[frozenset[str]]:
        """Bulk :meth:`node_labels` over the node-record cache: one
        dict probe per node and a single counter update per run,
        instead of the three-deep call chain per node. Used by the
        batch executor's label-filtering expansion kernel."""
        cache = self._node_cache
        labelsets = self._labelsets
        out = []
        hits = 0
        for node_id in node_ids:
            record = cache.get(node_id)
            if record is None:
                record = self._live_node(node_id)  # counts its fault
            else:
                hits += 1
                if not record[0]:
                    raise NodeNotFoundError(node_id)
            out.append(labelsets[record[1]])
        if hits:
            self._object_hit_counter.inc(hits)
        return out

    def node_properties(self, node_id: int) -> dict[str, Any]:
        cached = self._node_prop_cache.get(node_id)
        if cached is None:
            self._fault_counter.inc()
            record = self._live_node(node_id)
            cached = self._read_props(self._props, record[2])
            self._node_prop_cache[node_id] = cached
        else:
            self._object_hit_counter.inc()
        return dict(cached)

    def node_property(self, node_id: int, key: str,
                      default: Any = None) -> Any:
        cached = self._node_prop_cache.get(node_id)
        if cached is None:
            self._fault_counter.inc()
            record = self._live_node(node_id)
            cached = self._read_props(self._props, record[2])
            self._node_prop_cache[node_id] = cached
        else:
            self._object_hit_counter.inc()
        return cached.get(key, default)

    def nodes_with_label(self, label: str) -> Iterator[int]:
        return self._indexes.label(label)

    # -- GraphView: edges -------------------------------------------------------------

    def edge_source(self, edge_id: int) -> int:
        return self._live_rel(edge_id)[2]

    def edge_target(self, edge_id: int) -> int:
        return self._live_rel(edge_id)[3]

    def edge_type(self, edge_id: int) -> str:
        return self._type_tokens[self._live_rel(edge_id)[1]]

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        cached = self._edge_prop_cache.get(edge_id)
        if cached is None:
            self._fault_counter.inc()
            record = self._live_rel(edge_id)
            cached = self._read_props(self._props, record[4])
            self._edge_prop_cache[edge_id] = cached
        else:
            self._object_hit_counter.inc()
        return dict(cached)

    def edge_property(self, edge_id: int, key: str,
                      default: Any = None) -> Any:
        cached = self._edge_prop_cache.get(edge_id)
        if cached is None:
            self._fault_counter.inc()
            record = self._live_rel(edge_id)
            cached = self._read_props(self._props, record[4])
            self._edge_prop_cache[edge_id] = cached
        else:
            self._object_hit_counter.inc()
        return cached.get(key, default)

    # -- GraphView: adjacency ------------------------------------------------------------

    def _wanted_tokens(self, types: Collection[str] | None,
                       ) -> list[int] | None:
        """Tokens of the edge types in *types* this store knows,
        ascending (None = no type filter)."""
        if types is None:
            return None
        tokens = self._type_token_by_name
        wanted = [tokens[name] for name in types if name in tokens]
        return sorted(set(wanted)) if len(wanted) > 1 else wanted

    def _csr_read(self, read: Callable[..., Any], node_id: int,
                  direction: Direction,
                  types: Collection[str] | None) -> Any:
        """What *read* (a :class:`CsrReader` method) finds for
        *node_id*, in ``edges_of`` group order: out then in, tokens
        ascending."""
        reader = self._csr_reader
        if reader is None:
            raise StoreFormatError(
                f"store {self.directory!r} is open for compaction with "
                "its compiled CSR set aside: typed and neighbour "
                "adjacency read that CSR")
        self._fault_counter.inc()
        found = read(reader, node_id, _CSR_DIRECTIONS[direction],
                     self._wanted_tokens(types))
        if not found:
            self._live_node(node_id)  # dead ids must still raise
        return found

    def edges_of(self, node_id: int,
                 direction: Direction = Direction.BOTH,
                 types: Collection[str] | None = None) -> Iterator[int]:
        if types is not None:
            # typed scan: only the edge-id column of the wanted
            # (direction, type) CSR runs is read — the full adjacency
            # block is never assembled
            yield from self._cached_adjacency(node_id, direction, types,
                                             _EDGE_IDS)
            return
        out_groups, in_groups = self._adjacency(node_id)
        wanted = self._wanted_tokens(types)
        if direction in (Direction.OUT, Direction.BOTH):
            for token, edge_ids in out_groups:
                if wanted is None or token in wanted:
                    yield from edge_ids
        if direction in (Direction.IN, Direction.BOTH):
            for token, edge_ids in in_groups:
                if wanted is None or token in wanted:
                    yield from edge_ids

    def degree(self, node_id: int,
               direction: Direction = Direction.BOTH,
               types: Collection[str] | None = None) -> int:
        if types is not None:
            # a difference of two offsets per run: no csr.db page
            return self._csr_read(csr_mod.CsrReader.degree, node_id,
                                  direction, types)
        out_groups, in_groups = self._adjacency(node_id)
        wanted = self._wanted_tokens(types)
        total = 0
        if direction in (Direction.OUT, Direction.BOTH):
            total += sum(len(edge_ids) for token, edge_ids in out_groups
                         if wanted is None or token in wanted)
        if direction in (Direction.IN, Direction.BOTH):
            total += sum(len(edge_ids) for token, edge_ids in in_groups
                         if wanted is None or token in wanted)
        return total

    def _cached_adjacency(self, node_id: int, direction: Direction,
                          types: Collection[str] | None,
                          part: int) -> Any:
        """*node_id*'s neighbour ids, edge ids or ``(edge, neighbour)``
        pairs (*part*) in ``edges_of`` order — from the cache when an
        earlier call read them: the store is immutable once open, so
        nothing cached goes stale.

        Only the CSR column asked for is read, and kept as stored (a
        single run is the ``u32`` view itself); pairs are a zip of the
        two columns."""
        if types is not None and not isinstance(types, tuple):
            types = tuple(types)
        cache = self._neighbor_cache
        key = (node_id, direction, types, part)
        found = cache.get(key)
        if found is not None:
            self._object_hit_counter.inc()
            return found
        if part == _PAIRS:
            found = list(zip(
                self._cached_adjacency(node_id, direction, types,
                                       _EDGE_IDS),
                self._cached_adjacency(node_id, direction, types,
                                       _NEIGHBOURS)))
        else:
            runs = self._csr_read(
                csr_mod.CsrReader.edge_ids if part == _EDGE_IDS
                else csr_mod.CsrReader.neighbor_ids,
                node_id, direction, types)
            found = runs[0] if len(runs) == 1 else \
                [value for run in runs for value in run]
        cache[key] = found
        return found

    def neighbors_of(self, node_id: int,
                     direction: Direction = Direction.BOTH,
                     types: Collection[str] | None = None,
                     ) -> list[tuple[int, int]]:
        """Resolved ``(edge_id, other_end)`` adjacency, in ``edges_of``
        order, cached across queries.

        Logical-access accounting (db-hits) stays with the caller —
        the executor charges per query, cached or not — while the
        object-cache counters here keep reflecting physical reads."""
        return self._cached_adjacency(node_id, direction, types, _PAIRS)

    def neighbor_ids_of(self, node_id: int,
                        direction: Direction = Direction.BOTH,
                        types: Collection[str] | None = None,
                        ) -> Collection[int]:
        """The neighbours of :meth:`neighbors_of` without the edges —
        what a closure reads; the edge-id column is not touched."""
        return self._cached_adjacency(node_id, direction, types,
                                     _NEIGHBOURS)

    @property
    def indexes(self) -> StoreIndexes:
        return self._indexes

    def __repr__(self) -> str:
        return (f"StoreGraph({self.directory!r}, nodes={self._node_count}, "
                f"edges={self._edge_count})")

    # -- internals -------------------------------------------------------------------

    def _node_record(self, node_id: int) -> tuple[bool, int, int, int, int]:
        cached = self._node_cache.get(node_id)
        if cached is None:
            self._fault_counter.inc()
            raw = self._nodes.read(node_id * records.NODE_RECORD_SIZE,
                                   records.NODE_RECORD_SIZE)
            cached = records.decode_node(raw)
            self._node_cache[node_id] = cached
        else:
            self._object_hit_counter.inc()
        return cached

    def _rel_record(self, edge_id: int) -> tuple[bool, int, int, int, int]:
        cached = self._rel_cache.get(edge_id)
        if cached is None:
            self._fault_counter.inc()
            raw = self._rels.read(edge_id * records.REL_RECORD_SIZE,
                                  records.REL_RECORD_SIZE)
            cached = records.decode_rel(raw)
            self._rel_cache[edge_id] = cached
        else:
            self._object_hit_counter.inc()
        return cached

    def _live_node(self, node_id: int) -> tuple[bool, int, int, int, int]:
        if not 0 <= node_id < self._high_node:
            raise NodeNotFoundError(node_id)
        record = self._node_record(node_id)
        if not record[0]:
            raise NodeNotFoundError(node_id)
        return record

    def _live_rel(self, edge_id: int) -> tuple[bool, int, int, int, int]:
        if not 0 <= edge_id < self._high_edge:
            raise EdgeNotFoundError(edge_id)
        record = self._rel_record(edge_id)
        if not record[0]:
            raise EdgeNotFoundError(edge_id)
        return record

    def _adjacency(self, node_id: int) -> tuple[Any, Any]:
        cached = self._adj_cache.get(node_id)
        if cached is None:
            self._fault_counter.inc()
            cached = self._decode_adjacency_groups(node_id)
            self._adj_cache[node_id] = cached
        else:
            self._object_hit_counter.inc()
        return cached

    def _decode_adjacency_groups(self, node_id: int) -> tuple[Any, Any]:
        """Physically materialize one node's (out, in) edge groups.

        Always the adjacency block — one contiguous decode is cheaper
        than probing every (direction, type) CSR segment, so untyped
        edge-id and degree requests stay on it.  The compiled CSR
        serves the typed and neighbour reads, where reading only the
        wanted runs wins.
        """
        record = self._live_node(node_id)
        block = self._adj.read(record[3], record[4])
        return records.decode_adjacency(block)

    def _read_props(self, paged: PagedFile, offset: int) -> dict[str, Any]:
        if offset == records.NO_OFFSET:
            return {}
        if offset < 0 or offset + 2 > paged.size:
            raise StoreCorruptionError(
                "truncated property block header", file=paged.path,
                offset=offset)
        count = records.decode_property_block_header(
            paged.read(offset, 2))
        block_size = records.property_block_size(count)
        if offset + block_size > paged.size:
            raise StoreCorruptionError(
                f"property block of {count} entries overruns the file "
                f"(needs {offset + block_size - paged.size} more bytes)",
                file=paged.path, offset=offset)
        block = paged.read(offset, block_size)
        properties = {}
        for key_token, tag, payload in records.decode_property_entries(
                block, count):
            properties[self._key_tokens[key_token]] = \
                self._decode_value(tag, payload)
        return properties

    def _decode_value(self, tag: int, payload: int) -> Any:
        if tag == records.TAG_INT:
            return records.unpack_int(payload)
        if tag == records.TAG_FLOAT:
            return records.unpack_float(payload)
        if tag == records.TAG_BOOL:
            return bool(payload)
        if tag == records.TAG_STRING:
            # str(buffer, encoding) accepts both bytes and the mmap
            # page cache's zero-copy memoryview slices
            return str(self._read_string(payload), "utf-8")
        if tag == records.TAG_LIST:
            return records.decode_list_blob(self._read_string(payload))
        if tag == records.TAG_BIGINT:
            return int(str(self._read_string(payload), "ascii"))
        if tag == records.TAG_DICT_STRING:
            return self._dict_value(payload)
        raise StoreFormatError(f"unknown property tag {tag}")

    def _dict_value(self, dict_id: int) -> str:
        """Resolve a dictionary id to its interned string.

        The dictionary page is primary data (records carrying
        ``TAG_DICT_STRING`` have no other copy of the value), so a
        missing or short file is corruption, not a fallback case.
        Entries decode lazily — one slice off the (mmap'd) page — and
        intern so repeated decodes share one string object, exactly
        like the token tables.
        """
        values = self._dict_values
        if values is None:
            if self._dict_file is None:
                raise StoreCorruptionError(
                    "record references the string dictionary but "
                    f"{DICT_FILE} is missing",
                    file=os.path.join(self.directory, DICT_FILE))
            buffer = self._dict_file.read(0, self._dict_file.size)
            try:
                count = records.decode_dictionary_count(buffer)
            except StoreFormatError as error:
                raise StoreCorruptionError(
                    str(error), file=self._dict_file.path) from error
            values = self._dict_values = [None] * count
            self._dict_buffer = buffer
        if not 0 <= dict_id < len(values):
            raise StoreCorruptionError(
                f"dictionary id {dict_id} out of range "
                f"(dictionary has {len(values)} entries)",
                file=self._dict_file.path if self._dict_file else None)
        value = values[dict_id]
        if value is None:
            try:
                value = sys.intern(records.decode_dictionary_entry(
                    self._dict_buffer, dict_id))
            except StoreFormatError as error:
                raise StoreCorruptionError(
                    str(error), file=self._dict_file.path) from error
            values[dict_id] = value
        return value

    def _read_string(self, string_id: int) -> "bytes | memoryview":
        if not 0 <= string_id < len(self._string_offsets):
            raise StoreFormatError(f"bad string id {string_id}")
        offset = self._string_offsets[string_id]
        header = self._strings.read(offset, 4)
        length = records.decode_string_run_length(header)
        if not length:
            return b""
        return self._strings.read(offset + 4, length)
