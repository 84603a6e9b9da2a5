"""Subtree sharding of an immutable store.

``split_store`` partitions one store directory into N per-subtree
shard stores under a *shard root*::

    <root>/shard_manifest.json     sharding metadata + source stats
    <root>/shard-000/ ...          ordinary graph store directories
    <root>/boundary-000.json ...   per-shard boundary-edge tables

The shard key is the kernel's natural one — the top-level directory
subtree (``drivers/``, ``fs/``, ...): every node is owned by exactly
one shard, assigned by a first-wins containment walk from each
top-level directory and greedy bin packing of the subtrees. Nodes that
belong to no subtree (primitives, modules, the root directories — the
graph's reference hubs) ride on shard 0.

Global node/edge record ids are preserved: a shard store encodes the
unowned id range as holes, so any row a shard produces is bit-for-bit
the row the unsharded store would produce. Two replication mechanisms
keep shard-local execution honest:

* **Ghost nodes** — every boundary neighbor (a node of another shard
  touching an edge this shard holds) is written into the shard with
  its real labels and properties, but excluded from the shard's
  indexes and counts (see :meth:`GraphStore.write`'s ``ghost_nodes``).
  One-hop expansions therefore resolve locally, while label scans and
  index seeks return only owned nodes — scattered partial results are
  disjoint by construction.
* **Boundary-edge tables** — every edge whose endpoints live in
  different shards is recorded in *both* shards' tables with its
  owner-shard tag, so the scatter/gather router and ``fsck`` can
  reason about the cut without opening other shards.

``ShardedStore`` reassembles the shards into one composite
:class:`~repro.graphdb.view.GraphView` that is indistinguishable from
the source store (same ids, same iteration orders, same statistics),
which is what makes the router's gateway path provably
result-identical. ``frontier_exchange`` is the level-synchronous BFS
primitive for var-length traversals that cross shard boundaries.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import re
import zlib
from collections import deque
from typing import Any, Collection, Iterable, Iterator

from repro.core import model
from repro.errors import StoreError, StoreFormatError
from repro.graphdb import luceneql
from repro.graphdb.stats import GraphStatistics
from repro.graphdb.storage.pagecache import PageCache
from repro.graphdb.storage.store import (CLEAN, CORRUPT, METADATA_FILE,
                                         REPAIRABLE, GraphStore,
                                         StoreGraph, StoreProblem,
                                         StoreVerification, compact_store)
from repro.graphdb.view import Direction, GraphView

SHARD_MAGIC = "frappe-shard-root"
SHARD_MANIFEST_FILE = "shard_manifest.json"
SHARD_FORMAT_VERSION = 1

#: containment edge types that define subtree membership; parameters
#: and locals are only reachable through their function, so the walk
#: keeps whole functions (the unit Table 5 queries traverse) intact
CONTAINMENT_TYPES = (model.DIR_CONTAINS, model.FILE_CONTAINS,
                     model.CONTAINS, model.HAS_PARAM, model.HAS_LOCAL)


def shard_directory_name(shard: int) -> str:
    return f"shard-{shard:03d}"


def boundary_file_name(shard: int) -> str:
    return f"boundary-{shard:03d}.json"


# --------------------------------------------------------------------------
# Subtree assignment
# --------------------------------------------------------------------------

@dataclasses.dataclass
class SubtreeAssignment:
    """The partitioning decision: node -> shard, plus provenance."""

    shard_count: int
    owner: dict[int, int]
    #: per shard, the short names of the subtree roots it carries
    #: (the router's path-prefix pruning statistics)
    path_prefixes: list[list[str]]


def assign_subtrees(view: GraphView, shard_count: int) -> SubtreeAssignment:
    """Partition every node of *view* across ``shard_count`` shards.

    Deterministic for a given graph: subtrees are claimed first-wins
    in ascending root-id order, then greedily bin-packed (largest
    first, ties by root id, onto the least-loaded shard). Residual
    nodes — anything no top-level subtree contains — go to shard 0,
    which the packing pre-loads so the result stays balanced.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    directories = set()
    for node_id in view.node_ids():
        if model.DIRECTORY in view.node_labels(node_id):
            directories.add(node_id)
    roots = []
    for node_id in sorted(directories):
        has_parent_dir = any(
            view.edge_source(edge) in directories
            for edge in view.edges_of(node_id, Direction.IN,
                                      (model.DIR_CONTAINS,)))
        if not has_parent_dir:
            roots.append(node_id)
    subtree_roots: list[int] = []
    for root in roots:
        for edge in view.edges_of(root, Direction.OUT,
                                  (model.DIR_CONTAINS,)):
            child = view.edge_target(edge)
            if child in directories:
                subtree_roots.append(child)
    subtree_roots = sorted(set(subtree_roots))

    claimed: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for subtree in subtree_roots:
        if subtree in claimed:
            members[subtree] = []
            continue
        claimed[subtree] = subtree
        found = [subtree]
        queue = deque((subtree,))
        while queue:
            node = queue.popleft()
            for edge in view.edges_of(node, Direction.OUT,
                                      CONTAINMENT_TYPES):
                child = view.edge_target(edge)
                if child not in claimed:
                    claimed[child] = subtree
                    found.append(child)
                    queue.append(child)
        members[subtree] = found

    residual = [node_id for node_id in view.node_ids()
                if node_id not in claimed]

    # greedy bin packing: shard 0 starts pre-loaded with the residual
    loads = [0] * shard_count
    loads[0] = len(residual)
    owner: dict[int, int] = {node_id: 0 for node_id in residual}
    prefixes: list[list[str]] = [[] for _ in range(shard_count)]
    ordered = sorted(subtree_roots,
                     key=lambda root: (-len(members[root]), root))
    for root in ordered:
        shard = min(range(shard_count), key=lambda index: loads[index])
        loads[shard] += len(members[root])
        for node_id in members[root]:
            owner[node_id] = shard
        name = view.node_property(root, model.P_SHORT_NAME)
        if name is not None and members[root]:
            prefixes[shard].append(str(name))
    return SubtreeAssignment(shard_count, owner,
                             [sorted(names) for names in prefixes])


# --------------------------------------------------------------------------
# The restricted write view
# --------------------------------------------------------------------------

class _AutoKeysShim:
    """Just enough of an index reader for :meth:`GraphStore.write`."""

    def __init__(self, auto_index_keys: tuple[str, ...]) -> None:
        self.auto_index_keys = auto_index_keys


class ShardView:
    """A :class:`GraphView` over one shard's slice of the source store.

    Nodes are the shard's owned nodes plus its ghost replicas; edges
    are every edge with at least one owned endpoint. All reads
    delegate to the source store, and ``edges_of`` filters the
    source's adjacency *in source order*, so the shard writer
    serializes the exact groups the source store would iterate.
    """

    def __init__(self, source: GraphView, node_ids: Collection[int],
                 edge_ids: Collection[int],
                 auto_index_keys: tuple[str, ...]) -> None:
        self._source = source
        self._node_ids = sorted(node_ids)
        self._node_set = frozenset(node_ids)
        self._edge_ids = sorted(edge_ids)
        self._edge_set = frozenset(edge_ids)
        self.indexes = _AutoKeysShim(auto_index_keys)

    def node_ids(self) -> list[int]:
        return self._node_ids

    def edge_ids(self) -> list[int]:
        return self._edge_ids

    def node_count(self) -> int:
        return len(self._node_ids)

    def edge_count(self) -> int:
        return len(self._edge_ids)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._node_set

    def has_edge(self, edge_id: int) -> bool:
        return edge_id in self._edge_set

    def node_labels(self, node_id: int) -> frozenset[str]:
        return self._source.node_labels(node_id)

    def node_properties(self, node_id: int) -> dict[str, Any]:
        return self._source.node_properties(node_id)

    def node_property(self, node_id: int, key: str,
                      default: Any = None) -> Any:
        return self._source.node_property(node_id, key, default)

    def edge_source(self, edge_id: int) -> int:
        return self._source.edge_source(edge_id)

    def edge_target(self, edge_id: int) -> int:
        return self._source.edge_target(edge_id)

    def edge_type(self, edge_id: int) -> str:
        return self._source.edge_type(edge_id)

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        return self._source.edge_properties(edge_id)

    def edges_of(self, node_id: int,
                 direction: Direction = Direction.BOTH,
                 types: Collection[str] | None = None) -> Iterator[int]:
        for edge_id in self._source.edges_of(node_id, direction, types):
            if edge_id in self._edge_set:
                yield edge_id


# --------------------------------------------------------------------------
# The splitter
# --------------------------------------------------------------------------

def split_store(source_dir: str, out_dir: str, shards: int, *,
                by: str = "subtree") -> dict[str, Any]:
    """Split a store directory into a shard root; returns the manifest.

    Only ``by="subtree"`` is implemented (the CLI's ``--by-subtree``).
    The source store is untouched; shard stores are written with the
    source's token vocabulary pre-seeded so adjacency iteration order
    matches the source byte for byte.
    """
    if by != "subtree":
        raise ValueError(f"unknown shard strategy {by!r}")
    if shards < 1:
        raise ValueError("need at least one shard")
    with open(os.path.join(source_dir, METADATA_FILE),
              encoding="utf-8") as handle:
        source_metadata = json.load(handle)
    vocabulary = {
        "key_tokens": source_metadata.get("key_tokens", []),
        "type_tokens": source_metadata.get("type_tokens", []),
        "label_tokens": source_metadata.get("label_tokens", []),
    }
    source = GraphStore.open(source_dir)
    try:
        assignment = assign_subtrees(source, shards)
        owner = assignment.owner
        auto_keys = tuple(source.indexes.auto_index_keys)

        shard_edges: list[set[int]] = [set() for _ in range(shards)]
        boundary: list[list[list[int]]] = [[] for _ in range(shards)]
        for edge_id in source.edge_ids():
            source_node = source.edge_source(edge_id)
            target_node = source.edge_target(edge_id)
            source_shard = owner[source_node]
            target_shard = owner[target_node]
            shard_edges[source_shard].add(edge_id)
            shard_edges[target_shard].add(edge_id)
            if source_shard != target_shard:
                row = [edge_id, source_node, target_node,
                       source_shard, target_shard]
                boundary[source_shard].append(row)
                boundary[target_shard].append(row)

        os.makedirs(out_dir, exist_ok=True)
        manifest_shards: list[dict[str, Any]] = []
        for shard in range(shards):
            owned = {node_id for node_id, node_shard in owner.items()
                     if node_shard == shard}
            ghosts: set[int] = set()
            for edge_id in shard_edges[shard]:
                for endpoint in (source.edge_source(edge_id),
                                 source.edge_target(edge_id)):
                    if endpoint not in owned:
                        ghosts.add(endpoint)
            view = ShardView(source, owned | ghosts, shard_edges[shard],
                             auto_keys)
            directory = os.path.join(out_dir, shard_directory_name(shard))
            GraphStore.write(view, directory, ghost_nodes=ghosts,
                             vocabulary=vocabulary)

            table = {"version": SHARD_FORMAT_VERSION, "shard": shard,
                     "edges": sorted(boundary[shard])}
            table_bytes = json.dumps(table).encode("utf-8")
            boundary_path = os.path.join(out_dir,
                                         boundary_file_name(shard))
            with open(boundary_path, "wb") as handle:
                handle.write(table_bytes)
            with open(os.path.join(directory, METADATA_FILE),
                      encoding="utf-8") as handle:
                shard_metadata = json.load(handle)
            manifest_shards.append({
                "directory": shard_directory_name(shard),
                "nodes": shard_metadata["node_count"],
                "edges": shard_metadata["edge_count"],
                "ghosts": len(ghosts),
                "label_counts": shard_metadata.get("label_counts", {}),
                "path_prefixes": assignment.path_prefixes[shard],
                "boundary_file": boundary_file_name(shard),
                "boundary_crc32": zlib.crc32(table_bytes) & 0xFFFFFFFF,
                "boundary_edges": len(boundary[shard]),
            })

        manifest = {
            "magic": SHARD_MAGIC,
            "version": SHARD_FORMAT_VERSION,
            "strategy": by,
            "shard_count": shards,
            "source": {
                "node_count": source_metadata["node_count"],
                "edge_count": source_metadata["edge_count"],
                "label_counts": source_metadata.get("label_counts", {}),
                "edge_type_counts":
                    source_metadata.get("edge_type_counts", {}),
                "auto_index_keys": list(auto_keys),
            },
            "shards": manifest_shards,
        }
        with open(os.path.join(out_dir, SHARD_MANIFEST_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle)
        return manifest
    finally:
        source.close()


def is_shard_root(directory: str) -> bool:
    """Does *directory* look like a shard root (vs a plain store)?"""
    return os.path.exists(os.path.join(directory, SHARD_MANIFEST_FILE))


def load_shard_manifest(directory: str) -> dict[str, Any]:
    path = os.path.join(directory, SHARD_MANIFEST_FILE)
    if not os.path.exists(path):
        raise StoreError(f"not a shard root: {directory!r}")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("magic") != SHARD_MAGIC:
        raise StoreFormatError(f"bad magic in {path!r}")
    if manifest.get("version") != SHARD_FORMAT_VERSION:
        raise StoreFormatError(
            f"shard root version {manifest.get('version')!r} "
            f"unsupported (expected {SHARD_FORMAT_VERSION})")
    return manifest


def verify_shard_root(directory: str) -> StoreVerification:
    """``frappe fsck`` for a shard root.

    Verifies every shard store plus the boundary tables. Boundary
    damage is classified under its own ``boundary`` category and — like
    index damage — is *repairable*: the tables are derivable from the
    shard stores' relationship records.
    """
    problems: list[StoreProblem] = []
    try:
        manifest = load_shard_manifest(directory)
    except (StoreError, OSError, ValueError) as error:
        problems.append(StoreProblem(SHARD_MANIFEST_FILE, "metadata",
                                     f"unreadable: {error}"))
        return StoreVerification(directory, CORRUPT, problems)
    files: dict[str, dict[str, Any]] = {}
    for entry in manifest.get("shards", ()):
        shard_dir = entry.get("directory", "")
        verification = GraphStore.verify(
            os.path.join(directory, shard_dir))
        for problem in verification.problems:
            problems.append(StoreProblem(
                f"{shard_dir}/{problem.file}", problem.category,
                problem.message, offset=problem.offset))
        for name, report in verification.files.items():
            files[f"{shard_dir}/{name}"] = report
        boundary_name = entry.get("boundary_file", "")
        boundary_path = os.path.join(directory, boundary_name)
        if not os.path.exists(boundary_path):
            problems.append(StoreProblem(boundary_name, "boundary",
                                         "boundary table missing"))
            continue
        with open(boundary_path, "rb") as handle:
            raw = handle.read()
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        if crc != entry.get("boundary_crc32"):
            problems.append(StoreProblem(
                boundary_name, "boundary",
                f"CRC32 {crc} != manifest {entry.get('boundary_crc32')}"))
            continue
        try:
            table = json.loads(raw)
            edges = table["edges"]
            if not isinstance(edges, list):
                raise ValueError("edges is not a list")
        except (ValueError, KeyError, TypeError) as error:
            problems.append(StoreProblem(
                boundary_name, "boundary", f"unparseable: {error}"))
            continue
        if len(edges) != entry.get("boundary_edges"):
            problems.append(StoreProblem(
                boundary_name, "boundary",
                f"{len(edges)} edges != manifest "
                f"{entry.get('boundary_edges')}"))
    if not problems:
        status = CLEAN
    elif {p.category for p in problems} <= {"indexes", "boundary", "csr"}:
        status = REPAIRABLE
    else:
        status = CORRUPT
    return StoreVerification(directory, status, problems, files)


def compact_shard_root(directory: str) -> dict[str, dict[str, int]]:
    """Compact every shard store of a shard root in place.

    Each shard is rewritten through :func:`compact_store` (per-shard
    compiled CSR and dictionary pages, boundary-aware: ghost replicas
    and the pre-seeded vocabulary survive, so post-compaction shard
    results remain bit-identical to the source store's).  Boundary
    tables and the root manifest are untouched — record ids do not
    change.  Returns per-shard size breakdowns keyed by shard
    directory name.
    """
    manifest = load_shard_manifest(directory)
    breakdowns: dict[str, dict[str, int]] = {}
    for entry in manifest.get("shards", ()):
        shard_dir = entry.get("directory", "")
        breakdowns[shard_dir] = compact_store(
            os.path.join(directory, shard_dir))
    return breakdowns


# --------------------------------------------------------------------------
# The composite read view
# --------------------------------------------------------------------------

class ShardedIndexes:
    """Index reader over all shards' disjoint per-shard indexes.

    Ghost replicas are excluded from every shard's postings, so the
    per-shard lists partition the source store's: a k-way sorted merge
    reproduces the single-store posting order exactly.
    """

    def __init__(self, shards: list[StoreGraph],
                 auto_index_keys: tuple[str, ...]) -> None:
        self._shards = shards
        self.auto_index_keys = auto_index_keys
        self._lookup_counter = None

    def attach_metrics(self, registry: Any) -> None:
        self._lookup_counter = registry.counter("index.lookups")
        for shard in self._shards:
            shard.indexes.attach_metrics(registry)

    def close(self) -> None:
        for shard in self._shards:
            shard.indexes.close()

    def _count(self) -> None:
        if self._lookup_counter is not None:
            self._lookup_counter.inc()

    def lookup(self, key: str, value: Any) -> Iterator[int]:
        self._count()
        return heapq.merge(*(shard.indexes.lookup(key, value)
                             for shard in self._shards))

    def query(self, query_string: str) -> Iterator[int]:
        self._count()
        ast = luceneql.parse_query(query_string)
        return iter(sorted(luceneql.evaluate(ast, self)))

    def label(self, label: str) -> Iterator[int]:
        self._count()
        return heapq.merge(*(shard.indexes.label(label)
                             for shard in self._shards))

    def label_count(self, label: str) -> int:
        return sum(shard.indexes.label_count(label)
                   for shard in self._shards)

    def seek_count(self, key: str, value: Any) -> int:
        return sum(shard.indexes.seek_count(key, value)
                   for shard in self._shards)

    def labels(self) -> Iterator[str]:
        names: set[str] = set()
        for shard in self._shards:
            names.update(shard.indexes.labels())
        return iter(sorted(names))

    # -- luceneql.TermSource -------------------------------------------

    def all_ids(self) -> set[int]:
        ids: set[int] = set()
        for shard in self._shards:
            ids.update(shard.indexes.all_ids())
        return ids

    def terms(self, field: str) -> Iterable[str]:
        names: set[str] = set()
        for shard in self._shards:
            names.update(shard.indexes.terms(field))
        return names

    def postings(self, field: str, term: str) -> set[int]:
        ids: set[int] = set()
        for shard in self._shards:
            ids.update(shard.indexes.postings(field, term))
        return ids


class ShardedStore:
    """All shards of a shard root, reassembled into one
    :class:`GraphView`.

    Reads route to the *owner* shard: the shard that owns a node holds
    every one of its incident edges (boundary edges are replicated to
    both sides), labels and properties, in source-store order. The
    planner statistics come from the manifest's source-store counts,
    so plans — and therefore db-hit accounting and PROFILE trees — are
    identical to the unsharded store's.
    """

    def __init__(self, root: str,
                 page_cache: PageCache | None = None) -> None:
        self.root = root
        self.manifest = load_shard_manifest(root)
        self.page_cache = page_cache or PageCache()
        self.shards: list[StoreGraph] = []
        for entry in self.manifest["shards"]:
            self.shards.append(GraphStore.open(
                os.path.join(root, entry["directory"]), self.page_cache))
        self._node_owner: dict[int, int] = {}
        owned_lists: list[list[int]] = []
        for index, shard in enumerate(self.shards):
            owned = sorted(set(shard.node_ids()) - shard.ghost_nodes)
            owned_lists.append(owned)
            for node_id in owned:
                self._node_owner[node_id] = index
        self._all_nodes = sorted(self._node_owner)
        edge_owner: dict[int, int] = {}
        for index, shard in enumerate(self.shards):
            for edge_id in shard.edge_ids():
                if self._node_owner[shard.edge_source(edge_id)] == index:
                    edge_owner[edge_id] = index
        self._edge_owner = edge_owner
        self._all_edges = sorted(edge_owner)
        source = self.manifest["source"]
        self.statistics = GraphStatistics.from_counts(
            source["node_count"], source["edge_count"],
            source.get("label_counts"), source.get("edge_type_counts"))
        self._indexes = ShardedIndexes(
            self.shards, tuple(source.get("auto_index_keys", ())))
        self.attach_metrics(self.page_cache.metrics)

    # -- sharding introspection (the router's pruning statistics) ------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def node_owner(self, node_id: int) -> int:
        """The shard that owns *node_id* (raises KeyError if dead)."""
        return self._node_owner[node_id]

    def shard_seek_counts(self, key: str, value: Any) -> list[int]:
        """Per-shard index selectivity of one exact-term seek."""
        return [shard.indexes.seek_count(key, value)
                for shard in self.shards]

    def shard_label_counts(self, label: str) -> list[int]:
        return [shard.indexes.label_count(label)
                for shard in self.shards]

    def path_prefixes(self) -> list[list[str]]:
        return [list(entry.get("path_prefixes", ()))
                for entry in self.manifest["shards"]]

    # -- metrics / lifecycle -------------------------------------------

    def attach_metrics(self, registry: Any) -> None:
        self.metrics = registry
        self.page_cache.attach_metrics(registry)
        for shard in self.shards:
            shard.attach_metrics(registry)
        self._indexes.attach_metrics(registry)

    def evict_caches(self) -> None:
        self.page_cache.clear()
        for shard in self.shards:
            shard.evict_caches()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedStore({self.root!r}, "
                f"shards={len(self.shards)}, "
                f"nodes={len(self._all_nodes)})")

    # -- GraphView: population -----------------------------------------

    def node_ids(self) -> list[int]:
        return self._all_nodes

    def edge_ids(self) -> list[int]:
        return self._all_edges

    def node_count(self) -> int:
        return self.statistics.node_count

    def edge_count(self) -> int:
        return self.statistics.edge_count

    def has_node(self, node_id: int) -> bool:
        return node_id in self._node_owner

    def has_edge(self, edge_id: int) -> bool:
        return edge_id in self._edge_owner

    # -- GraphView: nodes ----------------------------------------------

    def _node_shard(self, node_id: int) -> StoreGraph:
        shard = self._node_owner.get(node_id)
        if shard is None:
            # delegate to shard 0 for the canonical NodeNotFoundError
            return self.shards[0]
        return self.shards[shard]

    def node_labels(self, node_id: int) -> frozenset[str]:
        return self._node_shard(node_id).node_labels(node_id)

    def labels_of(self, node_ids: Collection[int],
                  ) -> list[frozenset[str]]:
        ordered = list(node_ids)
        out: list[Any] = [None] * len(ordered)
        groups: dict[int, list[int]] = {}
        for position, node_id in enumerate(ordered):
            shard = self._node_owner.get(node_id, 0)
            groups.setdefault(shard, []).append(position)
        for shard, positions in groups.items():
            resolved = self.shards[shard].labels_of(
                [ordered[position] for position in positions])
            for position, labels in zip(positions, resolved):
                out[position] = labels
        return out

    def node_properties(self, node_id: int) -> dict[str, Any]:
        return self._node_shard(node_id).node_properties(node_id)

    def node_property(self, node_id: int, key: str,
                      default: Any = None) -> Any:
        return self._node_shard(node_id).node_property(node_id, key,
                                                       default)

    def nodes_with_label(self, label: str) -> Iterator[int]:
        return self._indexes.label(label)

    # -- GraphView: edges ----------------------------------------------

    def _edge_shard(self, edge_id: int) -> StoreGraph:
        shard = self._edge_owner.get(edge_id)
        if shard is None:
            return self.shards[0]
        return self.shards[shard]

    def edge_source(self, edge_id: int) -> int:
        return self._edge_shard(edge_id).edge_source(edge_id)

    def edge_target(self, edge_id: int) -> int:
        return self._edge_shard(edge_id).edge_target(edge_id)

    def edge_type(self, edge_id: int) -> str:
        return self._edge_shard(edge_id).edge_type(edge_id)

    def edge_properties(self, edge_id: int) -> dict[str, Any]:
        return self._edge_shard(edge_id).edge_properties(edge_id)

    def edge_property(self, edge_id: int, key: str,
                      default: Any = None) -> Any:
        return self._edge_shard(edge_id).edge_property(edge_id, key,
                                                       default)

    # -- GraphView: adjacency ------------------------------------------
    # A node's owner shard holds every one of its incident edges, so
    # adjacency is a single-shard read and the group order (seeded
    # vocabulary) matches the source store exactly.

    def edges_of(self, node_id: int,
                 direction: Direction = Direction.BOTH,
                 types: Collection[str] | None = None) -> Iterator[int]:
        return self._node_shard(node_id).edges_of(node_id, direction,
                                                  types)

    def degree(self, node_id: int,
               direction: Direction = Direction.BOTH,
               types: Collection[str] | None = None) -> int:
        return self._node_shard(node_id).degree(node_id, direction,
                                                types)

    def neighbors_of(self, node_id: int,
                     direction: Direction = Direction.BOTH,
                     types: Collection[str] | None = None,
                     ) -> list[tuple[int, int]]:
        return self._node_shard(node_id).neighbors_of(node_id,
                                                      direction, types)

    def neighbor_ids_of(self, node_id: int,
                        direction: Direction = Direction.BOTH,
                        types: Collection[str] | None = None,
                        ) -> Collection[int]:
        return self._node_shard(node_id).neighbor_ids_of(
            node_id, direction, types)

    @property
    def indexes(self) -> ShardedIndexes:
        return self._indexes


# --------------------------------------------------------------------------
# Frontier exchange
# --------------------------------------------------------------------------

@dataclasses.dataclass
class ExchangeRound:
    """One level-synchronous round of a cross-shard traversal."""

    depth: int
    frontier: int      # nodes expanded this round
    shipped: int       # frontier ids that crossed a shard boundary
    db_hits: int       # adjacency reads charged this round


@dataclasses.dataclass
class ExchangeStats:
    """Per-round accounting the router folds into PROFILE arguments."""

    rounds: list[ExchangeRound] = dataclasses.field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_shipped(self) -> int:
        return sum(entry.shipped for entry in self.rounds)

    @property
    def total_db_hits(self) -> int:
        return sum(entry.db_hits for entry in self.rounds)

    def to_dict(self) -> dict[str, Any]:
        return {"rounds": self.total_rounds,
                "shipped_ids": self.total_shipped,
                "db_hits": self.total_db_hits}


def frontier_exchange(store: ShardedStore, sources: Iterable[int],
                      types: Collection[str] | None = None,
                      direction: Direction = Direction.OUT,
                      min_hops: int = 1,
                      max_hops: int | None = None,
                      ) -> tuple[dict[int, int], ExchangeStats]:
    """Iterative frontier exchange: sharded var-length reachability.

    Level-synchronous BFS from *sources*: each round partitions the
    frontier by owning shard, reads adjacency only on owners, and
    "ships" the next frontier's foreign node ids to their owning
    shards for the following round. A visited set guarantees fixpoint
    termination on cyclic graphs and dedups boundary edges (replicated
    in both side shards) to exactly one traversal — adjacency is only
    ever read from a node's owner shard.

    Returns ``(first-visit depth by node, stats)``, with the depth map
    filtered to ``min_hops <= depth <= max_hops``.
    """
    if min_hops < 0:
        raise ValueError("min_hops must be >= 0")
    if max_hops is not None and max_hops < min_hops:
        raise ValueError("max_hops must be >= min_hops")
    visited: dict[int, int] = {}
    frontier: list[int] = []
    for node_id in sources:
        if node_id not in visited and store.has_node(node_id):
            visited[node_id] = 0
            frontier.append(node_id)
    stats = ExchangeStats()
    depth = 0
    while frontier and (max_hops is None or depth < max_hops):
        depth += 1
        db_hits = 0
        shipped = 0
        next_frontier: list[int] = []
        by_shard: dict[int, list[int]] = {}
        for node_id in frontier:
            by_shard.setdefault(store.node_owner(node_id),
                                []).append(node_id)
        for shard, nodes in sorted(by_shard.items()):
            for node_id in nodes:
                db_hits += 1
                for neighbor in store.neighbor_ids_of(
                        node_id, direction, types):
                    if neighbor in visited:
                        continue
                    visited[neighbor] = depth
                    next_frontier.append(neighbor)
                    if store.node_owner(neighbor) != shard:
                        shipped += 1
        stats.rounds.append(ExchangeRound(depth, len(frontier),
                                          shipped, db_hits))
        frontier = next_frontier
    reachable = {node_id: node_depth
                 for node_id, node_depth in visited.items()
                 if node_depth >= min_hops
                 and (max_hops is None or node_depth <= max_hops)}
    return reachable, stats


_PREFIX_PATTERN = re.compile(r"^\s*([\w.]+)\s*:\s*([\w./\-]+)\s*$")


def parse_exact_seek(query_string: str) -> tuple[str, str] | None:
    """``key:value`` (no wildcards/operators) from a START index query,
    or None — the shape the router can prune with per-shard
    seek counts."""
    match = _PREFIX_PATTERN.match(query_string)
    if match is None or "*" in query_string or "?" in query_string:
        return None
    return match.group(1), match.group(2)


__all__ = [
    "CONTAINMENT_TYPES", "ExchangeRound", "ExchangeStats",
    "SHARD_MAGIC", "SHARD_MANIFEST_FILE", "ShardView", "ShardedIndexes",
    "ShardedStore", "SubtreeAssignment", "assign_subtrees",
    "boundary_file_name", "frontier_exchange", "is_shard_root",
    "load_shard_manifest", "parse_exact_seek", "shard_directory_name",
    "split_store", "verify_shard_root",
]
