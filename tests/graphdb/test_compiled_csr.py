"""Compiled CSR adjacency + dictionary pages (store format 3).

The compiled layer is *derived* data: everything here checks the two
invariants that make it safe to ship — (1) answers through the CSR are
identical to reading the adjacency block and relationship records
alone (:class:`BlockView`), byte for byte, and (2) a store whose CSR
cannot be served is refused at open with a located error, graded
repairable by fsck, and made whole by ``compact``.
"""

import json
import os
import zlib

import pytest

from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.errors import (EdgeNotFoundError, NodeNotFoundError,
                          StoreCorruptionError, StoreFormatError)
from repro.graphdb import Direction, PropertyGraph, algo
from repro.graphdb.storage import (GraphStore, PageCache, PagedFile,
                                   compact_store, records)
from repro.graphdb.storage import csr as csr_mod
from repro.graphdb.storage import store as store_mod
from repro.graphdb.storage.faults import (rewrite_metadata,
                                          stamp_csr_layout,
                                          strip_compiled_csr)
from repro.graphdb.traversal import TraversalDescription
from repro.graphdb.view import neighbor_pairs
from tests.graphdb.block_view import BlockView


@pytest.fixture
def sample_graph():
    g = PropertyGraph()
    f = g.add_node("file", short_name="main.c", type="file")
    m = g.add_node("function", "symbol", short_name="main",
                   type="function")
    b = g.add_node("function", "symbol", short_name="bar",
                   type="function")
    v = g.add_node("global", short_name="counter", type="global")
    g.add_edge(f, m, "file_contains")
    g.add_edge(f, b, "file_contains")
    g.add_edge(m, b, "calls", use_start_line=7)
    g.add_edge(m, v, "writes")
    g.add_edge(b, v, "reads")
    g.add_edge(b, b, "calls")  # self-loop: other_end edge case
    return g


@pytest.fixture
def store_dir(tmp_path, sample_graph):
    directory = str(tmp_path / "store")
    GraphStore.write(sample_graph, directory)
    return directory


# --------------------------------------------------------------------------
# Codecs
# --------------------------------------------------------------------------

BOTH = (csr_mod.OUT, csr_mod.IN)


def _columns_reader(tmp_path, runs, mode="buffered", high_node=100,
                    rel_high=100):
    """Build CSR files from ``(node, direction, token, edge ids,
    neighbours)`` runs and open a reader over them."""
    builder = csr_mod.CsrBuilder()
    for run in runs:
        builder.add(*run)
    payload, offsets, descriptor = builder.finish()
    (tmp_path / "csr.db").write_bytes(payload)
    (tmp_path / "csr.offsets.db").write_bytes(offsets)
    cache = PageCache(mode=mode)
    reader = csr_mod.CsrReader(
        PagedFile(str(tmp_path / "csr.db"), cache),
        PagedFile(str(tmp_path / "csr.offsets.db"), cache),
        descriptor, high_node, rel_high)
    return reader, descriptor, payload, offsets


def _lists(runs):
    return [list(run) for run in runs]


class TestCsrColumns:
    """The fixed-width layout: what the builder appends is what the
    reader slices, by offset arithmetic alone."""

    RUNS = [
        (2, csr_mod.OUT, 0, [3, 7, 8], [19, 1, 1]),  # non-monotonic
        (5, csr_mod.OUT, 0, [10], [5]),             # self-loop shape
        (5, csr_mod.OUT, 4, [11, 12], [0, 2]),
        (9, csr_mod.OUT, 0, [40], [2]),
        (5, csr_mod.IN, 0, [10], [5]),
    ]

    @pytest.mark.parametrize("mode", ["buffered", "mmap"])
    def test_roundtrip_in_run_order(self, tmp_path, mode):
        reader, *_ = _columns_reader(tmp_path, self.RUNS, mode)
        assert reader._mapped == (mode == "mmap")
        assert _lists(reader.neighbor_ids(2, (csr_mod.OUT,))) == [[19, 1, 1]]
        assert _lists(reader.edge_ids(2, (csr_mod.OUT,))) == [[3, 7, 8]]
        # token-ascending runs, out before in, whatever order is asked
        assert _lists(reader.edge_ids(5, BOTH)) == [[10], [11, 12], [10]]
        assert _lists(reader.neighbor_ids(5, BOTH, [0, 4])) == \
            [[5], [0, 2], [5]]
        assert _lists(reader.neighbor_ids(5, BOTH, [4])) == [[0, 2]]
        assert reader.degree(5, BOTH) == 4
        assert reader.degree(5, (csr_mod.OUT,), [0]) == 1

    @pytest.mark.parametrize("mode", ["buffered", "mmap"])
    def test_empty_runs_holes_and_uncovered_nodes(self, tmp_path, mode):
        reader, descriptor, *_ = _columns_reader(tmp_path, self.RUNS, mode)
        out_calls = descriptor["segments"][0]
        assert (out_calls["base"], out_calls["span"]) == (2, 8)
        for node_id in (3, 4, 6, 7, 8):          # holes inside the span
            assert reader.neighbor_ids(node_id, BOTH) == []
            assert reader.degree(node_id, BOTH) == 0
        for node_id in (0, 1, 10, 10 ** 9):      # outside every segment
            assert reader.edge_ids(node_id, BOTH) == []
            assert reader.degree(node_id, BOTH) == 0
        assert reader.neighbor_ids(5, BOTH, [7]) == []  # no such segment

    def test_runs_are_views_of_the_page_bytes(self, tmp_path):
        reader, *_ = _columns_reader(tmp_path, self.RUNS, "mmap")
        [run] = reader.neighbor_ids(2, (csr_mod.OUT,))
        assert isinstance(run, memoryview) and run.format == "I"
        assert reader._buffer is not None  # one whole-file view
        reader.evict()
        assert reader._buffer is None and not reader._views

    def test_memoryview_input_to_verify(self, tmp_path):
        _reader, descriptor, payload, offsets = _columns_reader(
            tmp_path, self.RUNS)
        assert csr_mod.verify_descriptor(
            descriptor, memoryview(payload), memoryview(offsets),
            100, 100) == []

    def test_columns_are_fixed_width(self, tmp_path):
        _reader, descriptor, payload, offsets = _columns_reader(
            tmp_path, self.RUNS)
        assert descriptor["version"] == csr_mod.CSR_DESCRIPTOR_VERSION == 2
        edges = sum(len(run[3]) for run in self.RUNS)
        assert len(payload) == 2 * 4 * edges
        assert len(offsets) == sum(
            4 * (segment["span"] + 1)
            for segment in descriptor["segments"])
        assert [segment["edges"] for segment in descriptor["segments"]] \
            == [5, 2, 1]

    @pytest.mark.parametrize("edge_ids, neighbours", [
        ([2 ** 32], [1]), ([1], [2 ** 32]), ([-1], [1])])
    def test_u32_overflow_is_a_format_error(self, edge_ids, neighbours):
        builder = csr_mod.CsrBuilder()
        with pytest.raises(StoreFormatError):
            builder.add(0, csr_mod.OUT, 0, edge_ids, neighbours)

    def test_descending_nodes_rejected(self):
        builder = csr_mod.CsrBuilder()
        builder.add(5, csr_mod.OUT, 0, [1], [2])
        with pytest.raises(ValueError):
            builder.add(4, csr_mod.OUT, 0, [2], [3])

    def test_out_of_range_id_is_corruption_at_read_time(self, tmp_path):
        reader, *_ = _columns_reader(tmp_path, self.RUNS, high_node=19,
                                     rel_high=40)
        with pytest.raises(StoreCorruptionError) as neighbour:
            reader.neighbor_ids(2, (csr_mod.OUT,))   # holds node 19
        assert neighbour.value.file.endswith("csr.db")
        with pytest.raises(StoreCorruptionError) as edge:
            reader.edge_ids(9, (csr_mod.OUT,))       # holds edge 40
        assert edge.value.file.endswith("csr.db")
        assert _lists(reader.edge_ids(2, (csr_mod.OUT,))) == [[3, 7, 8]]

    def test_verify_names_file_and_element(self, tmp_path):
        _reader, descriptor, payload, offsets = _columns_reader(
            tmp_path, self.RUNS)
        [(kind, message, offset)] = csr_mod.verify_descriptor(
            descriptor, payload, offsets, 19, 100)
        assert (kind, offset) == ("payload", 0)
        assert "neighbor id 19" in message and "element 0" in message
        [(kind, message, offset)] = csr_mod.verify_descriptor(
            descriptor, payload, offsets, 100, 40)
        assert kind == "payload" and "edge id 40" in message
        assert offset == 4 * (5 + 4)  # edge column, element 4
        damaged = bytearray(offsets)
        damaged[4:8] = (7).to_bytes(4, "little")  # 0, 7, 3, ...
        descriptor["segments"][0]["offsets_crc32"] = \
            zlib.crc32(bytes(damaged[:36]))
        [(kind, message, offset)] = csr_mod.verify_descriptor(
            descriptor, payload, bytes(damaged), 100, 100)
        assert (kind, offset) == ("offsets", 4)
        assert "not monotonic at node 3" in message


class TestDictionaryCodec:
    def test_roundtrip(self):
        values = ["calls", "short_name", "", "fünction", "x" * 500]
        page = records.encode_dictionary(values)
        assert records.decode_dictionary(page) == values
        assert records.decode_dictionary_count(page) == len(values)
        for index, value in enumerate(values):
            assert records.decode_dictionary_entry(page, index) == value

    def test_empty(self):
        page = records.encode_dictionary([])
        assert records.decode_dictionary(page) == []

    def test_corrupt_raises(self):
        page = bytearray(records.encode_dictionary(["a", "b"]))
        page[4:8] = (0xFF).to_bytes(4, "little") * 1  # offsets garbage
        with pytest.raises(StoreFormatError):
            records.decode_dictionary(bytes(page))


# --------------------------------------------------------------------------
# Builder / reader round trip
# --------------------------------------------------------------------------

class TestCsrRoundTrip:
    def test_columns_match_record_adjacency(self, sample_graph, store_dir):
        with GraphStore.open(store_dir) as sg:
            reader = sg._csr_reader
            assert reader is not None
            for node_id in sample_graph.node_ids():
                out_groups, in_groups = sg._decode_adjacency_groups(node_id)
                for direction, groups in ((csr_mod.OUT, out_groups),
                                          (csr_mod.IN, in_groups)):
                    assert _lists(reader.edge_ids(
                        node_id, (direction,))) == [
                            list(edge_ids) for _token, edge_ids in groups]
                    for token, edge_ids in groups:
                        [neighbours] = reader.neighbor_ids(
                            node_id, (direction,), [token])
                        assert list(neighbours) == [
                            sample_graph.edge_target(edge)
                            if direction == csr_mod.OUT
                            else sample_graph.edge_source(edge)
                            for edge in edge_ids]

    def test_neighbors_carry_correct_endpoints(self, sample_graph,
                                               store_dir):
        with GraphStore.open(store_dir) as compiled, \
                BlockView(GraphStore.open(store_dir)) as fallback:
            for node_id in sample_graph.node_ids():
                for direction in (Direction.OUT, Direction.IN,
                                  Direction.BOTH):
                    assert compiled.neighbors_of(node_id, direction) == \
                        neighbor_pairs(fallback, node_id, direction)

    def test_typed_edges_of_identical_to_fallback(self, store_dir):
        """The block-only reference is what a typed read once fell
        back to."""
        with GraphStore.open(store_dir) as compiled, \
                BlockView(GraphStore.open(store_dir)) as fallback:
            for node_id in compiled.node_ids():
                for types in (("calls",), ("calls", "reads"),
                              ("no_such_type",), None):
                    for direction in Direction:
                        assert list(compiled.edges_of(
                            node_id, direction, types)) == \
                            list(fallback.edges_of(
                                node_id, direction, types))

    def test_typed_degree_identical_and_reads_no_column(self, store_dir):
        """Degree is a difference of two offsets: csr.db stays cold."""
        with GraphStore.open(store_dir) as compiled, \
                BlockView(GraphStore.open(store_dir)) as fallback:
            compiled.evict_caches()
            for node_id in compiled.node_ids():
                for types in (("calls",), ("reads", "calls"),
                              ("no_such_type",)):
                    for direction in Direction:
                        assert compiled.degree(node_id, direction, types) \
                            == fallback.degree(node_id, direction, types)
            assert _pages_read(compiled, compiled._csr_offsets_file) > 0
            assert _pages_read(compiled, compiled._csr_payload_file) == 0
            # the check bites: the other typed reads do fault csr.db in
            list(compiled.edges_of(1, Direction.OUT, ("calls",)))
            assert _pages_read(compiled, compiled._csr_payload_file) > 0

    def test_typed_edges_of_reads_the_edge_column_only(self, store_dir):
        with GraphStore.open(store_dir) as sg:
            for node_id in sg.node_ids():
                list(sg.edges_of(node_id, Direction.BOTH, ("calls",)))
            assert {part for *_key, part in sg._neighbor_cache} == \
                {store_mod._EDGE_IDS}

    def test_dead_node_raises_on_typed_path(self, tmp_path, sample_graph):
        sample_graph.remove_node(2)
        directory = str(tmp_path / "holes")
        GraphStore.write(sample_graph, directory)
        with GraphStore.open(directory) as sg:
            assert sg._csr_reader is not None
            with pytest.raises(NodeNotFoundError):
                list(sg.edges_of(2, Direction.OUT, ("calls",)))
            with pytest.raises(NodeNotFoundError):
                sg.neighbors_of(2, Direction.BOTH)

    def test_mmap_mode_serves_zero_copy(self, sample_graph, store_dir):
        with GraphStore.open(store_dir,
                             page_cache=PageCache(mode="mmap")) as mapped, \
                BlockView(GraphStore.open(store_dir)) as fallback:
            assert mapped._csr_reader is not None
            for node_id in sample_graph.node_ids():
                assert mapped.neighbors_of(node_id, Direction.BOTH) == \
                    neighbor_pairs(fallback, node_id, Direction.BOTH)
            assert mapped._csr_reader._buffer is not None  # whole-file view


def _pages_read(sg, paged_file):
    """Pages of one store file faulted in since the last evict."""
    return sum(1 for file_id, _page in sg.page_cache._pages
               if file_id == paged_file._file_id)


#: every ``algo`` entry point, reduced to a value that does not depend
#: on which of several equally short paths the adjacency order picks
#: (node ids: 0 main.c, 1 main, 2 bar, 3 counter)
NATIVE_CASES = {
    "reachable": lambda v: algo.reachable_nodes(v, 0),
    "reachable_typed_in": lambda v: algo.reachable_nodes(
        v, 2, ("calls",), Direction.IN),
    "is_reachable": lambda v: (algo.is_reachable(v, 0, 3),
                               algo.is_reachable(v, 3, 0)),
    "shortest_path": lambda v: len(algo.shortest_path(v, 0, 3)),
    "shortest_path_with_edges": lambda v: [
        len(part) for part in algo.shortest_path_with_edges(v, 0, 3)],
    "all_shortest_paths": lambda v: sorted(
        algo.all_shortest_paths(v, 0, 3)),
    "shortest_path_dag": lambda v: [
        sorted((node, sorted(value) if isinstance(value, list)
                else value) for node, value in part.items())
        for part in algo.shortest_path_dag(v, 0)],
    "all_paths": lambda v: sorted(algo.all_paths(v, 0, 3)),
    "cycles": lambda v: sorted(
        algo.strongly_connected_components(v, ("calls",))),
    "components": lambda v: sorted(
        sorted(part) for part in algo.weakly_connected_components(v)),
}


class TestNativesAgreeOnEveryView:
    @pytest.mark.parametrize("case", sorted(NATIVE_CASES))
    def test_same_answer_from_graph_records_and_csr(
            self, case, sample_graph, store_dir):
        run = NATIVE_CASES[case]
        with GraphStore.open(store_dir) as compiled, \
                BlockView(GraphStore.open(store_dir)) as records_only:
            assert run(compiled) == run(records_only) == \
                run(sample_graph)


class TestNativesStayOffRelRecords:
    """A compiled run already holds the neighbour next to the edge, so
    a typed native traversal must not decode rel records to find it."""

    @staticmethod
    def _traverse(sg):
        reached = algo.reachable_nodes(sg, 1, ("calls",))
        walked = [path.end_node for path in TraversalDescription()
                  .relationships(("calls",), Direction.OUT)
                  .traverse(sg, 1)]
        return reached, walked

    def test_typed_natives_read_no_rel_pages(self, store_dir):
        with GraphStore.open(store_dir) as compiled, \
                BlockView(GraphStore.open(store_dir)) as records_only:
            for sg in (compiled, records_only):
                sg.evict_caches()
            assert self._traverse(compiled) == \
                self._traverse(records_only)
            assert _pages_read(compiled, compiled._rels) == 0
            assert _pages_read(records_only, records_only._rels) > 0

    def test_evicted_typed_closure_reads_only_csr_and_index_pages(
            self, store_dir):
        """A closure follows neighbour ids: no node, relationship,
        adjacency-block, property or string page is faulted in."""
        with Frappe.open(store_dir) as fr:
            sg = fr.view
            fr.evict_caches()
            result = fr.query(
                "START n=node:node_auto_index('short_name: main') "
                "MATCH n -[:calls*]-> m RETURN distinct m")
            assert [node.id for (node,) in result.rows] == [2]
            assert algo.reachable_nodes(sg, 1, ("calls",)) == {2}
            touched = {file_id for file_id, _page in sg.page_cache._pages}
            allowed = {sg._csr_payload_file._file_id,
                       sg._csr_offsets_file._file_id,
                       sg._indexes._postings._file_id}
            assert touched and touched <= allowed

    def test_dead_edge_still_raises(self, store_dir):
        with GraphStore.open(store_dir) as sg:
            with pytest.raises(EdgeNotFoundError):
                sg.edge_source(10 ** 6)


# --------------------------------------------------------------------------
# Format versioning and refusal
# --------------------------------------------------------------------------

def _answers(directory):
    """What a store says: every node's typed and untyped adjacency and
    a closure, through the CSR-serving open."""
    with GraphStore.open(directory) as sg:
        return ([(list(sg.neighbors_of(node_id, Direction.BOTH)),
                  list(sg.edges_of(node_id, Direction.BOTH,
                                   ("calls", "reads"))),
                  sg.node_properties(node_id))
                 for node_id in sg.node_ids()],
                algo.reachable_nodes(sg, 0))


def _refused(directory, reason, mode="buffered"):
    """Open refuses *directory* naming it, *reason* and the repair;
    fsck grades it repairable; compact makes it clean."""
    with pytest.raises(StoreFormatError) as caught:
        GraphStore.open(directory, page_cache=PageCache(mode=mode))
    message = str(caught.value)
    assert repr(directory) in message and reason in message
    assert message.endswith("run `frappe compact`")
    verification = GraphStore.verify(directory)
    assert verification.status == "repairable", verification.problems
    assert {p.category for p in verification.problems} == {"csr"}
    compact_store(directory)
    assert GraphStore.verify(directory).status == "clean"
    return message


class TestFormatV3:
    def test_compiled_store_is_v3_with_all_files(self, store_dir):
        with open(os.path.join(store_dir, "metadata.json")) as handle:
            metadata = json.load(handle)
        assert metadata["version"] == store_mod.FORMAT_VERSION == 3
        assert "csr" in metadata and metadata["csr"]["segments"]
        for name in (store_mod.CSR_FILE, store_mod.CSR_OFFSETS_FILE,
                     store_mod.DICT_FILE):
            assert os.path.exists(os.path.join(store_dir, name))

    def test_legacy_store_is_refused_until_compacted(self, store_dir):
        """A format-2 store (made by stripping a format-3 one) has no
        CSR: refused, repairable, and compact restores every answer."""
        want = _answers(store_dir)
        strip_compiled_csr(store_dir)
        _refused(store_dir, "format 2: no compiled CSR")
        assert _answers(store_dir) == want

    def test_unknown_version_rejected(self, store_dir):
        path = os.path.join(store_dir, "metadata.json")
        with open(path) as handle:
            metadata = json.load(handle)
        metadata["version"] = 99
        with open(path, "w") as handle:
            json.dump(metadata, handle)
        with pytest.raises(StoreFormatError):
            GraphStore.open(store_dir)

    def test_damaged_csr_is_refused_with_its_size(self, store_dir):
        want = _answers(store_dir)
        path = os.path.join(store_dir, store_mod.CSR_FILE)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        with pytest.raises(StoreFormatError) as caught:
            Frappe.open(store_dir)
        assert f"csr.db is {size - 3} bytes, descriptor says {size}" \
            in str(caught.value)
        _refused(store_dir, "csr.db")
        assert _answers(store_dir) == want

    def test_missing_csr_file_is_refused(self, store_dir):
        os.unlink(os.path.join(store_dir, store_mod.CSR_OFFSETS_FILE))
        _refused(store_dir, f"{store_mod.CSR_OFFSETS_FILE} unreadable")

    def test_descriptor_without_sizes_is_refused(self, store_dir):
        rewrite_metadata(store_dir,
                         lambda metadata: metadata["csr"].pop(
                             "payload_bytes"))
        _refused(store_dir, "descriptor says None")

    def test_layout_1_descriptor_is_not_decoded(self, store_dir):
        """A store compiled before the column layout is refused, not
        decoded, until compact rewrites it."""
        want = _answers(store_dir)
        stamp_csr_layout(store_dir, 1)
        with pytest.raises(StoreFormatError) as caught:
            Frappe.open(store_dir)
        assert str(caught.value) == \
            f"store {store_dir!r}: csr layout 1, run `frappe compact`"
        [problem] = GraphStore.verify(store_dir).problems
        assert problem.category == "csr" and "layout 1" in problem.message
        _refused(store_dir, "csr layout 1")
        assert _answers(store_dir) == want

    def test_compaction_instance_has_no_typed_adjacency(self, store_dir):
        """compact_store reads untyped adjacency from the block; with
        the CSR set aside, typed and neighbour reads raise instead of
        reviving a second path."""
        metadata = store_mod._load_metadata(store_dir)
        metadata.pop("csr")
        with store_mod.StoreGraph(store_dir, metadata,
                                  PageCache()) as sg:
            assert list(sg.edges_of(1, Direction.OUT))
            for read in (lambda: list(sg.edges_of(1, Direction.OUT,
                                                  ("calls",))),
                         lambda: sg.degree(1, Direction.OUT, ("calls",)),
                         lambda: sg.neighbors_of(1, Direction.OUT),
                         lambda: sg.neighbor_ids_of(1, Direction.OUT)):
                with pytest.raises(StoreFormatError, match="set aside"):
                    read()


def _last(field, value_of):
    """A metadata edit setting the last segment's *field*."""
    def edit(metadata):
        segment = metadata["csr"]["segments"][-1]
        segment[field] = value_of(segment, metadata["csr"])
    return edit


#: malformed descriptors that agree on both file sizes: name ->
#: (metadata edit, what the refusal says)
MALFORMED_SEGMENTS = {
    "missing_key": (lambda metadata: metadata["csr"]["segments"][-1].pop(
        "edges"), "edges is None, not a non-negative integer"),
    "not_an_integer": (_last("base", lambda seg, _d: str(seg["base"])),
                       "base is '"),
    "negative": (_last("span", lambda _s, _d: -1),
                 "span is -1, not a non-negative integer"),
    "misaligned": (_last("payload_offset",
                         lambda seg, _d: seg["payload_offset"] + 2),
                   "not 4-byte aligned"),
    "columns_disagree_with_edges": (
        _last("edges", lambda seg, _d: seg["edges"] + 1),
        "entries need"),
    "offsets_disagree_with_span": (
        _last("span", lambda seg, _d: seg["span"] + 1), "a span of"),
    "columns_overrun_csr_db": (
        _last("payload_offset", lambda _s, desc: desc["payload_bytes"]),
        "past csr.db's"),
    "offsets_overrun_offsets_file": (
        _last("offsets_offset", lambda _s, desc: desc["offsets_bytes"]),
        "past csr.offsets.db's"),
}


class TestMalformedDescriptor:
    """Open checks every segment in O(segments): a descriptor that
    would send a reader past a file, or a field that is not an
    integer, is a located refusal in either cache mode — never a bare
    KeyError, an empty ``max()`` or a silently short run."""

    @pytest.mark.parametrize("mode", ["buffered", "mmap"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SEGMENTS))
    def test_refused_located_and_repaired(self, store_dir, case, mode):
        edit, says = MALFORMED_SEGMENTS[case]
        want = _answers(store_dir)
        rewrite_metadata(store_dir, edit)
        with open(os.path.join(store_dir, "metadata.json")) as handle:
            last = len(json.load(handle)["csr"]["segments"]) - 1
        message = _refused(store_dir, says, mode)
        assert f"csr segment {last}" in message
        assert _answers(store_dir) == want


# --------------------------------------------------------------------------
# fsck and repair
# --------------------------------------------------------------------------

class TestVerifyAndRepair:
    def test_clean_store_verifies_with_file_breakdown(self, store_dir):
        verification = GraphStore.verify(store_dir)
        assert verification.status == "clean"
        files = verification.files
        assert files[store_mod.CSR_FILE]["category"] == "csr"
        assert files[store_mod.CSR_FILE]["records"] > 0  # edges
        assert files[store_mod.DICT_FILE]["category"] == "dictionary"
        assert files[store_mod.DICT_FILE]["records"] > 0  # entries
        assert all("bytes" in report for report in files.values())

    def test_truncated_csr_is_repairable(self, store_dir):
        path = os.path.join(store_dir, store_mod.CSR_FILE)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, os.path.getsize(path) - 3))
        verification = GraphStore.verify(store_dir)
        assert verification.status == "repairable"
        assert {p.category for p in verification.problems} == {"csr"}

    def test_corrupted_csr_payload_is_repairable(self, store_dir):
        path = os.path.join(store_dir, store_mod.CSR_FILE)
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\xFF\xFF\xFF")
        verification = GraphStore.verify(store_dir)
        assert verification.status == "repairable"
        assert {p.category for p in verification.problems} == {"csr"}

    def test_flipped_id_is_located_by_fsck_and_refused_at_read(
            self, store_dir):
        """Same size, same offsets, one id out of range: fsck names the
        file and the byte; a reader that meets it raises corruption
        naming csr.db instead of handing the id on."""
        path = os.path.join(store_dir, store_mod.CSR_FILE)
        with open(path, "r+b") as handle:
            handle.seek(3)                  # top byte of neighbours[0]
            handle.write(b"\x7F")
        verification = GraphStore.verify(store_dir)
        assert verification.status == "repairable"
        assert {(p.file, p.category) for p in verification.problems} == \
            {(store_mod.CSR_FILE, "csr")}
        with GraphStore.open(store_dir) as sg:
            assert sg._csr_reader is not None  # sizes agree: open serves
            with pytest.raises(StoreCorruptionError) as caught:
                for node_id in range(sg._high_node):
                    sg.neighbor_ids_of(node_id, Direction.BOTH)
            assert caught.value.file == path
            assert not isinstance(caught.value, (IndexError, KeyError))

    def test_compact_repairs_damaged_csr(self, sample_graph, store_dir):
        path = os.path.join(store_dir, store_mod.CSR_FILE)
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\xFF\xFF\xFF")
        compact_store(store_dir)
        assert GraphStore.verify(store_dir).status == "clean"
        with GraphStore.open(store_dir) as sg:
            assert sg._csr_reader is not None
            for node_id in sample_graph.node_ids():
                assert set(sg.edges_of(node_id, Direction.OUT)) == \
                    set(sample_graph.edges_of(node_id, Direction.OUT))

    def test_damaged_dictionary_is_corrupt_not_repairable(self,
                                                          store_dir):
        path = os.path.join(store_dir, store_mod.DICT_FILE)
        with open(path, "r+b") as handle:
            handle.truncate(2)
        verification = GraphStore.verify(store_dir)
        assert verification.status == "corrupt"
        assert "dictionary" in {p.category for p in verification.problems}


# --------------------------------------------------------------------------
# Compact
# --------------------------------------------------------------------------

class TestCompact:
    def test_compacts_legacy_to_v3(self, tmp_path, sample_graph):
        directory = str(tmp_path / "legacy")
        GraphStore.write(sample_graph, directory)
        strip_compiled_csr(directory)
        sizes = compact_store(directory)
        assert sizes["csr"] > 0 and sizes["dictionary"] > 0
        with open(os.path.join(directory, "metadata.json")) as handle:
            assert json.load(handle)["version"] == 3
        with GraphStore.open(directory) as sg:
            assert sg._csr_reader is not None
            assert sg.node_count() == sample_graph.node_count()
            assert sg.edge_count() == sample_graph.edge_count()
            for node_id in sample_graph.node_ids():
                assert sg.node_properties(node_id) == \
                    sample_graph.node_properties(node_id)

    def test_compact_is_idempotent(self, sample_graph, store_dir):
        before = compact_store(store_dir)
        after = compact_store(store_dir)
        assert before == after
        assert GraphStore.verify(store_dir).status == "clean"


# --------------------------------------------------------------------------
# Planner degree statistics (free from the descriptor)
# --------------------------------------------------------------------------

class TestDegreeStats:
    def test_populated_from_descriptor(self, sample_graph, store_dir):
        with GraphStore.open(store_dir) as sg:
            stats = sg.statistics
            assert stats.max_degree(None, "out") >= 2  # node 1: calls+...
            assert stats.max_degree("file_contains", "out") == 2
            hist = stats.degree_histogram("calls", "out")
            assert sum(hist) > 0


# --------------------------------------------------------------------------
# Eviction regression (the cold-run honesty contract)
# --------------------------------------------------------------------------

class TestEvictionRegression:
    def test_facade_evict_drops_store_level_caches(self, store_dir):
        with Frappe.open(store_dir, config=StoreConfig(mmap=True)) as fr:
            fr.query("MATCH (a:function)-[:calls]->(b) RETURN count(*)")
            fr.query("MATCH (n) RETURN count(n)")  # all-ids universe
            sg = fr.view
            sg.neighbors_of(1, Direction.BOTH)
            assert sg._neighbor_cache
            assert sg._csr_reader._views or sg._csr_reader._buffer
            fr.evict_caches()
            assert not sg._neighbor_cache
            assert not sg._adj_cache and not sg._rel_cache
            assert not sg._csr_reader._views
            assert sg._csr_reader._buffer is None
            assert sg._indexes._all_ids_cache is None
            assert sg._dict_values is None

    def test_cold_runs_fault_again_after_evict(self, store_dir):
        with Frappe.open(store_dir) as fr:
            query = "MATCH (a:function)-[:calls]->(b) RETURN count(*)"
            fr.query(query)
            fr.evict_caches()
            before = fr.view._fault_counter.value
            fr.query(query)
            assert fr.view._fault_counter.value > before
