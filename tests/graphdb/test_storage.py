"""On-disk store: codecs, page cache, write/open round trip."""

import os

import pytest

from repro.errors import (EdgeNotFoundError, NodeNotFoundError, StoreError,
                          StoreFormatError)
from repro.graphdb import Direction, PropertyGraph
from repro.graphdb.storage import GraphStore, PageCache, PagedFile
from repro.graphdb.storage import records
from repro.graphdb.storage import store as store_mod


# --------------------------------------------------------------------------
# Record codecs
# --------------------------------------------------------------------------

class TestRecordCodecs:
    def test_node_roundtrip(self):
        raw = records.encode_node(True, 3, 77, 1000, 24)
        assert len(raw) == records.NODE_RECORD_SIZE
        assert records.decode_node(raw) == (True, 3, 77, 1000, 24)

    def test_node_hole(self):
        raw = records.encode_node(False, 0, records.NO_OFFSET, 0, 0)
        assert records.decode_node(raw)[0] is False

    def test_rel_roundtrip(self):
        raw = records.encode_rel(True, 9, 12, 34, records.NO_OFFSET)
        assert len(raw) == records.REL_RECORD_SIZE
        assert records.decode_rel(raw) == (True, 9, 12, 34,
                                           records.NO_OFFSET)

    def test_truncated_record_raises(self):
        with pytest.raises(StoreFormatError):
            records.decode_node(b"\x01\x02")

    def test_adjacency_roundtrip(self):
        out_groups = [(0, [1, 2, 3]), (2, [9])]
        in_groups = [(1, [4])]
        block = records.encode_adjacency(out_groups, in_groups)
        decoded_out, decoded_in = records.decode_adjacency(block)
        assert decoded_out == [(0, (1, 2, 3)), (2, (9,))]
        assert decoded_in == [(1, (4,))]

    def test_adjacency_empty(self):
        block = records.encode_adjacency([], [])
        assert records.decode_adjacency(block) == ([], [])

    def test_property_block_roundtrip(self):
        entries = [(0, records.TAG_INT, records.pack_int(-5)),
                   (1, records.TAG_BOOL, 1)]
        block = records.encode_property_block(entries)
        count = records.decode_property_block_header(block)
        assert count == 2
        assert records.decode_property_entries(block, count) == entries

    def test_int_packing_negative(self):
        assert records.unpack_int(records.pack_int(-123456789)) == -123456789

    def test_float_packing(self):
        assert records.unpack_float(records.pack_float(3.25)) == 3.25

    def test_big_int_detection(self):
        assert records.fits_inline_int(2 ** 62)
        assert not records.fits_inline_int(2 ** 64)

    @pytest.mark.parametrize("values", [
        [1, 2, 3], [1.5, -2.5], [True, False], ["a", "bc", ""], [],
    ])
    def test_list_blob_roundtrip(self, values):
        assert records.decode_list_blob(
            records.encode_list_blob(values)) == values


# --------------------------------------------------------------------------
# Page cache
# --------------------------------------------------------------------------

class TestPageCache:
    def test_hit_miss_accounting(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(range(256)) * 64)  # 16 KiB
        cache = PageCache(capacity_pages=4, page_size=4096)
        with PagedFile(str(path), cache) as paged:
            paged.read(0, 10)
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
            paged.read(5, 10)
            assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_cross_page_read(self, tmp_path):
        path = tmp_path / "data.bin"
        payload = bytes(range(256)) * 64
        path.write_bytes(payload)
        cache = PageCache(capacity_pages=8, page_size=4096)
        with PagedFile(str(path), cache) as paged:
            assert paged.read(4090, 12) == payload[4090:4102]
            assert cache.stats.misses == 2

    def test_eviction(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"\x00" * 4096 * 4)
        cache = PageCache(capacity_pages=2, page_size=4096)
        with PagedFile(str(path), cache) as paged:
            for page in range(4):
                paged.read(page * 4096, 1)
            assert cache.stats.evictions == 2
            assert cache.resident_pages == 2

    def test_clear_forces_cold_reads(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"\x01" * 4096)
        cache = PageCache(page_size=4096)
        with PagedFile(str(path), cache) as paged:
            paged.read(0, 1)
            paged.read(0, 1)
            assert cache.stats.hits == 1
            cache.clear()
            paged.read(0, 1)
            assert cache.stats.misses == 2

    def test_out_of_bounds_read_rejected(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"ab")
        with PagedFile(str(path), PageCache()) as paged:
            with pytest.raises(ValueError):
                paged.read(0, 3)
            with pytest.raises(ValueError):
                paged.read(-1, 1)

    def test_zero_length_read(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"")
        with PagedFile(str(path), PageCache()) as paged:
            assert paged.read(0, 0) == b""

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            PageCache(capacity_pages=0)
        with pytest.raises(ValueError):
            PageCache(page_size=16)


# --------------------------------------------------------------------------
# Store round trip
# --------------------------------------------------------------------------

@pytest.fixture
def sample_graph():
    g = PropertyGraph()
    f = g.add_node("file", short_name="main.c", type="file")
    m = g.add_node("function", "symbol", short_name="main",
                   type="function", name="main", long_name="main(int,char**)")
    b = g.add_node("function", "symbol", short_name="bar", type="function",
                   variadic=True)
    v = g.add_node("global", short_name="counter", type="global", value=42)
    g.add_edge(f, m, "file_contains")
    g.add_edge(f, b, "file_contains")
    g.add_edge(m, b, "calls", use_start_line=7, use_start_col=3)
    g.add_edge(m, v, "writes", qualifiers="*c",
               array_lengths=[4, 5])
    g.add_edge(b, v, "reads")
    return g


@pytest.fixture
def opened(tmp_path, sample_graph):
    directory = str(tmp_path / "store")
    GraphStore.write(sample_graph, directory)
    sg = GraphStore.open(directory)
    yield sample_graph, sg
    sg.close()


class TestRoundTrip:
    def test_counts(self, opened):
        g, sg = opened
        assert sg.node_count() == g.node_count()
        assert sg.edge_count() == g.edge_count()

    def test_node_ids_preserved(self, opened):
        g, sg = opened
        assert list(sg.node_ids()) == sorted(g.node_ids())

    def test_node_labels_and_properties(self, opened):
        g, sg = opened
        for node_id in g.node_ids():
            assert sg.node_labels(node_id) == g.node_labels(node_id)
            assert sg.node_properties(node_id) == g.node_properties(node_id)

    def test_edges_preserved(self, opened):
        g, sg = opened
        for edge_id in g.edge_ids():
            assert sg.edge_source(edge_id) == g.edge_source(edge_id)
            assert sg.edge_target(edge_id) == g.edge_target(edge_id)
            assert sg.edge_type(edge_id) == g.edge_type(edge_id)
            assert sg.edge_properties(edge_id) == g.edge_properties(edge_id)

    def test_adjacency_preserved(self, opened):
        g, sg = opened
        for node_id in g.node_ids():
            for direction in Direction:
                assert set(sg.edges_of(node_id, direction)) == \
                    set(g.edges_of(node_id, direction))
                assert sg.degree(node_id, direction) == \
                    g.degree(node_id, direction)

    def test_type_filtered_adjacency(self, opened):
        g, sg = opened
        assert set(sg.edges_of(1, Direction.OUT, ("calls",))) == \
            set(g.edges_of(1, Direction.OUT, ("calls",)))
        assert list(sg.edges_of(1, Direction.OUT, ("nonexistent",))) == []

    def test_index_queries_match(self, opened):
        g, sg = opened
        for query in ("short_name: main", "short_name: ba*",
                      "type: function AND variadic: true"):
            assert list(sg.indexes.query(query)) == \
                list(g.indexes.query(query))

    def test_label_scan_matches(self, opened):
        g, sg = opened
        assert list(sg.nodes_with_label("function")) == \
            sorted(g.nodes_with_label("function"))

    def test_holes_after_removal(self, tmp_path, sample_graph):
        sample_graph.remove_node(2)  # leaves a hole at id 2
        directory = str(tmp_path / "holey")
        GraphStore.write(sample_graph, directory)
        with GraphStore.open(directory) as sg:
            assert not sg.has_node(2)
            assert sorted(sg.node_ids()) == sorted(sample_graph.node_ids())
            with pytest.raises(NodeNotFoundError):
                sg.node_labels(2)
            with pytest.raises(NodeNotFoundError):
                list(sg.edges_of(2, Direction.OUT))

    def test_missing_edge_raises(self, opened):
        _, sg = opened
        with pytest.raises(EdgeNotFoundError):
            sg.edge_type(999)

    def test_evict_caches_preserves_answers(self, opened):
        g, sg = opened
        before = sg.node_properties(1)
        sg.evict_caches()
        assert sg.page_cache.resident_pages == 0
        assert sg.node_properties(1) == before

    def test_cold_reads_miss_then_hit(self, opened):
        _, sg = opened
        sg.evict_caches()
        sg.page_cache.stats.reset()
        sg.node_properties(1)
        cold_misses = sg.page_cache.stats.misses
        assert cold_misses > 0
        sg.page_cache.stats.reset()
        sg.node_properties(1)  # object cache absorbs it entirely
        assert sg.page_cache.stats.misses == 0


class TestStoreValidation:
    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StoreError):
            GraphStore.open(str(tmp_path / "nothere"))

    def test_bad_magic(self, tmp_path, sample_graph):
        directory = str(tmp_path / "bad")
        GraphStore.write(sample_graph, directory)
        meta = os.path.join(directory, store_mod.METADATA_FILE)
        with open(meta, "w", encoding="utf-8") as handle:
            handle.write('{"magic": "nope", "version": 2}')
        with pytest.raises(StoreFormatError):
            GraphStore.open(directory)

    def test_bad_version(self, tmp_path, sample_graph):
        directory = str(tmp_path / "badv")
        GraphStore.write(sample_graph, directory)
        meta = os.path.join(directory, store_mod.METADATA_FILE)
        with open(meta, "w", encoding="utf-8") as handle:
            handle.write(
                f'{{"magic": "{store_mod.MAGIC}", "version": 99}}')
        with pytest.raises(StoreFormatError):
            GraphStore.open(directory)


class TestSizeBreakdown:
    def test_categories_present(self, tmp_path, sample_graph):
        directory = str(tmp_path / "sz")
        sizes = GraphStore.write(sample_graph, directory)
        for category in ("nodes", "relationships", "properties", "indexes",
                         "total"):
            assert sizes[category] > 0
        assert sizes["total"] >= sum(
            sizes[c] for c in ("nodes", "relationships", "properties",
                               "indexes"))

    def test_node_store_size_is_record_multiple(self, tmp_path,
                                                 sample_graph):
        directory = str(tmp_path / "sz2")
        sizes = GraphStore.write(sample_graph, directory)
        assert sizes["nodes"] == (sample_graph.node_count()
                                  * records.NODE_RECORD_SIZE)


class TestSpecialValues:
    def test_unicode_and_big_values(self, tmp_path):
        g = PropertyGraph()
        node = g.add_node(short_name="naïve_β",
                          big=2 ** 80, negative_big=-(2 ** 80),
                          pi=3.14159, flag=False, empty="")
        directory = str(tmp_path / "special")
        GraphStore.write(g, directory)
        with GraphStore.open(directory) as sg:
            properties = sg.node_properties(node)
        assert properties == g.node_properties(node)
        assert properties["big"] == 2 ** 80
        assert properties["flag"] is False

    def test_string_interning_shares_storage(self, tmp_path):
        g1 = PropertyGraph()
        for _ in range(100):
            g1.add_node(short_name="same_string_every_time")
        g2 = PropertyGraph()
        for index in range(100):
            g2.add_node(short_name=f"unique_string_number_{index:04}")
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        s1 = GraphStore.write(g1, d1)
        s2 = GraphStore.write(g2, d2)
        string_file_1 = os.path.getsize(
            os.path.join(d1, store_mod.STRING_FILE))
        string_file_2 = os.path.getsize(
            os.path.join(d2, store_mod.STRING_FILE))
        assert string_file_1 < string_file_2
