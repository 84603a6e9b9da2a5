"""StoreConfig: the consolidated Frappe.open surface and its shim."""

import pickle

import pytest

from repro.core import DEFAULT_CONFIG, StoreConfig
from repro.core.frappe import Frappe
from repro.graphdb import PropertyGraph
from repro.graphdb.storage import GraphStore, PageCache


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    graph = PropertyGraph()
    for name in ("alpha", "beta", "gamma"):
        graph.add_node("function", short_name=name, type="function")
    path = tmp_path_factory.mktemp("config") / "store"
    GraphStore.write(graph, str(path))
    return str(path)


QUERY = "MATCH (n:function) RETURN n.short_name ORDER BY n.short_name"


class TestValidation:
    def test_defaults(self):
        config = StoreConfig()
        assert config == DEFAULT_CONFIG
        assert config.make_page_cache() is None

    def test_rejects_bad_execution_mode(self):
        with pytest.raises(ValueError, match="execution_mode"):
            StoreConfig(execution_mode="vectorized")

    def test_rejects_bad_morsel_size(self):
        with pytest.raises(ValueError, match="morsel_size"):
            StoreConfig(morsel_size=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="default_timeout"):
            StoreConfig(default_timeout=-1.0)

    def test_mmap_makes_mmap_cache(self):
        cache = StoreConfig(mmap=True).make_page_cache()
        assert isinstance(cache, PageCache)

    def test_explicit_cache_wins_over_mmap(self):
        cache = PageCache(capacity_pages=16)
        config = StoreConfig(page_cache=cache, mmap=True)
        assert config.make_page_cache() is cache


class TestWireForm:
    def test_dict_roundtrip(self):
        config = StoreConfig(mmap=True, execution_mode="batch",
                             morsel_size=512, default_timeout=3.0)
        assert StoreConfig.from_dict(config.to_dict()) == config

    def test_to_dict_drops_page_cache(self):
        config = StoreConfig(page_cache=PageCache(capacity_pages=4))
        # what a replica worker receives: every field but the
        # process-local cache
        assert sorted(config.to_dict()) == [
            "default_timeout", "execution_mode", "mmap", "morsel_size",
            "use_cost_based_planner", "use_reachability_rewrite"]

    @pytest.mark.parametrize("key", ["mmaped", "use_csr_adjacency",
                                     "use_compiled_kernels",
                                     "use_compiled_csr",
                                     "parallelism"])
    def test_from_dict_rejects_unknown_keys(self, key):
        with pytest.raises(ValueError, match=key):
            StoreConfig.from_dict({key: True})

    def test_picklable_without_explicit_cache(self):
        config = StoreConfig(mmap=True, morsel_size=256)
        assert pickle.loads(pickle.dumps(config)) == config


class TestOpenWithConfig:
    def test_open_default_config(self, store_dir):
        with Frappe.open(store_dir) as frappe:
            assert frappe.query(QUERY).values() == \
                ["alpha", "beta", "gamma"]

    def test_open_applies_engine_knobs(self, store_dir):
        config = StoreConfig(execution_mode="rows",
                             default_timeout=30.0)
        with Frappe.open(store_dir, config=config) as frappe:
            result = frappe.query(QUERY)
            assert result.stats.execution_mode == "rows"
            assert frappe.engine.default_timeout == 30.0

    def test_open_mmap_config(self, store_dir):
        config = StoreConfig(mmap=True)
        with Frappe.open(store_dir, config=config) as frappe:
            assert frappe.query(QUERY).values() == \
                ["alpha", "beta", "gamma"]


class TestLegacyOpenArgumentsAreGone:
    """``config=`` is the only spelling: the pre-``StoreConfig``
    keywords and positionals are a plain ``TypeError``."""

    @pytest.mark.parametrize("legacy", [
        {"mmap": True}, {"execution_mode": "rows"}, {"morsel_size": 8},
        {"default_timeout": 1.0}, {"page_cache": None},
        {"mmaped": True},
    ])
    def test_legacy_keyword_is_a_type_error(self, store_dir, legacy):
        with pytest.raises(TypeError):
            Frappe.open(store_dir, **legacy)

    def test_positional_page_cache_is_a_type_error(self, store_dir):
        with pytest.raises(TypeError):
            Frappe.open(store_dir, PageCache(capacity_pages=64))

    def test_explicit_page_cache_rides_on_the_config(self, store_dir):
        cache = PageCache(capacity_pages=64)
        with Frappe.open(store_dir,
                         config=StoreConfig(page_cache=cache)) as frappe:
            frappe.query(QUERY)
            assert cache.stats.hits + cache.stats.misses > 0
