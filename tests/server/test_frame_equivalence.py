"""One framing on every serving path.

A result longer than one rows frame comes back with the same rows, in
the same order and with the same stats from in-process
``Frappe.query``, from the HTTP tier over :class:`ExecutorBackend` and
over :class:`ReplicaBackend` (``query`` and ``stream``), and from each
:class:`ShardRouter` tier: dispatch (an anchor owned by one shard),
gateway (the composite view) and scatter (partials merged into one
row, so one frame by construction).
"""

import dataclasses

import pytest

from repro.client import FrappeClient
from repro.core.frappe import Frappe
from repro.server import ReplicaBackend, ReplicaSet, wire
from repro.server.http import ExecutorBackend, HttpServer
from repro.server.shard import ShardRouter

#: every node of the fixture store (1 085 rows: two frames)
GATEWAY_QUERY = "MATCH (n) RETURN n, n.short_name ORDER BY id(n)"
SCATTER_QUERY = "MATCH (n:function) RETURN count(n), max(n.size)"


def _stats(result):
    """Stats with the nondeterministic fields normalized out."""
    stats = dataclasses.asdict(result.stats)
    stats["elapsed_seconds"] = 0.0
    stats["shards"] = None
    return stats


@pytest.fixture(scope="module")
def router(shard_root):
    with ShardRouter(shard_root, replicas=0) as instance:
        yield instance


@pytest.fixture(scope="module")
def queries(router):
    """Query text per tier; the dispatch anchor lists shard 1's nodes
    until the result needs two frames."""
    owned = [node for node in router.store.node_ids()
             if router.store.node_owner(node) == 1]
    ids = (owned * 3)[:wire.ROWS_PER_FRAME + 76]
    dispatch = "START n=node({}) RETURN n, n.short_name".format(
        ",".join(map(str, ids)))
    return {"dispatch": dispatch, "gateway": GATEWAY_QUERY,
            "scatter": SCATTER_QUERY}


@pytest.fixture(scope="module")
def expected(saved_store, queries):
    with Frappe.open(saved_store) as frappe:
        return {tier: frappe.query(text)
                for tier, text in queries.items()}


def test_fixture_results_span_frames(expected):
    assert len(expected["dispatch"].rows) > wire.ROWS_PER_FRAME
    assert len(expected["gateway"].rows) > wire.ROWS_PER_FRAME
    assert len(expected["scatter"].rows) == 1


@pytest.mark.parametrize("tier", ["dispatch", "gateway", "scatter"])
def test_shard_router_tiers(router, queries, expected, tier):
    text = queries[tier]
    assert router.classify(text).tier == tier
    got = wire.result_from_ndjson(router.execute(text))
    want = expected[tier]
    assert got.columns == want.columns
    assert got.rows == want.rows
    got_stats, want_stats = _stats(got), _stats(want)
    if tier == "scatter":
        # each shard's auto mode picks its engine from its own,
        # smaller statistics; the merge reports the first partial's
        del got_stats["execution_mode"], want_stats["execution_mode"]
    assert got_stats == want_stats


@pytest.fixture(scope="module", params=["in-process", "replicas"])
def client(request, saved_store):
    backend = (ExecutorBackend(Frappe.open(saved_store))
               if request.param == "in-process"
               else ReplicaBackend(ReplicaSet(saved_store, 1)))
    with HttpServer(backend) as server, \
            FrappeClient(port=server.port) as connected:
        yield connected


@pytest.mark.parametrize("tier", ["dispatch", "gateway", "scatter"])
def test_http_backends(client, queries, expected, tier):
    text, want = queries[tier], expected[tier]
    got = client.query(text)
    assert got.columns == want.columns
    assert got.rows == want.rows
    assert _stats(got) == _stats(want)
    assert list(client.stream(text)) == list(want)
    assert {**client.last_stats, "elapsed_seconds": 0.0} == {
        key: value for key, value in _stats(want).items()
        if value is not None}
