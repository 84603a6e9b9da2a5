"""Multi-process replica serving: routing, crashes, respawn."""

import itertools
import os
import shutil
import signal
import threading
import time

import pytest

from repro.core.config import StoreConfig
from repro.core.frappe import Frappe
from repro.client import FrappeClient
from repro.cypher import QueryOptions
from repro.errors import QueryTimeoutError, ServerError, StoreFormatError
from repro.obs import Observability
from repro.server import wire
from repro.server.http import HttpServer
from repro.server.replica import (INITIAL_REPLY_BYTES, ReplicaBackend,
                                  ReplicaSet)
from tests.graphdb.block_view import UNSERVABLE

COUNT_QUERY = "MATCH (n:function) RETURN count(*) AS n"


@pytest.fixture(scope="module")
def replica_set(saved_store):
    with ReplicaSet(saved_store, replicas=2) as replicas:
        yield replicas


def wait_for(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestReplicaSet:
    def test_serves_queries(self, replica_set, saved_store):
        payload = replica_set.execute(COUNT_QUERY)
        result = wire.result_from_ndjson(payload)
        with Frappe.open(saved_store) as frappe:
            assert result.value() == frappe.query(COUNT_QUERY).value()

    def test_options_travel_to_worker(self, replica_set):
        payload = replica_set.execute(
            "MATCH (n:function) RETURN n.short_name",
            QueryOptions(max_rows=3))
        result = wire.result_from_ndjson(payload)
        assert len(result) == 3
        assert result.stats.truncated

    def test_worker_error_reconstructed(self, replica_set):
        with pytest.raises(QueryTimeoutError):
            replica_set.execute(
                "MATCH (a)-[:calls*]->(b) RETURN count(*)",
                QueryOptions(timeout=0.0001))

    def test_load_spreads_over_replicas(self, replica_set):
        threads = []
        seen_errors = []

        def run():
            try:
                replica_set.execute(COUNT_QUERY)
            except Exception as error:  # pragma: no cover
                seen_errors.append(error)

        for _ in range(8):
            threads.append(threading.Thread(target=run))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not seen_errors
        snapshot = replica_set.obs.registry.snapshot()
        assert snapshot.counter("replica.dispatched") >= 8

    def test_per_replica_metrics(self, replica_set):
        replica_set.execute(COUNT_QUERY)
        reports = replica_set.metrics()
        assert len(reports) == replica_set.alive()
        for report in reports:
            assert report["pid"] in replica_set.pids()
            assert "query.count" in report["metrics"]

    def test_validates_replica_count(self, saved_store):
        with pytest.raises(ValueError):
            ReplicaSet(saved_store, replicas=0)


class _StubReplica:
    """Just enough surface for exercising ``ReplicaSet._pick``."""

    def __init__(self, index, in_flight_bytes=0.0, alive=True):
        self.index = index
        self.alive = alive
        self.in_flight = 0
        self.in_flight_bytes = in_flight_bytes

    def load(self):
        return self.in_flight_bytes


def _routing_set(stubs):
    replica_set = ReplicaSet.__new__(ReplicaSet)
    replica_set._lock = threading.Lock()
    replica_set._rr = itertools.count()
    replica_set._replicas = list(stubs)
    return replica_set


class TestBytesAwareRouting:
    """The BENCH_PR7 4-replica regression fix: dispatch scores count
    estimated reply bytes in flight, not outstanding job count."""

    def test_picks_fewest_outstanding_bytes(self):
        # replica 0 owes one huge traversal reply; replica 1 owes two
        # point lookups — count-based routing would pick 0 and queue
        # behind the megabyte, bytes-based routing must pick 1
        heavy = _StubReplica(0, in_flight_bytes=1_000_000.0)
        heavy.in_flight = 1
        light = _StubReplica(1, in_flight_bytes=2 * 200.0)
        light.in_flight = 2
        picks = {_routing_set([heavy, light])._pick().index
                 for _ in range(4)}
        assert picks == {1}

    def test_round_robin_breaks_ties(self):
        stubs = [_StubReplica(0), _StubReplica(1)]
        picked = [_routing_set(stubs)._pick().index for _ in range(2)]
        replica_set = _routing_set(stubs)
        assert {replica_set._pick().index,
                replica_set._pick().index} == {0, 1}

    def test_dead_replicas_never_picked(self):
        stubs = [_StubReplica(0, alive=False),
                 _StubReplica(1, in_flight_bytes=9e9)]
        replica_set = _routing_set(stubs)
        assert replica_set._pick().index == 1
        stubs[1].alive = False
        with pytest.raises(ServerError):
            replica_set._pick()

    def test_reply_sizes_feed_the_ewma(self, replica_set):
        replica_set.execute("MATCH (n:function) RETURN n.short_name")
        replicas = replica_set._replicas
        # the charge is settled once the reply lands (float add/sub
        # of interleaved estimates can leave sub-byte residue)
        assert all(abs(replica.in_flight_bytes) < 1e-6
                   for replica in replicas)
        # whoever served has folded the observed payload size in
        assert any(replica._bytes_ewma != INITIAL_REPLY_BYTES
                   for replica in replicas)
        assert all(replica._bytes_ewma > 0 for replica in replicas)


class TestCrashRecovery:
    def test_kill_one_worker_zero_failed_requests(self, saved_store):
        """The acceptance criterion: SIGKILL a replica under load and
        every client request still succeeds (retried on survivors),
        then the dead worker is respawned."""
        with ReplicaSet(saved_store, replicas=2) as replicas:
            backend = ReplicaBackend(replicas, queue_capacity=32)
            server = HttpServer(backend).start_background()
            try:
                stop = threading.Event()
                failures = []
                completed = [0]

                def hammer():
                    with FrappeClient(port=server.port,
                                      client_id="hammer") as client:
                        while not stop.is_set():
                            try:
                                client.query(COUNT_QUERY)
                                completed[0] += 1
                            except Exception as error:
                                failures.append(error)

                threads = [threading.Thread(target=hammer)
                           for _ in range(3)]
                for thread in threads:
                    thread.start()
                assert wait_for(lambda: completed[0] >= 5)
                victim = replicas.pids()[0]
                os.kill(victim, signal.SIGKILL)
                # keep load on while the crash is detected and the
                # replacement worker comes up
                registry = replicas.obs.registry

                def respawned():
                    snapshot = registry.snapshot()
                    return snapshot.counter("replica.respawns") >= 1
                assert wait_for(respawned), "worker never respawned"
                assert wait_for(lambda: replicas.alive() == 2)
                end_count = completed[0] + 20
                assert wait_for(lambda: completed[0] >= end_count)
                stop.set()
                for thread in threads:
                    thread.join()
                assert not failures, \
                    f"client saw failures: {failures[:3]}"
                assert victim not in replicas.pids()
                snapshot = registry.snapshot()
                assert snapshot.counter("replica.crashes") >= 1
            finally:
                server.stop(close_backend=False)

    def test_no_respawn_when_disabled(self, saved_store):
        with ReplicaSet(saved_store, replicas=2,
                        respawn=False) as replicas:
            victim = replicas.pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_for(lambda: replicas.alive() == 1)
            # the survivor still serves
            payload = replica_set_execute_retry(replicas)
            assert wire.result_from_ndjson(payload).value() > 0

    def test_send_failure_marks_replica_dead(self, saved_store):
        """A broken pipe on dispatch is definitive death, recorded
        immediately — not left for the pump thread's EOF.

        While the pump is still blocked in recv, a corpse keeps the
        lowest byte score (its refunded charges make it look idle),
        so without the immediate mark a retry loop can burn every
        attempt re-picking the same dead worker."""
        with ReplicaSet(saved_store, replicas=2,
                        respawn=False) as replicas:
            victim = replicas._replicas[0]
            real_conn = victim._conn

            class _BrokenPipe:
                def send(self, message):
                    raise BrokenPipeError("worker gone")

                def __getattr__(self, name):
                    return getattr(real_conn, name)

            victim._conn = _BrokenPipe()
            try:
                with pytest.raises(Exception) as excinfo:
                    victim.request({"op": "query", "text": COUNT_QUERY,
                                    "options": {}})
                assert "pipe closed" in str(excinfo.value)
                assert victim.alive is False
                # every subsequent execute routes around the corpse —
                # no "failed on N replicas in a row"
                for _ in range(5):
                    payload = replicas.execute(COUNT_QUERY)
                    assert wire.result_from_ndjson(payload).value() > 0
                assert replicas.alive() == 1
            finally:
                victim._conn = real_conn

    def test_all_dead_is_a_server_error(self, saved_store):
        with ReplicaSet(saved_store, replicas=1,
                        respawn=False) as replicas:
            os.kill(replicas.pids()[0], signal.SIGKILL)
            assert wait_for(lambda: replicas.alive() == 0)
            with pytest.raises(ServerError):
                replicas.execute(COUNT_QUERY)


def replica_set_execute_retry(replicas, attempts=20):
    """Execute COUNT_QUERY, tolerating the crash-detection window."""
    last = None
    for _ in range(attempts):
        try:
            return replicas.execute(COUNT_QUERY)
        except ServerError as error:
            last = error
            time.sleep(0.1)
    raise last


class TestReplicaHttpStack:
    def test_cli_topology_end_to_end(self, replica_set):
        backend = ReplicaBackend(replica_set)
        server = HttpServer(backend).start_background()
        try:
            with FrappeClient(port=server.port) as client:
                result = client.query(COUNT_QUERY)
                assert result.value() > 0
                health = client.health()
                assert health["mode"] == "replicas"
                assert health["replicas"]["configured"] == 2
                metrics = client.metrics()
                assert len(metrics["replicas"]) == 2
        finally:
            server.stop(close_backend=False)

    def test_mmap_default_config(self, replica_set):
        assert replica_set.config.mmap is True

    def test_custom_config(self, saved_store):
        config = StoreConfig(mmap=True, execution_mode="rows")
        with ReplicaSet(saved_store, replicas=1,
                        config=config) as replicas:
            result = wire.result_from_ndjson(
                replicas.execute(COUNT_QUERY))
            assert result.stats.execution_mode == "rows"


class TestUnservableStoreRefused:
    """A replica tier over a store whose CSR cannot be served fails
    fast with the compact message: the worker answers the handshake
    with the error instead of a traceback, and nothing is respawned."""

    @pytest.mark.parametrize("kind", sorted(UNSERVABLE))
    def test_replica_set_raises_the_open_error(self, saved_store,
                                               tmp_path, kind):
        damage, reason = UNSERVABLE[kind]
        store = shutil.copytree(saved_store, str(tmp_path / "aged"))
        damage(store)
        obs = Observability()
        with pytest.raises(StoreFormatError) as caught:
            ReplicaSet(store, replicas=1, obs=obs)
        message = str(caught.value)
        assert repr(store) in message and reason in message
        assert message.endswith("run `frappe compact`")
        counters = obs.registry.snapshot()
        assert counters["replica.respawns"] == 0
        assert counters["replica.crashes"] == 0
