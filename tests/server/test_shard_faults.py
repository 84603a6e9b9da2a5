"""Fault injection against the sharded serving tier.

The acceptance bar: killing one shard worker never surfaces to a
client as anything but a transparent retry, a whole-shard loss comes
back as a structured error *naming the shard*, and a respawned worker
serves the retry. Boundary-table damage stays in ``fsck``'s
repairable class.
"""

import os
import shutil
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.core.frappe import Frappe
from repro.errors import ShardCrashedError, StoreFormatError
from repro.graphdb.storage import (CLEAN, REPAIRABLE, ShardedStore,
                                   compact_shard_root, split_store,
                                   verify_shard_root)
from repro.graphdb.storage.faults import corrupt_boundary_table
from repro.server import wire
from repro.server.shard import ShardBackend, ShardRouter
from tests.graphdb.block_view import UNSERVABLE

SCATTER_QUERY = "MATCH (n:function) RETURN count(n)"


def wait_for(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def value_of(payload):
    return wire.result_from_ndjson(payload).rows[0][0]


class TestWorkerCrash:
    def test_kill_one_worker_is_transparent(self, shard_root):
        """SIGKILL one of a shard's workers mid-service: every query
        still succeeds (the shard's replica set retries on the
        survivor) and the respawned worker rejoins."""
        with ShardRouter(shard_root, replicas=2) as router:
            expected = value_of(router.execute(SCATTER_QUERY))
            victim = router.pids()[1][0]
            os.kill(victim, signal.SIGKILL)
            for _ in range(10):
                assert value_of(router.execute(SCATTER_QUERY)) \
                    == expected
            assert wait_for(lambda: router.alive() == [2, 2, 2]), \
                "killed worker never respawned"
            assert victim not in router.pids()[1]
            # ... and the new worker actually serves
            assert value_of(router.execute(SCATTER_QUERY)) == expected

    def test_kill_through_backend_is_transparent(self, shard_root):
        """Same crash through the Executor/scatter spawn path."""
        with ShardRouter(shard_root, replicas=2) as router:
            backend = ShardBackend(router, queue_capacity=16)
            try:
                expected = value_of(
                    backend.submit(SCATTER_QUERY, None,
                                   "fault-client").result())
                os.kill(router.pids()[0][0], signal.SIGKILL)
                futures = [backend.submit(SCATTER_QUERY, None,
                                          f"fault-{index}")
                           for index in range(8)]
                for future in futures:
                    assert value_of(future.result(timeout=30)) \
                        == expected
            finally:
                backend.close()

    def test_whole_shard_loss_names_the_shard(self, shard_root):
        """Every worker of one shard dead, no respawn: the error is
        structured and says which partition to revive."""
        with ShardRouter(shard_root, replicas=1,
                         respawn=False) as router:
            counts = router.store.shard_label_counts("function")
            assert counts[1] > 0  # shard 1 participates in the scatter
            os.kill(router.pids()[1][0], signal.SIGKILL)
            assert wait_for(lambda: router.alive()[1] == 0)
            with pytest.raises(ShardCrashedError) as excinfo:
                for _ in range(50):
                    router.execute(SCATTER_QUERY)
                    time.sleep(0.05)
            assert excinfo.value.shard == 1
            assert "shard 1" in str(excinfo.value)

    def test_shard_error_survives_the_wire(self):
        original = ShardCrashedError(
            "shard 2 lost every worker mid-query", shard=2)
        payload = wire.error_to_dict(original)
        assert payload["type"] == "ShardCrashedError"
        assert payload["shard"] == 2
        rebuilt = wire.exception_from_dict(payload)
        assert isinstance(rebuilt, ShardCrashedError)
        assert rebuilt.shard == 2
        assert "shard 2" in str(rebuilt)


class TestBoundaryCorruption:
    def test_corruption_is_repairable_and_fsck_flags_it(
            self, saved_store, tmp_path, capsys):
        root = tmp_path / "shards"
        split_store(saved_store, str(root), 2)
        corrupt_boundary_table(str(root), shard=0, offset=20)
        verification = verify_shard_root(str(root))
        assert verification.status == REPAIRABLE
        assert any(problem.category == "boundary"
                   for problem in verification.problems)
        # the operator-facing path: exit code 2 = damaged but
        # derivable from the shard stores, not data loss
        assert cli_main(["fsck", str(root)]) == 2
        printed = capsys.readouterr().out.lower()
        assert "repairable" in printed


class TestUnservableShard:
    """One shard whose CSR cannot be served: the shard root is refused
    at open naming that shard, fsck grades the root repairable, and
    compacting the root restores the undamaged answers."""

    QUERY = "MATCH (a:function)-[:calls]->(b) RETURN count(*)"

    @pytest.mark.parametrize("kind", sorted(UNSERVABLE))
    def test_refused_per_shard_then_compacted(self, shard_root, tmp_path,
                                              kind):
        damage, reason = UNSERVABLE[kind]
        root = shutil.copytree(shard_root, str(tmp_path / "shards"))
        with Frappe(ShardedStore(root)) as frappe:
            want = frappe.query(self.QUERY).rows
        shard = os.path.join(root, "shard-001")
        damage(shard)
        for open_root in (ShardedStore,
                          lambda path: ShardRouter(path, 1)):
            with pytest.raises(StoreFormatError) as caught:
                open_root(root)
            message = str(caught.value)
            assert repr(shard) in message and reason in message
            assert message.endswith("run `frappe compact`")
        assert verify_shard_root(root).status == REPAIRABLE
        compact_shard_root(root)
        assert verify_shard_root(root).status == CLEAN
        with Frappe(ShardedStore(root)) as frappe:
            assert frappe.query(self.QUERY).rows == want
