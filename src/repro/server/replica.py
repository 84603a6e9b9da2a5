"""Multi-process read replicas over one immutable store.

The millions-of-users topology from the ROADMAP: a parent router and
``N`` worker processes that each ``Frappe.open`` the *same* store
directory with ``StoreConfig(mmap=True)``. The store is immutable and
memory-mapped, so the operating system shares one page cache across
every replica — adding a replica costs a process, not a copy of the
graph — and because each replica is its own interpreter, the GIL stops
being the serving bottleneck.

Topology::

    client ─ HTTP ─▶ parent router (asyncio + fair-share Executor)
                        │ least-loaded dispatch, pickle pipes
            ┌───────────┼───────────┐
            ▼           ▼           ▼
        worker 0     worker 1     worker 2      (spawned processes)
        mmap store   mmap store   mmap store    (one OS page cache)

Protocol (pickle frames over a duplex pipe): the parent sends
``{"op": "query", "id", "text", "options", "deadline"}`` and the
worker answers ``{"id", "ok": True, "payload": <NDJSON bytes>}`` or
``{"id", "ok": False, "error": <wire error dict>}`` — the payload is
pre-serialized *in the worker*, so the router never re-encodes rows,
it just frames bytes into the HTTP response. ``metrics`` and ``stop``
are the admin ops.

Crash handling: a pump thread per replica turns pipe EOF into
:class:`~repro.errors.ReplicaCrashedError` for that replica's
in-flight queries; :meth:`ReplicaSet.execute` catches it and replays
the query on a surviving replica (safe — the store is read-only), and
the set respawns the dead worker in the background. A client therefore
never observes a worker crash, only (bounded) extra latency.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from typing import Any

from repro.cypher.options import QueryOptions
from repro.errors import (FrappeError, QueryTimeoutError,
                          ReplicaCrashedError, ServerError)
from repro.obs import Observability
from repro.server import wire
from repro.server.executor import Executor

#: Seconds a worker gets to open the store and report ready.
STARTUP_TIMEOUT = 60.0

#: Seed for a fresh replica's reply-size EWMA: one page of NDJSON.
#: Until real replies arrive every replica scores identically, so the
#: router degenerates to the old least-in-flight-count behaviour.
INITIAL_REPLY_BYTES = 4096.0

#: EWMA smoothing for observed reply payload sizes. 0.2 keeps ~5
#: recent replies of memory — fast enough to follow a workload shift,
#: slow enough that one outlier reply does not blacklist a replica.
REPLY_BYTES_ALPHA = 0.2

#: spawn, not fork: the parent runs pump threads and an asyncio loop,
#: and forking a threaded process can clone held locks into the child.
_CONTEXT = multiprocessing.get_context("spawn")


def _worker_main(conn: Any, store_dir: str,
                 config_payload: dict[str, Any]) -> None:
    """One replica process: open the store, answer pipe requests.

    Runs single-threaded and in request order — determinism the
    crash-replay logic relies on (a replayed query cannot interleave
    with itself).  A store that cannot be opened is answered with an
    ``error`` handshake the parent raises, not a traceback.
    """
    # import here: under the spawn start method this module is
    # re-imported in a fresh interpreter before this function runs
    from repro.core.config import StoreConfig
    from repro.core.frappe import Frappe

    try:
        frappe = Frappe.open(store_dir,
                             config=StoreConfig.from_dict(config_payload))
    except FrappeError as error:
        conn.send({"op": "error", "error": wire.error_to_dict(error)})
        return
    try:
        conn.send({"op": "ready", "pid": os.getpid()})
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away
            op = message.get("op")
            if op == "stop":
                break
            if op == "query":
                conn.send(_run_query(frappe, message))
            elif op == "metrics":
                conn.send({"id": message["id"], "ok": True,
                           "pid": os.getpid(),
                           "metrics":
                           frappe.counters().as_dict()})
            else:
                conn.send({"id": message.get("id"), "ok": False,
                           "error": {"type": "ServerError",
                                     "message":
                                     f"unknown op {op!r}"}})
    finally:
        frappe.close()


def _run_query(frappe: Any, message: dict[str, Any]) -> dict[str, Any]:
    try:
        options = QueryOptions.from_dict(message.get("options") or {})
        deadline = message.get("deadline")
        if deadline is not None:
            # monotonic clocks are process-shared on Linux: recompute
            # the remaining budget so time spent queued in this
            # replica's pipe counts against the query, exactly like
            # the executor's queue wait does in-process
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise QueryTimeoutError(options.timeout or 0.0)
            options = QueryOptions.resolve(options, timeout=remaining)
        result = frappe.query(message["text"], options=options)
        return {"id": message["id"], "ok": True,
                "payload": wire.result_to_ndjson(result)}
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        return {"id": message["id"], "ok": False,
                "error": wire.error_to_dict(error)}


class _PendingReply:
    """A parent-side slot one pipe request resolves into."""

    __slots__ = ("event", "message")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.message: dict[str, Any] | None = None

    def resolve(self, message: dict[str, Any] | None) -> None:
        self.message = message
        self.event.set()


class Replica:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int, store_dir: str,
                 config_payload: dict[str, Any]) -> None:
        self.index = index
        parent_conn, child_conn = _CONTEXT.Pipe(duplex=True)
        self.process = _CONTEXT.Process(
            target=_worker_main,
            args=(child_conn, store_dir, config_payload),
            name=f"frappe-replica-{index}", daemon=True)
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        if not parent_conn.poll(STARTUP_TIMEOUT):
            self.process.terminate()
            raise ServerError(
                f"replica {index} did not become ready within "
                f"{STARTUP_TIMEOUT:.0f}s")
        try:
            ready = parent_conn.recv()
        except (EOFError, OSError) as error:
            self.process.join(timeout=5.0)
            raise ServerError(
                f"replica {index} died while opening the store "
                f"(exit code {self.process.exitcode})") from error
        if ready.get("op") == "error":
            self.process.join(timeout=5.0)
            parent_conn.close()
            raise wire.exception_from_dict(ready["error"])
        if ready.get("op") != "ready":
            self.process.terminate()
            raise ServerError(
                f"replica {index} sent {ready!r} instead of a ready "
                "handshake")
        self.pid: int = ready["pid"]
        self.alive = True
        self.in_flight = 0
        self.in_flight_bytes = 0.0
        self._bytes_ewma = INITIAL_REPLY_BYTES
        self._ids = itertools.count()
        self._pending: dict[int, _PendingReply] = {}
        self._lock = threading.Lock()
        self._on_death: Any = None  # set by the owning ReplicaSet
        self._pump = threading.Thread(
            target=self._pump_loop,
            name=f"frappe-replica-pump-{index}", daemon=True)
        self._pump.start()

    # -- request/reply -------------------------------------------------

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one op and block for its reply (thread-safe).

        Raises :class:`~repro.errors.ReplicaCrashedError` if the
        worker dies before answering.
        """
        slot = _PendingReply()
        with self._lock:
            if not self.alive:
                raise ReplicaCrashedError(
                    f"replica {self.index} (pid {self.pid}) is down")
            request_id = next(self._ids)
            self._pending[request_id] = slot
            self.in_flight += 1
            # charge the dispatch at the replica's current expected
            # reply size; settled against the observed size on reply
            estimate = self._bytes_ewma
            self.in_flight_bytes += estimate
            try:
                self._conn.send({**message, "id": request_id})
            except (BrokenPipeError, OSError) as error:
                self._pending.pop(request_id, None)
                self.in_flight -= 1
                self.in_flight_bytes -= estimate
                # a broken pipe is definitive death: mark it here so
                # the caller's retry cannot re-pick this replica while
                # the pump thread is still blocked on its EOF (on a
                # loaded box that window is long enough for a retry
                # loop to burn every attempt on the same dead worker)
                self.alive = False
                raise ReplicaCrashedError(
                    f"replica {self.index} pipe closed mid-send"
                ) from error
        try:
            slot.event.wait()
        finally:
            with self._lock:
                self.in_flight -= 1
                self.in_flight_bytes -= estimate
                payload = (slot.message or {}).get("payload")
                if isinstance(payload, (bytes, bytearray)):
                    self._bytes_ewma += REPLY_BYTES_ALPHA * (
                        len(payload) - self._bytes_ewma)
        if slot.message is None:
            raise ReplicaCrashedError(
                f"replica {self.index} (pid {self.pid}) died with "
                "the query in flight")
        return slot.message

    def _pump_loop(self) -> None:
        """Read replies until the pipe dies, then fail the stragglers."""
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            slot = None
            with self._lock:
                slot = self._pending.pop(message.get("id"), None)
            if slot is not None:
                slot.resolve(message)
        with self._lock:
            self.alive = False
            stragglers = list(self._pending.values())
            self._pending.clear()
        for slot in stragglers:
            slot.resolve(None)  # -> ReplicaCrashedError in request()
        callback = self._on_death
        if callback is not None:
            callback(self)

    def load(self) -> float:
        """Dispatch score: estimated bytes still owed by this worker.

        A count-only score dispatches a point lookup behind a replica
        that is serializing a multi-megabyte traversal reply while its
        siblings sit idle at the same job count — the 4-replica
        regression recorded in BENCH_PR7.json / EXPERIMENTS.md. Bytes
        in flight (each dispatch charged at the replica's reply-size
        EWMA) makes expensive queries visibly expensive to the router.
        """
        with self._lock:
            return self.in_flight_bytes

    # -- lifecycle -----------------------------------------------------

    def stop(self, join_timeout: float = 10.0) -> None:
        self._on_death = None
        with self._lock:
            self.alive = False
        try:
            self._conn.send({"op": "stop"})
        except (BrokenPipeError, OSError):
            pass
        self.process.join(join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(join_timeout)
        self._conn.close()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"Replica({self.index}, pid={self.pid}, {state}, "
                f"{self.in_flight} in flight)")


class ReplicaSet:
    """N worker processes serving one immutable store.

    Parameters
    ----------
    store_dir:
        The saved store every replica opens.
    replicas:
        Worker-process count.
    config:
        Per-worker open configuration
        (:class:`~repro.core.config.StoreConfig`); defaults to
        ``mmap=True`` so replicas share the OS page cache.
    respawn:
        Replace a crashed worker automatically (on by default; the
        crash-respawn test and ``frappe serve --replicas`` rely on
        it).
    obs:
        Metrics sink: ``replica.dispatched`` / ``replica.retries`` /
        ``replica.crashes`` / ``replica.respawns`` counters and the
        ``replica.alive`` gauge.
    """

    def __init__(self, store_dir: str, replicas: int = 2, *,
                 config: Any = None, respawn: bool = True,
                 obs: Observability | None = None) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        from repro.core.config import StoreConfig
        if config is None:
            config = StoreConfig(mmap=True)
        self.store_dir = store_dir
        self.configured = replicas
        self.config = config
        self._respawn = respawn
        self.obs = obs if obs is not None else Observability()
        registry = self.obs.registry
        self._dispatched = registry.counter("replica.dispatched")
        self._retries = registry.counter("replica.retries")
        self._crashes = registry.counter("replica.crashes")
        self._respawns = registry.counter("replica.respawns")
        self._alive_gauge = registry.gauge("replica.alive")
        self._lock = threading.Lock()
        self._closing = False
        self._rr = itertools.count()
        self._replicas: list[Replica] = []
        try:
            for index in range(replicas):
                self._replicas.append(self._spawn(index))
        except BaseException:
            self.close()
            raise
        self._alive_gauge.set(len(self._replicas))

    def _spawn(self, index: int) -> Replica:
        replica = Replica(index, self.store_dir, self.config.to_dict())
        replica._on_death = self._replica_died
        return replica

    # -- routing -------------------------------------------------------

    def _pick(self) -> Replica:
        """Least-loaded live replica; round-robin breaks ties.

        Load is :meth:`Replica.load` — estimated reply bytes in
        flight, not job count — so one replica grinding a large
        traversal reply stops absorbing point lookups that an idle
        sibling could answer immediately.
        """
        with self._lock:
            live = [replica for replica in self._replicas
                    if replica.alive]
            if not live:
                raise ServerError(
                    "no live replicas (all workers down)")
            offset = next(self._rr) % len(live)
            rotated = live[offset:] + live[:offset]
        return min(rotated, key=lambda replica: replica.load())

    def execute(self, text: str,
                options: QueryOptions | None = None) -> bytes:
        """Run one query on some replica; returns NDJSON payload bytes.

        Thread-safe (the fair-share executor calls this from its
        worker threads). A replica crash mid-query is retried on the
        survivors — the store is immutable, so a replay returns the
        same rows.
        """
        message: dict[str, Any] = {
            "op": "query", "text": text,
            "options": options.to_dict() if options is not None
            else {}}
        if options is not None and options.timeout is not None:
            message["deadline"] = time.monotonic() + options.timeout
        attempts = self.configured + 1
        for attempt in range(attempts):
            replica = self._pick()
            self._dispatched.inc()
            try:
                reply = replica.request(message)
            except ReplicaCrashedError:
                self._retries.inc()
                continue
            if reply["ok"]:
                return reply["payload"]
            raise wire.exception_from_dict(reply["error"])
        raise ServerError(
            f"query failed on {attempts} replicas in a row; "
            "serving tier is unhealthy")

    # -- crash handling ------------------------------------------------

    def _replica_died(self, dead: Replica) -> None:
        """Pump-thread callback: account the crash, maybe respawn."""
        self._crashes.inc()
        with self._lock:
            if self._closing or dead not in self._replicas:
                return
            self._replicas.remove(dead)
            self._alive_gauge.set(len(self._replicas))
            index = dead.index
        dead.process.join(timeout=1.0)
        if not self._respawn:
            return
        try:
            replacement = self._spawn(index)
        except Exception:  # noqa: BLE001 - crash loop; gauge shows the hole
            return
        with self._lock:
            if self._closing:
                replacement.stop()
                return
            self._replicas.append(replacement)
            self._alive_gauge.set(len(self._replicas))
        self._respawns.inc()

    # -- introspection -------------------------------------------------

    def alive(self) -> int:
        with self._lock:
            return sum(1 for replica in self._replicas
                       if replica.alive)

    def pids(self) -> list[int]:
        """Live worker pids (the crash test kills one of these)."""
        with self._lock:
            return [replica.pid for replica in self._replicas
                    if replica.alive]

    def metrics(self) -> list[dict[str, Any]]:
        """Each live replica's counter snapshot (admin op)."""
        with self._lock:
            replicas = [replica for replica in self._replicas
                        if replica.alive]
        reports = []
        for replica in replicas:
            try:
                reply = replica.request({"op": "metrics"})
            except ReplicaCrashedError:
                continue
            reports.append({"pid": reply["pid"],
                            "metrics": reply["metrics"]})
        return reports

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closing = True
            replicas = list(self._replicas)
            self._replicas.clear()
        for replica in replicas:
            replica.stop()
        self._alive_gauge.set(0)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ReplicaSet({self.alive()}/{self.configured} alive, "
                f"store={self.store_dir!r})")


class ReplicaBackend:
    """The :class:`~repro.server.http.HttpServer` backend for a
    :class:`ReplicaSet`.

    Admission reuses the PR 4 fair-share executor: its worker threads
    are *dispatch* threads (they block on a pipe, not the GIL), so the
    pool is sized at ``2 x replicas`` by default to keep every worker
    process busy while requests overlap.
    """

    def __init__(self, replicas: ReplicaSet, *,
                 workers: int | None = None,
                 queue_capacity: int = 64,
                 max_per_client: int | None = None) -> None:
        self.replicas = replicas
        self.obs = replicas.obs
        if workers is None:
            workers = max(2, 2 * replicas.configured)
        self._executor = Executor(
            self._run, workers=workers, queue_capacity=queue_capacity,
            max_per_client=max_per_client, obs=self.obs)

    def _run(self, text: str, options: Any = None) -> bytes:
        return self.replicas.execute(text, options)

    def submit(self, text: str, options: Any, client: str):
        return self._executor.submit(text, options, client=client)

    def health(self) -> dict[str, Any]:
        return {"mode": "replicas",
                "replicas": {"alive": self.replicas.alive(),
                             "configured": self.replicas.configured},
                "workers": self._executor.workers}

    def metrics(self) -> dict[str, Any]:
        return {"server": self.obs.registry.snapshot().as_dict(),
                "replicas": self.replicas.metrics()}

    def close(self) -> None:
        self._executor.close(wait=True)
        self.replicas.close()


__all__ = ["Replica", "ReplicaBackend", "ReplicaSet", "_worker_main"]
