"""A thread-pool query executor with bounded, fair admission.

The serving model is deliberately simple — the paper's Frappé is an
interactive service: many developers fire ad-hoc queries while the
indexer keeps ingesting.  What that requires of the engine is exactly
what PR 4's snapshot layer provides (each query pins one epoch); what
it requires of the server is:

* **Bounded admission.**  The queue holds at most ``queue_capacity``
  waiting queries; beyond that :class:`~repro.errors.AdmissionError`
  is raised immediately (backpressure) instead of buffering without
  limit.
* **Fair share.**  A single chatty client cannot occupy the whole
  queue: with ``max_per_client`` set, a client over its share is
  refused even while the queue has room for others.
* **Cooperative deadlines.**  A query's ``QueryOptions.timeout`` is a
  promise about *latency from submission*, so queue wait counts
  against it.  Workers subtract the wait from the budget they hand the
  engine, and a query whose budget expired while queued fails with
  :class:`~repro.errors.QueryTimeoutError` without executing at all.

Everything observable is metered into the shared registry:
``server.submitted`` / ``server.rejected`` / ``server.completed`` /
``server.failed`` / ``server.timeouts`` counters, the
``server.queue_depth`` and ``server.active_workers`` gauges, and the
``server.queue_wait_seconds`` histogram.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.cypher.options import QueryOptions
from repro.errors import (AdmissionError, ExecutorShutdownError,
                          QueryTimeoutError, ServerClosedError)

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_CAPACITY = 64

#: minimum budget (seconds) handed to the engine when a deadline is
#: nearly exhausted at dequeue time — so the engine raises its own
#: uniform QueryTimeoutError instead of us special-casing "expired by
#: a hair while queued"
_MIN_BUDGET = 1e-9


@dataclass
class QueryJob:
    """One admitted query waiting for (or holding) a worker."""

    text: str
    options: QueryOptions
    client: str
    future: Future = field(default_factory=Future)
    submitted_at: float = 0.0
    #: monotonic instant the timeout budget runs out (None = no budget)
    deadline: float | None = None


class TaskHandle:
    """A claimable unit of intra-query work (``Executor.spawn_task``):
    one shard partial of a scattered query
    (:meth:`repro.server.shard.ShardRouter.execute`).

    Exactly one thread runs the task: a pool worker that claims it
    from the task deque, or the spawner itself inside :meth:`result`
    (caller-help). Caller-help is the no-deadlock guarantee — a
    scatter on a saturated pool degrades to collecting its own
    partials inline instead of waiting on workers that are all busy
    running queries that are themselves waiting on tasks.
    """

    __slots__ = ("_fn", "_claimed", "_lock", "_done", "_result",
                 "_error")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self._fn = fn
        self._claimed = False
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None

    def _claim(self) -> bool:
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
            return True

    def _run(self) -> None:
        try:
            self._result = self._fn()
        except BaseException as error:  # noqa: BLE001 - result re-raises
            self._error = error
        finally:
            self._done.set()

    def _fail(self, error: BaseException) -> bool:
        """Claim the task and resolve it with *error* without running
        it.  Returns False when some thread already claimed it (its
        outcome stands).  This is how :meth:`Executor.close` drains
        the task deque and how a scatter/gather caller releases
        partials it will never collect."""
        if not self._claim():
            return False
        self._error = error
        self._done.set()
        return True

    def cancel(self) -> bool:
        """Release an uncollected task: if no thread claimed it yet it
        resolves with :class:`~repro.errors.ServerClosedError` and
        ``True`` is returned; a task already running (or finished)
        keeps its outcome and ``False`` is returned.  Gather loops
        call this on remaining handles when one partial fails, so a
        scattered query never leaves claimable work behind."""
        return self._fail(ServerClosedError(
            "task released by its spawner before it ran"))

    def result(self) -> Any:
        """The task's return value (re-raises its exception).

        If no worker claimed the task yet, the calling thread claims
        and runs it here — so ``result()`` never deadlocks, even with
        zero free workers.
        """
        if self._claim():
            self._run()
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result


class Executor:
    """Runs queries on worker threads against one engine.

    Parameters
    ----------
    runner:
        ``callable(text, options) -> Result`` — normally a bound
        :meth:`CypherEngine.run`, called as
        ``runner(text, options=options)``.
    workers:
        Worker-thread count (the ``--workers`` of ``frappe serve``).
    queue_capacity:
        Maximum *waiting* queries; submissions beyond it are refused
        with :class:`~repro.errors.AdmissionError`.
    max_per_client:
        Fair-share bound on one client's in-flight queries (queued +
        running). ``None`` derives ``max(1, queue_capacity // 4)``; a
        submission over the bound is refused even if the queue has
        room.
    obs:
        An :class:`~repro.obs.Observability` bundle to meter into
        (the Frappé facade passes its own so server counters land in
        the same registry as engine counters). ``None`` disables
        metering.
    """

    def __init__(self, runner: Callable[..., Any], *,
                 workers: int = DEFAULT_WORKERS,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 max_per_client: int | None = None,
                 obs: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if max_per_client is not None and max_per_client < 1:
            raise ValueError("max_per_client must be >= 1")
        self._runner = runner
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.max_per_client = max_per_client \
            if max_per_client is not None \
            else max(1, queue_capacity // 4)
        self._queue: deque[QueryJob] = deque()
        #: intra-query work (shard partials) — preferred over new jobs
        #: so a running query finishes before fresh ones start
        self._tasks: deque[TaskHandle] = deque()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._in_flight: dict[str, int] = {}
        self._shutdown = False
        self._metered = obs is not None
        if self._metered:
            registry = obs.registry
            self._submitted = registry.counter("server.submitted")
            self._rejected = registry.counter("server.rejected")
            self._completed = registry.counter("server.completed")
            self._failed = registry.counter("server.failed")
            self._timeouts = registry.counter("server.timeouts")
            self._drained = registry.counter("server.drained")
            self._tasks_drained = registry.counter(
                "server.tasks_drained")
            self._tasks_spawned = registry.counter(
                "server.tasks_spawned")
            self._queue_depth = registry.gauge("server.queue_depth")
            self._active = registry.gauge("server.active_workers")
            self._wait = registry.histogram(
                "server.queue_wait_seconds")
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"frappe-query-{index}", daemon=True)
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(self, text: str, options: QueryOptions | None = None,
               *, client: str = "anonymous") -> Future:
        """Admit a query; returns a ``concurrent.futures.Future``.

        The future resolves to the engine's
        :class:`~repro.cypher.Result`, or raises the engine's error;
        ``future.cancel()`` works until a worker picks the job up.

        Raises :class:`~repro.errors.AdmissionError` (queue full or
        client over fair share — nothing was enqueued) or
        :class:`~repro.errors.ExecutorShutdownError`.
        """
        opts = options if options is not None else QueryOptions()
        job = QueryJob(text=text, options=opts, client=client)
        with self._work:
            if self._shutdown:
                raise ExecutorShutdownError(
                    "executor has shut down; no new queries accepted")
            if len(self._queue) >= self.queue_capacity:
                self._inc("_rejected")
                raise AdmissionError(
                    f"queue full ({self.queue_capacity} waiting "
                    "queries); retry later")
            held = self._in_flight.get(client, 0)
            if held >= self.max_per_client:
                self._inc("_rejected")
                raise AdmissionError(
                    f"client {client!r} already has {held} queries "
                    f"in flight (fair share {self.max_per_client})",
                    client=client)
            job.submitted_at = time.monotonic()
            if opts.timeout is not None:
                job.deadline = job.submitted_at + opts.timeout
            self._in_flight[client] = held + 1
            self._queue.append(job)
            self._inc("_submitted")
            self._set_gauge("_queue_depth", len(self._queue))
            self._work.notify()
        return job.future

    def spawn_task(self, fn: Callable[[], Any]) -> TaskHandle:
        """Offer *fn* to the pool as intra-query work — the shard
        router's scatter runs each shard partial this way, so the
        partials wait on their replica pipes concurrently.

        Unlike :meth:`submit`, tasks bypass admission control: they
        are fractions of an already-admitted query, so refusing them
        would double-charge the client. Workers prefer tasks over new
        jobs (finish what's running first); if every worker is busy,
        the spawner's ``result()`` call runs the task inline
        (caller-help), so spawning is always safe — including after
        shutdown, when the task simply never reaches a worker.
        """
        handle = TaskHandle(fn)
        with self._work:
            if not self._shutdown:
                self._tasks.append(handle)
                self._inc("_tasks_spawned")
                self._work.notify()
        return handle

    def map(self, texts: list[str],
            options: QueryOptions | None = None,
            *, client: str = "anonymous") -> list[Future]:
        """Submit a batch; admission errors abort the remainder."""
        return [self.submit(text, options, client=client)
                for text in texts]

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting queries; optionally wait for the backlog.

        Already-admitted queries still run to completion (their
        futures resolve); only new submissions are refused.
        """
        with self._work:
            self._shutdown = True
            self._work.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries and *drain* the admission queue.

        Unlike :meth:`shutdown`, queued-but-not-yet-running queries do
        not run: each drained job's future fails deterministically
        with :class:`~repro.errors.ServerClosedError` (never a hang,
        never a bare ``CancelledError``), so a caller blocked in
        ``future.result()`` returns immediately. Queries a worker
        already picked up still run to completion; with ``wait=True``
        the call returns only once the worker threads exit.

        Unclaimed intra-query tasks (:meth:`spawn_task`) are drained
        the same way: each unclaimed handle resolves with
        :class:`~repro.errors.ServerClosedError` instead of lingering
        on the task deque, so a scatter/gather caller blocked in
        ``TaskHandle.result()`` unblocks and can release its gathered
        partials instead of leaking them.
        """
        with self._work:
            self._shutdown = True
            drained = list(self._queue)
            self._queue.clear()
            task_backlog = list(self._tasks)
            self._tasks.clear()
            for job in drained:
                remaining = self._in_flight.get(job.client, 1) - 1
                if remaining > 0:
                    self._in_flight[job.client] = remaining
                else:
                    self._in_flight.pop(job.client, None)
            self._set_gauge("_queue_depth", 0)
            self._work.notify_all()
        error = ServerClosedError(
            "executor closed; the query was drained from the "
            "admission queue before a worker picked it up")
        for job in drained:
            # a job someone already cancelled stays cancelled; every
            # other drained future carries the deterministic error
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(error)
                self._inc("_drained")
        task_error = ServerClosedError(
            "executor closed; the task was drained before any worker "
            "claimed it")
        for handle in task_backlog:
            # a task already claimed (by a worker or by caller-help)
            # keeps its outcome; every other handle resolves with the
            # deterministic error
            if handle._fail(task_error):
                self._inc("_tasks_drained")
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    def in_flight(self, client: str) -> int:
        """Queued + running queries charged to *client*."""
        with self._lock:
            return self._in_flight.get(client, 0)

    # -- worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not self._tasks and not self._queue \
                        and not self._shutdown:
                    self._work.wait()
                if self._tasks:
                    task = self._tasks.popleft()
                    # run outside the lock; a task some caller already
                    # helped with is simply skipped
                    job = None
                elif self._queue:
                    task = None
                    job = self._queue.popleft()
                    self._set_gauge("_queue_depth", len(self._queue))
                else:
                    return  # shutdown with a drained queue
            if task is not None:
                if task._claim():
                    task._run()
                continue
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    remaining = self._in_flight.get(job.client, 1) - 1
                    if remaining > 0:
                        self._in_flight[job.client] = remaining
                    else:
                        self._in_flight.pop(job.client, None)

    def _run_job(self, job: QueryJob) -> None:
        if not job.future.set_running_or_notify_cancel():
            return  # cancelled while queued
        now = time.monotonic()
        wait = now - job.submitted_at
        self._observe("_wait", wait)
        options = job.options
        if job.deadline is not None:
            # the queue wait already consumed part of the budget;
            # hand the engine only what's left so "timeout=2.0" means
            # two seconds from submit, not from dequeue
            budget = max(job.deadline - now, _MIN_BUDGET)
            options = replace(options, timeout=budget)
        self._gauge_delta("_active", +1)
        try:
            result = self._runner(job.text, options=options)
        except QueryTimeoutError as error:
            self._inc("_timeouts")
            self._inc("_failed")
            job.future.set_exception(error)
        except BaseException as error:  # noqa: BLE001 - future carries it
            self._inc("_failed")
            job.future.set_exception(error)
        else:
            self._inc("_completed")
            job.future.set_result(result)
        finally:
            self._gauge_delta("_active", -1)

    # -- metering ------------------------------------------------------

    def _inc(self, name: str) -> None:
        if self._metered:
            getattr(self, name).inc()

    def _set_gauge(self, name: str, value: float) -> None:
        if self._metered:
            getattr(self, name).set(value)

    def _observe(self, name: str, value: float) -> None:
        if self._metered:
            getattr(self, name).observe(value)

    def _gauge_delta(self, name: str, delta: int) -> None:
        if not self._metered:
            return
        gauge = getattr(self, name)
        if delta > 0:
            gauge.inc(delta)
        else:
            gauge.dec(-delta)

    def __repr__(self) -> str:
        with self._lock:
            state = "shut down" if self._shutdown else "serving"
            return (f"Executor({self.workers} workers, "
                    f"{len(self._queue)}/{self.queue_capacity} "
                    f"queued, {state})")
