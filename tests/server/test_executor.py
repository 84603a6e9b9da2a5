"""The concurrent serving executor: admission, deadlines, metering."""

import threading
import time

import pytest

from repro.core.frappe import Frappe
from repro.cypher import QueryOptions, Result
from repro.errors import (AdmissionError, ExecutorShutdownError,
                          QueryTimeoutError, ServerClosedError)
from repro.graphdb import PropertyGraph
from repro.obs import Observability
from repro.server import Executor


class Gate:
    """A runner whose jobs block until released (controls the pool)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, text, options=None):
        with self.lock:
            self.calls.append((text, options))
        self.started.set()
        if not self.release.wait(timeout=10.0):
            raise TimeoutError("gate never released")
        if options is not None and options.timeout is not None \
                and options.timeout < 1e-6:
            raise QueryTimeoutError(options.timeout)
        return text.upper()


def make_executor(runner, **kwargs):
    kwargs.setdefault("obs", Observability())
    return Executor(runner, **kwargs)


class TestBasics:
    def test_submit_resolves_future(self):
        with make_executor(lambda text, options=None: text * 2,
                           workers=2) as executor:
            future = executor.submit("ab")
            assert future.result(timeout=5.0) == "abab"

    def test_map_preserves_order(self):
        with make_executor(lambda text, options=None: text.upper(),
                           workers=4) as executor:
            futures = executor.map(["a", "b", "c"])
            assert [f.result(timeout=5.0) for f in futures] == \
                ["A", "B", "C"]

    def test_runner_error_lands_on_future(self):
        def boom(text, options=None):
            raise ValueError("bad query")

        with make_executor(boom, workers=1) as executor:
            future = executor.submit("x")
            with pytest.raises(ValueError, match="bad query"):
                future.result(timeout=5.0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Executor(print, workers=0)
        with pytest.raises(ValueError):
            Executor(print, queue_capacity=0)
        with pytest.raises(ValueError):
            Executor(print, max_per_client=0)


class TestAdmission:
    def test_queue_full_backpressure(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=2,
                                 max_per_client=100)
        try:
            first = executor.submit("running")
            gate.started.wait(timeout=5.0)
            executor.submit("queued-1")
            executor.submit("queued-2")
            with pytest.raises(AdmissionError, match="queue full"):
                executor.submit("overflow")
            snapshot = executor._submitted  # noqa: SLF001
            assert snapshot.value == 3
            assert executor._rejected.value == 1  # noqa: SLF001
        finally:
            gate.release.set()
            executor.shutdown(wait=True)
        assert first.result(timeout=5.0) == "RUNNING"

    def test_fair_share_per_client(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10,
                                 max_per_client=2)
        try:
            executor.submit("a", client="greedy")
            gate.started.wait(timeout=5.0)
            executor.submit("b", client="greedy")
            with pytest.raises(AdmissionError) as excinfo:
                executor.submit("c", client="greedy")
            assert excinfo.value.client == "greedy"
            # another client still gets in: the queue has room
            other = executor.submit("d", client="polite")
            assert executor.in_flight("greedy") == 2
            assert executor.in_flight("polite") == 1
        finally:
            gate.release.set()
            executor.shutdown(wait=True)
        assert other.result(timeout=5.0) == "D"
        assert executor.in_flight("greedy") == 0

    def test_default_fair_share_derived(self):
        executor = make_executor(print, queue_capacity=64)
        try:
            assert executor.max_per_client == 16
        finally:
            executor.shutdown(wait=True)

    def test_submit_after_shutdown(self):
        executor = make_executor(lambda text, options=None: text)
        executor.shutdown(wait=True)
        with pytest.raises(ExecutorShutdownError):
            executor.submit("late")

    def test_cancel_while_queued(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            executor.submit("running")
            gate.started.wait(timeout=5.0)
            queued = executor.submit("victim")
            assert queued.cancel()
        finally:
            gate.release.set()
            executor.shutdown(wait=True)
        assert queued.cancelled()
        # the cancelled job never reached the runner
        assert all(text != "victim" for text, _ in gate.calls)


class TestCloseDrain:
    """Regression: close() must drain the queue deterministically.

    shutdown() runs the backlog to completion; close() instead fails
    every queued-but-not-running future with ServerClosedError — a
    caller blocked in future.result() returns immediately instead of
    hanging on jobs no worker will ever pick up.
    """

    def test_queued_futures_raise_server_closed(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10,
                                 max_per_client=10)
        running = executor.submit("running")
        assert gate.started.wait(timeout=5.0)
        queued = [executor.submit(f"queued-{i}") for i in range(3)]
        closer = threading.Thread(
            target=executor.close, kwargs={"wait": True})
        closer.start()
        # drained futures resolve before the in-flight query finishes
        for future in queued:
            with pytest.raises(ServerClosedError):
                future.result(timeout=5.0)
        gate.release.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        # the job a worker already held still ran to completion
        assert running.result(timeout=5.0) == "RUNNING"
        assert [text for text, _ in gate.calls] == ["running"]

    def test_close_refuses_new_submissions(self):
        executor = make_executor(lambda text, options=None: text)
        executor.close(wait=True)
        with pytest.raises(ExecutorShutdownError):
            executor.submit("late")

    def test_drained_jobs_release_fair_share_accounting(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10,
                                 max_per_client=5)
        executor.submit("running", client="alice")
        assert gate.started.wait(timeout=5.0)
        for index in range(3):
            executor.submit(f"queued-{index}", client="alice")
        assert executor.in_flight("alice") == 4
        gate.release.set()
        executor.close(wait=True)
        assert executor.in_flight("alice") == 0
        assert executor.queued == 0

    def test_cancelled_job_stays_cancelled_through_close(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        executor.submit("running")
        assert gate.started.wait(timeout=5.0)
        queued = executor.submit("victim")
        assert queued.cancel()
        gate.release.set()
        executor.close(wait=True)
        assert queued.cancelled()

    def test_close_meters_drained_counter(self):
        gate = Gate()
        obs = Observability()
        executor = Executor(gate, workers=1, queue_capacity=10,
                            obs=obs)
        executor.submit("running")
        assert gate.started.wait(timeout=5.0)
        executor.submit("queued")
        gate.release.set()
        executor.close(wait=True)
        assert obs.registry.snapshot().counter("server.drained") == 1


class TestSpawnTask:
    """Morsel tasks (ISSUE 8): fractions of an already-admitted query
    offered to the pool. They bypass admission, workers prefer them
    over new jobs, and result() helps instead of deadlocking."""

    def test_task_runs_on_a_worker(self):
        obs = Observability()
        with make_executor(lambda text, options=None: text,
                           workers=2, obs=obs) as executor:
            handle = executor.spawn_task(lambda: 41 + 1)
            assert handle.result() == 42
            snapshot = obs.registry.snapshot()
            assert snapshot.counter("server.tasks_spawned") == 1

    def test_task_error_propagates(self):
        with make_executor(lambda text, options=None: text,
                           workers=2) as executor:
            def boom():
                raise ValueError("morsel exploded")
            handle = executor.spawn_task(boom)
            with pytest.raises(ValueError, match="morsel exploded"):
                handle.result()

    def test_caller_helps_when_pool_is_saturated(self):
        # every worker is wedged behind the gate: result() must claim
        # and run the task on the calling thread, not deadlock
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            blocked = executor.submit("blocked")
            assert gate.started.wait(timeout=5.0)
            ran_on = []
            handle = executor.spawn_task(
                lambda: ran_on.append(threading.current_thread().name)
                or "done")
            assert handle.result() == "done"
            assert ran_on == [threading.current_thread().name]
        finally:
            gate.release.set()
            assert blocked.result(timeout=5.0) == "BLOCKED"
            executor.close(wait=True)

    def test_task_runs_once_under_racing_result_calls(self):
        with make_executor(lambda text, options=None: text,
                           workers=4) as executor:
            runs = []
            lock = threading.Lock()

            def task():
                with lock:
                    runs.append(1)
                return len(runs)

            handles = [executor.spawn_task(task) for _ in range(8)]
            results = []
            threads = [threading.Thread(
                target=lambda h=h: results.append(h.result()))
                for h in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert len(runs) == 8  # each task exactly once

    def test_spawn_after_close_still_completes(self):
        executor = make_executor(lambda text, options=None: text,
                                 workers=1)
        executor.close(wait=True)
        # no worker will ever claim it; caller-help covers it
        handle = executor.spawn_task(lambda: "late")
        assert handle.result() == "late"


class TestDeadlines:
    def test_queue_wait_counts_against_budget(self):
        # with the only worker blocked, a queued query's budget drains
        # while it waits; the runner must receive the reduced remainder
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            executor.submit("blocker")
            gate.started.wait(timeout=5.0)
            queued = executor.submit(
                "waiter", QueryOptions(timeout=30.0))
            time.sleep(0.05)
        finally:
            gate.release.set()
        queued.result(timeout=5.0)
        executor.shutdown(wait=True)
        options = dict(gate.calls)["waiter"]
        assert options.timeout < 30.0
        assert options.timeout > 29.0

    def test_budget_expired_in_queue_times_out(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            executor.submit("blocker")
            gate.started.wait(timeout=5.0)
            doomed = executor.submit(
                "doomed", QueryOptions(timeout=0.01))
            time.sleep(0.05)  # budget gone while queued
        finally:
            gate.release.set()
        with pytest.raises(QueryTimeoutError):
            doomed.result(timeout=5.0)
        executor.shutdown(wait=True)
        assert executor._timeouts.value == 1  # noqa: SLF001

    def test_no_timeout_passes_options_through(self):
        gate = Gate()
        executor = make_executor(gate, workers=1)
        gate.release.set()
        try:
            options = QueryOptions(max_rows=7)
            executor.submit("q", options).result(timeout=5.0)
        finally:
            executor.shutdown(wait=True)
        assert dict(gate.calls)["q"] is options


class TestMetering:
    def test_counters_and_wait_histogram(self):
        obs = Observability()
        executor = Executor(lambda text, options=None: text,
                            workers=2, obs=obs)
        try:
            futures = executor.map(["a", "b", "c"])
            for future in futures:
                future.result(timeout=5.0)
        finally:
            executor.shutdown(wait=True)
        snapshot = obs.registry.snapshot()
        assert snapshot.counter("server.submitted") == 3
        assert snapshot.counter("server.completed") == 3
        assert snapshot.counter("server.failed") == 0
        assert snapshot.histogram("server.queue_wait_seconds").count \
            == 3
        assert snapshot.gauge("server.active_workers") == 0
        assert snapshot.gauge("server.queue_depth") == 0

    def test_unmetered_executor_works(self):
        executor = Executor(lambda text, options=None: text, workers=1)
        try:
            assert executor.submit("q").result(timeout=5.0) == "q"
        finally:
            executor.shutdown(wait=True)


class TestFrappeIntegration:
    @pytest.fixture
    def frappe(self):
        graph = PropertyGraph()
        for name in ("alpha", "beta", "gamma"):
            graph.add_node("function", short_name=name, type="function")
        instance = Frappe(graph)
        yield instance
        instance.close()

    QUERY = "MATCH (n:function) RETURN n.short_name ORDER BY n.short_name"

    def test_query_async_matches_sync(self, frappe):
        sync = frappe.query(self.QUERY)
        result = frappe.query_async(self.QUERY).result(timeout=5.0)
        assert isinstance(result, Result)
        assert result.values() == sync.values()
        assert result.stats.epoch == sync.stats.epoch

    def test_served_query_matches_sync_accounting(self):
        # a query run on the serving pool executes exactly as the
        # synchronous call: same rows, db-hits and expansions
        graph = PropertyGraph()
        nodes = [graph.add_node("function", short_name=f"f{index}")
                 for index in range(40)]
        for index, node in enumerate(nodes):
            graph.add_edge(node, nodes[(index * 7 + 1) % 40], "calls")
            graph.add_edge(node, nodes[(index + 3) % 40], "calls")
        options = QueryOptions(profile=True, execution_mode="batch",
                               morsel_size=4)
        with Frappe(graph) as frappe:
            frappe.serve(2)
            for text in (
                    "MATCH (n:function) RETURN n.short_name",
                    "MATCH (a:function {short_name: 'f0'})"
                    "-[:calls*]->(b) RETURN DISTINCT b.short_name"):
                sync = frappe.query(text, options=options)
                served = frappe.query_async(
                    text, options=options).result(timeout=10.0)
                assert served.rows == sync.rows
                assert served.stats.db_hits == sync.stats.db_hits > 0
                assert served.stats.expansions == sync.stats.expansions

    def test_concurrent_submitters(self, frappe):
        frappe.serve(workers=4)
        futures = [frappe.query_async(self.QUERY, client=f"c{i % 3}")
                   for i in range(24)]
        values = [future.result(timeout=10.0).values()
                  for future in futures]
        assert all(v == ["alpha", "beta", "gamma"] for v in values)
        snapshot = frappe.counters()
        assert snapshot.counter("server.completed") == 24
        assert snapshot.counter("query.count") == 24

    def test_serve_shape_fixed_by_first_call(self, frappe):
        executor = frappe.serve(workers=2)
        assert frappe.serve(workers=8) is executor
        assert executor.workers == 2

    def test_close_shuts_executor_down(self, frappe):
        executor = frappe.serve(workers=1)
        frappe.close()
        with pytest.raises(ExecutorShutdownError):
            executor.submit(self.QUERY)
        # the facade itself serves again with a fresh pool
        result = frappe.query_async(self.QUERY).result(timeout=5.0)
        assert result.values() == ["alpha", "beta", "gamma"]

    def test_query_async_while_writing(self, frappe):
        # a writer keeps mutating while queries are in flight; every
        # result must be internally consistent (snapshot-isolated)
        frappe.serve(workers=4)
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                frappe.view.add_node("function",
                                     short_name=f"late{index:03d}",
                                     type="function")
                index += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            futures = [frappe.query_async(
                "MATCH (n:function) RETURN count(*)",
                client=f"reader-{index % 4}")
                for index in range(20)]
            counts = [future.result(timeout=10.0).value()
                      for future in futures]
        finally:
            stop.set()
            thread.join()
        assert all(count >= 3 for count in counts)


class TestTaskDrain:
    """Regression (ISSUE 9): close() during a scatter must not leave
    gathered partials unreleased.

    Before the fix, close() only drained the admission queue; spawned
    task handles stayed on the task deque forever, so a gatherer that
    had not yet collected them blocked in result() (or, with
    caller-help, silently ran partials on a closed server). Now every
    unclaimed handle resolves with ServerClosedError and is metered.
    """

    def test_close_drains_unclaimed_tasks(self):
        gate = Gate()
        obs = Observability()
        executor = Executor(gate, workers=1, queue_capacity=10,
                            obs=obs)
        blocked = executor.submit("blocked")
        assert gate.started.wait(timeout=5.0)
        ran = []
        handles = [executor.spawn_task(
            lambda index=index: ran.append(index))
            for index in range(3)]
        executor.close(wait=False)
        for handle in handles:
            with pytest.raises(ServerClosedError):
                handle.result()
        assert ran == []  # drained, not run via caller-help
        snapshot = obs.registry.snapshot()
        assert snapshot.counter("server.tasks_drained") == 3
        gate.release.set()
        assert blocked.result(timeout=5.0) == "BLOCKED"
        executor.close(wait=True)

    def test_cancel_releases_unclaimed_task(self):
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            wedge = executor.submit("wedge")
            assert gate.started.wait(timeout=5.0)
            ran = []
            handle = executor.spawn_task(lambda: ran.append(1))
            assert handle.cancel() is True
            with pytest.raises(ServerClosedError):
                handle.result()
            assert ran == []
        finally:
            gate.release.set()
            assert wedge.result(timeout=5.0) == "WEDGE"
            executor.close(wait=True)

    def test_cancel_respects_a_claimed_task(self):
        with make_executor(lambda text, options=None: text,
                           workers=2) as executor:
            handle = executor.spawn_task(lambda: 7)
            assert handle.result() == 7
            assert handle.cancel() is False  # outcome stands
            assert handle.result() == 7

    def test_gather_failure_releases_sibling_partials(self):
        """The scatter idiom: when one partial fails, the gather loop
        cancels every handle it will never collect — no claimable
        work is left behind on the pool."""
        gate = Gate()
        executor = make_executor(gate, workers=1, queue_capacity=10)
        try:
            wedge = executor.submit("wedge")
            assert gate.started.wait(timeout=5.0)
            ran = []

            def partial(index):
                if index == 0:
                    raise ValueError("partial exploded")
                ran.append(index)
                return index

            handles = [executor.spawn_task(
                lambda index=index: partial(index))
                for index in range(3)]
            collected = []
            with pytest.raises(ValueError, match="partial exploded"):
                try:
                    for handle in handles:
                        collected.append(handle.result())
                finally:
                    for handle in handles[len(collected):]:
                        handle.cancel()
            for handle in handles[1:]:
                with pytest.raises(ServerClosedError):
                    handle.result()
            assert ran == []
        finally:
            gate.release.set()
            assert wedge.result(timeout=5.0) == "WEDGE"
            executor.close(wait=True)
