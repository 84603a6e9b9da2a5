"""Seeded reader/writer interleavings with a linearizability checker.

A writer actor mutates a :class:`PropertyGraph` while reader actors
pin snapshots and run Cypher queries, all interleaved by the seeded
virtual scheduler.  The :class:`EpochModel` records the expected graph
state at every statistics epoch; the checker then demands that every
snapshot read and every query result equal the state *at the epoch it
pinned* — the linearizability criterion for snapshot isolation.  A
failing seed is printed and replays byte for byte.
"""

import random

import pytest

from repro.cypher import CypherEngine
from repro.graphdb import PropertyGraph

from tests.concurrency.scheduler import (InterleavingError,
                                         VirtualScheduler)

SEEDS = list(range(12))

NAME_QUERY = "MATCH (n:function) RETURN n.short_name"
COUNT_QUERY = "MATCH (n:function) RETURN count(*)"


class EpochModel:
    """Sequential model: what the graph looked like at each epoch.

    The writer calls :meth:`record` after every mutation, so every
    epoch a snapshot or query can possibly pin has a recorded expected
    state.  Readers then check against ``states[pinned_epoch]``.
    """

    def __init__(self, graph):
        self.graph = graph
        self.states = {}
        self.record()

    def record(self):
        graph = self.graph
        functions = tuple(sorted(
            (node_id, graph.node_property(node_id, "short_name"))
            for node_id in graph.node_ids()
            if "function" in graph.node_labels(node_id)))
        edges = tuple(sorted(
            (graph.edge_source(edge_id), graph.edge_target(edge_id),
             graph.edge_type(edge_id))
            for edge_id in graph.edge_ids()))
        self.states[graph.statistics.epoch] = (functions, edges)

    # -- checkers -------------------------------------------------------

    def check_snapshot(self, snap):
        """A snapshot must equal the recorded state at its epoch."""
        assert snap.epoch in self.states, \
            f"snapshot pinned unrecorded epoch {snap.epoch}"
        functions, edges = self.states[snap.epoch]
        got_functions = tuple(sorted(
            (node_id, snap.node_property(node_id, "short_name"))
            for node_id in snap.node_ids()
            if "function" in snap.node_labels(node_id)))
        got_edges = tuple(sorted(
            (snap.edge_source(edge_id), snap.edge_target(edge_id),
             snap.edge_type(edge_id))
            for edge_id in snap.edge_ids()))
        assert got_functions == functions, \
            f"epoch {snap.epoch}: snapshot nodes diverged from model"
        assert got_edges == edges, \
            f"epoch {snap.epoch}: snapshot edges diverged from model"

    def check_names(self, result):
        """Query rows must equal the function names at result epoch."""
        epoch = result.stats.epoch
        assert epoch in self.states, \
            f"query executed at unrecorded epoch {epoch}"
        expected = sorted(name for _, name in self.states[epoch][0])
        assert sorted(row[0] for row in result.rows) == expected, \
            f"epoch {epoch}: query rows diverged from model"
        return epoch

    def check_count(self, result):
        epoch = result.stats.epoch
        assert epoch in self.states, \
            f"query executed at unrecorded epoch {epoch}"
        assert result.value() == len(self.states[epoch][0]), \
            f"epoch {epoch}: count diverged from model"
        return epoch


def seed_graph():
    graph = PropertyGraph()
    for index in range(4):
        graph.add_node("function", short_name=f"fn{index}")
    graph.add_edge(0, 1, "calls")
    graph.add_edge(1, 2, "calls")
    return graph


def writer(graph, model, rng, ops=30):
    """Scripted mutator: one mutation (+ model record) per step."""
    def actor():
        fresh = 4
        for _ in range(ops):
            functions = [node_id for node_id in graph.node_ids()
                         if "function" in graph.node_labels(node_id)]
            op = rng.randrange(5)
            if op == 0 or len(functions) < 3:
                graph.add_node("function", short_name=f"fn{fresh}")
                fresh += 1
            elif op == 1:
                graph.add_edge(rng.choice(functions),
                               rng.choice(functions), "calls")
            elif op == 2:
                graph.remove_node(rng.choice(functions))
            elif op == 3:
                victim = rng.choice(functions)
                graph.set_node_property(
                    victim, "short_name", f"renamed{victim}")
            else:
                edges = list(graph.edge_ids())
                if edges:
                    graph.remove_edge(rng.choice(edges))
                else:
                    graph.add_edge(rng.choice(functions),
                                   rng.choice(functions), "calls")
            model.record()
            yield
    return actor


def snapshot_reader(graph, model, rounds=10, hold=3):
    """Pins a snapshot, lets the world move on, then verifies it."""
    def actor():
        for _ in range(rounds):
            snap = graph.snapshot()
            for _ in range(hold):
                yield  # the writer may run here — snap must not move
            model.check_snapshot(snap)
            yield
    return actor


def query_reader(engine, model, log, rounds=10):
    """Runs queries on the live graph; results must pin one epoch.

    All query readers share *engine*, so the plan cache sees hits,
    misses and epoch invalidations under interleaving.
    """
    def actor():
        for turn in range(rounds):
            if turn % 2 == 0:
                result = engine.run(NAME_QUERY)
                epoch = model.check_names(result)
                log.append((epoch, sorted(
                    row[0] for row in result.rows)))
            else:
                result = engine.run(COUNT_QUERY)
                epoch = model.check_count(result)
                log.append((epoch, result.value()))
            yield
    return actor


def run_scenario(seed):
    """One full interleaved run; returns (trace, observation log)."""
    graph = seed_graph()
    model = EpochModel(graph)
    engine = CypherEngine(graph)
    rng = random.Random(seed * 7919 + 1)
    log = []
    scheduler = VirtualScheduler(seed)
    scheduler.spawn("writer", writer(graph, model, rng)())
    scheduler.spawn("snap-reader-0", snapshot_reader(graph, model)())
    scheduler.spawn("snap-reader-1", snapshot_reader(graph, model)())
    scheduler.spawn("query-reader-0",
                    query_reader(engine, model, log)())
    scheduler.spawn("query-reader-1",
                    query_reader(engine, model, log)())
    trace = scheduler.run()
    return trace, log


class TestInterleavings:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_snapshot_isolation_holds(self, seed):
        # every snapshot read and query result must match the model
        # at its pinned epoch, whatever the interleaving does
        trace, log = run_scenario(seed)
        assert len(log) == 20  # both query readers finished
        assert trace.count("writer") == 31  # 30 ops + completion step

    @pytest.mark.parametrize("seed", [3, 7])
    def test_replay_is_byte_for_byte(self, seed):
        first_trace, first_log = run_scenario(seed)
        second_trace, second_log = run_scenario(seed)
        assert second_trace == first_trace
        assert second_log == first_log

    def test_different_seeds_differ(self):
        # sanity: the scheduler is actually exploring interleavings
        traces = {tuple(run_scenario(seed)[0]) for seed in SEEDS[:6]}
        assert len(traces) > 1

    def test_failure_reports_seed(self):
        def exploding():
            yield
            raise AssertionError("torn read")

        scheduler = VirtualScheduler(seed=42)
        scheduler.spawn("reader", exploding())
        with pytest.raises(InterleavingError) as excinfo:
            scheduler.run()
        assert "seed=42" in str(excinfo.value)
        assert "torn read" in str(excinfo.value)
        assert excinfo.value.seed == 42

    def test_runaway_interleaving_aborts(self):
        def forever():
            while True:
                yield

        scheduler = VirtualScheduler(seed=0)
        scheduler.spawn("spinner", forever())
        with pytest.raises(InterleavingError):
            scheduler.run(max_steps=50)


class TestPlanCacheUnderInterleaving:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_cached_plans_never_serve_stale_rows(self, seed):
        # the same query text, re-run across epochs through one shared
        # engine: each result must match the model at its own epoch,
        # proving cache hits never leak a previous epoch's rows
        graph = seed_graph()
        model = EpochModel(graph)
        engine = CypherEngine(graph)
        rng = random.Random(seed * 7919 + 1)
        epochs = []

        def repeat_query():
            for _ in range(15):
                result = engine.run(NAME_QUERY)
                epochs.append(model.check_names(result))
                yield

        scheduler = VirtualScheduler(seed)
        scheduler.spawn("writer", writer(graph, model, rng, ops=20)())
        scheduler.spawn("querier", repeat_query())
        scheduler.run()
        # queries interleave a mutating writer: they must have seen
        # more than one epoch, and never gone backwards
        assert len(set(epochs)) > 1
        assert epochs == sorted(epochs)
