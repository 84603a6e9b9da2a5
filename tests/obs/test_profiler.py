"""The operator-level query profiler (PROFILE's engine)."""

from repro.obs import QueryProfiler


class TestOperatorTree:
    def test_operator_get_or_create(self):
        profiler = QueryProfiler()
        first = profiler.operator(None, "k", "Expand", types="calls")
        second = profiler.operator(None, "k", "SomethingElse")
        assert first is second
        assert first.name == "Expand"
        assert profiler.root.children == [first]

    def test_none_args_dropped(self):
        profiler = QueryProfiler()
        operator = profiler.operator(None, "k", "Filter", note=None,
                                     kept=1)
        assert operator.args == {"kept": 1}

    def test_nested_operators(self):
        profiler = QueryProfiler()
        parent = profiler.operator(None, "p", "Match")
        child = profiler.operator(parent, "c", "Expand")
        assert profiler.root.children == [parent]
        assert parent.children == [child]


class TestAccounting:
    def test_hits_charge_open_frame(self):
        profiler = QueryProfiler()
        operator = profiler.operator(None, "k", "Expand")
        with profiler.timed(operator):
            profiler.hit()
            profiler.hit(2)
        assert operator.db_hits == 3

    def test_hits_fall_back_to_root(self):
        profiler = QueryProfiler()
        profiler.hit(5)
        assert profiler.root.db_hits == 5

    def test_self_time_excludes_children(self):
        profiler = QueryProfiler()
        outer = profiler.operator(None, "o", "Match")
        inner = profiler.operator(outer, "i", "Expand")
        with profiler.timed(outer):
            with profiler.timed(inner):
                pass
        assert outer.time_ns >= 0
        assert inner.time_ns >= 0

    def test_iterate_counts_rows(self):
        profiler = QueryProfiler()
        operator = profiler.operator(None, "k", "Scan")
        rows = list(profiler.iterate(operator, iter([1, 2, 3]),
                                     hits_per_row=2))
        assert rows == [1, 2, 3]
        assert operator.rows == 3
        assert operator.db_hits == 6
        assert operator.time_ns > 0

    def test_abandoned_iterator_leaves_no_open_frame(self):
        profiler = QueryProfiler()
        operator = profiler.operator(None, "k", "Scan")
        wrapped = profiler.iterate(operator, iter([1, 2, 3]))
        next(wrapped)
        wrapped.close()
        assert profiler._stack == []
        assert operator.rows == 1


class TestToPlan:
    def test_plan_mirrors_tree(self):
        profiler = QueryProfiler()
        match = profiler.operator(None, "m", "Match", pattern="(a)")
        expand = profiler.operator(match, "e", "Expand")
        with profiler.timed(expand):
            profiler.hit(4)
        expand.rows += 2
        profiler.finish(rows=2, elapsed_seconds=0.5)
        plan = profiler.to_plan()
        assert plan.name == "Query"
        assert plan.rows == 2
        assert plan.time_ms == 500.0
        expand_plan = plan.find_one("Expand")
        assert expand_plan.rows == 2
        assert expand_plan.db_hits == 4
        assert plan.total_db_hits() == 4
        assert plan.profiled
