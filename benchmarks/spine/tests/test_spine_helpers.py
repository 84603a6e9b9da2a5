"""The benchmark's own helpers (``stats.py``, ``ops.py``, the span
recorder). Run with ``PYTHONPATH=src pytest benchmarks/spine/tests``.
"""

import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import ops  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

NAMES = [f"fn_{index}" for index in range(500)]
CLOSURES = ["fn_3", "fn_7"]


def stream(seed, rounds=30):
    return ops.build_stream(seed, NAMES, CLOSURES, 42, rounds)


class TestOpStream:
    def test_same_seed_same_stream(self):
        assert stream(7) == stream(7)

    def test_other_seed_other_stream(self):
        assert stream(7) != stream(8)

    def test_every_round_is_16_light_4_heavy(self):
        ops_ = stream(1)
        for start in range(0, len(ops_), ops.OPS_PER_ROUND):
            classes = [op.cls for op in
                       ops_[start:start + ops.OPS_PER_ROUND]]
            assert classes.count(ops.LIGHT) == 16
            assert classes.count(ops.HEAVY) == 4

    def test_half_of_the_light_ops_are_the_fixed_texts(self):
        fixed = {ops.FIGURE3, ops.FIGURE5,
                 ops.FIGURE4_TEMPLATE.format(file=42)}
        light = [op for op in stream(1) if op.cls == ops.LIGHT]
        assert sum(op.text in fixed for op in light) * 2 == len(light)

    def test_zipf_has_a_hot_set_and_a_tail(self):
        drawn = [op.text for op in stream(1, rounds=200)
                 if op.kind == "xref" and "fn_" in op.text]
        hottest = ops.XREF_TEMPLATE.format(name=NAMES[0])
        assert drawn.count(hottest) > len(drawn) / 10
        assert len(set(drawn)) > 100

    def test_closures_start_only_from_the_given_seeds(self):
        allowed = {ops.CLOSURE_TEMPLATE.format(name=name)
                   for name in CLOSURES}
        closures = {op.text for op in stream(1) if op.kind == "closure"}
        assert closures and closures <= allowed

    def test_search_prefix_drops_the_generator_number(self):
        assert ops.search_prefix("drm_probe_table_6") == \
            "drm_probe_table_"
        assert ops.search_prefix("pci_read_bases") == "pci_read_bases"

    def test_open_probe_follows_every_round(self):
        probed = ops.with_open_probes(stream(1, rounds=3))
        assert len(probed) == 3 * (ops.OPS_PER_ROUND + 1)
        assert [index for index, op in enumerate(probed)
                if op.kind == "open"] == [20, 41, 62]

    def test_distinct_texts_keep_first_seen_order(self):
        ops_ = stream(1)
        texts = ops.distinct_texts(ops_)
        assert texts[0] == ops_[0].text
        assert len(texts) == len(set(op.text for op in ops_))


class TestPercentiles:
    @pytest.mark.parametrize("count, rank", [
        (1000, 950),   # p95 itself: 50 samples lie beyond it
        (200, 190),    # exactly ten beyond
        (100, 90),     # p95 would leave five beyond: lowered to p90
        (40, 30),
        (12, 6),       # never below the median
        (1, 1),
    ])
    def test_tail_is_the_highest_rank_with_ten_beyond(self, count, rank):
        assert stats.tail_rank(count, 0.95) == rank

    def test_tail_reads_that_rank(self):
        assert stats.tail(list(range(1, 1001)), 0.95) == 950
        assert stats.tail(list(range(100, 0, -1)), 0.99) == 90

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            stats.tail_rank(0)


class TestWindowedTail:
    def test_one_window_until_two_true_p95s_fit(self):
        values = list(range(1, 400))
        assert stats.windowed_tail(values) == stats.tail(values)

    def test_median_of_the_windows_tails(self):
        # three windows of 200; the middle one was taken in a burst
        values = [1.0] * 200 + [9.0] * 200 + [1.0] * 189 + [2.0] * 11
        assert stats.tail(values) == 9.0
        assert stats.windowed_tail(values) == 2.0


class TestRoundRates:
    def test_rate_of_each_whole_chunk(self):
        # three chunks of 2 completions taking 1 s, 4 s and 2 s
        done = [0.5, 1.0, 3.0, 5.0, 6.0, 7.0]
        assert stats.round_rates(0.0, done, 2) == [2.0, 0.5, 1.0]

    def test_a_trailing_partial_chunk_is_left_out(self):
        assert stats.round_rates(0.0, [1.0, 2.0, 2.5], 2) == [1.0]
        assert stats.round_rates(0.0, [1.0], 2) == []


class TestSelfTime:
    def test_boundary_minus_the_boundaries_inside(self):
        assert stats.self_time(10.0, 6.0, 1.5) == 2.5

    def test_not_clamped(self):
        assert stats.self_time(1.0, 1.25) == -0.25


class TestDigest:
    ROWS = [(1, "a", None), (2.5, ["x", 3], True)]

    def test_known_value(self):
        assert stats.digest(self.ROWS) == "cf12672ebda1a30e"

    def test_order_matters(self):
        assert stats.digest(self.ROWS) != stats.digest(self.ROWS[::-1])

    def test_same_in_another_process_with_another_hash_seed(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import stats; print(stats.digest("
                "[(1, 'a', None), (2.5, ['x', 3], True)]))")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        other = subprocess.run([sys.executable, "-c", code, here],
                               env=env, check=True, text=True,
                               capture_output=True).stdout.strip()
        assert other == stats.digest(self.ROWS)


class TestSpread:
    def test_quartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0,
                  18.0, 19.0]
        # statistics.quantiles(n=4): Q1 = 11.75, Q3 = 17.25
        assert stats.quartile_spread(values) == pytest.approx(
            5.5 / 14.5)

    def test_worse_by_follows_the_direction(self):
        assert stats.worse_by(100.0, 110.0, "lower") == \
            pytest.approx(0.10)
        assert stats.worse_by(100.0, 110.0, "higher") == \
            pytest.approx(-0.10)


class TestTracer:
    def test_one_root_per_op_one_child_per_boundary(self):
        ops_ = stream(1, rounds=1)[:3]
        tracer = tracing.Tracer(ops_)
        for index in range(3):
            assert tracer.timed("a", index, lambda: index) == index
            tracer.timed("b", index, lambda: None)
        roots = [s for s in tracer.spans if s["parent"] is None]
        assert [s["op"] for s in roots] == [0, 1, 2]
        for root in roots:
            children = [s for s in tracer.spans
                        if s["parent"] == root["id"]]
            assert [s["name"] for s in children] == ["a", "b"]
            assert root["start"] == children[0]["start"]
            assert root["end"] == children[-1]["end"]

    def test_durations_filter_by_class(self):
        ops_ = [ops.Op("scan", ops.HEAVY, ops.SCAN),
                ops.Op("debug", ops.LIGHT, ops.FIGURE5)]
        tracer = tracing.Tracer(ops_)
        tracer.timed("run", 0, lambda: None)
        tracer.timed("run", 1, lambda: None)
        assert len(tracer.durations_ms("run")) == 2
        assert len(tracer.durations_ms("run", ops.HEAVY)) == 1
