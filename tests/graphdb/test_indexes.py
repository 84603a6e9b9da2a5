"""Auto-index maintenance and lucene-style query evaluation."""

import pytest

from repro.errors import LuceneQueryError
from repro.graphdb import PropertyGraph, luceneql


@pytest.fixture
def graph():
    g = PropertyGraph()
    g.add_node("struct", "symbol", short_name="task_struct", type="struct")
    g.add_node("union", "symbol", short_name="epoll_data", type="union")
    g.add_node("function", "symbol", short_name="schedule", type="function")
    g.add_node("function", "symbol", short_name="schedule_timeout",
               type="function")
    g.add_node("macro", short_name="SCHED_DEBUG", type="macro")
    g.add_node("field", short_name="id", type="field")
    g.add_node("field", short_name="id", type="field")
    return g


class TestExactLookup:
    def test_lookup_single(self, graph):
        assert list(graph.indexes.lookup("short_name", "schedule")) == [2]

    def test_lookup_multiple_sorted(self, graph):
        assert list(graph.indexes.lookup("short_name", "id")) == [5, 6]

    def test_lookup_case_insensitive(self, graph):
        assert list(graph.indexes.lookup("short_name", "sched_debug")) == [4]

    def test_lookup_unknown_key(self, graph):
        assert list(graph.indexes.lookup("nope", "x")) == []

    def test_removal_unindexes(self, graph):
        graph.remove_node(2)
        assert list(graph.indexes.lookup("short_name", "schedule")) == []
        # the other 'schedule_timeout' node is unaffected
        assert list(graph.indexes.lookup("short_name",
                                         "schedule_timeout")) == [3]


class TestQueryStrings:
    def test_simple_clause(self, graph):
        assert list(graph.indexes.query("short_name: schedule")) == [2]

    def test_adjacency_is_or(self, graph):
        result = list(graph.indexes.query(
            "type: struct type: union"))
        assert result == [0, 1]

    def test_explicit_and(self, graph):
        result = list(graph.indexes.query(
            "type: field AND short_name: id"))
        assert result == [5, 6]

    def test_paper_table6_shape(self, graph):
        # (TYPE: struct TYPE: union ...) AND NAME-ish clause
        result = list(graph.indexes.query(
            "(TYPE: struct TYPE: union) AND SHORT_NAME: task_struct"))
        assert result == [0]

    def test_and_binds_tighter_than_or(self, graph):
        # struct OR (field AND id) -> {0} | {5,6}
        result = list(graph.indexes.query(
            "type: struct OR type: field AND short_name: id"))
        assert result == [0, 5, 6]

    def test_not(self, graph):
        result = list(graph.indexes.query(
            "type: function AND NOT short_name: schedule"))
        assert result == [3]

    def test_wildcard_star(self, graph):
        result = list(graph.indexes.query("short_name: sched*"))
        assert result == [2, 3, 4]

    def test_wildcard_question(self, graph):
        assert list(graph.indexes.query("short_name: i?")) == [5, 6]

    def test_fuzzy(self, graph):
        # one substitution away
        assert list(graph.indexes.query("short_name: schedul~1")) == [2]

    def test_quoted_term(self, graph):
        g = PropertyGraph()
        node = g.add_node(short_name="hello world")
        assert list(g.indexes.query('short_name: "hello world"')) == [node]

    def test_empty_query_rejected(self, graph):
        with pytest.raises(LuceneQueryError):
            list(graph.indexes.query("   "))

    def test_unbalanced_paren_rejected(self, graph):
        with pytest.raises(LuceneQueryError):
            list(graph.indexes.query("(type: struct"))

    def test_missing_term_rejected(self, graph):
        with pytest.raises(LuceneQueryError):
            list(graph.indexes.query("type:"))

    def test_nesting_at_the_bound_parses(self):
        depth = luceneql.MAX_NESTING_DEPTH
        assert luceneql.parse_query(
            "(" * depth + "type: struct" + ")" * depth) == \
            luceneql.Clause("type", "struct")
        assert luceneql.parse_query("NOT " * depth + "type: struct") \
            is not None

    @pytest.mark.parametrize("text,offset", [
        ("(" * 101 + "type: struct" + ")" * 101, 100),
        ("(" * 400 + "type: struct" + ")" * 400, 100),
        ("NOT " * 400 + "type: struct", 400),
    ], ids=["bound+1", "parens-400", "not-400"])
    def test_nesting_past_the_bound_is_a_query_error(self, text, offset):
        # refused by name at the crossing offset, not a RecursionError
        assert luceneql.MAX_NESTING_DEPTH == 100
        with pytest.raises(LuceneQueryError,
                           match=f"nested deeper than 100 levels at "
                                 f"offset {offset}"):
            luceneql.parse_query(text)


class TestLabelIndex:
    def test_label_lookup(self, graph):
        assert list(graph.indexes.label("function")) == [2, 3]
        assert list(graph.indexes.label("symbol")) == [0, 1, 2, 3]

    def test_label_count(self, graph):
        assert graph.indexes.label_count("function") == 2
        assert graph.indexes.label_count("ghost") == 0

    def test_labels_listing(self, graph):
        assert "macro" in list(graph.indexes.labels())


class TestStatsCounters:
    def test_term_count(self, graph):
        assert graph.indexes.term_count("type") == 5

    def test_estimated_entry_count_positive(self, graph):
        assert graph.indexes.estimated_entry_count() >= graph.node_count()


class TestRebuild:
    def test_rebuild_equals_incremental(self, graph):
        before = list(graph.indexes.query("short_name: sched*"))
        graph.indexes.rebuild(graph.node_ids(), graph.node_labels,
                              graph.node_properties)
        assert list(graph.indexes.query("short_name: sched*")) == before


class TestEditDistance:
    @pytest.mark.parametrize("a,b,limit,expected", [
        ("abc", "abc", 0, True),
        ("abc", "abd", 1, True),
        ("abc", "abd", 0, False),
        ("kitten", "sitting", 3, True),
        ("kitten", "sitting", 2, False),
        ("", "ab", 2, True),
        ("", "abc", 2, False),
    ])
    def test_cases(self, a, b, limit, expected):
        assert luceneql.edit_distance_at_most(a, b, limit) is expected


class TestWildcardRegex:
    def test_star(self):
        assert luceneql.wildcard_to_regex("a*c").fullmatch("abbbc")

    def test_question(self):
        regex = luceneql.wildcard_to_regex("a?c")
        assert regex.fullmatch("abc")
        assert not regex.fullmatch("abbc")

    def test_escapes_regex_chars(self):
        assert luceneql.wildcard_to_regex("a.c").fullmatch("a.c")
        assert not luceneql.wildcard_to_regex("a.c").fullmatch("abc")
