"""Parser for legacy index query strings (`node_auto_index` syntax).

Neo4j 1.x backed its auto indexes with Apache Lucene, and the paper's
queries use Lucene query-string syntax::

    short_name: wakeup.elf
    (TYPE: struct TYPE: union TYPE: enum) AND NAME: foo

This module implements the subset those queries need:

* ``field: term`` clauses (field names are case-insensitive),
* whitespace adjacency defaulting to OR (Lucene's default operator),
* explicit ``AND`` / ``OR`` / ``NOT`` with AND binding tighter than OR,
* parentheses,
* ``*`` and ``?`` wildcards inside terms,
* ``term~`` fuzzy matching (optional ``~N`` max edit distance),
* quoted terms for values containing whitespace.

Parsing produces a small AST; evaluation against the term dictionaries
lives in :mod:`repro.graphdb.indexes`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Iterable, Iterator, Protocol

from repro.errors import LuceneQueryError

#: Deepest parenthesis/``NOT`` nesting :func:`parse_query` accepts. An
#: explicit bound rather than the interpreter's recursion limit, so a
#: hostile query is refused as a :class:`LuceneQueryError` naming the
#: offset that crosses it, on every Python version.
MAX_NESTING_DEPTH = 100


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Clause:
    """A single ``field: term`` clause."""

    field: str
    term: str
    fuzzy: int = 0  # max edit distance; 0 = exact/wildcard

    @property
    def is_wildcard(self) -> bool:
        return "*" in self.term or "?" in self.term


@dataclasses.dataclass(frozen=True)
class And:
    left: "QueryNode"
    right: "QueryNode"


@dataclasses.dataclass(frozen=True)
class Or:
    left: "QueryNode"
    right: "QueryNode"


@dataclasses.dataclass(frozen=True)
class Not:
    operand: "QueryNode"


QueryNode = Clause | And | Or | Not


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<colon>:)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<word>[^\s():"]+)
    """,
    re.VERBOSE,
)


@dataclasses.dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise LuceneQueryError(
                f"bad character {text[position]!r} at offset {position} in "
                f"index query {text!r}")
        kind = match.lastgroup or ""
        if kind != "ws":
            yield _Token(kind, match.group(), position)
        position = match.end()


# --------------------------------------------------------------------------
# Parser (precedence: NOT > AND > OR, adjacency == OR)
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = list(_tokenize(text))
        self._index = 0
        self._depth = 0

    def parse(self) -> QueryNode:
        node = self._or_expr()
        if self._peek() is not None:
            token = self._peek()
            assert token is not None
            raise LuceneQueryError(
                f"unexpected {token.text!r} at offset {token.position} in "
                f"index query {self._text!r}")
        return node

    # grammar -----------------------------------------------------------------

    def _or_expr(self) -> QueryNode:
        node = self._and_expr()
        while True:
            token = self._peek()
            if token is None or token.kind == "rparen":
                return node
            if token.kind == "word" and token.text.upper() == "OR":
                self._advance()
                node = Or(node, self._and_expr())
            else:
                # Lucene default operator: bare adjacency means OR.
                node = Or(node, self._and_expr())

    def _and_expr(self) -> QueryNode:
        node = self._unary()
        while True:
            token = self._peek()
            if (token is not None and token.kind == "word"
                    and token.text.upper() == "AND"):
                self._advance()
                node = And(node, self._unary())
            else:
                return node

    def _unary(self) -> QueryNode:
        token = self._peek()
        if token is None:
            raise LuceneQueryError(
                f"unexpected end of index query {self._text!r}")
        if token.kind == "word" and token.text.upper() == "NOT":
            self._advance()
            return Not(self._nested(token, self._unary))
        if token.kind == "lparen":
            self._advance()
            node = self._nested(token, self._or_expr)
            closing = self._peek()
            if closing is None or closing.kind != "rparen":
                raise LuceneQueryError(
                    f"missing ')' in index query {self._text!r}")
            self._advance()
            return node
        return self._clause()

    def _nested(self, token: _Token,
                parse: Callable[[], QueryNode]) -> QueryNode:
        """Run *parse* one level below *token* (a ``NOT`` or ``(``),
        refusing to go deeper than :data:`MAX_NESTING_DEPTH`."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise LuceneQueryError(
                f"query nested deeper than {MAX_NESTING_DEPTH} levels at "
                f"offset {token.position} in index query {self._text!r}")
        self._depth += 1
        node = parse()
        self._depth -= 1
        return node

    def _clause(self) -> Clause:
        field_token = self._expect("word", "field name")
        self._expect("colon", "':'")
        term_token = self._peek()
        if term_token is None or term_token.kind not in ("word", "quoted"):
            raise LuceneQueryError(
                f"missing term after {field_token.text!r}: in index query "
                f"{self._text!r}")
        self._advance()
        term = term_token.text
        if term_token.kind == "quoted":
            term = re.sub(r"\\(.)", r"\1", term[1:-1])
        fuzzy = 0
        fuzzy_match = re.fullmatch(r"(.+?)~(\d*)", term)
        if fuzzy_match and term_token.kind == "word":
            term = fuzzy_match.group(1)
            fuzzy = int(fuzzy_match.group(2) or "2")
        return Clause(field=field_token.text.lower(), term=term, fuzzy=fuzzy)

    # plumbing ------------------------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> None:
        self._index += 1

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._peek()
        if token is None or token.kind != kind:
            found = token.text if token else "end of input"
            raise LuceneQueryError(
                f"expected {what}, found {found!r} in index query "
                f"{self._text!r}")
        self._advance()
        return token


#: parsed-query memo: parsed trees are immutable and evaluation never
#: mutates them, so the same query string (every START clause of a
#: cached Cypher plan re-runs its index query per execution) can skip
#: tokenization; the cap only guards adversarial churn
_PARSE_CACHE: dict[str, QueryNode] = {}
_PARSE_CACHE_LIMIT = 512


def parse_query(text: str) -> QueryNode:
    """Parse a legacy index query string into its AST (memoized)."""
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        return cached
    if not text or not text.strip():
        raise LuceneQueryError("empty index query")
    parsed = _Parser(text).parse()
    if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[text] = parsed
    return parsed


# --------------------------------------------------------------------------
# Evaluation against an abstract term source
# --------------------------------------------------------------------------

class TermSource(Protocol):
    """What an index must expose for query evaluation.

    Both the in-memory :class:`~repro.graphdb.indexes.IndexManager` and
    the disk-backed index reader implement this, so one evaluator serves
    both (and the cold/warm benchmarks exercise the same logic).
    """

    def all_ids(self) -> set[int]:
        """Universe of indexed node ids (needed for NOT)."""
        ...

    def terms(self, field: str) -> Iterable[str]:
        """All terms indexed under *field* (for wildcard/fuzzy scans)."""
        ...

    def postings(self, field: str, term: str) -> set[int]:
        """Node ids for an exact (already-normalized) term."""
        ...


def evaluate(node: QueryNode, source: TermSource) -> set[int]:
    """Evaluate a parsed index query against a term source."""
    if isinstance(node, Clause):
        return _evaluate_clause(node, source)
    if isinstance(node, And):
        return evaluate(node.left, source) & evaluate(node.right, source)
    if isinstance(node, Or):
        return evaluate(node.left, source) | evaluate(node.right, source)
    if isinstance(node, Not):
        return source.all_ids() - evaluate(node.operand, source)
    raise TypeError(f"unknown query node {node!r}")


def _evaluate_clause(clause: Clause, source: TermSource) -> set[int]:
    if clause.fuzzy:
        wanted = clause.term.lower()
        result: set[int] = set()
        for term in source.terms(clause.field):
            if edit_distance_at_most(term, wanted, clause.fuzzy):
                result |= source.postings(clause.field, term)
        return result
    if clause.is_wildcard:
        regex = wildcard_to_regex(clause.term)
        result = set()
        for term in source.terms(clause.field):
            if regex.fullmatch(term):
                result |= source.postings(clause.field, term)
        return result
    return source.postings(clause.field, clause.term.lower())


# --------------------------------------------------------------------------
# Term matching helpers
# --------------------------------------------------------------------------

def wildcard_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a Lucene wildcard pattern (``*``, ``?``) to a regex."""
    out = []
    for char in pattern:
        if char == "*":
            out.append(".*")
        elif char == "?":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out), re.IGNORECASE | re.DOTALL)


def edit_distance_at_most(left: str, right: str, limit: int) -> bool:
    """True if Levenshtein distance between the terms is <= *limit*.

    Runs the banded DP so common no-match cases exit early; terms in the
    index are short (symbol names), so this stays cheap.
    """
    if abs(len(left) - len(right)) > limit:
        return False
    if left == right:
        return True
    previous = list(range(len(right) + 1))
    for row, char_l in enumerate(left, start=1):
        current = [row] + [0] * len(right)
        best = row
        for col, char_r in enumerate(right, start=1):
            cost = 0 if char_l == char_r else 1
            current[col] = min(previous[col] + 1, current[col - 1] + 1,
                               previous[col - 1] + cost)
            best = min(best, current[col])
        if best > limit:
            return False
        previous = current
    return previous[-1] <= limit
