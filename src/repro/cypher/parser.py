"""Recursive-descent parser for the Cypher dialect.

Dialect notes (matching the paper's usage):

* Clauses: ``START``, ``MATCH``, ``OPTIONAL MATCH``, ``WHERE``,
  ``WITH``, ``RETURN``, plus ``ORDER BY``/``SKIP``/``LIMIT`` attached
  to ``WITH``/``RETURN``.
* Node elements may be bare identifiers (Cypher 1.x style, as in the
  paper's Figure 5) or parenthesized with labels and property maps
  (Cypher 2.x style, Table 6).
* Property keys, labels, relationship types and function names are
  normalized to lower case: the paper's queries spell the same key
  both ``SHORT_NAME`` and ``short_name``, and the graph model stores
  lower-case keys.
* Pattern predicates are allowed wherever a boolean expression is
  (``WHERE r.x >= s.x AND direct -[:calls*]-> writer``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cypher import ast
from repro.cypher.lexer import EOF, IDENT, INT, PARAM, PUNCT, STRING, Token, tokenize
from repro.errors import CypherSyntaxError

_CLAUSE_KEYWORDS = {"START", "MATCH", "OPTIONAL", "WHERE", "WITH", "RETURN",
                    "ORDER", "SKIP", "LIMIT", "AND", "OR", "NOT", "AS",
                    "DISTINCT", "ASC", "DESC", "BY", "XOR", "IS", "NULL",
                    "TRUE", "FALSE"}

#: Deepest expression nesting :func:`parse` accepts. Each parenthesis,
#: list, function argument list, map value, ``NOT`` and sign opens one
#: level below its enclosing expression (a top-level expression is
#: level 1). An explicit bound rather than the interpreter's recursion
#: limit, so a hostile query is refused as a syntax error, at the
#: token that crosses it, on every Python version.
MAX_NESTING_DEPTH = 32


def parse(text: str) -> ast.Query:
    """Parse Cypher text into a :class:`~repro.cypher.ast.Query`."""
    return _Parser(text).parse_query()


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = list(tokenize(text))
        self._index = 0
        self._depth = 0

    # -- plumbing ------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != EOF:
            self._index += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> CypherSyntaxError:
        token = token or self._peek()
        found = token.text or "end of query"
        return CypherSyntaxError(f"{message} (found {found!r})",
                                 token.line, token.column)

    def _nested(self, parse: Callable[[], ast.Expr]) -> ast.Expr:
        """Run *parse* one nesting level down, refusing to go deeper
        than :data:`MAX_NESTING_DEPTH`."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise self._error(
                f"expression nested deeper than {MAX_NESTING_DEPTH} "
                "levels")
        self._depth += 1
        try:
            return parse()
        finally:
            # pattern predicates backtrack over syntax errors, so the
            # level must be released on the error path too
            self._depth -= 1

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if token.kind != PUNCT or token.text != text:
            raise self._error(f"expected {text!r}")
        return self._advance()

    def _at_punct(self, text: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token.kind == PUNCT and token.text == text

    def _at_keyword(self, word: str, offset: int = 0) -> bool:
        return self._peek(offset).is_keyword(word)

    def _accept_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}")

    def _expect_ident(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.kind != IDENT:
            raise self._error(f"expected {what}")
        self._advance()
        return token.text

    # -- query / clause structure ----------------------------------------------

    def parse_query(self) -> ast.Query:
        # PROFILE is a query modifier, not a clause: it requests an
        # operator-level execution profile on the result
        profile = False
        if self._peek().is_keyword("PROFILE"):
            self._advance()
            profile = True
        clauses: list[ast.Clause] = []
        while not self._peek().kind == EOF:
            if self._at_punct(";"):
                self._advance()
                continue
            clauses.append(self._clause())
        if not clauses:
            raise CypherSyntaxError("empty query")
        query = ast.Query(tuple(clauses), self._text, profile)
        self._validate(query)
        return query

    def _clause(self) -> ast.Clause:
        if self._at_keyword("START"):
            return self._start_clause()
        if self._at_keyword("MATCH"):
            return self._match_clause(optional=False)
        if self._at_keyword("OPTIONAL"):
            self._advance()
            self._expect_keyword("MATCH")
            return self._match_clause(optional=True, consumed=True)
        if self._at_keyword("WHERE"):
            self._advance()
            return ast.Where(self._expression())
        if self._at_keyword("WITH"):
            return self._with_clause()
        if self._at_keyword("RETURN"):
            return self._return_clause()
        raise self._error("expected a clause keyword")

    def _start_clause(self) -> ast.Start:
        self._expect_keyword("START")
        points = [self._start_point()]
        while self._at_punct(","):
            self._advance()
            points.append(self._start_point())
        return ast.Start(tuple(points))

    def _start_point(self) -> ast.StartPoint:
        variable = self._expect_ident("start-point variable")
        self._expect_punct("=")
        source = self._expect_ident("'node'")
        if source.lower() != "node":
            raise self._error("only node start points are supported")
        if self._at_punct(":"):
            self._advance()
            index_name = self._expect_ident("index name")
            self._expect_punct("(")
            token = self._peek()
            if token.kind != STRING:
                raise self._error("expected index query string")
            self._advance()
            self._expect_punct(")")
            return ast.IndexStartPoint(variable, index_name,
                                       str(token.value))
        self._expect_punct("(")
        if self._at_punct("*"):
            self._advance()
            self._expect_punct(")")
            return ast.NodeIdStartPoint(variable, (), all_nodes=True)
        ids = [self._expect_int()]
        while self._at_punct(","):
            self._advance()
            ids.append(self._expect_int())
        self._expect_punct(")")
        return ast.NodeIdStartPoint(variable, tuple(ids))

    def _expect_int(self) -> int:
        token = self._peek()
        if token.kind != INT:
            raise self._error("expected integer")
        self._advance()
        return int(token.value)  # type: ignore[arg-type]

    def _match_clause(self, optional: bool, consumed: bool = False,
                      ) -> ast.Match:
        if not consumed:
            self._expect_keyword("MATCH")
        patterns = [self._match_pattern()]
        while self._at_punct(","):
            self._advance()
            patterns.append(self._match_pattern())
        return ast.Match(tuple(patterns), optional=optional)

    def _match_pattern(self) -> ast.Pattern:
        """One MATCH pattern, optionally `path = [shortestPath](...)`."""
        path_variable = None
        if self._peek().kind == IDENT and self._at_punct("=", 1) and \
                not self._at_punct("=", 2):
            path_variable = self._advance().text
            self._advance()  # '='
        shortest = None
        token = self._peek()
        if token.kind == IDENT and token.text.lower() in (
                "shortestpath", "allshortestpaths") and \
                self._at_punct("(", 1):
            shortest = "single" if token.text.lower() == "shortestpath" \
                else "all"
            self._advance()
            self._expect_punct("(")
            pattern = self._pattern()
            self._expect_punct(")")
        else:
            pattern = self._pattern()
        if path_variable is None and shortest is None:
            return pattern
        if shortest is not None and not any(rel.var_length
                                            for rel in pattern.rels):
            raise CypherSyntaxError(
                "shortestPath() needs a variable-length relationship")
        return ast.Pattern(pattern.nodes, pattern.rels,
                           path_variable=path_variable,
                           shortest=shortest)

    def _with_clause(self) -> ast.With:
        self._expect_keyword("WITH")
        distinct = self._accept_keyword("DISTINCT")
        items = self._return_items()
        order_by, skip, limit = self._modifiers()
        where = None
        if self._at_keyword("WHERE"):
            self._advance()
            where = self._expression()
        return ast.With(tuple(items), distinct=distinct,
                        order_by=tuple(order_by), skip=skip, limit=limit,
                        where=where)

    def _return_clause(self) -> ast.Return:
        self._expect_keyword("RETURN")
        distinct = self._accept_keyword("DISTINCT")
        if self._at_punct("*"):
            self._advance()
            order_by, skip, limit = self._modifiers()
            return ast.Return((), distinct=distinct, star=True,
                              order_by=tuple(order_by), skip=skip,
                              limit=limit)
        items = self._return_items()
        order_by, skip, limit = self._modifiers()
        return ast.Return(tuple(items), distinct=distinct,
                          order_by=tuple(order_by), skip=skip, limit=limit)

    def _return_items(self) -> list[ast.ReturnItem]:
        items = [self._return_item()]
        while self._at_punct(","):
            self._advance()
            items.append(self._return_item())
        return items

    def _return_item(self) -> ast.ReturnItem:
        expression = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        return ast.ReturnItem(expression, alias)

    def _modifiers(self) -> tuple[list[ast.SortItem],
                                  Optional[ast.Expr], Optional[ast.Expr]]:
        order_by: list[ast.SortItem] = []
        skip = limit = None
        if self._at_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._sort_item())
            while self._at_punct(","):
                self._advance()
                order_by.append(self._sort_item())
        if self._at_keyword("SKIP"):
            self._advance()
            skip = self._expression()
        if self._at_keyword("LIMIT"):
            self._advance()
            limit = self._expression()
        return order_by, skip, limit

    def _sort_item(self) -> ast.SortItem:
        expression = self._expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.SortItem(expression, ascending)

    # -- patterns ----------------------------------------------------------------

    def _pattern(self, first: ast.NodePattern | None = None) -> ast.Pattern:
        nodes = [first if first is not None else self._node_pattern()]
        rels: list[ast.RelPattern] = []
        while self._at_rel_start():
            rels.append(self._rel_pattern())
            nodes.append(self._node_pattern())
        return ast.Pattern(tuple(nodes), tuple(rels))

    def _at_rel_start(self) -> bool:
        if self._at_punct("<") and self._at_punct("-", 1):
            return True
        if self._at_punct("-"):
            return (self._at_punct("[", 1) or self._at_punct("-", 1))
        return False

    def _node_pattern(self) -> ast.NodePattern:
        token = self._peek()
        if token.kind == IDENT:
            if token.text.upper() in _CLAUSE_KEYWORDS:
                raise self._error("expected node pattern")
            self._advance()
            return ast.NodePattern(token.text)
        if self._at_punct("("):
            self._advance()
            variable = None
            if self._peek().kind == IDENT and \
                    self._peek().text.upper() not in _CLAUSE_KEYWORDS:
                variable = self._advance().text
            labels = []
            while self._at_punct(":"):
                self._advance()
                labels.append(self._expect_ident("label").lower())
            properties = ()
            if self._at_punct("{"):
                properties = self._property_map()
            self._expect_punct(")")
            return ast.NodePattern(variable, tuple(labels), properties)
        raise self._error("expected node pattern")

    def _rel_pattern(self) -> ast.RelPattern:
        direction = "both"
        if self._at_punct("<"):
            self._advance()
            self._expect_punct("-")
            direction = "in"
        else:
            self._expect_punct("-")
        variable = None
        types: list[str] = []
        properties: tuple[tuple[str, ast.Expr], ...] = ()
        var_length = False
        min_hops, max_hops = 1, None
        if self._at_punct("["):
            self._advance()
            if self._peek().kind == IDENT:
                variable = self._advance().text
            if self._at_punct(":"):
                self._advance()
                types.append(self._expect_ident("relationship type").lower())
                while self._at_punct("|"):
                    self._advance()
                    if self._at_punct(":"):
                        self._advance()
                    types.append(
                        self._expect_ident("relationship type").lower())
            if self._at_punct("?"):
                self._advance()  # legacy optional-relationship marker
            if self._at_punct("*"):
                self._advance()
                var_length = True
                min_hops, max_hops = self._hop_range()
            if self._at_punct("{"):
                properties = self._property_map()
            self._expect_punct("]")
            self._expect_punct("-")
        else:
            # bare arrow: the second dash of '--', '-->' or '<--'
            self._expect_punct("-")
        if self._at_punct(">"):
            self._advance()
            if direction == "in":
                raise self._error("relationship cannot point both ways")
            direction = "out"
        elif direction != "in":
            direction = "both"
        return ast.RelPattern(variable, tuple(types), direction, properties,
                              var_length, min_hops, max_hops)

    def _hop_range(self) -> tuple[int, Optional[int]]:
        min_hops, max_hops = 1, None
        if self._peek().kind == INT:
            first = self._expect_int()
            if self._at_punct(".."):
                self._advance()
                min_hops = first
                if self._peek().kind == INT:
                    max_hops = self._expect_int()
            else:
                min_hops = max_hops = first
        elif self._at_punct(".."):
            self._advance()
            if self._peek().kind == INT:
                max_hops = self._expect_int()
        return min_hops, max_hops

    def _property_map(self) -> tuple[tuple[str, ast.Expr], ...]:
        self._expect_punct("{")
        entries: list[tuple[str, ast.Expr]] = []
        if not self._at_punct("}"):
            entries.append(self._property_entry())
            while self._at_punct(","):
                self._advance()
                entries.append(self._property_entry())
        self._expect_punct("}")
        return tuple(entries)

    def _property_entry(self) -> tuple[str, ast.Expr]:
        key = self._expect_ident("property key").lower()
        self._expect_punct(":")
        return key, self._expression()

    # -- expressions --------------------------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._nested(self._or_expr)

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._at_keyword("OR") or self._at_keyword("XOR"):
            op = self._advance().text.lower()
            left = ast.Binary(op, left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._at_keyword("AND"):
            self._advance()
            left = ast.Binary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._at_keyword("NOT"):
            self._advance()
            return ast.Unary("not", self._nested(self._not_expr))
        pattern = self._try_pattern_predicate()
        if pattern is not None:
            return pattern
        return self._comparison()

    def _try_pattern_predicate(self) -> ast.Expr | None:
        """Speculatively parse ``<node element> <rel> ...`` as a pattern."""
        saved = self._index
        try:
            node = self._node_pattern()
        except CypherSyntaxError:
            self._index = saved
            return None
        if not self._at_rel_start():
            self._index = saved
            return None
        try:
            pattern = self._pattern(first=node)
        except CypherSyntaxError:
            self._index = saved
            return None
        return ast.PatternPredicate(pattern)

    _COMPARISONS = ("=", "<>", "!=", "<=", ">=", "<", ">", "=~")

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        while True:
            token = self._peek()
            if token.kind == PUNCT and token.text in self._COMPARISONS:
                self._advance()
                op = "<>" if token.text == "!=" else token.text
                left = ast.Binary(op, left, self._additive())
            elif token.is_keyword("IN"):
                self._advance()
                left = ast.Binary("in", left, self._additive())
            elif token.is_keyword("IS"):
                self._advance()
                negate = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                check: ast.Expr = ast.FunctionCall("isnull", (left,))
                left = ast.Unary("not", check) if negate else check
            else:
                return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            if self._at_punct("+"):
                self._advance()
                left = ast.Binary("+", left, self._multiplicative())
            elif (self._at_punct("-") and not self._at_punct("[", 1)
                    and not self._at_punct("-", 1) and not
                    self._at_punct(">", 1)):
                self._advance()
                left = ast.Binary("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == PUNCT and token.text in ("*", "/", "%", "^"):
                self._advance()
                left = ast.Binary(token.text, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._at_punct("-"):
            self._advance()
            return ast.Unary("-", self._nested(self._unary))
        if self._at_punct("+"):
            self._advance()
            return self._nested(self._unary)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expression = self._primary()
        while self._at_punct("."):
            self._advance()
            key = self._expect_ident("property name").lower()
            expression = ast.PropertyAccess(expression, key)
        return expression

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in (INT, "float", STRING):
            self._advance()
            return ast.Literal(token.value)
        if token.kind == PARAM:
            self._advance()
            return ast.Parameter(str(token.value))
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.kind == IDENT:
            if self._at_punct("(", 1):
                return self._function_call()
            if token.text.upper() in _CLAUSE_KEYWORDS:
                raise self._error("expected expression")
            self._advance()
            return ast.Variable(token.text)
        if self._at_punct("("):
            self._advance()
            inner = self._expression()
            self._expect_punct(")")
            return inner
        if self._at_punct("["):
            return self._list_literal()
        raise self._error("expected expression")

    def _function_call(self) -> ast.Expr:
        name = self._expect_ident().lower()
        self._expect_punct("(")
        if name == "count" and self._at_punct("*"):
            self._advance()
            self._expect_punct(")")
            return ast.CountStar()
        distinct = self._accept_keyword("DISTINCT")
        args: list[ast.Expr] = []
        if not self._at_punct(")"):
            args.append(self._expression())
            while self._at_punct(","):
                self._advance()
                args.append(self._expression())
        self._expect_punct(")")
        return ast.FunctionCall(name, tuple(args), distinct)

    def _list_literal(self) -> ast.Expr:
        self._expect_punct("[")
        items: list[ast.Expr] = []
        if not self._at_punct("]"):
            items.append(self._expression())
            while self._at_punct(","):
                self._advance()
                items.append(self._expression())
        self._expect_punct("]")
        return ast.FunctionCall("__list__", tuple(items))

    # -- validation ---------------------------------------------------------------

    def _validate(self, query: ast.Query) -> None:
        last = query.clauses[-1]
        if not isinstance(last, (ast.Return, ast.With)):
            raise CypherSyntaxError(
                "query must end with RETURN (or WITH)")
        for clause in query.clauses[:-1]:
            if isinstance(clause, ast.Return):
                raise CypherSyntaxError("RETURN must be the final clause")
