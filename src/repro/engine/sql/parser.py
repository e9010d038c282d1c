"""Recursive-descent parser compiling SQL SELECT text onto the engine.

The parser produces a :class:`repro.engine.query.Query`; execution reuses
the volcano operators (and therefore the JSON_EXISTS predicate pushdown
when the source is a JSON_TABLE view).

Aggregates (COUNT/SUM/AVG/MIN/MAX/JSON_DATAGUIDEAGG) are accepted as
whole select-list items, matching the paper's queries; a window function
``LAG(expr[, n[, default]]) OVER (ORDER BY key [DESC])`` is supported for
the paper's Q6.  Bind parameters are ``?`` placeholders filled from the
``params`` sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.engine import expressions as expr
from repro.engine.catalog import Database
from repro.engine.query import Query
from repro.engine.sql.lexer import T, Token, tokenize_sql
from repro.errors import QueryError


def compile_sql(db: Database, sql: str,
                params: Sequence[Any] = ()) -> Query:
    """Compile a SELECT statement into an executable Query."""
    return _Parser(db, tokenize_sql(sql), params).parse_select()


def execute_sql(db: Database, sql: str,
                params: Sequence[Any] = ()) -> list[dict]:
    """Compile and run a SELECT statement; returns the result rows."""
    return compile_sql(db, sql, params).rows()


@dataclass
class _SelectItem:
    expression: Any                      # Expression | Aggregate | _Window
    alias: Optional[str]
    is_star: bool = False

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, expr.Col):
            return self.expression.name
        if isinstance(self.expression, expr.Aggregate):
            return self.expression.sql()
        return self.expression.sql()


@dataclass
class _Window:
    """A parsed ``LAG(...) OVER (ORDER BY ...)`` occurrence.

    The parser replaces the occurrence with a reference to a generated
    column (``__lag_0`` ...); the compiled query applies the window
    operator before projection, so windows compose with arithmetic the
    way the paper's Q6 needs (``quantity - LAG(quantity, ...) OVER ...``).
    """

    name: str
    function: expr.WindowFunction
    order_key: expr.Expression
    descending: bool


_SCALAR_FUNCS = {"SUBSTR", "INSTR", "UPPER", "LOWER", "LENGTH", "NVL"}
_AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "JSON_DATAGUIDEAGG"}
_CMP_TOKENS = {T.EQ: "=", T.NE: "<>", T.LT: "<", T.LE: "<=", T.GT: ">",
               T.GE: ">="}


class _Parser:
    def __init__(self, db: Database, tokens: list[Token],
                 params: Sequence[Any]) -> None:
        self._db = db
        self._tokens = tokens
        self._pos = 0
        self._params = list(params)
        self._param_index = 0
        self._windows: list[_Window] = []

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not T.EOF:
            self._pos += 1
        return token

    def _expect(self, token_type: T) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise QueryError(
                f"expected {token_type.value!r}, found "
                f"{token.text or 'end of input'!r} (at {token.position})")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise QueryError(
                f"expected {word}, found {token.text or 'end of input'!r}")
        return self._advance()

    def _match_keyword(self, *words: str) -> Optional[str]:
        token = self._peek()
        for word in words:
            if token.is_keyword(word):
                self._advance()
                return word
        return None

    def _next_param(self) -> Any:
        if self._param_index >= len(self._params):
            raise QueryError("not enough bind parameters for '?' markers")
        value = self._params[self._param_index]
        self._param_index += 1
        return value

    # -- SELECT -----------------------------------------------------------------

    def parse_select(self) -> Query:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT") is not None
        items = self._parse_select_list()
        self._expect_keyword("FROM")
        query = self._parse_from()
        if self._match_keyword("WHERE"):
            query = query.where(self._parse_or())
        group_keys: list[Any] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_keys = self._parse_expression_list()
        aggregated = any(isinstance(i.expression, expr.Aggregate)
                         for i in items) or bool(group_keys)
        output_names = [i.output_name() for i in items if not i.is_star]
        if aggregated:
            # aggregation collapses rows, so it must precede HAVING/ORDER
            query, output_names = self._apply_select(query, items, group_keys)
        if self._match_keyword("HAVING"):
            query = query.having(self._parse_or())
        orders = None
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = self._parse_order_keys(output_names)
        if not aggregated:
            # ORDER BY may reference non-projected base columns (standard
            # SQL), so the sort runs before the projection unless every
            # key is an output column
            if orders is not None and not self._orders_use_outputs(
                    orders, output_names):
                query = query.order_by(*[k for k, _d in orders],
                                       desc=[d for _k, d in orders])
                orders = None
            query, output_names = self._apply_select(query, items,
                                                     group_keys)
        if orders is not None:
            query = query.order_by(*[k for k, _d in orders],
                                   desc=[d for _k, d in orders])
        if distinct:
            query = query.distinct()
        if self._match_keyword("LIMIT"):
            count = self._expect(T.NUMBER)
            query = query.limit(int(count.value))
        token = self._peek()
        if token.type is not T.EOF:
            raise QueryError(f"unexpected {token.text!r} after statement")
        if self._param_index != len(self._params):
            raise QueryError("too many bind parameters supplied")
        return query

    def _parse_select_list(self) -> list[_SelectItem]:
        items = [self._parse_select_item()]
        while self._peek().type is T.COMMA:
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> _SelectItem:
        if self._peek().type is T.STAR:
            self._advance()
            return _SelectItem(None, None, is_star=True)
        expression = self._parse_additive()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect(T.IDENT).text
        elif self._peek().type is T.IDENT:
            alias = self._advance().text
        return _SelectItem(expression, alias)

    # -- FROM / JOIN ---------------------------------------------------------------

    def _parse_from(self) -> Query:
        query = self._db.query(self._expect(T.IDENT).text)
        while True:
            how = None
            if self._match_keyword("JOIN"):
                how = "inner"
            elif self._peek().is_keyword("LEFT"):
                self._advance()
                self._match_keyword("OUTER")
                self._expect_keyword("JOIN")
                how = "left"
            elif self._peek().is_keyword("INNER"):
                self._advance()
                self._expect_keyword("JOIN")
                how = "inner"
            if how is None:
                return query
            right = self._db.query(self._expect(T.IDENT).text)
            self._expect_keyword("ON")
            left_key = self._parse_column_name()
            self._expect(T.EQ)
            right_key = self._parse_column_name()
            query = query.join(right, left_key, right_key, how=how)

    def _parse_column_name(self) -> str:
        name = self._expect(T.IDENT).text
        if self._peek().type is T.DOT:
            self._advance()
            name = self._expect(T.IDENT).text  # strip the table qualifier
        return name

    # -- SELECT-list application ------------------------------------------------------

    def _apply_select(self, query: Query, items: list[_SelectItem],
                      group_keys: list[Any]) -> tuple[Query, list[str]]:
        aggregates = {i.output_name(): i.expression for i in items
                      if isinstance(i.expression, expr.Aggregate)}
        if aggregates or group_keys:
            if self._windows:
                raise QueryError(
                    "window functions cannot be mixed with GROUP BY")
            key_outputs = []
            output_names = []
            for item in items:
                if isinstance(item.expression, expr.Aggregate):
                    output_names.append(item.output_name())
                    continue
                if item.is_star:
                    raise QueryError("SELECT * is invalid with GROUP BY")
                name = item.output_name()
                key_outputs.append(item.expression.as_(name))
                output_names.append(name)
            if not key_outputs and group_keys:
                # grouping keys not projected: group by them anonymously
                key_outputs = [k.as_(k.sql()) if not isinstance(k, expr.Col)
                               else k for k in group_keys]
            query = query.group_by(key_outputs, **aggregates)
            # note: non-aggregate select items are used as the grouping
            # keys (the supported subset requires them to coincide)
            return query, output_names
        # non-aggregate query: apply pending windows before projection so
        # select expressions can reference the generated __lag_N columns
        for window in self._windows:
            query = query.window(window.name, window.function,
                                 order_by=window.order_key,
                                 desc=window.descending)
        if any(i.is_star for i in items):
            if len(items) != 1:
                raise QueryError("SELECT * cannot be combined with columns")
            return query, []
        outputs = [i.expression.as_(i.output_name()) for i in items]
        return query.select(*outputs), [i.output_name() for i in items]

    @staticmethod
    def _normalize(item: Any) -> tuple[str, Any]:
        from repro.engine.executor import normalize_output
        return normalize_output(item)

    def _parse_order_keys(self, output_names: list[str]
                          ) -> list[tuple[Any, bool]]:
        orders: list[tuple[Any, bool]] = []
        while True:
            token = self._peek()
            if token.type is T.NUMBER:
                self._advance()
                ordinal = int(token.value)
                if not 1 <= ordinal <= len(output_names):
                    raise QueryError(
                        f"ORDER BY position {ordinal} out of range")
                key: Any = output_names[ordinal - 1]
            else:
                key = self._parse_additive()
            descending = self._match_keyword("DESC") is not None
            if not descending:
                self._match_keyword("ASC")
            orders.append((key, descending))
            if self._peek().type is T.COMMA:
                self._advance()
                continue
            return orders

    @staticmethod
    def _orders_use_outputs(orders: list[tuple[Any, bool]],
                            output_names: list[str]) -> bool:
        for key, _descending in orders:
            if isinstance(key, str):
                if key not in output_names:
                    return False
            elif isinstance(key, expr.Col):
                if key.name not in output_names:
                    return False
            else:
                return False  # expression keys sort before projection
        return True

    def _parse_expression_list(self) -> list[Any]:
        out = [self._parse_additive()]
        while self._peek().type is T.COMMA:
            self._advance()
            out.append(self._parse_additive())
        return out

    # -- boolean expressions --------------------------------------------------------------

    def _parse_or(self) -> expr.Expression:
        parts = [self._parse_and()]
        while self._match_keyword("OR"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else expr.Or(*parts)

    def _parse_and(self) -> expr.Expression:
        parts = [self._parse_not()]
        while self._match_keyword("AND"):
            parts.append(self._parse_not())
        return parts[0] if len(parts) == 1 else expr.And(*parts)

    def _parse_not(self) -> expr.Expression:
        if self._match_keyword("NOT"):
            return expr.Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> expr.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type in _CMP_TOKENS:
            self._advance()
            right = self._parse_additive()
            return expr.Comparison(_CMP_TOKENS[token.type], left, right)
        if token.is_keyword("IS"):
            self._advance()
            negate = self._match_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return left.is_not_null() if negate else left.is_null()
        negate = self._match_keyword("NOT") is not None
        if self._match_keyword("IN"):
            self._expect(T.LPAREN)
            values = [self._parse_literal_value()]
            while self._peek().type is T.COMMA:
                self._advance()
                values.append(self._parse_literal_value())
            self._expect(T.RPAREN)
            predicate: expr.Expression = left.in_(values)
            return expr.Not(predicate) if negate else predicate
        if self._match_keyword("LIKE"):
            pattern = self._expect(T.STRING)
            predicate = left.like(pattern.value)
            return expr.Not(predicate) if negate else predicate
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            predicate = expr.And(expr.Comparison(">=", left, low),
                                 expr.Comparison("<=", left, high))
            return expr.Not(predicate) if negate else predicate
        if negate:
            raise QueryError("expected IN, LIKE or BETWEEN after NOT")
        # bare boolean expression (e.g. JSON_EXISTS(...))
        return left

    def _parse_literal_value(self) -> Any:
        token = self._peek()
        if token.type is T.QMARK:
            self._advance()
            return self._next_param()
        if token.type is T.STRING or token.type is T.NUMBER:
            self._advance()
            return token.value
        if token.type is T.MINUS:
            self._advance()
            number = self._expect(T.NUMBER)
            return -number.value
        raise QueryError(f"expected literal, found {token.text!r}")

    # -- scalar expressions ------------------------------------------------------------------

    @staticmethod
    def _no_aggregate_arithmetic(value: Any) -> Any:
        if isinstance(value, expr.Aggregate):
            raise QueryError(
                "aggregates cannot appear inside arithmetic; aggregate the "
                "whole expression instead (e.g. SUM(a * b))")
        return value

    def _parse_additive(self) -> expr.Expression:
        left = self._parse_term()
        while True:
            token = self._peek()
            if token.type is T.PLUS:
                self._advance()
                left = (self._no_aggregate_arithmetic(left)
                        + self._no_aggregate_arithmetic(self._parse_term()))
            elif token.type is T.MINUS:
                self._advance()
                left = (self._no_aggregate_arithmetic(left)
                        - self._no_aggregate_arithmetic(self._parse_term()))
            else:
                return left

    def _parse_term(self) -> expr.Expression:
        left = self._parse_value()
        while True:
            token = self._peek()
            if token.type is T.STAR:
                self._advance()
                left = (self._no_aggregate_arithmetic(left)
                        * self._no_aggregate_arithmetic(self._parse_value()))
            elif token.type is T.SLASH:
                self._advance()
                left = (self._no_aggregate_arithmetic(left)
                        / self._no_aggregate_arithmetic(self._parse_value()))
            else:
                return left

    def _parse_value(self) -> Any:
        token = self._peek()
        if token.type is T.NUMBER or token.type is T.STRING:
            self._advance()
            return expr.Literal(token.value)
        if token.type is T.QMARK:
            self._advance()
            return expr.Literal(self._next_param())
        if token.type is T.MINUS:
            self._advance()
            return expr.Literal(0) - self._parse_value()
        if token.type is T.LPAREN:
            self._advance()
            inner = self._parse_or()
            self._expect(T.RPAREN)
            return inner
        if token.is_keyword("NULL"):
            self._advance()
            return expr.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return expr.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return expr.Literal(False)
        if token.type is T.KEYWORD:
            return self._parse_function(token)
        if token.type is T.IDENT:
            name = self._parse_column_name()
            return expr.Col(name)
        raise QueryError(f"unexpected {token.text or 'end of input'!r} "
                         f"in expression")

    def _parse_function(self, token: Token) -> Any:
        word = token.text
        if word in _AGG_FUNCS:
            return self._parse_aggregate(word)
        if word in _SCALAR_FUNCS:
            self._advance()
            self._expect(T.LPAREN)
            args = [self._parse_additive()]
            while self._peek().type is T.COMMA:
                self._advance()
                args.append(self._parse_additive())
            self._expect(T.RPAREN)
            factory = {"SUBSTR": expr.SUBSTR, "INSTR": expr.INSTR,
                       "UPPER": expr.UPPER, "LOWER": expr.LOWER,
                       "LENGTH": expr.LENGTH, "NVL": expr.NVL}[word]
            return factory(*args)
        if word == "JSON_VALUE":
            self._advance()
            self._expect(T.LPAREN)
            column = self._parse_additive()
            self._expect(T.COMMA)
            path = self._expect(T.STRING).value
            returning = None
            if self._match_keyword("RETURNING"):
                returning = self._parse_returning_type()
            self._expect(T.RPAREN)
            return expr.JsonValueExpr(column, path, returning=returning)
        if word == "JSON_EXISTS":
            self._advance()
            self._expect(T.LPAREN)
            column = self._parse_additive()
            self._expect(T.COMMA)
            path = self._expect(T.STRING).value
            self._expect(T.RPAREN)
            return expr.JsonExistsExpr(column, path)
        if word == "JSON_TEXTCONTAINS":
            self._advance()
            self._expect(T.LPAREN)
            column = self._parse_additive()
            self._expect(T.COMMA)
            path = self._expect(T.STRING).value
            self._expect(T.COMMA)
            keywords = self._expect(T.STRING).value
            self._expect(T.RPAREN)
            return expr.JsonTextContainsExpr(column, path, keywords)
        if word == "LAG":
            self._advance()
            self._expect(T.LPAREN)
            operand = self._parse_additive()
            offset = 1
            default = None
            if self._peek().type is T.COMMA:
                self._advance()
                offset = int(self._expect(T.NUMBER).value)
                if self._peek().type is T.COMMA:
                    self._advance()
                    default = self._parse_additive()
            self._expect(T.RPAREN)
            self._expect_keyword("OVER")
            self._expect(T.LPAREN)
            self._expect_keyword("ORDER")
            self._expect_keyword("BY")
            order_key = self._parse_additive()
            descending = self._match_keyword("DESC") is not None
            if not descending:
                self._match_keyword("ASC")
            self._expect(T.RPAREN)
            name = f"__lag_{len(self._windows)}"
            self._windows.append(_Window(name, expr.LAG(operand, offset,
                                                        default),
                                         order_key, descending))
            return expr.Col(name)
        raise QueryError(f"unexpected keyword {word} in expression")

    def _parse_aggregate(self, word: str) -> expr.Aggregate:
        self._advance()
        self._expect(T.LPAREN)
        if word == "COUNT" and self._peek().type is T.STAR:
            self._advance()
            self._expect(T.RPAREN)
            return expr.COUNT()
        operand = self._parse_additive()
        self._expect(T.RPAREN)
        if word == "JSON_DATAGUIDEAGG":
            from repro.core.dataguide import JsonDataGuideAgg
            return JsonDataGuideAgg(operand)
        factory = {"COUNT": expr.COUNT, "SUM": expr.SUM, "AVG": expr.AVG,
                   "MIN": expr.MIN, "MAX": expr.MAX}[word]
        return factory(operand)

    def _parse_returning_type(self) -> str:
        token = self._peek()
        if token.is_keyword("NUMBER"):
            self._advance()
            return "number"
        if token.is_keyword("BOOLEAN"):
            self._advance()
            return "boolean"
        if token.is_keyword("VARCHAR2"):
            self._advance()
            self._expect(T.LPAREN)
            size = self._expect(T.NUMBER)
            self._expect(T.RPAREN)
            return f"varchar2({int(size.value)})"
        raise QueryError(f"unsupported RETURNING type {token.text!r}")
