"""Scalar, predicate, aggregate and window expressions.

Expressions form a small tree that :meth:`Expression.compiled` lowers
once to a per-row closure (rows are plain dicts); every operator, in
either execution mode, runs that closure.  SQL NULL semantics are
observed: any scalar operation over NULL yields NULL, comparisons with
NULL are unknown (treated as false in WHERE), and aggregates skip NULLs.

The module exposes Oracle-style helpers used by the paper's Figure 3
queries — ``SUBSTR``, ``INSTR``, ``LAG(...) OVER (ORDER BY ...)`` — plus
SQL/JSON expression wrappers (``JsonValueExpr``, ``JsonExistsExpr``,
``JsonTextContainsExpr``) so queries can push predicates down onto JSON
columns of any encoding.
"""

from __future__ import annotations

import functools
import operator

from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.errors import QueryError
from repro.obs import metrics as _metrics
from repro.sqljson.operators import (json_exists, json_textcontains,
                                     json_value)

Row = dict

#: per-query expression compilation: a hit means the tree had already
#: been lowered to a closure and the executor reused it
_COMPILE_HITS = _metrics.counter("engine.expr_compile.hits")
_COMPILE_MISSES = _metrics.counter("engine.expr_compile.misses")


class Expression:
    """Base class: ``compiled()(row)`` computes the value for one row."""

    def compile(self) -> Callable[[Row], Any]:
        """Lower this tree to a per-row closure, with the operator
        lookups and attribute hops done here, once.  Callers go through
        :meth:`compiled`."""
        raise NotImplementedError

    def compiled(self) -> Callable[[Row], Any]:
        """Memoized :meth:`compile` — one closure per expression tree,
        built the first time an executor hoists it out of its row loop."""
        fn = self.__dict__.get("_compiled_fn")
        if fn is not None:
            _COMPILE_HITS.inc()
            return fn
        _COMPILE_MISSES.inc()
        fn = self.compile()
        self.__dict__["_compiled_fn"] = fn
        return fn

    def sql(self) -> str:
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------

    def __eq__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, wrap(other))

    def __ne__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("<>", self, wrap(other))

    def __lt__(self, other: Any) -> "Comparison":
        return Comparison("<", self, wrap(other))

    def __le__(self, other: Any) -> "Comparison":
        return Comparison("<=", self, wrap(other))

    def __gt__(self, other: Any) -> "Comparison":
        return Comparison(">", self, wrap(other))

    def __ge__(self, other: Any) -> "Comparison":
        return Comparison(">=", self, wrap(other))

    def __add__(self, other: Any) -> "Arithmetic":
        return Arithmetic("+", self, wrap(other))

    def __sub__(self, other: Any) -> "Arithmetic":
        return Arithmetic("-", self, wrap(other))

    def __mul__(self, other: Any) -> "Arithmetic":
        return Arithmetic("*", self, wrap(other))

    def __truediv__(self, other: Any) -> "Arithmetic":
        return Arithmetic("/", self, wrap(other))

    def __hash__(self) -> int:
        return id(self)

    def in_(self, values: Iterable[Any]) -> "InList":
        return InList(self, tuple(values))

    def like(self, pattern: str) -> "Like":
        return Like(self, pattern)

    def is_null(self) -> "IsNull":
        return IsNull(self, True)

    def is_not_null(self) -> "IsNull":
        return IsNull(self, False)

    def as_(self, alias: str) -> "Aliased":
        return Aliased(self, alias)


def wrap(value: Any) -> Expression:
    """Lift a plain Python value to a :class:`Literal` (expressions pass
    through unchanged)."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Literal(Expression):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self) -> Callable[[Row], Any]:
        value = self.value
        return lambda row: value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


class Col(Expression):
    """A column reference by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def compile(self) -> Callable[[Row], Any]:
        name = self.name

        def fetch(row: Row) -> Any:
            try:
                return row[name]
            except KeyError:
                raise QueryError(f"unknown column {name!r}") from None

        return fetch

    def sql(self) -> str:
        return self.name


class Aliased(Expression):
    """``expr AS alias`` — only meaningful in SELECT lists."""

    __slots__ = ("inner", "alias")

    def __init__(self, inner: Expression, alias: str) -> None:
        self.inner = inner
        self.alias = alias

    def compile(self) -> Callable[[Row], Any]:
        return self.inner.compiled()

    def sql(self) -> str:
        return f"{self.inner.sql()} AS {self.alias}"


class Arithmetic(Expression):
    __slots__ = ("op", "left", "right")

    _OPS: dict[str, Callable[[Any, Any], Any]] = {
        "+": operator.add, "-": operator.sub,
        "*": operator.mul, "/": operator.truediv,
    }

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in self._OPS:
            raise QueryError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self) -> Callable[[Row], Any]:
        apply = self._OPS[self.op]
        left = self.left.compiled()
        right = self.right.compiled()

        def fn(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return apply(a, b)

        return fn

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class Comparison(Expression):
    __slots__ = ("op", "left", "right")

    _COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
        "=": operator.eq,
        "<>": operator.ne,
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in self._COMPARATORS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self) -> Callable[[Row], Any]:
        comparator = self._COMPARATORS[self.op]
        left = self.left.compiled()
        right = self.right.compiled()

        def fn(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return comparator(a, b)
            except TypeError:
                return None

        return fn

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


class And(Expression):
    __slots__ = ("parts",)

    def __init__(self, *parts: Expression) -> None:
        self.parts = parts

    def compile(self) -> Callable[[Row], Any]:
        parts = [p.compiled() for p in self.parts]

        def fn(row: Row) -> Any:
            result: Any = True
            for part in parts:
                value = part(row)
                if value is False:
                    return False
                if value is None:
                    result = None
            return result

        return fn

    def sql(self) -> str:
        return " AND ".join(p.sql() for p in self.parts)


class Or(Expression):
    __slots__ = ("parts",)

    def __init__(self, *parts: Expression) -> None:
        self.parts = parts

    def compile(self) -> Callable[[Row], Any]:
        parts = [p.compiled() for p in self.parts]

        def fn(row: Row) -> Any:
            result: Any = False
            for part in parts:
                value = part(row)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result

        return fn

    def sql(self) -> str:
        return "(" + " OR ".join(p.sql() for p in self.parts) + ")"


class Not(Expression):
    __slots__ = ("inner",)

    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    def compile(self) -> Callable[[Row], Any]:
        inner = self.inner.compiled()

        def fn(row: Row) -> Any:
            value = inner(row)
            if value is None:
                return None
            return not value

        return fn

    def sql(self) -> str:
        return f"NOT ({self.inner.sql()})"


class InList(Expression):
    __slots__ = ("operand", "values")

    def __init__(self, operand: Expression, values: tuple) -> None:
        self.operand = operand
        self.values = values

    def compile(self) -> Callable[[Row], Any]:
        operand = self.operand.compiled()
        values = self.values

        def fn(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            return value in values

        return fn

    def sql(self) -> str:
        rendered = ", ".join(Literal(v).sql() for v in self.values)
        return f"{self.operand.sql()} IN ({rendered})"


class Like(Expression):
    """SQL LIKE with % and _ wildcards."""

    __slots__ = ("operand", "pattern", "_regex")

    def __init__(self, operand: Expression, pattern: str) -> None:
        import re
        self.operand = operand
        self.pattern = pattern
        # re.escape leaves % and _ untouched (they are not regex
        # metacharacters), so the wildcard substitution happens afterwards
        escaped = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._regex = re.compile(f"^{escaped}$", re.DOTALL)

    def compile(self) -> Callable[[Row], Any]:
        operand = self.operand.compiled()
        match = self._regex.match

        def fn(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            return bool(match(str(value)))

        return fn

    def sql(self) -> str:
        return f"{self.operand.sql()} LIKE {Literal(self.pattern).sql()}"


class IsNull(Expression):
    __slots__ = ("operand", "expect_null")

    def __init__(self, operand: Expression, expect_null: bool) -> None:
        self.operand = operand
        self.expect_null = expect_null

    def compile(self) -> Callable[[Row], Any]:
        operand = self.operand.compiled()
        expect_null = self.expect_null

        def fn(row: Row) -> Any:
            is_null = operand(row) is None
            return is_null if expect_null else not is_null

        return fn

    def sql(self) -> str:
        suffix = "IS NULL" if self.expect_null else "IS NOT NULL"
        return f"{self.operand.sql()} {suffix}"


class Func(Expression):
    """Named scalar function over evaluated arguments (NULL-propagating)."""

    __slots__ = ("name", "args", "fn")

    def __init__(self, name: str, args: Sequence[Expression],
                 fn: Callable[..., Any]) -> None:
        self.name = name
        self.args = tuple(args)
        self.fn = fn

    def compile(self) -> Callable[[Row], Any]:
        args = [a.compiled() for a in self.args]
        call = self.fn

        def fn(row: Row) -> Any:
            values = [a(row) for a in args]
            if any(v is None for v in values):
                return None
            return call(*values)

        return fn

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


# -- Oracle-style scalar functions used in the paper's queries ---------------


def SUBSTR(operand: Any, start: Any, length: Any = None) -> Func:  # noqa: N802
    """1-based SUBSTR; negative start counts from the end (Oracle rules)."""
    def fn(text: str, begin: int, size: Optional[int] = None) -> str:
        text = str(text)
        begin = int(begin)
        if begin > 0:
            index = begin - 1
        elif begin < 0:
            index = len(text) + begin
        else:
            index = 0
        if size is None:
            return text[index:]
        return text[index:index + int(size)]

    args = [wrap(operand), wrap(start)]
    if length is not None:
        args.append(wrap(length))
    return Func("SUBSTR", args, fn)


def INSTR(haystack: Any, needle: Any) -> Func:  # noqa: N802
    """1-based position of needle in haystack, 0 if absent."""
    return Func("INSTR", [wrap(haystack), wrap(needle)],
                lambda h, n: str(h).find(str(n)) + 1)


def UPPER(operand: Any) -> Func:  # noqa: N802
    return Func("UPPER", [wrap(operand)], lambda s: str(s).upper())


def LOWER(operand: Any) -> Func:  # noqa: N802
    return Func("LOWER", [wrap(operand)], lambda s: str(s).lower())


def LENGTH(operand: Any) -> Func:  # noqa: N802
    return Func("LENGTH", [wrap(operand)], lambda s: len(str(s)))


class Nvl(Expression):
    """``NVL(expr, alt)``: ``alt`` where ``expr`` is NULL."""

    __slots__ = ("inner", "alt")

    def __init__(self, inner: Expression, alt: Expression) -> None:
        self.inner = inner
        self.alt = alt

    def compile(self) -> Callable[[Row], Any]:
        inner = self.inner.compiled()
        alt = self.alt.compiled()

        def fn(row: Row) -> Any:
            value = inner(row)
            return alt(row) if value is None else value

        return fn

    def sql(self) -> str:
        return f"NVL({self.inner.sql()}, {self.alt.sql()})"


def NVL(operand: Any, default: Any) -> Nvl:  # noqa: N802
    return Nvl(wrap(operand), wrap(default))


# -- SQL/JSON expression wrappers ----------------------------------------------


class _SqlJsonExpr(Expression):
    """Base of the SQL/JSON wrappers: one operator call per row on a JSON
    column at a path; a NULL column yields :attr:`on_null`."""

    __slots__ = ("column", "path")

    on_null: Any = None

    def __init__(self, column: Union[str, Expression], path: str) -> None:
        self.column = Col(column) if isinstance(column, str) else column
        self.path = path

    def bind(self) -> Callable[[Any], Any]:
        """The SQL/JSON operator bound to this node's arguments."""
        raise NotImplementedError

    def compile(self) -> Callable[[Row], Any]:
        column = self.column.compiled()
        call = self.bind()
        on_null = self.on_null

        def fn(row: Row) -> Any:
            data = column(row)
            return on_null if data is None else call(data)

        return fn


class JsonValueExpr(_SqlJsonExpr):
    """``JSON_VALUE(col, 'path' RETURNING type)`` as a row expression."""

    __slots__ = ("returning",)

    def __init__(self, column: Union[str, Expression], path: str,
                 returning: Optional[str] = None) -> None:
        super().__init__(column, path)
        self.returning = returning

    def bind(self) -> Callable[[Any], Any]:
        return functools.partial(json_value, path=self.path,
                                 returning=self.returning)

    def sql(self) -> str:
        returning = f" RETURNING {self.returning}" if self.returning else ""
        return f"JSON_VALUE({self.column.sql()}, '{self.path}'{returning})"


class JsonExistsExpr(_SqlJsonExpr):
    """``JSON_EXISTS(col, 'path')`` as a row predicate."""

    on_null = False

    def bind(self) -> Callable[[Any], Any]:
        return functools.partial(json_exists, path=self.path)

    def sql(self) -> str:
        return f"JSON_EXISTS({self.column.sql()}, '{self.path}')"


class JsonTextContainsExpr(_SqlJsonExpr):
    """``JSON_TEXTCONTAINS(col, 'path', 'keywords')`` as a row predicate."""

    __slots__ = ("keywords",)

    on_null = False

    def __init__(self, column: Union[str, Expression], path: str,
                 keywords: str) -> None:
        super().__init__(column, path)
        self.keywords = keywords

    def bind(self) -> Callable[[Any], Any]:
        return functools.partial(json_textcontains, path=self.path,
                                 keywords=self.keywords)

    def sql(self) -> str:
        return (f"JSON_TEXTCONTAINS({self.column.sql()}, '{self.path}', "
                f"'{self.keywords}')")


# -- aggregates ------------------------------------------------------------------


class Aggregate:
    """Base class for SQL aggregates (NULL-skipping, per the standard)."""

    name = "AGG"

    def __init__(self, operand: Optional[Expression] = None) -> None:
        self.operand = operand

    def create(self) -> "AggregateState":
        raise NotImplementedError

    def sql(self) -> str:
        inner = self.operand.sql() if self.operand is not None else "*"
        return f"{self.name}({inner})"

    def as_(self, alias: str) -> tuple[str, "Aggregate"]:
        return alias, self


class AggregateState:
    """Accumulator for one group.  Besides the volcano ``step``/``final``
    protocol, states support the scatter-gather fold protocol:

    * :meth:`partial` / :meth:`fold_partial` — combine another state of
      the same aggregate into this one through its serializable partial
      dict, which can cross a process boundary (states hold compiled
      closures and cannot be pickled; their partial dicts can);
    * :meth:`merge` — the in-process spelling of the same combine
      (gather of per-shard partials).

    Merging is order-sensitive only where SQL addition is
    (float SUM/AVG reassociation); gather folds shards in shard-index
    order so results stay deterministic.
    """

    def step(self, row: Row) -> None:
        raise NotImplementedError

    def final(self) -> Any:
        raise NotImplementedError

    def merge(self, other: "AggregateState") -> None:
        self.fold_partial(other.partial())

    def partial(self) -> dict:
        raise NotImplementedError

    def fold_partial(self, partial: dict) -> None:
        raise NotImplementedError


class CountAgg(Aggregate):
    name = "COUNT"

    class _State(AggregateState):
        def __init__(self, operand: Optional[Expression]) -> None:
            self._fn = None if operand is None else operand.compiled()
            self.count = 0

        def step(self, row: Row) -> None:
            if self._fn is None or self._fn(row) is not None:
                self.count += 1

        def final(self) -> Any:
            return self.count

        def partial(self) -> dict:
            return {"count": self.count}

        def fold_partial(self, partial: dict) -> None:
            self.count += partial["count"]

    def create(self) -> AggregateState:
        return self._State(self.operand)


class SumAgg(Aggregate):
    name = "SUM"

    class _State(AggregateState):
        def __init__(self, operand: Expression) -> None:
            self._fn = operand.compiled()
            self.total: Any = None

        def step(self, row: Row) -> None:
            value = self._fn(row)
            if value is None:
                return
            self.total = value if self.total is None else self.total + value

        def final(self) -> Any:
            return self.total

        def partial(self) -> dict:
            return {"total": self.total}

        def fold_partial(self, partial: dict) -> None:
            value = partial["total"]
            if value is not None:
                self.total = (value if self.total is None
                              else self.total + value)

    def create(self) -> AggregateState:
        if self.operand is None:
            raise QueryError("SUM requires an operand")
        return self._State(self.operand)


class AvgAgg(Aggregate):
    name = "AVG"

    class _State(AggregateState):
        def __init__(self, operand: Expression) -> None:
            self._fn = operand.compiled()
            self.total: Any = 0
            self.count = 0

        def step(self, row: Row) -> None:
            value = self._fn(row)
            if value is None:
                return
            self.total += value
            self.count += 1

        def final(self) -> Any:
            return None if self.count == 0 else self.total / self.count

        def partial(self) -> dict:
            return {"total": self.total, "count": self.count}

        def fold_partial(self, partial: dict) -> None:
            self.total += partial["total"]
            self.count += partial["count"]

    def create(self) -> AggregateState:
        if self.operand is None:
            raise QueryError("AVG requires an operand")
        return self._State(self.operand)


class _ExtremeAgg(Aggregate):
    better: Callable[[Any, Any], bool]

    class _State(AggregateState):
        def __init__(self, operand: Expression,
                     better: Callable[[Any, Any], bool]) -> None:
            self._fn = operand.compiled()
            self.better = better
            self.current: Any = None

        def step(self, row: Row) -> None:
            self._absorb(self._fn(row))

        def final(self) -> Any:
            return self.current

        def partial(self) -> dict:
            return {"current": self.current}

        def fold_partial(self, partial: dict) -> None:
            self._absorb(partial["current"])

        def _absorb(self, value: Any) -> None:
            if value is None:
                return
            if self.current is None or self.better(value, self.current):
                self.current = value

    def create(self) -> AggregateState:
        if self.operand is None:
            raise QueryError(f"{self.name} requires an operand")
        return self._State(self.operand, type(self).better)


class MinAgg(_ExtremeAgg):
    name = "MIN"
    better = staticmethod(lambda a, b: a < b)


class MaxAgg(_ExtremeAgg):
    name = "MAX"
    better = staticmethod(lambda a, b: a > b)


def COUNT(operand: Any = None) -> CountAgg:  # noqa: N802
    return CountAgg(wrap(operand) if operand is not None else None)


def SUM(operand: Any) -> SumAgg:  # noqa: N802
    return SumAgg(wrap(operand))


def AVG(operand: Any) -> AvgAgg:  # noqa: N802
    return AvgAgg(wrap(operand))


def MIN(operand: Any) -> MinAgg:  # noqa: N802
    return MinAgg(wrap(operand))


def MAX(operand: Any) -> MaxAgg:  # noqa: N802
    return MaxAgg(wrap(operand))


# -- window functions ----------------------------------------------------------------


class WindowFunction:
    """Base for window functions applied by the executor's window operator."""

    def compute(self, rows: list[Row]) -> list[Any]:
        """The function's value for every row of one ordered window,
        positionally; expressions compile once per call, not per row."""
        raise NotImplementedError


class Lag(WindowFunction):
    """``LAG(expr, offset, default) OVER (ORDER BY ...)`` — the window
    function of the paper's Q6."""

    def __init__(self, operand: Expression, offset: int = 1,
                 default: Optional[Expression] = None) -> None:
        self.operand = operand
        self.offset = offset
        self.default = default

    def compute(self, rows: list[Row]) -> list[Any]:
        operand = self.operand.compiled()
        default = (self.default.compiled() if self.default is not None
                   else lambda row: None)
        offset = self.offset
        # the operand reads the row ``offset`` back, the default this row
        return [operand(rows[index - offset]) if index >= offset
                else default(row) for index, row in enumerate(rows)]


def LAG(operand: Any, offset: int = 1, default: Any = None) -> Lag:  # noqa: N802
    default_expr = wrap(default) if default is not None else None
    return Lag(wrap(operand), offset, default_expr)
