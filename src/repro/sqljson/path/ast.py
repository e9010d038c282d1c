"""AST node classes for the SQL/JSON path language.

The grammar we implement is the subset used throughout the paper plus the
standard's filter expressions:

* ``$`` root and ``@`` filter-context item;
* member steps ``.name`` / ``."quoted name"`` / ``.*``;
* array steps ``[n]``, ``[last]``, ``[last-2]``, ``[n to m]``,
  ``[a, b, c to d]``, ``[*]``;
* descendant step ``..name`` (Oracle extension, used by DataGuide tools);
* filters ``?( <expr> )`` with ``&&``, ``||``, ``!``, ``exists()``,
  comparisons and the string predicates ``has substring`` /
  ``starts with``;
* item methods ``.size()``, ``.type()``, ``.count()``, ``.number()``,
  ``.string()``, ``.length()``.

Member-step field names carry a :class:`~repro.core.oson.cache.CompiledFieldName`
so hash ids are computed once at compile time (section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.oson.cache import CompiledFieldName

LAX = "lax"
STRICT = "strict"


# ---------------------------------------------------------------- steps


@dataclass(frozen=True)
class MemberStep:
    """``.name`` — navigate to a named child of an object."""

    name: str
    compiled: CompiledFieldName = field(compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if self.compiled is None:
            object.__setattr__(self, "compiled", CompiledFieldName(self.name))

    def __str__(self) -> str:
        if self.name.isidentifier():
            return f".{self.name}"
        escaped = self.name.replace("\\", "\\\\").replace('"', '\\"')
        return f'."{escaped}"'


@dataclass(frozen=True)
class WildcardMemberStep:
    """``.*`` — all children of an object."""

    def __str__(self) -> str:
        return ".*"


@dataclass(frozen=True)
class DescendantStep:
    """``..name`` — all descendants with the given field name."""

    name: str
    compiled: CompiledFieldName = field(compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if self.compiled is None:
            object.__setattr__(self, "compiled", CompiledFieldName(self.name))

    def __str__(self) -> str:
        return f"..{self.name}"


@dataclass(frozen=True)
class ArrayIndex:
    """One subscript range: ``n``, ``last``, ``last-k`` or ``n to m``.

    ``last_relative`` marks indices counted from the array end: the stored
    value is the subtrahend, i.e. ``last-2`` -> ``ArrayIndex(2, last_relative=True)``.
    """

    start: int
    end: Optional[int] = None          # inclusive, per the SQL standard
    last_relative: bool = False
    end_last_relative: bool = False

    def __str__(self) -> str:
        def fmt(value: int, rel: bool) -> str:
            if not rel:
                return str(value)
            return "last" if value == 0 else f"last-{value}"

        text = fmt(self.start, self.last_relative)
        if self.end is not None:
            text += f" to {fmt(self.end, self.end_last_relative)}"
        return text


@dataclass(frozen=True)
class ArrayStep:
    """``[ ... ]`` — subscripted array access; ``indexes=None`` means ``[*]``."""

    indexes: Optional[tuple[ArrayIndex, ...]] = None  # None => wildcard

    @property
    def is_wildcard(self) -> bool:
        return self.indexes is None

    def __str__(self) -> str:
        if self.is_wildcard:
            return "[*]"
        return "[" + ", ".join(str(i) for i in self.indexes) + "]"


@dataclass(frozen=True)
class FilterStep:
    """``?( expr )`` — keep context items for which the predicate holds."""

    predicate: "BoolExpr"

    def __str__(self) -> str:
        return f"?({self.predicate})"


@dataclass(frozen=True)
class ItemMethodStep:
    """Trailing item method such as ``.size()`` or ``.type()``."""

    method: str

    def __str__(self) -> str:
        return f".{self.method}()"


Step = Union[MemberStep, WildcardMemberStep, DescendantStep, ArrayStep,
             FilterStep, ItemMethodStep]


# ------------------------------------------------------------- predicates


@dataclass(frozen=True)
class Literal:
    """A literal operand inside a filter expression."""

    value: object

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if self.value is True:
            return "true"
        if self.value is False:
            return "false"
        if isinstance(self.value, str):
            return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return str(self.value)


@dataclass(frozen=True)
class RelativePath:
    """``@.a.b[0]`` — a path rooted at the filter's context item."""

    steps: tuple[Step, ...]

    def __str__(self) -> str:
        return "@" + "".join(str(s) for s in self.steps)


Operand = Union[Literal, RelativePath]


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with op in ==, !=, <, <=, >, >=."""

    op: str
    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class StringPredicate:
    """``@.name has substring "x"`` or ``@.name starts with "x"``."""

    kind: str  # "has_substring" | "starts_with"
    operand: Operand
    needle: str

    def __str__(self) -> str:
        keyword = "has substring" if self.kind == "has_substring" else "starts with"
        return f'{self.operand} {keyword} "{self.needle}"'


@dataclass(frozen=True)
class Exists:
    """``exists(@.a.b)`` — true if the relative path selects anything."""

    path: RelativePath

    def __str__(self) -> str:
        return f"exists({self.path})"


@dataclass(frozen=True)
class And:
    parts: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " && ".join(f"({p})" if isinstance(p, Or) else str(p) for p in self.parts)


@dataclass(frozen=True)
class Or:
    parts: tuple["BoolExpr", ...]

    def __str__(self) -> str:
        return " || ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Not:
    expr: "BoolExpr"

    def __str__(self) -> str:
        return f"!({self.expr})"


BoolExpr = Union[Comparison, StringPredicate, Exists, And, Or, Not]


# ------------------------------------------------------------------ path


@dataclass(frozen=True)
class JsonPath:
    """A compiled SQL/JSON path expression."""

    steps: tuple[Step, ...]
    mode: str = LAX

    def __str__(self) -> str:
        prefix = "" if self.mode == LAX else "strict "
        return prefix + "$" + "".join(str(s) for s in self.steps)
