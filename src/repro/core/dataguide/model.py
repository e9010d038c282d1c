"""DataGuide path entries and the scalar type lattice.

A DataGuide row corresponds to one distinct ``(path, node kind)`` pair in
a JSON collection (section 3.1): paths whose node kinds differ are kept
as *separate* entries (the paper's ``$.a.b``-as-scalar vs
``$.a.b``-as-object example), while scalar entries at the same path merge
their leaf data types to the most general type and keep the maximum
length.

Paths are written in SQL/JSON notation (``$.purchaseOrder.items.name``);
array traversal does not add a path step but sets the entry's
``in_array`` flag, which renders the paper's ``array of string`` /
``array of array`` type labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

OBJECT = "object"
ARRAY = "array"
SCALAR = "scalar"

STRING = "string"
NUMBER = "number"
BOOLEAN = "boolean"
NULL = "null"

#: scalar generality ranks; merging picks the more general (higher) type
_GENERALITY = {NULL: 0, BOOLEAN: 1, NUMBER: 1, STRING: 2}


def generalize_scalar_type(left: Optional[str], right: Optional[str]) -> Optional[str]:
    """Merge two leaf scalar types to the most general one.

    ``null`` is absorbed by anything; differing non-null types generalize
    to ``string`` (the paper's number-vs-string example merges to
    string).
    """
    if left is None:
        return right
    if right is None:
        return left
    if left == right:
        return left
    if left == NULL:
        return right
    if right == NULL:
        return left
    return STRING


def scalar_type_of(value: Any) -> str:
    """Classify a Python scalar into the DataGuide leaf taxonomy."""
    if value is None:
        return NULL
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, str):
        return STRING
    return NUMBER


@dataclass
class PathEntry:
    """One row of the DataGuide (one row of the ``$DG`` table).

    Statistics columns (``frequency``, ``min_value``, ``max_value``,
    ``null_count``) are populated by a statistics pass, matching the
    paper's "populated when the JSON search index statistics are
    computed".
    """

    path: str
    kind: str                                # object | array | scalar
    scalar_type: Optional[str] = None        # for kind == scalar
    in_array: bool = False
    max_length: int = 0                      # max string length seen
    frequency: int = 0                       # documents containing the path
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None

    @property
    def key(self) -> tuple[str, str]:
        """Identity for merge purposes: same path + same node kind."""
        return (self.path, self.kind)

    @property
    def type_label(self) -> str:
        """The human-readable type of the paper's Table 2/4/6."""
        base = self.scalar_type if self.kind == SCALAR else self.kind
        if self.in_array and self.kind != OBJECT:
            return f"array of {base}"
        return base

    def merged_with(self, other: "PathEntry") -> "PathEntry":
        """Pure merge of two entries with the same key."""
        if self.key != other.key:
            raise ValueError(f"cannot merge {self.key} with {other.key}")
        return replace(
            self,
            scalar_type=generalize_scalar_type(self.scalar_type, other.scalar_type),
            in_array=self.in_array or other.in_array,
            max_length=max(self.max_length, other.max_length),
            frequency=self.frequency + other.frequency,
            null_count=self.null_count + other.null_count,
            min_value=_merge_extreme(self.min_value, other.min_value, min),
            max_value=_merge_extreme(self.max_value, other.max_value, max),
        )

    def merge_in_place(self, other: "PathEntry") -> bool:
        """Destructive merge; returns True if the entry changed
        structurally (what ``DataGuideBuilder.add`` reports)."""
        if self.key != other.key:
            raise ValueError(f"cannot merge {self.key} with {other.key}")
        changed = False
        merged_type = generalize_scalar_type(self.scalar_type, other.scalar_type)
        if merged_type != self.scalar_type:
            self.scalar_type = merged_type
            changed = True
        if other.in_array and not self.in_array:
            self.in_array = True
            changed = True
        if other.max_length > self.max_length:
            self.max_length = other.max_length
            changed = True
        # statistics are additive and do not count as structural change
        self.frequency += other.frequency
        self.null_count += other.null_count
        self.min_value = _merge_extreme(self.min_value, other.min_value, min)
        self.max_value = _merge_extreme(self.max_value, other.max_value, max)
        return changed

    def as_row(self) -> dict[str, Any]:
        """Render as a ``$DG`` relational row (Table 2's shape + stats)."""
        return {
            "PATH": self.path,
            "TYPE": self.type_label,
            "SCALAR_TYPE": self.scalar_type,
            "IN_ARRAY": self.in_array,
            "MAX_LENGTH": self.max_length,
            "FREQUENCY": self.frequency,
            "NULL_COUNT": self.null_count,
            "MIN_VALUE": _stringify(self.min_value),
            "MAX_VALUE": _stringify(self.max_value),
        }


def _merge_extreme(left: Any, right: Any, pick: Any) -> Any:
    if left is None:
        return right
    if right is None:
        return left
    try:
        return pick(left, right)
    except TypeError:
        # heterogeneous values (number vs string): compare as strings
        return pick(str(left), str(right))


def _stringify(value: Any) -> Optional[str]:
    return None if value is None else str(value)


def child_path(parent: str, name: str) -> str:
    """Append a member step, quoting names that are not identifiers."""
    if name.isidentifier():
        return f"{parent}.{name}"
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'{parent}."{escaped}"'
