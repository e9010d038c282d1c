"""Table constraints, including the IS JSON check constraint.

:class:`IsJsonConstraint` is where the paper fuses DataGuide maintenance
into DML (section 3.2.1): validating a document already requires parsing
it, so the parsed value is handed to any registered hooks — the JSON
search index, whose DataGuide rides on the same parse — at no extra
parse cost.  Figure 7 times the tiers this hook stacks up: no
constraint / IS JSON / IS JSON + search index without and with its
DataGuide.

:func:`decode_json` is the one decoder of a JSON column value (text,
OSON or BSON) that the constraint, the search index and
JSON_DATAGUIDEAGG share.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConstraintViolation, ReproError
from repro.jsontext import loads


def decode_json(raw: Any) -> Any:
    """Decode a JSON column value in any physical form: text is parsed,
    bytes are an OSON image (``OSON`` magic) or else BSON, and anything
    else (an already-parsed value, ``None``) passes through."""
    if isinstance(raw, str):
        return loads(raw)
    if isinstance(raw, (bytes, bytearray)):
        data = bytes(raw)
        if data[:4] == b"OSON":
            from repro.core.oson import decode as oson_decode
            return oson_decode(data)
        from repro.bson import decode as bson_decode
        return bson_decode(data)
    return raw


class Constraint:
    """Base class: ``check(row)`` raises ConstraintViolation on failure."""

    name = "CONSTRAINT"

    def check(self, row: dict) -> None:
        raise NotImplementedError


class CheckConstraint(Constraint):
    """Generic check constraint over a row predicate callable."""

    def __init__(self, name: str, predicate: Callable[[dict], bool]) -> None:
        self.name = name
        self._predicate = predicate

    def check(self, row: dict) -> None:
        if not self._predicate(row):
            raise ConstraintViolation(f"check constraint {self.name} violated")


class NotNullConstraint(Constraint):
    def __init__(self, column: str) -> None:
        self.column = column
        self.name = f"{column}_NOT_NULL"

    def check(self, row: dict) -> None:
        if row.get(self.column) is None:
            raise ConstraintViolation(f"column {self.column} is NOT NULL")


class IsJsonConstraint(Constraint):
    """``CHECK (col IS JSON)`` with optional post-parse hooks.

    The constraint parses the column value (text, or accepts
    already-binary OSON/BSON and pre-parsed values) and passes the parsed
    Python value to each registered hook.  Hooks are how the JSON search
    index and the persistent DataGuide piggyback on constraint
    validation, the paper's low-overhead integration point.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self.name = f"{column}_IS_JSON"
        self._hooks: list[Callable[[dict, Any], None]] = []

    def add_hook(self, hook: Callable[[dict, Any], None]) -> None:
        """Register ``hook(row, parsed_value)`` to run after validation."""
        self._hooks.append(hook)

    def remove_hook(self, hook: Callable[[dict, Any], None]) -> None:
        self._hooks.remove(hook)

    @property
    def hook_count(self) -> int:
        return len(self._hooks)

    def check(self, row: dict) -> None:
        raw = row.get(self.column)
        if raw is None:
            return  # NULLs satisfy IS JSON, as in Oracle
        parsed = self._parse(raw)
        for hook in self._hooks:
            hook(row, parsed)

    def _parse(self, raw: Any) -> Any:
        if not isinstance(raw, (str, bytes, bytearray, dict, list, int, float)):
            raise ConstraintViolation(
                f"{self.name}: unsupported value type {type(raw).__name__}")
        try:
            return decode_json(raw)
        except ReproError as exc:
            form = "JSON" if isinstance(raw, str) else "binary JSON"
            raise ConstraintViolation(
                f"{self.name}: malformed {form}: {exc}") from exc
