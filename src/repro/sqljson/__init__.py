"""SQL/JSON language layer (paper sections 3-5).

* :mod:`repro.sqljson.path` — the SQL/JSON path language: lexer, parser
  and the DOM evaluator every input form shares (JSON text is parsed
  once per operator call, then navigated like any other adapter).
* :mod:`repro.sqljson.adapters` — a uniform DOM interface over dict
  values, OSON documents and BSON documents, so one path engine serves
  all three encodings.
* :mod:`repro.sqljson.operators` — JSON_VALUE, JSON_QUERY, JSON_EXISTS
  and JSON_TEXTCONTAINS.
* :mod:`repro.sqljson.json_table` — the JSON_TABLE row source with
  NESTED PATH un-nesting (left-outer-join children, union-join siblings).
"""

from repro.sqljson.operators import (
    json_exists,
    json_query,
    json_textcontains,
    json_value,
)
from repro.sqljson.json_table import ColumnDef, JsonTable, NestedPath
from repro.sqljson.path.parser import compile_path

__all__ = [
    "json_value",
    "json_query",
    "json_exists",
    "json_textcontains",
    "compile_path",
    "JsonTable",
    "ColumnDef",
    "NestedPath",
]
