"""Mini relational engine substrate.

A small but real embedded relational engine standing in for the Oracle
kernel: heap tables with typed columns, check constraints and virtual
columns, a volcano-style iterator executor (scan / filter / project /
hash join / hash group-by / sort / window), a query builder, views and a
catalog.  The paper's experiments compare storage encodings and schema
maintenance *inside* one engine; this package is that engine.
"""

from repro.engine.catalog import Database
from repro.engine.table import Column, DurableTable, Table
from repro.engine.types import (
    BOOLEAN,
    CLOB,
    DATE,
    NUMBER,
    RAW,
    SqlType,
    VARCHAR2,
)
from repro.engine.query import Query
from repro.engine import expressions as expr

__all__ = [
    "Database",
    "Table",
    "DurableTable",
    "Column",
    "Query",
    "expr",
    "SqlType",
    "NUMBER",
    "VARCHAR2",
    "RAW",
    "CLOB",
    "DATE",
    "BOOLEAN",
]
