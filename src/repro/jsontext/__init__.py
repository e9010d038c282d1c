"""From-scratch JSON text substrate.

The paper's TEXT baseline pays a full parse every time a document is
queried.  To charge that cost honestly we implement our own direct DOM
parser (:func:`repro.jsontext.parser.loads`), an event tokenizer for the
streaming path engine (:mod:`repro.jsontext.lexer`) and a compact
serializer (:mod:`repro.jsontext.serializer`).  What TEXT is charged:
every byte is scanned again on every access, and each token costs
Python-level work.  The standard-library ``json`` module is not used.
"""

from repro.jsontext.lexer import JsonEvent, JsonEventType, JsonLexer, tokenize
from repro.jsontext.parser import loads
from repro.jsontext.serializer import dumps

__all__ = [
    "JsonEvent",
    "JsonEventType",
    "JsonLexer",
    "tokenize",
    "loads",
    "dumps",
]
