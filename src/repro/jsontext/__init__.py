"""From-scratch JSON text substrate.

The paper's TEXT baseline pays a full parse every time a document is
queried.  To charge that cost honestly we implement our own direct DOM
parser (:func:`repro.jsontext.parser.loads`), the one route from text to
a path answer, and a compact serializer
(:mod:`repro.jsontext.serializer`).  The event tokenizer
(:mod:`repro.jsontext.lexer`) is kept for the benchmark's tokenizer
metric and for the tests that check it against ``loads``.  What TEXT is
charged: every byte is scanned again on every access, and each token
costs Python-level work.  The standard-library ``json`` module is not
used.
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
