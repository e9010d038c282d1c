"""OSON: Oracle binary JSON encoding (paper section 4).

A self-contained, query-friendly binary JSON format with three segments:
a field-id-name dictionary, a tree-node navigation segment, and a leaf
scalar value segment.  Public surface:

* :func:`encode` / :func:`decode` — whole-document conversion;
* :class:`OsonDocument` — lazy offset-navigated DOM;
* :class:`CompiledFieldName` / :class:`FieldIdResolver` — the hash
  precomputation and single-row look-back optimizations;
* :func:`navigate` / :class:`NavProgram` — compiled partial-decode path
  navigation straight over the binary image (no DOM);
* :func:`open_document` — a document opened for a query, counted in
  ``oson.document.decodes`` (the caches above it are keyed by image
  *value*: ``sqljson.oson_adapter`` and ``sqljson.jsontable_rows``);
* :class:`OsonUpdater` — partial leaf-scalar updates;
* :mod:`~repro.core.oson.stats` — segment size accounting (Tables 10/11);
* :class:`SharedDictionaryStore` — the section-7 set-encoding prototype.
"""

from repro.core.oson.cache import (
    CompiledFieldName,
    FieldIdResolver,
    open_document,
)
from repro.core.oson.decoder import OsonDocument, decode
from repro.core.oson.dictionary import FieldDictionary
from repro.core.oson.encoder import encode
from repro.core.oson.hashing import field_name_hash
from repro.core.oson.navigate import (
    NavProgram,
    navigate,
    navigation_enabled,
    set_navigation_enabled,
)
from repro.core.oson.set_encoding import SharedDictionaryStore
from repro.core.oson.update import OsonUpdater

__all__ = [
    "encode",
    "decode",
    "OsonDocument",
    "FieldDictionary",
    "CompiledFieldName",
    "FieldIdResolver",
    "NavProgram",
    "OsonUpdater",
    "SharedDictionaryStore",
    "field_name_hash",
    "navigate",
    "navigation_enabled",
    "open_document",
    "set_navigation_enabled",
]
