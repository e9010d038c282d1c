"""Inverted index over JSON field names, paths and leaf-value tokens.

Section 3.2.1: the JSON search index keeps "an inverted index for every
JSON field name and every leaf scalar value (strings are tokenized into a
set of keywords to support full-text searches)".  Postings map index keys
to sets of doc ids:

* ``f:<name>``          — documents containing field ``name`` anywhere;
* ``p:<path>``          — documents containing the structural path;
* ``t:<token>``         — documents containing the word token anywhere;
* ``v:<path>=<token>``  — token under a specific path (path+value search,
  the "search both schema and values together" capability);
* ``n:<path>=<number>`` — exact numeric value under a path.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, Optional

from repro.core.dataguide.model import child_path

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def tokenize_value(text: str) -> list[str]:
    """Lower-cased word tokens of a string value (the index tokenizer)."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class InvertedIndex:
    """Keyword -> doc id postings with incremental add/remove."""

    def __init__(self) -> None:
        self._postings: dict[str, set[int]] = {}
        self.indexed_documents = 0

    # -- maintenance ---------------------------------------------------------

    def add_document(self, doc_id: int, value: Any) -> None:
        self.indexed_documents += 1
        for key in self._keys_for(value):
            self._postings.setdefault(key, set()).add(doc_id)

    def remove_document(self, doc_id: int, value: Any) -> None:
        self.indexed_documents -= 1
        for key in self._keys_for(value):
            postings = self._postings.get(key)
            if postings is not None:
                postings.discard(doc_id)
                if not postings:
                    del self._postings[key]

    def _keys_for(self, value: Any) -> set[str]:
        keys: set[str] = set()
        self._walk(value, "$", keys)
        return keys

    def _walk(self, value: Any, path: str, keys: set[str]) -> None:
        if isinstance(value, dict):
            keys.add(f"p:{path}")
            for name, item in value.items():
                keys.add(f"f:{name}")
                self._walk(item, child_path(path, name), keys)
        elif isinstance(value, (list, tuple)):
            keys.add(f"p:{path}")
            for item in value:
                if isinstance(item, dict):
                    for name, sub in item.items():
                        keys.add(f"f:{name}")
                        self._walk(sub, child_path(path, name), keys)
                elif isinstance(item, (list, tuple)):
                    self._walk(item, path, keys)
                else:
                    self._leaf_keys(item, path, keys)
        else:
            self._leaf_keys(value, path, keys)

    def _leaf_keys(self, value: Any, path: str, keys: set[str]) -> None:
        keys.add(f"p:{path}")
        if isinstance(value, str):
            for token in tokenize_value(value):
                keys.add(f"t:{token}")
                keys.add(f"v:{path}={token}")
        elif isinstance(value, bool):
            keys.add(f"v:{path}={'true' if value else 'false'}")
        elif isinstance(value, (int, float)):
            keys.add(f"n:{path}={value!r}")

    # -- lookups ----------------------------------------------------------------

    def _ids(self, key: str) -> set[int]:
        return self._postings.get(key, set())

    def docs_with_field(self, name: str) -> set[int]:
        return set(self._ids(f"f:{name}"))

    def docs_with_path(self, path: str) -> set[int]:
        return set(self._ids(f"p:{path}"))

    def docs_with_token(self, token: str, path: Optional[str] = None) -> set[int]:
        if path is None:
            return set(self._ids(f"t:{token.lower()}"))
        return set(self._ids(f"v:{path}={token.lower()}"))

    def docs_with_keywords(self, keywords: str,
                           path: Optional[str] = None) -> set[int]:
        """Documents containing *all* word tokens of ``keywords``
        (optionally constrained under one path) — JSON_TEXTCONTAINS."""
        tokens = tokenize_value(keywords)
        if not tokens:
            return set()
        result: Optional[set[int]] = None
        for token in tokens:
            ids = self.docs_with_token(token, path)
            result = ids if result is None else (result & ids)
            if not result:
                return set()
        return result or set()

    def docs_with_number(self, path: str, value: Any) -> set[int]:
        return set(self._ids(f"n:{path}={value!r}"))

    # -- accounting -------------------------------------------------------------

    def key_count(self) -> int:
        return len(self._postings)

    def postings_size(self) -> int:
        return sum(len(ids) for ids in self._postings.values())

    def iter_keys(self) -> Iterator[str]:
        return iter(self._postings)
