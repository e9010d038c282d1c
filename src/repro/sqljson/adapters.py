"""Uniform DOM adapters: one path engine over dict, OSON and BSON.

The DOM-based path engine of section 5.1 navigates through four abstract
operations (node type, field lookup, array element, scalar read).  Each
adapter realizes them for one physical encoding:

* :class:`DictAdapter` — materialized Python values (what the JSON text
  parser produces); field lookup is a hash-dict probe.
* :class:`OsonAdapter` — offset-navigated lazy DOM over OSON bytes;
  field lookup is a binary search over the sorted field-id array, with
  the compile-time hash + single-row look-back optimizations applied via
  :class:`~repro.core.oson.cache.FieldIdResolver`.
* :class:`BsonAdapter` — sequential-scan navigation over BSON bytes with
  skip navigation, the access pattern the paper ascribes to BSON.

Node handles are opaque to the evaluator; ``MISSING`` signals an absent
child (distinct from a JSON null).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.bson.decoder import (
    BsonDocument,
    BsonNode,
    KIND_ARRAY,
    KIND_OBJECT,
    KIND_SCALAR,
)
from repro.core.counters import BoundedCache
from repro.core.oson import constants as oson_constants
from repro.core.oson.cache import CompiledFieldName, FieldIdResolver, open_document
from repro.core.oson.decoder import OsonDocument
from repro.jsontext.parser import loads

#: adapter-level node kinds
OBJECT = "object"
ARRAY = "array"
SCALAR = "scalar"


class _Missing:
    """Sentinel for an absent child; falsy and unique."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


class DictAdapter:
    """Adapter over plain Python values (dict / list / scalars)."""

    __slots__ = ("root",)

    def __init__(self, value: Any) -> None:
        self.root = value

    def kind(self, node: Any) -> str:
        if isinstance(node, dict):
            return OBJECT
        if isinstance(node, (list, tuple)):
            return ARRAY
        return SCALAR

    def get_field(self, node: Any, compiled: CompiledFieldName) -> Any:
        if isinstance(node, dict):
            return node.get(compiled.name, MISSING)
        return MISSING

    def fields(self, node: Any) -> Iterator[tuple[str, Any]]:
        if isinstance(node, dict):
            yield from node.items()

    def array_length(self, node: Any) -> int:
        return len(node) if isinstance(node, (list, tuple)) else 0

    def element(self, node: Any, index: int) -> Any:
        if isinstance(node, (list, tuple)) and -len(node) <= index < len(node):
            return node[index]
        return MISSING

    def elements(self, node: Any) -> Iterator[Any]:
        if isinstance(node, (list, tuple)):
            yield from node

    def scalar(self, node: Any) -> Any:
        return node

    def materialize(self, node: Any) -> Any:
        return node


class OsonAdapter:
    """Adapter over an :class:`OsonDocument`; nodes are tree offsets."""

    __slots__ = ("doc", "root", "_resolver", "scalar", "elements",
                 "materialize")

    def __init__(self, doc: OsonDocument,
                 resolver: Optional[FieldIdResolver] = None) -> None:
        self.doc = doc
        self.root = doc.root
        self._resolver = resolver if resolver is not None else FieldIdResolver()
        # bind the hottest document methods directly (saves one attribute
        # hop per scalar read / array iteration on the query hot path)
        self.scalar = doc.scalar_value
        self.elements = doc.array_elements
        self.materialize = doc.materialize

    _KINDS = {
        oson_constants.NODE_OBJECT: OBJECT,
        oson_constants.NODE_ARRAY: ARRAY,
        oson_constants.NODE_SCALAR: SCALAR,
    }

    def kind(self, node: int) -> str:
        return self._KINDS[self.doc.node_type(node)]

    def get_field(self, node: int, compiled: CompiledFieldName) -> Any:
        # get_field_value itself rejects non-object nodes, so no extra
        # node-type probe is needed here
        doc = self.doc
        field_id = self._resolver.resolve(doc, compiled)
        if field_id is None:
            return MISSING
        child = doc.get_field_value(node, field_id)
        return MISSING if child is None else child

    def fields(self, node: int) -> Iterator[tuple[str, int]]:
        doc = self.doc
        for field_id, child in doc.object_items(node):
            yield doc.field_name(field_id), child

    def array_length(self, node: int) -> int:
        doc = self.doc
        if doc.node_type(node) != oson_constants.NODE_ARRAY:
            return 0
        return doc.child_count(node)

    def element(self, node: int, index: int) -> Any:
        child = self.doc.get_array_element(node, index)
        return MISSING if child is None else child

    # scalar / elements / materialize are bound per instance in __init__
    # (direct references to the OsonDocument methods)


class BsonAdapter:
    """Adapter over BSON bytes; nodes are :class:`BsonDocument` /
    :class:`BsonNode` handles navigated by sequential scan."""

    __slots__ = ("root",)

    def __init__(self, doc: BsonDocument) -> None:
        self.root = doc

    @classmethod
    def from_bytes(cls, data: bytes) -> "BsonAdapter":
        return cls(BsonDocument(data))

    def _as_container(self, node: Any) -> Optional[BsonDocument]:
        if isinstance(node, BsonDocument):
            return node
        if isinstance(node, BsonNode) and node.kind in (KIND_OBJECT, KIND_ARRAY):
            return node.as_document()
        return None

    def kind(self, node: Any) -> str:
        if isinstance(node, BsonDocument):
            return ARRAY if node.is_array else OBJECT
        if isinstance(node, BsonNode):
            if node.kind == KIND_OBJECT:
                return OBJECT
            if node.kind == KIND_ARRAY:
                return ARRAY
        return SCALAR

    def get_field(self, node: Any, compiled: CompiledFieldName) -> Any:
        container = self._as_container(node)
        if container is None or container.is_array:
            return MISSING
        found = container.find_field(compiled.name)  # sequential scan
        return MISSING if found is None else found

    def fields(self, node: Any) -> Iterator[tuple[str, Any]]:
        container = self._as_container(node)
        if container is not None and not container.is_array:
            yield from container.iter_elements()

    def array_length(self, node: Any) -> int:
        container = self._as_container(node)
        if container is None or not container.is_array:
            return 0
        return container.element_count()  # sequential scan

    def element(self, node: Any, index: int) -> Any:
        container = self._as_container(node)
        if container is None or not container.is_array:
            return MISSING
        if index < 0:
            index += container.element_count()
            if index < 0:
                return MISSING
        found = container.element_at(index)
        return MISSING if found is None else found

    def elements(self, node: Any) -> Iterator[Any]:
        container = self._as_container(node)
        if container is not None and container.is_array:
            for _name, child in container.iter_elements():
                yield child

    def scalar(self, node: Any) -> Any:
        if isinstance(node, BsonNode) and node.kind == KIND_SCALAR:
            return node.scalar_value()
        raise TypeError("not a scalar BSON node")

    def materialize(self, node: Any) -> Any:
        if isinstance(node, BsonDocument):
            return node.materialize()
        return node.materialize()


#: OSON adapters (decoded header + dictionary + resolver) cached by image
#: *value*: a JSON_TABLE miss touches the same image once per pushdown
#: predicate plus once for the expansion, and an equal copy of a resident
#: image (a snapshot's or a shard's) finds the adapter the live heap
#: built — a ``bytes`` object stores its hash, so the resident image
#: hashes once and a copy pays one hash + ``memcmp``
_OSON_ADAPTERS = BoundedCache("sqljson.oson_adapter", maxsize=1024)


def adapter_for(value: Any) -> Any:
    """Pick an adapter for a JSON input of any supported physical form:
    OSON bytes, BSON bytes, JSON text, OsonDocument, or Python values."""
    if isinstance(value, OsonDocument):
        return OsonAdapter(value)
    if isinstance(value, BsonDocument):
        return BsonAdapter(value)
    if isinstance(value, (bytes, bytearray)):
        if value[:4] != oson_constants.MAGIC:
            return BsonAdapter(BsonDocument(bytes(value)))
        if type(value) is not bytes:  # mutable: nothing to key a cache by
            return OsonAdapter(open_document(bytes(value)))
        adapter = _OSON_ADAPTERS.get(value)
        if adapter is None:
            adapter = OsonAdapter(open_document(value))
            _OSON_ADAPTERS.put(value, adapter)
        return adapter
    if isinstance(value, str):
        return DictAdapter(loads(value))
    return DictAdapter(value)
