"""OSON decoder: a lazy, offset-navigated DOM over raw OSON bytes.

:class:`OsonDocument` parses only the 20-byte header and the dictionary
segment eagerly.  All tree access is by byte offset into the tree-node
navigation segment — node addresses in the sense of section 4.2.2 — so a
path evaluation touches only the nodes it walks, never the whole
document.  The four DOM primitives of section 5.1 (`JsonDomGetNodeType`,
`JsonDomGetFieldValue`, `JsonDomGetArrayElement`, `JsonDomGetScalarInfo`)
are exposed as thin wrappers in :mod:`repro.core.oson.dom`.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from decimal import Decimal
from typing import Any, Iterator, Optional, Sequence

from repro.core.oson import constants as c
from repro.core.oson.dictionary import FieldDictionary
from repro.core.oson.numbers import read_leb128, unpack_decimal, unpack_int
from repro.errors import OsonError

_unpack_u16 = struct.Struct("<H").unpack_from
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from

#: "no default given" marker of :meth:`OsonDocument.scalar_value`
_RAISE = object()


class OsonDocument:
    """A decoded OSON document header plus navigation methods.

    Node addresses handed out by this class are byte offsets relative to
    the tree segment start; ``root`` is the document root's address.
    """

    __slots__ = ("buffer", "dictionary", "tree_start", "value_start", "root")

    def __init__(self, buffer: bytes) -> None:
        if len(buffer) < c.HEADER_SIZE or buffer[:4] != c.MAGIC:
            raise OsonError("not an OSON buffer")
        version = buffer[4]
        if version != c.VERSION:
            raise OsonError(f"unsupported OSON version {version}", offset=4)
        self.buffer = buffer
        self.tree_start = _unpack_u32(buffer, 8)[0]
        self.value_start = _unpack_u32(buffer, 12)[0]
        self.root = _unpack_u32(buffer, 16)[0]
        if not c.HEADER_SIZE <= self.tree_start <= self.value_start <= len(buffer):
            raise OsonError("OSON segment offsets out of range", offset=8)
        if self.root >= self.value_start - self.tree_start:
            raise OsonError("OSON root offset outside the tree segment",
                            offset=16)
        self.dictionary, dict_end = FieldDictionary.from_bytes(buffer, c.HEADER_SIZE)
        if dict_end > self.tree_start:
            raise OsonError("dictionary segment overlaps tree segment",
                            offset=dict_end)

    # -- bounds checking ----------------------------------------------------

    def _checked_header(self, node: int) -> int:
        """Validate a node address and return its header byte.

        Every navigation method funnels through this (or through
        :meth:`_checked_extent`), so corrupt offsets surface as
        :class:`OsonError` instead of IndexError/struct.error.
        """
        if not 0 <= node < self.value_start - self.tree_start:
            raise OsonError(f"node offset {node} outside the tree segment",
                            offset=self.tree_start + node)
        return self.buffer[self.tree_start + node]

    def _checked_extent(self, node: int, size: int) -> None:
        """Require ``size`` node bytes starting at ``node`` to lie inside
        the tree segment."""
        if self.tree_start + node + size > self.value_start:
            raise OsonError(f"node at offset {node} overruns the tree "
                            "segment", offset=self.value_start)

    def _checked_child(self, node: int, delta: int) -> int:
        """Resolve a parent-relative child delta, enforcing the layout's
        children-strictly-before-parents invariant (which also proves
        there are no reference cycles)."""
        child = node - delta
        if delta == 0 or child < 0:
            raise OsonError(f"child delta {delta} of node {node} does not "
                            "resolve strictly before the parent",
                            offset=self.tree_start + node)
        return child

    # -- segment size accounting (Table 11) --------------------------------

    def segment_sizes(self) -> dict[str, int]:
        """Byte sizes of the header and the three segments."""
        return {
            "header": c.HEADER_SIZE,
            "dictionary": self.tree_start - c.HEADER_SIZE,
            "tree": self.value_start - self.tree_start,
            "values": len(self.buffer) - self.value_start,
        }

    # -- field-name dictionary ----------------------------------------------

    def field_id(self, name: str, name_hash: Optional[int] = None) -> Optional[int]:
        """Name -> field id via binary search on the sorted hash array."""
        return self.dictionary.field_id(name, name_hash)

    def field_name(self, field_id: int) -> str:
        return self.dictionary.field_name(field_id)

    def field_hash(self, field_id: int) -> int:
        return self.dictionary.field_hash(field_id)

    def field_count(self) -> int:
        return len(self.dictionary)

    # -- node navigation ------------------------------------------------------

    def node_type(self, node: int) -> int:
        """Node type tag: NODE_OBJECT, NODE_ARRAY or NODE_SCALAR."""
        node_type = self._checked_header(node) & c.NODE_TYPE_MASK
        if node_type == 0:
            raise OsonError(f"invalid node type at offset {node}",
                            offset=self.tree_start + node)
        return node_type

    def child_count(self, node: int) -> int:
        """Number of children of an object or array node."""
        if self._checked_header(node) & c.NODE_TYPE_MASK == c.NODE_SCALAR:
            raise OsonError("scalar nodes have no children")
        self._checked_extent(node, 3)
        return _unpack_u16(self.buffer, self.tree_start + node + 1)[0]

    # -- containers ----------------------------------------------------------

    def _container_layout(self, node: int, header: int,
                          with_ids: bool) -> tuple[int, int]:
        """Validate a container node's full extent; returns
        (child count, delta width)."""
        start = self.tree_start + node
        width = ((header >> c.CONTAINER_WIDTH_SHIFT)
                 & c.CONTAINER_WIDTH_MASK) + 1
        count = 0  # an unreadable count fails the 3-byte check below
        if start + 3 <= self.value_start:
            count = _unpack_u16(self.buffer, start + 1)[0]
        self._checked_extent(
            node, 3 + count * ((2 if with_ids else 0) + width))
        return count, width

    def _child_at(self, node: int, delta_pos: int, width: int) -> int:
        """The child whose delta sits at ``delta_pos`` (point reads)."""
        return self._checked_child(node, int.from_bytes(
            self.buffer[delta_pos:delta_pos + width], "little"))

    def _children(self, node: int, header: int,
                  with_ids: bool) -> tuple[Sequence[int], list[int]]:
        """Bulk read: the one place a container's arrays are scanned.
        The extent is validated once, which is what keeps struct.error
        impossible; each array decodes in one unpack."""
        count, width = self._container_layout(node, header, with_ids)
        buffer = self.buffer
        start = self.tree_start + node + 3
        ids: Sequence[int] = ()
        if with_ids:
            ids = struct.unpack_from(f"<{count}H", buffer, start)
            start += count * 2
        if width == 1:
            deltas: Sequence[int] = buffer[start:start + count]
        elif width == 3:  # the one width struct has no code for
            deltas = [int.from_bytes(buffer[pos:pos + 3], "little")
                      for pos in range(start, start + count * 3, 3)]
        else:
            deltas = struct.unpack_from(
                f"<{count}{'H' if width == 2 else 'I'}", buffer, start)
        if count and not 0 < min(deltas) <= max(deltas) <= node:
            # only an extreme delta can break the invariant: name it
            self._checked_child(node, min(deltas))
            self._checked_child(node, max(deltas))
        return ids, [node - delta for delta in deltas]

    def object_children(self, node: int
                        ) -> Optional[tuple[Sequence[int], list[int]]]:
        """``(sorted field ids, child addresses)`` of an object node, or
        ``None`` when ``node`` is not an object.  Every child address is
        already checked, so callers index the pair freely — a scan that
        wants several fields of one object reads its arrays once."""
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_OBJECT:
            return None
        return self._children(node, header, True)

    def array_children(self, node: int) -> Optional[list[int]]:
        """Child addresses of an array node in element order, or ``None``
        when ``node`` is not an array."""
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_ARRAY:
            return None
        return self._children(node, header, False)[1]

    def get_field_value(self, node: int, field_id: int) -> Optional[int]:
        """Binary-search an object's sorted field-id array; return the
        matching child's node address or ``None``.

        This is the core win of the format: integer comparisons over a
        contiguous sorted array instead of the string scans BSON needs.
        A point lookup reads the id array and the one delta it needs.
        """
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_OBJECT:
            return None
        count, width = self._container_layout(node, header, with_ids=True)
        ids_start = self.tree_start + node + 3
        ids = struct.unpack_from(f"<{count}H", self.buffer, ids_start)
        index = bisect_left(ids, field_id)
        if index == count or ids[index] != field_id:
            return None
        return self._child_at(node, ids_start + count * 2 + index * width,
                              width)

    def get_field_value_by_name(self, node: int, name: str,
                                name_hash: Optional[int] = None) -> Optional[int]:
        """Resolve ``name`` through the dictionary, then jump to the child."""
        field_id = self.field_id(name, name_hash)
        if field_id is None:
            return None
        return self.get_field_value(node, field_id)

    def object_items(self, node: int) -> Iterator[tuple[int, int]]:
        """Iterate (field id, child address) pairs of an object node."""
        pair = self.object_children(node)
        if pair is None:
            raise OsonError("not an object node")
        return zip(*pair)

    def get_array_element(self, node: int, index: int) -> Optional[int]:
        """Direct positional access to the Nth array element: one delta
        is read, however long the array."""
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_ARRAY:
            return None
        count, width = self._container_layout(node, header, with_ids=False)
        if index < 0:
            index += count
        if not 0 <= index < count:
            return None
        return self._child_at(
            node, self.tree_start + node + 3 + index * width, width)

    def array_elements(self, node: int) -> Iterator[int]:
        """Iterate the node addresses of an array's elements."""
        children = self.array_children(node)
        if children is None:
            raise OsonError("not an array node")
        return iter(children)

    # -- scalars ---------------------------------------------------------------

    def get_scalar_info(self, node: int) -> tuple[int, int, int]:
        """Return (scalar type, absolute payload offset, payload length).

        For inline scalars (null/true/false) the offset is -1 and the
        length 0.  For length-prefixed scalars the offset points *past*
        the LEB128 length at the payload bytes.
        """
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_SCALAR:
            raise OsonError("not a scalar node")
        return self._scalar_info(node, header)

    def _scalar_info(self, node: int, header: int) -> tuple[int, int, int]:
        buffer = self.buffer
        scalar_type = (header >> c.SCALAR_TYPE_SHIFT) & c.SCALAR_TYPE_MASK
        if scalar_type in c.INLINE_SCALARS:
            return scalar_type, -1, 0
        width = ((header >> c.SCALAR_WIDTH_SHIFT) & c.SCALAR_WIDTH_MASK) + 1
        self._checked_extent(node, 1 + width)
        base = self.tree_start + node
        rel = buffer[base + 1] if width == 1 else int.from_bytes(
            buffer[base + 1:base + 1 + width], "little")
        abs_off = self.value_start + rel
        if abs_off >= len(buffer):
            raise OsonError(f"scalar value offset {rel} outside the value "
                            "segment", offset=base + 1)
        if scalar_type == c.SCALAR_FLOAT:
            if abs_off + 8 > len(buffer):
                raise OsonError("float payload overruns the value segment",
                                offset=abs_off)
            return scalar_type, abs_off, 8
        length, payload_off = buffer[abs_off], abs_off + 1
        if length & 0x80:  # lengths under 128 are their own LEB128 byte
            length, payload_off = read_leb128(buffer, abs_off)
        if payload_off + length > len(buffer):
            raise OsonError(f"{length}-byte scalar payload overruns the "
                            "value segment", offset=payload_off)
        return scalar_type, payload_off, length

    def scalar_value(self, node: int, container: Any = _RAISE) -> Any:
        """Decode a scalar node to its Python value.  An object or array
        node yields ``container`` when one is given (a scan asks "the
        scalar here, if any" in one step) and raises otherwise."""
        header = self._checked_header(node)
        if header & c.NODE_TYPE_MASK != c.NODE_SCALAR:
            if container is _RAISE:
                raise OsonError("not a scalar node")
            return container
        scalar_type, offset, length = self._scalar_info(node, header)
        if scalar_type == c.SCALAR_NULL:
            return None
        if scalar_type == c.SCALAR_TRUE:
            return True
        if scalar_type == c.SCALAR_FALSE:
            return False
        buffer = self.buffer
        if scalar_type == c.SCALAR_FLOAT:
            return _unpack_f64(buffer, offset)[0]
        payload = buffer[offset:offset + length]
        if scalar_type == c.SCALAR_INT:
            return unpack_int(payload)
        if scalar_type == c.SCALAR_NUMBER:
            return unpack_decimal(payload)
        if scalar_type == c.SCALAR_STRING:
            try:
                return payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise OsonError(f"string payload is not valid UTF-8: {exc}",
                                offset=offset) from exc
        if scalar_type == c.SCALAR_NUMSTR:
            try:
                text = payload.decode("ascii")
            except UnicodeDecodeError as exc:
                raise OsonError("NUMSTR payload is not ASCII",
                                offset=offset) from exc
            try:
                return int(text)
            except ValueError:
                try:
                    return Decimal(text)
                except ArithmeticError as exc:
                    raise OsonError(f"NUMSTR payload {text!r} is not a "
                                    "decimal number", offset=offset) from exc
        raise OsonError(f"unknown scalar type {scalar_type}")

    # -- materialization ----------------------------------------------------------

    def materialize(self, node: Optional[int] = None) -> Any:
        """Fully decode the subtree at ``node`` (default: root) to Python
        values.  Object key order follows field-id order, which is hash
        order — key order is not semantically significant in JSON objects."""
        if node is None:
            node = self.root
        node_type = self.node_type(node)
        if node_type == c.NODE_SCALAR:
            return self.scalar_value(node)
        if node_type == c.NODE_ARRAY:
            return [self.materialize(child) for child in self.array_elements(node)]
        return {
            self.field_name(field_id): self.materialize(child)
            for field_id, child in self.object_items(node)
        }


def decode(data: bytes) -> Any:
    """Convenience: fully decode OSON ``data`` to Python values."""
    return OsonDocument(data).materialize()
