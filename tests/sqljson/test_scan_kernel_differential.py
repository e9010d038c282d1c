"""Differential tests: the JSON_TABLE scan kernel vs its two references.

Over OSON images :class:`~repro.sqljson.json_table.JsonTable` expands
rows through the scan kernel (one read per object).  It must produce
exactly the rows of

* the per-column route — every column walked by its own
  :class:`PathEvaluator` over the navigation VM, and
* the DOM route — ``set_navigation_enabled(False)``, the pre-fast-path
  engine the ablations compare against,

on documents that do not look like the table: missing fields, arrays
where objects are expected (lax unnesting), nested arrays, scalars in
container positions, names absent from the dictionary, empty
containers, and consecutive documents with different dictionaries (the
kernel keeps per-dictionary state between documents).
"""

import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oson import OsonDocument, decode, encode, set_navigation_enabled
from repro.core.oson import constants as c
from repro.core.oson.dictionary import FieldDictionary
from repro.core.oson.encoder import assemble
from repro.errors import OsonError
from repro.sqljson.adapters import OsonAdapter
from repro.sqljson.json_table import ColumnDef, JsonTable, NestedPath

# -- strategies ----------------------------------------------------------------

#: few names, so paths and documents collide; "z" is in no document:
#: a name absent from the dictionary
_NAMES = st.sampled_from(["a", "a", "a", "b", "b", "c", "z"])

_LEAVES = st.one_of(
    st.integers(min_value=-3, max_value=4), st.sampled_from(["x", "ab", ""]),
    st.sampled_from([0.5, 2.0]), st.booleans(), st.none())


def _objects(children):
    return st.dictionaries(st.sampled_from(["a", "b", "c"]), children,
                           min_size=1, max_size=3)


#: dense little documents: objects, arrays of objects, arrays of arrays,
#: scalars where containers are expected, empty arrays
_DOCUMENTS = _objects(st.recursive(
    _LEAVES,
    lambda children: st.one_of(_objects(children), _objects(children),
                               st.lists(children, max_size=3)),
    max_leaves=14))


def _chains(min_size=0, max_size=2):
    """Short member chains: long ones almost never meet a document."""
    return st.lists(_NAMES, min_size=min_size, max_size=max_size).map(
        lambda names: "$" + "".join(f".{n}" for n in names))


#: paths the kernel cannot hold: they must fall back per column
_LOOSE = st.one_of(
    _chains().map(lambda p: f"strict {p}"),
    _chains().map(lambda p: f"{p}[0]"),
    _chains().map(lambda p: f"{p}[*]"),
    _chains().map(lambda p: f"{p}.size()"),
    _chains().map(lambda p: f"{p}?(@ > 0)"),
    _chains(max_size=1).map(lambda p: f"{p}[1].a"),
)

_COLUMN_PATHS = st.one_of(_chains(1), _chains(1), _chains(1), _chains(),
                          _LOOSE)

_TYPES = st.sampled_from(["number", "varchar2(1)", "varchar2(4000)",
                          "varchar2(4000)", "boolean"])

_ROW_PATHS = st.one_of(
    st.just("$"), _chains(), _chains(1).map(lambda p: f"{p}[*]"),
    _chains(1).map(lambda p: f"{p}[*]"), st.just("$[*]"),
    _chains(1).map(lambda p: f"{p}[0]"),
    _chains(1).map(lambda p: f"strict {p}"))


@st.composite
def _column_specs(draw, depth=0):
    """Unnamed column specs: ``(type, path)`` pairs and, up to two
    levels deep, ``(row path, sub-specs)`` NESTED PATHs — siblings
    included (the union join)."""
    items = [(draw(_TYPES), draw(_COLUMN_PATHS))
             for _ in range(draw(st.integers(0, 4)))]
    if depth < 2:
        items += [(draw(_ROW_PATHS), draw(_column_specs(depth=depth + 1)))
                  for _ in range(draw(st.integers(0, 2)))]
    return items


def _named(specs, counter):
    """Column definitions for ``specs``, numbered so names never clash."""
    return [NestedPath(first, _named(second, counter))
            if isinstance(second, list)
            else ColumnDef(f"c{next(counter)}", first, second)
            for first, second in specs]


_TABLES = st.tuples(_ROW_PATHS, _column_specs()).map(
    lambda spec: JsonTable(spec[0], _named(spec[1], itertools.count())))


# -- the three routes ------------------------------------------------------------


def kernel_rows(table, adapter):
    return table.expand(adapter)


def per_column_rows(table, adapter):
    """``JsonTable.expand`` with the kernel switched off for
    this call only: each column through its own path evaluator."""
    out = []
    for context in table._root.evaluator.select(adapter):
        out.extend(table._expand(adapter, context, table._root, False,
                                 dict.fromkeys(table.column_names)))
    return out


def dom_rows(table, adapter):
    previous = set_navigation_enabled(False)
    try:
        return table.expand(adapter)
    finally:
        set_navigation_enabled(previous)


def outcome(route, table, adapter):
    """Rows, or the error type: strict paths raise on mismatches, and
    the routes must agree on that too."""
    try:
        return route(table, adapter)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(table=_TABLES, documents=st.lists(_DOCUMENTS, min_size=1, max_size=4))
def test_kernel_matches_both_references(table, documents):
    """One table over consecutive heterogeneous documents: the kernel's
    per-dictionary field-id maps carry over from one to the next."""
    for document in documents:
        image = encode(document)
        adapter = OsonAdapter(OsonDocument(image))
        expected = outcome(dom_rows, table, adapter)
        assert outcome(per_column_rows, table, adapter) == expected, document
        assert outcome(kernel_rows, table, adapter) == expected, document
        if isinstance(expected, list):
            # and the same rows as plain Python values give (text route)
            assert table.rows(decode(image)) == expected, document


def test_kernel_engages_on_the_figure_3_shape():
    """Guard against vacuity: on the PO view shape nothing is loose, so
    an expansion walks no path at all beyond the root row path."""
    from repro.obs import metrics
    from repro.workloads.purchase_orders import (PurchaseOrderGenerator,
                                                 po_item_dmdv_json_table)

    table = po_item_dmdv_json_table()
    root = table._root
    assert not root.program.loose_columns and not root.program.loose_nested
    assert not root.children[0].program.loose_columns
    document = PurchaseOrderGenerator(seed=3).document(0)
    adapter = OsonAdapter(OsonDocument(encode(document)))
    selects = metrics.counter("sqljson.path.vm_selects")
    before = selects.value
    rows = kernel_rows(table, adapter)
    assert selects.value == before + 1  # the '$' row path, nothing else
    assert rows == dom_rows(table, adapter) == per_column_rows(table, adapter)
    assert len(rows) == len(document["purchaseOrder"]["items"])


def test_mixed_dictionaries_do_not_cross_talk():
    """Field ids differ between these two dictionaries for the same
    names; alternating them must never reuse the other's ids."""
    table = JsonTable("$", [ColumnDef("x", "number", "$.o.x"),
                            ColumnDef("y", "number", "$.o.y"),
                            NestedPath("$.o.items[*]",
                                       [ColumnDef("v", "number", "$.v")])])
    one = {"o": {"x": 1, "y": 2, "items": [{"v": 3}, {"v": 4}]}}
    two = {"extra": 0, "o": {"aa": 9, "y": 20, "x": 10, "bb": 8,
                             "items": {"v": 30}}, "zz": 1}
    for document in (one, two, one, two, two, one):
        adapter = OsonAdapter(OsonDocument(encode(document)))
        assert kernel_rows(table, adapter) == dom_rows(table, adapter)


# -- every delta width, by hand ----------------------------------------------------


def _container_image(kind, width, deltas):
    """An image whose root is a ``kind`` node with ``width``-byte child
    deltas over two inline scalars (null at 0, true at 1).  The encoder
    only emits the narrowest width that fits; the format allows any."""
    dictionary = FieldDictionary.build(["a", "b"])
    tree = bytearray([
        c.NODE_SCALAR | (c.SCALAR_NULL << c.SCALAR_TYPE_SHIFT),
        c.NODE_SCALAR | (c.SCALAR_TRUE << c.SCALAR_TYPE_SHIFT),
        kind | ((width - 1) << c.CONTAINER_WIDTH_SHIFT)])
    tree += struct.pack("<H", len(deltas))
    if kind == c.NODE_OBJECT:
        tree += struct.pack(f"<{len(deltas)}H", *range(len(deltas)))
    for delta in deltas:
        tree += delta.to_bytes(width, "little")
    return assemble(dictionary, bytes(tree), b"", 2), dictionary


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_every_delta_width_reads_the_same(width):
    image, dictionary = _container_image(c.NODE_OBJECT, width, [2, 1])
    doc = OsonDocument(image)
    assert doc.object_children(doc.root) == ((0, 1), [0, 1])
    assert doc.array_children(doc.root) is None
    assert doc.materialize() == {dictionary.names[0]: None,
                                 dictionary.names[1]: True}
    table = JsonTable("$", [ColumnDef("a", "boolean", "$.a"),
                            ColumnDef("b", "boolean", "$.b")])
    adapter = OsonAdapter(doc)
    assert kernel_rows(table, adapter) == dom_rows(table, adapter)

    image, _ = _container_image(c.NODE_ARRAY, width, [1, 2, 1])
    doc = OsonDocument(image)
    assert doc.array_children(doc.root) == [1, 0, 1]
    assert doc.object_children(doc.root) is None
    assert [doc.get_array_element(doc.root, i) for i in (0, 1, -1, 3)] \
        == [1, 0, 1, None]
    assert doc.materialize() == [True, None, True]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("delta", [0, 3])
def test_bulk_read_keeps_the_delta_invariant(width, delta):
    """Children lie strictly before their parent: a zero delta (the
    node itself) or one past the segment start is corruption, and the
    bulk accessors say so however many good deltas surround it."""
    for kind in (c.NODE_OBJECT, c.NODE_ARRAY):
        image, _ = _container_image(kind, width, [1, delta])
        doc = OsonDocument(image)
        with pytest.raises(OsonError):
            doc.materialize()
        with pytest.raises(OsonError):
            (doc.object_children if kind == c.NODE_OBJECT
             else doc.array_children)(doc.root)
