"""Hypothesis fuzzing of the verifiers against the decoders.

Properties, for arbitrary generated documents and mutations:

* the verifier never raises — diagnostics are its only failure channel;
* every truncation of a valid image is flagged AND the decoder rejects
  it with a repro error (never ``IndexError`` / ``struct.error`` /
  ``UnicodeDecodeError`` / silent wrong data);
* under arbitrary byte stomps the decoder either succeeds or raises a
  repro error, and whenever the verifier accepts, the decoder succeeds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import has_errors, verify_bson, verify_oson
from repro.bson import decode as bson_decode
from repro.bson import encode as bson_encode
from repro.core.oson import decode as oson_decode
from repro.core.oson import encode as oson_encode
from repro.errors import BinaryFormatError, BsonError, OsonError, ReproError
from repro.sqljson import ColumnDef, JsonTable, NestedPath, json_exists

from tests.strategies import json_documents, json_values


def _truncate(img: bytes, fraction: float) -> bytes:
    return img[:int(len(img) * fraction)]


def _stomp(img: bytes, position: float, value: int) -> bytes:
    at = int((len(img) - 1) * position)
    return img[:at] + bytes([value]) + img[at + 1:]


#: what the operator fuzz projects and probes: every field as a scalar
#: column, as a NESTED PATH over its elements, and as a filtered probe
_FIELDS = ["a", "b", "c"]
_FIELD_TABLE = JsonTable("$", [
    *[ColumnDef(f"c_{name}", "varchar2(40)", f"$.{name}")
      for name in _FIELDS],
    *[NestedPath(f"$.{name}[*]",
                 [ColumnDef(f"n_{name}", "number", "$"),
                  *[ColumnDef(f"n_{name}_{inner}", "number", f"$.{inner}")
                    for inner in _FIELDS]])
      for name in _FIELDS]])
_FIELD_PROBES = [
    lambda data, path=f"$.{name}[*].{inner}?(@ > 0)": json_exists(data, path)
    for name in _FIELDS for inner in _FIELDS]


class TestOson:
    @given(json_documents(max_leaves=12))
    @settings(max_examples=60, deadline=None)
    def test_encoder_output_verifies_clean(self, doc):
        img = oson_encode(doc)
        assert verify_oson(img) == []
        assert oson_decode(img) == doc

    @given(json_documents(max_leaves=10), st.floats(0, 0.999))
    @settings(max_examples=120, deadline=None)
    def test_truncation_flagged_and_rejected(self, doc, fraction):
        img = _truncate(oson_encode(doc), fraction)
        assert has_errors(verify_oson(img))
        try:
            oson_decode(img)
        except OsonError as exc:
            assert isinstance(exc, BinaryFormatError)
        else:  # pragma: no cover - a failure branch
            raise AssertionError("decoder accepted a truncated image")

    @given(json_documents(max_leaves=10), st.floats(0, 1),
           st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_stomp_never_crashes_and_accept_implies_decode(
            self, doc, position, value):
        img = _stomp(oson_encode(doc), position, value)
        diagnostics = verify_oson(img)  # must not raise
        try:
            oson_decode(img)
        except ReproError:
            assert has_errors(diagnostics), \
                "verifier accepted an image the decoder rejects"


    @given(st.dictionaries(st.sampled_from(_FIELDS),
                           json_values(max_leaves=6), min_size=1),
           st.floats(0, 1), st.integers(0, 255), st.floats(0.5, 1))
    @settings(max_examples=300, deadline=None)
    def test_operators_over_mutants_raise_only_repro_errors(
            self, doc, position, value, fraction):
        """The scan kernel and the JSON_EXISTS probes read containers in
        bulk (one unpack per node): over stomped and truncated images
        they answer or raise a repro error — never ``struct.error`` /
        ``IndexError`` from an unchecked extent."""
        stomped = _stomp(oson_encode(doc), position, value)
        for img in (stomped, _truncate(stomped, fraction)):
            for operator in [_FIELD_TABLE.rows] + _FIELD_PROBES:
                try:
                    operator(img)
                except ReproError:
                    pass


def _bson_normalize(value):
    """BSON stores ints beyond the int64 range as doubles."""
    if isinstance(value, dict):
        return {k: _bson_normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bson_normalize(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        return float(value)
    return value


class TestBson:
    @given(json_documents(max_leaves=12))
    @settings(max_examples=60, deadline=None)
    def test_encoder_output_verifies_clean(self, doc):
        img = bson_encode(doc)
        assert verify_bson(img) == []
        assert bson_decode(img) == _bson_normalize(doc)

    @given(json_documents(max_leaves=10), st.floats(0, 0.999))
    @settings(max_examples=120, deadline=None)
    def test_truncation_flagged_and_rejected(self, doc, fraction):
        img = _truncate(bson_encode(doc), fraction)
        assert has_errors(verify_bson(img))
        try:
            bson_decode(img)
        except BsonError as exc:
            assert isinstance(exc, BinaryFormatError)
        else:  # pragma: no cover - a failure branch
            raise AssertionError("decoder accepted a truncated image")

    @given(json_documents(max_leaves=10), st.floats(0, 1),
           st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_stomp_never_crashes_and_accept_implies_decode(
            self, doc, position, value):
        img = _stomp(bson_encode(doc), position, value)
        diagnostics = verify_bson(img)  # must not raise
        try:
            bson_decode(img)
        except ReproError:
            assert has_errors(diagnostics), \
                "verifier accepted an image the decoder rejects"
