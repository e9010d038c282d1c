"""Shared hypothesis strategies for JSON-shaped values."""

from hypothesis import strategies as st

#: text without lone surrogates (not encodable to UTF-8)
json_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)

#: object keys: additionally NUL-free (BSON cannot store NUL in field
#: names — its names are NUL-terminated cstrings)
json_keys = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\x00"),
    max_size=30)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    json_text,
)


def json_values(max_leaves: int = 25):
    """Arbitrary JSON values: scalars, arrays, objects, nested."""
    return st.recursive(
        json_scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=6),
            st.dictionaries(json_keys, children, max_size=6),
        ),
        max_leaves=max_leaves,
    )


def json_documents(max_leaves: int = 25):
    """JSON values that are objects at the top level (documents)."""
    return st.dictionaries(json_keys, json_values(max_leaves), max_size=8)


def bson_safe(value):
    """BSON cannot represent ints beyond int64 exactly; fold them into
    range so every encoding of ``value`` is value-identical."""
    if isinstance(value, dict):
        return {k: bson_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bson_safe(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return value % (2**31)
    return value
