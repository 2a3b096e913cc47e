"""Canonical encoding: round trips, injectivity, stability."""

import pytest
from hypothesis import given, strategies as st

from oilchain.encoding import canon_decode, canon_encode, digest, strings_under_key

# values the encoder accepts
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.binary(max_size=64),
    st.text(max_size=64),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=12), inner, max_size=6),
    ),
    max_leaves=24,
)


@given(values)
def test_round_trip(value):
    decoded = canon_decode(canon_encode(value))
    assert _normalize(value) == decoded


def _normalize(value):
    # decode returns lists for both lists and tuples
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


def test_dict_key_order_is_irrelevant():
    assert canon_encode({"a": 1, "b": 2}) == canon_encode({"b": 2, "a": 1})


@pytest.mark.parametrize("left,right", [
    (1, True),
    (0, False),
    ("1", 1),
    (b"1", "1"),
    ("", b""),
    (None, 0),
    ([1, 2], [[1], 2]),
    ([1, 2], (2, 1)),
    ({"a": 1}, [["a", 1]]),
    (-1, 1),
])
def test_distinct_values_encode_distinctly(left, right):
    assert canon_encode(left) != canon_encode(right)


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        canon_encode(1.5)
    with pytest.raises(TypeError):
        canon_encode({1: "a"})


def test_truncated_input_raises():
    encoded = canon_encode(["abc", 123])
    for cut in range(len(encoded)):
        with pytest.raises(ValueError):
            canon_decode(encoded[:cut])


def test_trailing_garbage_raises():
    with pytest.raises(ValueError):
        canon_decode(canon_encode(5) + b"x")


def test_digest_is_sha256_of_encoding():
    import hashlib

    value = {"k": [1, "two", b"three"]}
    assert digest(value) == hashlib.sha256(canon_encode(value)).digest()


# values whose nested dicts often hold the key "batch", next to near misses
keyed_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.one_of(st.sampled_from(["batch", "batc", "batches", ""]),
                                  st.text(max_size=12)), inner, max_size=6),
        st.builds(lambda batch, rest: {**rest, "batch": batch},
                  st.text(max_size=12), st.dictionaries(st.text(max_size=12), inner,
                                                        max_size=3)),
    ),
    max_leaves=24,
)


def _strings_under(value, key):
    if isinstance(value, list):
        return {s for item in value for s in _strings_under(item, key)}
    if isinstance(value, dict):
        found = {s for item in value.values() for s in _strings_under(item, key)}
        if isinstance(value.get(key), str):
            found.add(value[key])
        return found
    return set()


@given(keyed_values)
def test_strings_under_key_holds_every_string_stored_under_the_key(value):
    assert _strings_under(value, "batch") <= strings_under_key(canon_encode(value), "batch")


def test_strings_under_key_ignores_what_does_not_parse():
    entry = canon_encode({"batch": "101"})
    assert strings_under_key(entry, "batch") == {"101"}
    assert strings_under_key(canon_encode({"batch": 101}), "batch") == set()
    for cut in range(len(entry)):
        assert strings_under_key(entry[:cut], "batch") == set()
    # an encoded key inside another payload is a spurious hit, never a miss
    assert strings_under_key(canon_encode([b"x" + entry[5:]]), "batch") == {"101"}
