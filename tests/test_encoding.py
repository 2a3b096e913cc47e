"""Canonical encoding: round trips, injectivity, stability, strict decode,
and agreement with the reference codec in `canon_oracle`."""

import enum
import struct
import typing
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import canon_oracle as oracle
from oilchain import encoding
from oilchain.encoding import canon_decode, canon_encode, digest

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
def test_every_string_under_the_key_encodes_as_the_key_then_itself(value):
    # what the trace pre-filter relies on: a deployment naming batch b holds
    # the encoded "batch" followed by the encoded b
    encoded = canon_encode(value)
    for batch in _strings_under(value, "batch"):
        assert canon_encode("batch") + canon_encode(batch) in encoded


# --- strict decode ------------------------------------------------------------------

def _sized(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack(">I", len(payload)) + payload


def _entries(*pairs: tuple[str, int]) -> bytes:
    body = b"".join(_sized(b"S", k.encode()) + _sized(b"I", b"%d" % v) for k, v in pairs)
    return b"D" + struct.pack(">I", len(pairs)) + body


NON_CANONICAL = {
    "int_plus": _sized(b"I", b"+5"),
    "int_leading_zero": _sized(b"I", b"05"),
    "int_zeros": _sized(b"I", b"00"),
    "int_underscore": _sized(b"I", b"5_0"),
    "int_leading_space": _sized(b"I", b" 5"),
    "int_trailing_newline": _sized(b"I", b"5\n"),
    "int_minus_zero": _sized(b"I", b"-0"),
    "dict_repeated_key": _entries(("a", 1), ("a", 2)),
    "dict_unsorted_keys": _entries(("b", 1), ("a", 2)),
    "nested_dict_unsorted_keys": b"L\x00\x00\x00\x01" + _entries(("b", 1), ("a", 2)),
}


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_decode_refuses_what_the_encoder_never_writes(case):
    data = NON_CANONICAL[case]
    oracle.canon_decode(data)           # the lenient reference reads it
    with pytest.raises(ValueError):
        canon_decode(data)


def test_decode_refuses_nesting_past_the_recursion_limit():
    # the reference dies with RecursionError, which no caller catches
    with pytest.raises(ValueError, match="nested too deeply"):
        canon_decode(b"L\x00\x00\x00\x01" * 5000 + b"N")


@st.composite
def edited_encodings(draw):
    """A valid encoding with one byte flipped, inserted or deleted, or cut short."""
    data = bytearray(canon_encode(draw(values)))
    at = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["flip", "insert", "delete", "cut"]))
    if edit == "flip" and at < len(data):
        data[at] ^= draw(st.integers(1, 255))
    elif edit == "insert":
        data.insert(at, draw(st.integers(0, 255)))
    elif edit == "delete" and at < len(data):
        del data[at]
    else:
        del data[at:]
    return bytes(data)


any_bytes = st.one_of(st.binary(max_size=48), edited_encodings(),
                      st.sampled_from(sorted(NON_CANONICAL.values())))


@given(any_bytes)
def test_decode_accepts_only_what_re_encodes_to_the_same_bytes(data):
    try:
        value = canon_decode(data)
    except ValueError:
        return
    assert canon_encode(value) == data


# --- agreement with the reference codec --------------------------------------------------

class Grade(enum.IntEnum):
    LOW = 1
    HUGE = 2**70


class Kind(str, enum.Enum):
    WEIGHT = "Weight"
    EMPTY = ""


class Items(list):
    pass


class Blob(bytes):
    pass


class Entries(dict):
    pass


class Pair(typing.NamedTuple):
    first: object
    second: object


def _outcome(fn, arg):
    """fn(arg), or the type of the exception it raised."""
    try:
        return fn(arg)
    except Exception as exc:  # the differential compares exception types too
        return type(exc)


def _is_value_error(outcome) -> bool:
    return isinstance(outcome, type) and issubclass(outcome, ValueError)


odd_scalars = st.one_of(
    scalars,
    st.binary(max_size=8).map(Blob),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.sampled_from([*Grade, *Kind]),
    st.floats(),
)
odd_values = st.recursive(
    odd_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, max_size=3).map(Items),
        st.builds(Pair, inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=8), st.sampled_from(list(Kind)),
                                  st.integers(0, 3)), inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=3).map(Entries),
    ),
    max_leaves=20,
)


def _encoded_over_full_memo_tables(value) -> list:
    """canon_encode's outcome for value, twice, once every memo table of the
    encoder is full of other values, among them the ints 0 and 1 that equal
    False and True; the tables are shrunk so that filling them stays cheap."""
    size = 8
    with mock.patch.object(encoding, "ENCODING_MEMO_SIZE", size):
        for i in range(size):
            canon_encode([str(i), i, bytes(i), [None] * i])
        return [_outcome(canon_encode, value) for _ in range(2)]


@given(odd_values)
def test_encoder_matches_the_reference(value):
    # same bytes, or the same exception type (TypeError for a float or a non-str key),
    # also when the value's items displace other values from the memo, then hit it
    expected = _outcome(oracle.canon_encode, value)
    assert _outcome(canon_encode, value) == expected
    assert _encoded_over_full_memo_tables(value) == [expected, expected]


@given(any_bytes)
def test_decoder_refuses_wherever_the_reference_refuses(data):
    expected = _outcome(oracle.canon_decode, data)
    got = _outcome(canon_decode, data)
    if _is_value_error(expected) or oracle.canon_encode(expected) != data:
        assert _is_value_error(got)
    else:
        assert got == expected
        assert canon_encode(got) == data
