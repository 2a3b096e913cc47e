"""Reference canonical encoder and decoder: the straightforward
isinstance-ladder walk that `oilchain.encoding` replaced, kept as the
oracle the differential tests compare it against. Its encoder fixes every
hash in the ledger; its decoder is the lenient one, which accepts some byte
strings the encoder never produces (unsorted or repeated dict keys, ints
such as `+5` or `05`).

Supported values: None, bool, int, bytes, str, list/tuple, dict with str
keys. Dict entries are encoded in sorted key order; lists and tuples encode
identically (order preserved).
"""

from __future__ import annotations

import struct

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"Y"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_DICT = b"D"

_LEN = struct.Struct(">I")


def canon_encode(value) -> bytes:
    """Encode a value into canonical bytes. Raises TypeError on unsupported types."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        # decimal ASCII keeps arbitrary-precision ints canonical
        text = b"%d" % value
        out += _TAG_INT
        out += _LEN.pack(len(text))
        out += text
    elif isinstance(value, bytes):
        out += _TAG_BYTES
        out += _LEN.pack(len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += _LEN.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        out += _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        keys = sorted(value)
        for k in keys:
            if not isinstance(k, str):
                raise TypeError(f"dict keys must be str, got {type(k).__name__}")
        out += _TAG_DICT
        out += _LEN.pack(len(keys))
        for k in keys:
            _encode_into(out, k)
            _encode_into(out, value[k])
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def canon_decode(data: bytes):
    """Inverse of canon_encode. Raises ValueError on malformed input."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise ValueError("trailing bytes after canonical value")
    return value


def _decode_from(data: bytes, offset: int):
    if offset >= len(data):
        raise ValueError("truncated canonical value")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag in (_TAG_INT, _TAG_BYTES, _TAG_STR):
        if offset + 4 > len(data):
            raise ValueError("truncated length prefix")
        (length,) = _LEN.unpack_from(data, offset)
        offset += 4
        if offset + length > len(data):
            raise ValueError("truncated payload")
        raw = data[offset:offset + length]
        offset += length
        if tag == _TAG_INT:
            return int(raw.decode("ascii")), offset
        if tag == _TAG_BYTES:
            return raw, offset
        return raw.decode("utf-8"), offset
    if tag in (_TAG_LIST, _TAG_DICT):
        if offset + 4 > len(data):
            raise ValueError("truncated count prefix")
        (count,) = _LEN.unpack_from(data, offset)
        offset += 4
        if tag == _TAG_LIST:
            items = []
            for _ in range(count):
                item, offset = _decode_from(data, offset)
                items.append(item)
            return items, offset
        entries = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise ValueError("dict key is not a string")
            entries[key], offset = _decode_from(data, offset)
        return entries, offset
    raise ValueError(f"unknown tag byte {tag!r}")
