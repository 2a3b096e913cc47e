"""Canonical binary encoding used for hashing and signing.

Every hash in the ledger is computed over this encoding, so it must be
injective and stable: one value, one byte string, forever. A value is a tag
byte, then for sized values a big-endian 4-byte length or count, then the
payload:

    N  None                      T / F  True / False
    I  int, as decimal ASCII     Y      bytes
    S  str, as UTF-8             L      count, then each item in order
    D  count, then each entry as key then value, keys str and strictly
       ascending (dicts encode in sorted key order)

Lists and tuples encode identically (order preserved). Decoding is strict:
it accepts exactly the byte strings the encoder produces, so for any input
`b`, `canon_decode(b)` either raises ValueError or re-encodes to `b`.

One writer, `write_items`, states these bytes for every type; a subclass of
a supported type (an IntEnum or str-enum member, say) encodes as its base.
`canon_encode` writes one value through it, and the ledger writes a block's
transactions, events and endorsements into one buffer through
`write_list_head` and `write_items`, without building an intermediate value.
"""

from __future__ import annotations

import hashlib
import struct

NONE, TRUE, FALSE, INT, BYTES, STR, LIST, DICT = b"NTFIYSLD"

_HEAD = struct.Struct(">BI")        # a tag byte, then a length or count
_head = _HEAD.pack
_HEAD_SIZE = _HEAD.size


def canon_encode(value) -> bytes:
    """Encode a value into canonical bytes. Raises TypeError on unsupported types."""
    out = bytearray()
    write_items(out, (value,))
    return bytes(out)


def digest(value) -> bytes:
    """SHA-256 over the canonical encoding of value."""
    return hashlib.sha256(canon_encode(value)).digest()


# how many entries each memo table of `write_items` holds before it is emptied,
# and the longest encoding it keeps; fixed, not configurable
ENCODING_MEMO_SIZE = 1024
ENCODING_MEMO_ITEM_BYTES = 64

# exact str / int item -> its encoding; bytes / list length -> its head.
# Filled as items are written, never at import.
_str_codes: dict[str, bytes] = {}
_int_codes: dict[int, bytes] = {}
_bytes_heads: dict[int, bytes] = {}
_list_heads: dict[int, bytes] = {}


def _memo(table: dict, key, code: bytes) -> bytes:
    """code, kept under key in table unless it is longer than
    ENCODING_MEMO_ITEM_BYTES; a table already holding ENCODING_MEMO_SIZE
    entries is emptied first."""
    if len(code) <= ENCODING_MEMO_ITEM_BYTES:
        if len(table) >= ENCODING_MEMO_SIZE:
            table.clear()
        table[key] = code
    return code


def write_list_head(out: bytearray, count: int) -> None:
    """Append the head of a list of count items; the items follow it."""
    out += _list_heads.get(count) or _memo(_list_heads, count, _head(LIST, count))


def write_items(out: bytearray, items) -> None:
    """Append the encoding of each item in order, without a list head."""
    # exact types first, scalars leading: most items of a ledger record are
    # scalars, and a few distinct strs and ints make up most of them
    for item in items:
        kind = type(item)
        if kind is bytes:
            size = len(item)
            out += _bytes_heads.get(size) or _memo(_bytes_heads, size, _head(BYTES, size))
            out += item
        elif kind is str:
            code = _str_codes.get(item)
            if code is None:
                raw = item.encode("utf-8")
                code = _memo(_str_codes, item, _head(STR, len(raw)) + raw)
            out += code
        elif kind is int:
            code = _int_codes.get(item)
            if code is None:
                text = b"%d" % item
                code = _memo(_int_codes, item, _head(INT, len(text)) + text)
            out += code
        elif kind is tuple or kind is list:
            size = len(item)
            out += _list_heads.get(size) or _memo(_list_heads, size, _head(LIST, size))
            write_items(out, item)
        elif kind is dict:
            keys = sorted(item)
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            out += _head(DICT, len(keys))
            write_items(out, [part for key in keys for part in (key, item[key])])
        elif item is None:
            out.append(NONE)
        elif kind is bool:
            out.append(TRUE if item else FALSE)
        # a subclass encodes as its value of the base type
        elif isinstance(item, int):
            write_items(out, (int(item),))
        elif isinstance(item, bytes):
            write_items(out, (bytes(item),))
        elif isinstance(item, str):     # not str(item): a str-enum's __str__ gives its name
            write_items(out, (str.__str__(item),))
        elif isinstance(item, (list, tuple)):
            write_items(out, (tuple(item),))
        elif isinstance(item, dict):
            write_items(out, (dict(item),))
        else:
            raise TypeError(f"cannot canonically encode {kind.__name__}")


def canon_decode(data: bytes):
    """Inverse of canon_encode. Raises ValueError on any input canon_encode
    does not produce: malformed, truncated, trailing bytes, an int in any
    form but its shortest decimal, dict keys not strictly ascending, or
    lists nested deeper than the interpreter's recursion limit."""
    try:
        value, offset = _read(data, 0)
    except RecursionError:
        raise ValueError("canonical value nested too deeply") from None
    if offset != len(data):
        raise ValueError("trailing bytes after canonical value")
    return value


def _read(data: bytes, at: int):
    """The value whose encoding starts at data[at], and the offset after it."""
    try:
        tag = data[at]
    except IndexError:
        raise ValueError("truncated canonical value") from None
    if tag == NONE:
        return None, at + 1
    if tag == TRUE:
        return True, at + 1
    if tag == FALSE:
        return False, at + 1
    start = at + _HEAD_SIZE
    if start > len(data):
        raise ValueError("truncated length prefix")
    size = _HEAD.unpack_from(data, at)[1]
    if tag == LIST:
        items = []
        for _ in range(size):
            item, start = _read(data, start)
            items.append(item)
        return items, start
    if tag == DICT:
        entries = {}
        previous = None
        for _ in range(size):
            key, start = _read(data, start)
            if type(key) is not str:
                raise ValueError("dict key is not a string")
            if previous is not None and key <= previous:
                raise ValueError("dict keys are not strictly ascending")
            entries[key], start = _read(data, start)
            previous = key
        return entries, start
    end = start + size
    if end > len(data):
        raise ValueError("truncated payload")
    if tag == STR:
        return data[start:end].decode("utf-8"), end
    if tag == BYTES:
        return data[start:end], end
    if tag == INT:
        raw = data[start:end]
        value = int(raw)
        if b"%d" % value != raw:
            raise ValueError(f"int {raw!r} is not in shortest decimal form")
        return value, end
    raise ValueError(f"unknown tag byte {bytes([tag])!r}")
