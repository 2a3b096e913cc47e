"""Shared surface for contract state machines.

A contract is a plain Python object the runtime drives: it validates a call,
mutates its own fields, and returns (return_value, emissions). Emissions are
(event_name, ((arg_name, value), ...)) pairs; the runtime stamps the
emitting address on them. Each call runs on a shallow copy of the contract,
which the runtime installs only when the call's block commits; a revert or a
refused block drops the copy. Every field therefore holds an immutable value
(bytes, int, str, bool or an enum) that handlers reassign, never mutate in
place, so the copy shares nothing a call can change.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from enum import Enum, IntEnum
from typing import Callable, get_type_hints

from ..errors import UnknownFunction
from ..identity import ADDRESS_LEN, address_hex

Emission = tuple[str, tuple[tuple[str, str | int], ...]]


class ContractBase:
    KIND: str = ""

    @classmethod
    @functools.cache
    def functions(cls) -> frozenset[str]:
        """The functions a call may name, matched by exact name: one for each
        `_fn_<Name>` handler."""
        return frozenset(name[4:] for name in dir(cls) if name.startswith("_fn_"))

    def apply(self, function: str, args: dict, caller: bytes, tick: int):
        handler = getattr(self, "_fn_" + function, None)
        if handler is None:
            raise UnknownFunction(f"{self.KIND} has no function {function!r}")
        return handler(args, caller, tick)

    def snapshot(self) -> dict:
        """The contract's kind, then every field in declaration order, rendered
        by declared type: addresses as 0x-hex, stages by label, other enums by
        value."""
        state = {"kind": self.KIND}
        for name, render in _renderers(type(self)):
            value = getattr(self, name)
            state[name] = value if render is None else render(value)
        return state


def stage_label(stage: IntEnum) -> str:
    """A stage's display label: AT_DRILLER -> "AtDriller"."""
    return stage.name.title().replace("_", "")


@functools.cache
def _renderers(cls: type) -> tuple[tuple[str, Callable | None], ...]:
    hints = get_type_hints(cls)
    renderers = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if kind is bytes:
            render = address_hex
        elif issubclass(kind, IntEnum):
            render = stage_label
        elif issubclass(kind, Enum):
            render = operator.attrgetter("value")
        else:
            render = None
        renderers.append((f.name, render))
    return tuple(renderers)


def require_address(value, label: str) -> bytes:
    from ..errors import BadInitArgs

    if not isinstance(value, bytes) or len(value) != ADDRESS_LEN:
        raise BadInitArgs(f"{label} must be a {ADDRESS_LEN}-byte address")
    return value
