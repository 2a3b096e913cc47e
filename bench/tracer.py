"""Outside-in tracing: spans around the public functions of each layer.

`Tracer.install` replaces every public function and method of the layer
modules with a wrapper that records a span (name, start, end, parent). It
also rebinds every name another oilchain module imported with `from ...
import`, so `ledger.canon_encode` and `provenance.canon_decode` are traced
like `encoding.canon_encode`. Nothing under `src/` changes. `uninstall`
puts the originals back.

Spans live in memory as flat lists and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> layer name; the contracts package is one layer
LAYER_MODULES = {
    "oilchain.identity": "identity",
    "oilchain.encoding": "encoding",
    "oilchain.ledger": "ledger",
    "oilchain.runtime": "runtime",
    "oilchain.contracts.base": "contracts",
    "oilchain.contracts.checkprogress": "contracts",
    "oilchain.contracts.distribution": "contracts",
    "oilchain.telemetry": "telemetry",
    "oilchain.workflow": "workflow",
    "oilchain.scenario": "scenario",
    "oilchain.provenance": "provenance",
    "oilchain.store": "store",
}

START, END = 1, 2                       # fields of a span record


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()    # (phase, key) -> count
        self.consortium_call_ns: list[int] = []     # run phase only
        self.phase = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[END] = time.perf_counter_ns()

    def run_phase(self, phase: str, fn, *args):
        """Run fn(*args) under a root span `bench.<phase>`."""
        self.phase = phase
        record = self._open(f"bench.{phase}")
        try:
            return fn(*args)
        finally:
            self._close(record)
            self.phase = ""

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # a generator's work runs in its consumer; count what it yields
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counts[self.phase, name + ".items"] += 1
                    yield item
            return counting

        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:             # outside every benchmark phase
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self, args, result, record)
            return result
        return traced

    # --- install / uninstall --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}     # id(original) -> wrapper
        for module_name, layer in LAYER_MODULES.items():
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if not _public(attr):
                    continue
                if inspect.isfunction(value) and value.__module__ == module_name:
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    wrappers[id(value)] = wrapper
                    self._set(module, attr, wrapper)
                elif inspect.isclass(value) and value.__module__ == module_name:
                    self._install_methods(value, f"{layer}.{attr}")
        # names bound elsewhere by `from ... import`
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "oilchain" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, attr, wrapper)

    def _install_methods(self, cls: type, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not _public(attr):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(f"{prefix}.{attr}", value.__func__))
                self._set(cls, attr, wrapped)
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", value))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------------------

    def analyse(self) -> "SpanStats":
        return SpanStats(self.spans)

    def write(self, path: Path) -> None:
        """One JSON array per span: [id, parent, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")


class SpanStats:
    """Per-name totals over a finished span list, split by root phase."""

    def __init__(self, spans: list[list]):
        child_ns = [0] * len(spans)
        phase = [""] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < 0:                  # a root is always `bench.<phase>`
                phase[i] = name.removeprefix("bench.")
            else:
                child_ns[parent] += end - start
                phase[i] = phase[parent]
        self.calls: Counter = Counter()          # (phase, name) -> calls
        self.total_ns: Counter = Counter()       # (phase, name) -> inclusive ns
        self.self_ns: Counter = Counter()        # (phase, name) -> self ns
        for i, (name, start, end, _parent) in enumerate(spans):
            key = (phase[i], name)
            self.calls[key] += 1
            self.total_ns[key] += end - start
            self.self_ns[key] += end - start - child_ns[i]

    def _sum(self, counter: Counter, name: str, phase: str | None) -> int:
        return sum(v for (p, n), v in counter.items()
                   if n == name and (phase is None or p == phase))

    def calls_of(self, name: str, phase: str | None = None) -> int:
        return self._sum(self.calls, name, phase)

    def total_s(self, name: str, phase: str | None = None) -> float:
        return self._sum(self.total_ns, name, phase) / 1e9

    def self_s(self, name: str, phase: str | None = None) -> float:
        return self._sum(self.self_ns, name, phase) / 1e9

    def self_by_name(self) -> Counter:
        out: Counter = Counter()
        for (_phase, name), ns in self.self_ns.items():
            if not name.startswith("bench."):
                out[name] += ns
        return out


# --- counters taken from a call's arguments and result ---------------------------------

def _observe_encode(tracer: Tracer, args, result, record) -> None:
    tracer.counts[tracer.phase, "encoding.encode_bytes"] += len(result)


def _observe_call(tracer: Tracer, args, result, record) -> None:
    chain_class = args[0].chain.chain_class.value.lower()
    tracer.counts[tracer.phase, "runtime.calls"] += 1
    if result.status.value == "Reverted":
        tracer.counts[tracer.phase, "runtime.reverts"] += 1
    if chain_class == "consortium" and tracer.phase == "run":
        tracer.consortium_call_ns.append(record[END] - record[START])


_OBSERVERS = {
    "encoding.canon_encode": _observe_encode,
    "runtime.Runtime.call": _observe_call,
}
