"""Sensor streams for shipments in transit.

Readings are integers generated around per-kind setpoints with seeded
uniform noise, so a stream is a pure function of its profile and seed.
Temperature, humidity, and pressure readings drive the hop's tracking
contract; location, weight, leak-alarm, and RFID readings are appended as
plain records to the seller's private chain (see `SupplyChain.feed`).
Faults are injected by offsetting a tick window of one kind, which is how
out-of-band conditions are simulated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .encoding import canon_decode, canon_encode, digest
from .errors import WindowOutOfRange


class ReadingKind(Enum):
    TEMPERATURE = "Temperature"
    HUMIDITY = "Humidity"
    PRESSURE = "Pressure"
    LOCATION = "Location"
    WEIGHT = "Weight"
    LEAK_ALARM = "LeakAlarm"
    RFID_SCAN = "RfidScan"


# kinds whose readings go through the tracking contract, and its function
CHECK_FUNCTION = {
    ReadingKind.TEMPERATURE: "CheckTemperature",
    ReadingKind.HUMIDITY: "CheckHumidity",
    ReadingKind.PRESSURE: "CheckPressure",
}

RECORD_FUNCTION = "recordTelemetry"

# the encoded kind entry of a Weight record, so weights are found undecoded
_WEIGHT_ENTRY = canon_encode("kind") + canon_encode(ReadingKind.WEIGHT.value)

# fixed dispatch order for kinds sharing a tick
KIND_ORDER = {kind: i for i, kind in enumerate(ReadingKind)}

Value = int | tuple[int, int]


@dataclass(frozen=True)
class SensorReading:
    kind: ReadingKind
    tick: int
    value: Value
    source: bytes


@dataclass(frozen=True)
class SensorProfile:
    """What a hop's gateway emits: one reading per (tick, kind).

    Location setpoints are (lat, lon) pairs in micro-degrees; noise applies
    to each component independently.
    """

    duration: int
    setpoints: dict[ReadingKind, Value]
    noise_amplitude: int = 0


@dataclass(frozen=True)
class FaultSpec:
    """Additive offset applied to one kind over an inclusive tick window."""

    kind: ReadingKind
    start: int
    end: int
    offset: int


def stream_seed(scenario_seed: int, batch_id: str, hop_index: int) -> int:
    """Per-hop sub-seed so streams stay stable as scenarios grow."""
    return int.from_bytes(
        digest(["telemetry", batch_id, hop_index, scenario_seed])[:8], "big"
    )


def generate_readings(profile: SensorProfile, seed: int, source: bytes,
                      ) -> list[SensorReading]:
    """Deterministic stream: setpoint plus uniform noise in [-amp, +amp]."""
    rng = random.Random(seed)
    amp = profile.noise_amplitude
    setpoints = sorted(profile.setpoints.items(), key=lambda entry: KIND_ORDER[entry[0]])
    out = []
    for tick in range(profile.duration):
        for kind, setpoint in setpoints:
            if kind is ReadingKind.LOCATION:
                lat, lon = setpoint
                value: Value = (
                    lat + (rng.randint(-amp, amp) if amp else 0),
                    lon + (rng.randint(-amp, amp) if amp else 0),
                )
            else:
                value = setpoint + (rng.randint(-amp, amp) if amp else 0)
            out.append(SensorReading(kind=kind, tick=tick, value=value, source=source))
    return out


def inject_fault(readings: Sequence[SensorReading], fault: FaultSpec,
                 ) -> list[SensorReading]:
    """Offset every reading of fault.kind inside [start, end].

    The window must lie inside the stream's tick range.
    """
    if not readings:
        raise WindowOutOfRange("cannot inject a fault into an empty stream")
    ticks = [r.tick for r in readings]
    lo, hi = min(ticks), max(ticks)
    if fault.start > fault.end or fault.start < lo or fault.end > hi:
        raise WindowOutOfRange(
            f"fault window [{fault.start}, {fault.end}] outside stream range [{lo}, {hi}]"
        )
    out = []
    for r in readings:
        if r.kind is fault.kind and fault.start <= r.tick <= fault.end:
            if r.kind is ReadingKind.LOCATION:
                value: Value = (r.value[0] + fault.offset, r.value[1] + fault.offset)
            else:
                value = r.value + fault.offset
            out.append(SensorReading(r.kind, r.tick, value, r.source))
        else:
            out.append(r)
    return out


# --- reading back ----------------------------------------------------------------

def weight_delta(records: Sequence[bytes]) -> int | None:
    """Last minus first value of the Weight readings among encoded raw-telemetry
    records, oldest first, or None without one. Only those two are decoded."""
    weights = [args for args in records if _WEIGHT_ENTRY in args]
    if not weights:
        return None
    return canon_decode(weights[-1])["value"] - canon_decode(weights[0])["value"]
