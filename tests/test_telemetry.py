"""Sensor streams: determinism, fault windows, dispatch, read-back, staleness."""

from __future__ import annotations

import random

import pytest

from conftest import report_hops, standard_terms
from oilchain import identity, telemetry
from oilchain.errors import (
    AccessDenied,
    StaleTelemetry,
    Unauthorized,
    WindowOutOfRange,
    WrongStatus,
)
from oilchain.identity import Role
from oilchain.telemetry import (
    FaultSpec,
    ReadingKind,
    SensorProfile,
    SensorReading,
    generate_readings,
    inject_fault,
    stream_seed,
)
from oilchain.workflow import HopStatus

SOURCE = b"\x61" * 20

FULL_SETPOINTS = {
    ReadingKind.TEMPERATURE: 22,
    ReadingKind.HUMIDITY: 10,
    ReadingKind.PRESSURE: 8,
    ReadingKind.LOCATION: (29761000, -95358000),
    ReadingKind.WEIGHT: 500,
}


# --- generation -----------------------------------------------------------------

def test_generation_is_deterministic():
    profile = SensorProfile(duration=6, setpoints=FULL_SETPOINTS, noise_amplitude=3)
    first = generate_readings(profile, seed=11, source=SOURCE)
    second = generate_readings(profile, seed=11, source=SOURCE)
    assert first == second
    assert generate_readings(profile, seed=12, source=SOURCE) != first


def test_one_reading_per_tick_and_kind_in_fixed_order():
    profile = SensorProfile(duration=4, setpoints=FULL_SETPOINTS)
    readings = generate_readings(profile, seed=1, source=SOURCE)
    assert len(readings) == 4 * len(FULL_SETPOINTS)
    per_tick = [r.kind for r in readings if r.tick == 2]
    assert per_tick == [ReadingKind.TEMPERATURE, ReadingKind.HUMIDITY,
                        ReadingKind.PRESSURE, ReadingKind.LOCATION,
                        ReadingKind.WEIGHT]
    assert {(r.tick, r.kind) for r in readings} == {
        (t, k) for t in range(4) for k in FULL_SETPOINTS}


def test_noise_stays_inside_amplitude_band():
    profile = SensorProfile(duration=50,
                            setpoints={ReadingKind.PRESSURE: 8},
                            noise_amplitude=2)
    seen = set()
    for seed in range(40):
        for r in generate_readings(profile, seed=seed, source=SOURCE):
            assert 6 <= r.value <= 10
            seen.add(r.value)
    assert seen == {6, 7, 8, 9, 10}


def test_zero_amplitude_pins_values_to_setpoints():
    profile = SensorProfile(duration=5, setpoints=FULL_SETPOINTS)
    for r in generate_readings(profile, seed=3, source=SOURCE):
        assert r.value == FULL_SETPOINTS[r.kind]


def test_location_noise_applies_per_component():
    profile = SensorProfile(duration=30,
                            setpoints={ReadingKind.LOCATION: (1000, 2000)},
                            noise_amplitude=5)
    lats, lons = set(), set()
    for r in generate_readings(profile, seed=8, source=SOURCE):
        lat, lon = r.value
        assert 995 <= lat <= 1005
        assert 1995 <= lon <= 2005
        lats.add(lat - 1000)
        lons.add(lon - 2000)
    assert lats != {0} and lons != {0}


def test_stream_seed_varies_with_every_input():
    base = stream_seed(42, "101", 1)
    assert base == stream_seed(42, "101", 1)
    assert len({base, stream_seed(43, "101", 1), stream_seed(42, "102", 1),
                stream_seed(42, "101", 2)}) == 4


# --- fault injection ---------------------------------------------------------------

def make_stream(duration=6, amplitude=0):
    profile = SensorProfile(duration=duration, setpoints=FULL_SETPOINTS,
                            noise_amplitude=amplitude)
    return generate_readings(profile, seed=5, source=SOURCE)


def test_fault_offsets_only_the_window():
    readings = make_stream()
    faulted = inject_fault(readings, FaultSpec(ReadingKind.PRESSURE, 1, 3, -2))
    for before, after in zip(readings, faulted):
        if before.kind is ReadingKind.PRESSURE and 1 <= before.tick <= 3:
            assert after.value == before.value - 2
        else:
            assert after == before
    assert sum(1 for b, a in zip(readings, faulted) if b != a) == 3


def test_fault_on_location_offsets_both_components():
    readings = make_stream()
    faulted = inject_fault(readings, FaultSpec(ReadingKind.LOCATION, 2, 2, 7))
    moved = [r for r in faulted if r.kind is ReadingKind.LOCATION and r.tick == 2]
    lat, lon = FULL_SETPOINTS[ReadingKind.LOCATION]
    assert moved[0].value == (lat + 7, lon + 7)


@pytest.mark.parametrize("start,end", [(3, 1), (-1, 2), (4, 6), (17, 20)])
def test_fault_window_must_lie_inside_stream(start, end):
    readings = make_stream(duration=6)  # ticks 0..5
    with pytest.raises(WindowOutOfRange):
        inject_fault(readings, FaultSpec(ReadingKind.PRESSURE, start, end, 1))


def test_fault_into_empty_stream_rejected():
    with pytest.raises(WindowOutOfRange):
        inject_fault([], FaultSpec(ReadingKind.PRESSURE, 0, 0, 1))


# --- dispatch into a live hop ---------------------------------------------------------

def accepted_hop(supply, setpoints, terms_kwargs=None):
    batch = supply.register_batch("101", "Petrol", setpoints)
    terms = standard_terms(setpoints, **(terms_kwargs or {}))
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY, terms)
    signature = identity.sign(supply.accept_digest(hop), hop.buyer.private_key)
    supply.accept_shipment(hop, signature)
    return batch, hop


def hop_stream(hop, duration=4, amplitude=0, setpoints=None):
    profile = SensorProfile(duration=duration,
                            setpoints=setpoints or FULL_SETPOINTS,
                            noise_amplitude=amplitude)
    return generate_readings(profile, seed=21, source=hop.data_address)


def test_feed_requires_accepted_hop(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                              standard_terms(setpoints))
    with pytest.raises(WrongStatus):
        supply.feed(hop, hop_stream(hop))
    assert hop.status is HopStatus.PROPOSED


def test_feed_rejects_foreign_sources(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    bad = [SensorReading(ReadingKind.PRESSURE, 0, 8, SOURCE)]
    with pytest.raises(Unauthorized):
        supply.feed(hop, bad)
    assert report_hops(supply)[0]["readings_fed"] == 0
    assert hop.status is HopStatus.ACCEPTED


def test_feed_moves_hop_in_transit_and_checks_each_reading(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    readings = hop_stream(hop, duration=4)
    results = supply.feed(hop, readings)
    assert hop.status is HopStatus.ACCEPTED
    assert report_hops(supply)[0]["readings_fed"] == len(readings)
    # three checked kinds per tick, each one tracking-contract call
    assert len(results) == 12
    assert all(r.status.value == "Ok" for r in results)
    events = [e for b in supply.consortium_chain.blocks
              for t in b.transactions for e in t.events
              if t.contract == hop.tracking_contract and e.name.endswith("Violation")]
    assert len(events) == 12
    assert {e.arg("msg") for e in events} == {
        "Accurate Temperature", "Accurate Humidity", "Accurate Pressure"}


def test_reverted_checks_are_not_counted_as_fed(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    tracking = supply.consortium_rt.contracts[hop.tracking_contract]
    tracking.data_source = SOURCE       # the gateway may no longer feed checks
    results = supply.feed(hop, hop_stream(hop, duration=3))
    assert len(results) == 9
    assert all(r.status.value == "Reverted" for r in results)
    records = telemetry.telemetry_records(supply.private_chain(hop.seller.address),
                                          hop.product_contract,
                                          querier=hop.seller.address)
    assert len(records) == 6            # Location and Weight, three ticks each
    assert report_hops(supply)[0]["readings_fed"] == len(records)


def test_unchecked_kinds_land_on_the_seller_private_chain(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    supply.feed(hop, hop_stream(hop, duration=3))
    chain = supply.private_chain(hop.seller.address)
    records = telemetry.telemetry_records(chain, hop.product_contract,
                                          querier=hop.seller.address)
    assert len(records) == 6  # Location and Weight, three ticks each
    assert {r["kind"] for r in records} == {"Location", "Weight"}
    assert all(r["source"] == hop.data_address for r in records)
    weights = telemetry.telemetry_records(chain, hop.product_contract,
                                          querier=hop.buyer.address,
                                          kind=ReadingKind.WEIGHT)
    assert [w["value"] for w in weights] == [500, 500, 500]


def test_location_history_and_read_gating(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    fixes = [r for r in hop_stream(hop, duration=5)
             if r.kind is ReadingKind.LOCATION]
    supply.feed(hop, fixes)
    assert report_hops(supply)[0]["readings_fed"] == 5
    chain = supply.private_chain(hop.seller.address)
    history = telemetry.telemetry_records(chain, hop.product_contract,
                                          querier=hop.buyer.address,
                                          kind=ReadingKind.LOCATION)
    assert [h["tick"] for h in history] == [0, 1, 2, 3, 4]
    assert all(tuple(h["value"]) == FULL_SETPOINTS[ReadingKind.LOCATION]
               for h in history)
    assert all(h["source"] == hop.data_address for h in history)
    consumer = supply.actor(Role.CONSUMER)
    with pytest.raises(AccessDenied):
        telemetry.telemetry_records(chain, hop.product_contract,
                                    querier=consumer.address)


def test_violation_events_match_out_of_band_values(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    readings = inject_fault(hop_stream(hop, duration=4),
                            FaultSpec(ReadingKind.PRESSURE, 1, 2, +5))
    supply.feed(hop, readings)
    events = [e for b in supply.consortium_chain.blocks
              for t in b.transactions for e in t.events
              if t.contract == hop.tracking_contract
              and e.name == "PressureViolation"]
    messages = [e.arg("msg") for e in events]
    assert messages.count("Higher Pressure") == 2
    assert messages.count("Accurate Pressure") == 2


def test_silence_budget_enforced(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints, {"max_silence_ticks": 2})
    readings = [SensorReading(ReadingKind.PRESSURE, t, 8, hop.data_address)
                for t in (0, 1, 4)]
    with pytest.raises(StaleTelemetry):
        supply.feed(hop, readings)
    assert report_hops(supply)[0]["readings_fed"] == 0
    assert hop.status is HopStatus.ACCEPTED
    ok = [SensorReading(ReadingKind.PRESSURE, t, 8, hop.data_address)
          for t in (0, 2, 4)]
    supply.feed(hop, ok)
    assert report_hops(supply)[0]["readings_fed"] == 3


def test_feed_order_is_tick_then_kind(supply, setpoints):
    _batch, hop = accepted_hop(supply, setpoints)
    shuffled = hop_stream(hop, duration=3)
    random.Random(0).shuffle(shuffled)
    supply.feed(hop, shuffled)
    calls = [(b.timestamp, t.function)
             for b in supply.consortium_chain.blocks
             for t in b.transactions
             if t.contract == hop.tracking_contract
             and t.function.startswith("Check")]
    functions = [f for _, f in calls]
    assert functions == ["CheckTemperature", "CheckHumidity", "CheckPressure"] * 3
    assert [ts for ts, _ in calls] == sorted(ts for ts, _ in calls)
