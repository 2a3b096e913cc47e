"""Custody spine: ordered once-only transitions, role gating, exact messages."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oilchain.contracts import OilDistribution
from oilchain.contracts.distribution import (
    MSG_IN_STORAGE,
    MSG_SOLD,
    MSG_TO_FACTORY,
    MSG_TO_STORAGE,
    SPINE,
    TraceStage,
)
from oilchain.errors import BadInitArgs, ContractRevert, Unauthorized, WrongStage
from oilchain.identity import Role, address_hex

OWNER = b"\x50" * 20
DRILLER = b"\x51" * 20
FACTORY = b"\x52" * 20
STORAGE = b"\x53" * 20
PUMP = b"\x54" * 20
CONSUMER = b"\x55" * 20

INIT = {"driller": DRILLER, "factory": FACTORY, "storage": STORAGE, "pump": PUMP}

TERMS = {"oil_id": "101", "name": "Petrol", "price": 100, "quantity": 10}


def fresh(stage: TraceStage = TraceStage.CREATED) -> OilDistribution:
    contract = OilDistribution.create(OWNER, INIT)
    steps = [("readyToFactory", DRILLER), ("readyToStorage", FACTORY),
             ("oilInOilStorage", STORAGE), ("pumpSoldOil", PUMP)]
    for i, (function, caller) in enumerate(steps):
        if contract.current_trace >= stage:
            break
        contract.apply(function, TERMS, caller, tick=i + 1)
    return contract


def test_spine_walks_every_transition_in_custody_order():
    transitions = [step.transition for step in SPINE]
    assert sorted(transitions) == sorted(OilDistribution.functions())
    caller = {Role.DRILLER: DRILLER, Role.REFINERY: FACTORY, Role.STORAGE: STORAGE,
              Role.PUMP: CONSUMER}
    contract = OilDistribution.create(OWNER, INIT)
    for tick, step in enumerate(SPINE, start=1):
        _message, emissions = contract.apply(step.transition, TERMS,
                                             caller[step.seller], tick)
        assert [name for name, _args in emissions] == [step.event]
    assert contract.current_trace is TraceStage.SOLD


def test_create_requires_all_four_addresses():
    for missing in ("driller", "factory", "storage", "pump"):
        init = {k: v for k, v in INIT.items() if k != missing}
        with pytest.raises(BadInitArgs):
            OilDistribution.create(OWNER, init)
    with pytest.raises(BadInitArgs):
        OilDistribution.create(OWNER, {**INIT, "accurate_hum": "wet"})
    with pytest.raises(BadInitArgs, match="'bogus'"):
        OilDistribution.create(OWNER, {**INIT, "bogus": 1})


def test_full_sequence_messages_events_and_dates():
    contract = OilDistribution.create(OWNER, INIT)

    message, emissions = contract.apply("readyToFactory", TERMS, DRILLER, tick=11)
    assert message == MSG_TO_FACTORY == "Crude Oil is Ready to go to the Factory."
    assert emissions == [("InitiateDist",
                          (("ad", address_hex(DRILLER)), ("msg", MSG_TO_FACTORY)))]
    assert contract.current_trace is TraceStage.AT_DRILLER
    assert contract.drilling_date == 11
    assert contract.oil_id == "101" and contract.oil_name == "Petrol"
    assert contract.drill_price == 100 and contract.driller_sold_amount == 10

    message, emissions = contract.apply("readyToStorage",
                                        {**TERMS, "price": 120}, FACTORY, tick=12)
    assert message == MSG_TO_STORAGE == "Refined Oil is Ready to go to the Storage."
    assert emissions[0][0] == "FactoryDistribution"
    assert contract.current_trace is TraceStage.AT_FACTORY
    assert contract.factory_dist_start_date == 12
    assert contract.factory_price == 120

    message, emissions = contract.apply("oilInOilStorage",
                                        {**TERMS, "price": 150}, STORAGE, tick=13)
    assert message == MSG_IN_STORAGE == "Oil is stored in the Oil Storage."
    assert emissions[0][0] == "StorageWholesale"
    assert contract.current_trace is TraceStage.AT_STORAGE
    assert contract.refiner_start_date == 13

    message, emissions = contract.apply("pumpSoldOil",
                                        {**TERMS, "price": 180}, CONSUMER, tick=14)
    assert message == MSG_SOLD == "Oil has been Sold at the Pump."
    assert emissions == [("PumpOilSold",
                          (("ad", address_hex(PUMP)), ("msg", MSG_SOLD)))]
    assert contract.current_trace is TraceStage.SOLD
    assert contract.pump_start_date == 14
    assert contract.snapshot()["current_trace"] == "Sold"


@pytest.mark.parametrize("function,authorized", [
    ("readyToFactory", DRILLER),
    ("readyToStorage", FACTORY),
    ("oilInOilStorage", STORAGE),
])
def test_authorization_is_checked_before_stage(function, authorized):
    # wrong caller at the wrong stage still reads as Unauthorized
    contract = fresh(TraceStage.SOLD)
    with pytest.raises(Unauthorized):
        contract.apply(function, TERMS, CONSUMER, tick=99)
    contract = OilDistribution.create(OWNER, INIT)
    if function != "readyToFactory":
        with pytest.raises(WrongStage):
            contract.apply(function, TERMS, authorized, tick=99)


def test_transitions_cannot_be_skipped_or_repeated():
    contract = OilDistribution.create(OWNER, INIT)
    with pytest.raises(WrongStage):
        contract.apply("pumpSoldOil", TERMS, PUMP, tick=1)
    contract.apply("readyToFactory", TERMS, DRILLER, tick=2)
    with pytest.raises(WrongStage):
        contract.apply("readyToFactory", TERMS, DRILLER, tick=3)
    with pytest.raises(WrongStage):
        contract.apply("oilInOilStorage", TERMS, STORAGE, tick=4)


def test_pump_sale_is_public_but_stage_gated():
    contract = fresh(TraceStage.AT_STORAGE)
    message, emissions = contract.apply("pumpSoldOil", TERMS, CONSUMER, tick=9)
    assert message == MSG_SOLD
    # the event names the pump, not whoever triggered the sale
    assert emissions[0][1][0] == ("ad", address_hex(PUMP))
    with pytest.raises(WrongStage):
        contract.apply("pumpSoldOil", TERMS, CONSUMER, tick=10)


CALLS = [("readyToFactory", DRILLER), ("readyToStorage", FACTORY),
         ("oilInOilStorage", STORAGE), ("pumpSoldOil", CONSUMER)]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                min_size=1, max_size=12))
def test_random_call_sequences_keep_stage_monotone(sequence):
    contract = OilDistribution.create(OWNER, INIT)
    callers = [DRILLER, FACTORY, STORAGE, PUMP, CONSUMER, OWNER]
    stage = contract.current_trace
    for call_index, caller_index in sequence:
        function, _ = CALLS[call_index]
        caller = callers[caller_index]
        before = copy.deepcopy(contract.snapshot())
        try:
            contract.apply(function, TERMS, caller, tick=1)
        except ContractRevert:
            assert contract.snapshot() == before
        assert contract.current_trace >= stage
        stage = contract.current_trace
