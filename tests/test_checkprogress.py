"""Shipment-condition monitor: authorization, three-way checks, violation scalar."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oilchain.contracts import CheckProgress
from oilchain.contracts.checkprogress import CONTINUE_PROCESS, Stage, ViolationKind
from oilchain.errors import (
    BadInitArgs,
    NegativeQuantity,
    NotInitialized,
    Unauthorized,
)
from oilchain.identity import address_hex

OWNER = b"\x41" * 20
DEVICE = b"\x42" * 20
OUTSIDER = b"\x43" * 20

ENTER_ARGS = {"name": "Petrol", "oil_id": "101", "amt": 10, "price": 100,
              "actualTemp": 22, "actualHum": 10, "actualPress": 8}

CHECKS = [("CheckTemperature", "Temperature", 22),
          ("CheckHumidity", "Humidity", 10),
          ("CheckPressure", "Pressure", 8)]


def fresh(initialized: bool = True) -> CheckProgress:
    contract = CheckProgress.create(OWNER, {"data_source": DEVICE})
    if initialized:
        contract.apply("EnterOil", ENTER_ARGS, OWNER, tick=1)
    return contract


# --- construction -----------------------------------------------------------------

def test_create_requires_a_data_source_address():
    with pytest.raises(BadInitArgs):
        CheckProgress.create(OWNER, {})
    with pytest.raises(BadInitArgs):
        CheckProgress.create(OWNER, {"data_source": "not-an-address"})
    with pytest.raises(BadInitArgs, match="'bogus', 'tolerance'"):
        CheckProgress.create(OWNER, {"data_source": DEVICE, "tolerance": 3, "bogus": 1})


def test_enter_oil_stores_terms_and_emits():
    contract = fresh(initialized=False)
    value, emissions = contract.apply("EnterOil", ENTER_ARGS, OWNER, tick=1)
    assert value == "Oil Added"
    assert emissions == [("oilAdded",
                          (("addr", address_hex(OWNER)), ("msg", "Oil Added")))]
    assert contract.oil_name == "Petrol"
    assert contract.oil_id == "101"
    assert contract.amount == 10
    assert contract.total_price == 100
    assert (contract.accurate_temp, contract.accurate_hum,
            contract.accurate_press) == (22, 10, 8)
    assert contract.initialized


def test_enter_oil_owner_only():
    contract = fresh(initialized=False)
    for caller in (DEVICE, OUTSIDER):
        with pytest.raises(Unauthorized):
            contract.apply("EnterOil", ENTER_ARGS, caller, tick=1)
    assert not contract.initialized


@pytest.mark.parametrize("field,value", [("amt", -1), ("price", -5)])
def test_enter_oil_rejects_negative_terms(field, value):
    contract = fresh(initialized=False)
    with pytest.raises(NegativeQuantity):
        contract.apply("EnterOil", {**ENTER_ARGS, field: value}, OWNER, tick=1)
    assert not contract.initialized


# --- check gating -------------------------------------------------------------------

@pytest.mark.parametrize("function,_kind,_setpoint", CHECKS)
def test_checks_require_initialization(function, _kind, _setpoint):
    contract = fresh(initialized=False)
    with pytest.raises(NotInitialized):
        contract.apply(function, {"value": 5}, DEVICE, tick=1)


@pytest.mark.parametrize("function,_kind,_setpoint", CHECKS)
def test_checks_are_data_source_only(function, _kind, _setpoint):
    contract = fresh()
    for caller in (OWNER, OUTSIDER):
        with pytest.raises(Unauthorized):
            contract.apply(function, {"value": 5}, caller, tick=1)


# --- three-way comparison -------------------------------------------------------------

@pytest.mark.parametrize("function,kind,setpoint", CHECKS)
def test_high_low_accurate_strings_and_events(function, kind, setpoint):
    contract = fresh()

    value, emissions = contract.apply(function, {"value": setpoint + 1}, DEVICE, 1)
    assert value == f"Current {kind} is very HIGH"
    assert emissions == [(f"{kind}Violation",
                          (("addr", address_hex(DEVICE)), ("msg", f"Higher {kind}")))]

    value, emissions = contract.apply(function, {"value": setpoint - 1}, DEVICE, 2)
    assert value == f"Current {kind} is very LOW"
    assert emissions[0][1][1] == ("msg", f"Lower {kind}")

    value, emissions = contract.apply(function, {"value": setpoint}, DEVICE, 3)
    assert value == f"Current {kind} is Accurate"
    assert emissions == [(f"{kind}Violation",
                          (("addr", address_hex(DEVICE)), ("msg", f"Accurate {kind}")))]


def test_stage_fields_follow_comparisons():
    contract = fresh()
    contract.apply("CheckTemperature", {"value": 30}, DEVICE, 1)
    assert contract.temp_stage is Stage.HIGH
    contract.apply("CheckHumidity", {"value": 2}, DEVICE, 2)
    assert contract.humidity_stage is Stage.LOW
    contract.apply("CheckPressure", {"value": 8}, DEVICE, 3)
    assert contract.pressure_stage is Stage.ACCURATE


def test_violation_type_last_writer_wins_and_resets():
    contract = fresh()
    contract.apply("CheckTemperature", {"value": 30}, DEVICE, 1)
    assert contract.violation_type is ViolationKind.TEMPERATURE
    contract.apply("CheckPressure", {"value": 1}, DEVICE, 2)
    assert contract.violation_type is ViolationKind.PRESSURE
    # an accurate reading of any kind clears the scalar
    contract.apply("CheckHumidity", {"value": 10}, DEVICE, 3)
    assert contract.violation_type is ViolationKind.NONE
    assert contract.snapshot()["violation_type"] == "None"


@given(value=st.integers(0, 50), setpoint=st.integers(0, 50),
       pick=st.integers(0, 2))
def test_check_matches_sign_oracle_and_emits_once(value, setpoint, pick):
    function, kind, _ = CHECKS[pick]
    contract = CheckProgress.create(OWNER, {"data_source": DEVICE})
    args = {**ENTER_ARGS, "actualTemp": setpoint, "actualHum": setpoint,
            "actualPress": setpoint}
    contract.apply("EnterOil", args, OWNER, 1)
    result, emissions = contract.apply(function, {"value": value}, DEVICE, 2)
    if value > setpoint:
        assert result.endswith("very HIGH")
    elif value < setpoint:
        assert result.endswith("very LOW")
    else:
        assert result.endswith("is Accurate")
    assert len(emissions) == 1
    assert emissions[0][0] == f"{kind}Violation"


# --- direct violation recording ---------------------------------------------------------

def test_occured_violation_sets_stage_directly():
    contract = fresh()
    message, emissions = contract.apply(
        "OccuredViolation", {"vtype": "Humidity", "stage": 2}, DEVICE, 1)
    assert message == "Higher Humidity"
    assert contract.humidity_stage is Stage.HIGH
    assert contract.violation_type is ViolationKind.HUMIDITY
    assert emissions[0][0] == "HumidityViolation"

    message, _ = contract.apply(
        "OccuredViolation", {"vtype": "Humidity", "stage": 0}, DEVICE, 2)
    assert message == "Accurate Humidity"
    assert contract.violation_type is ViolationKind.NONE


def test_occured_violation_gating():
    contract = fresh(initialized=False)
    with pytest.raises(NotInitialized):
        contract.apply("OccuredViolation", {"vtype": "Humidity", "stage": 1},
                       DEVICE, 1)
    contract.apply("EnterOil", ENTER_ARGS, OWNER, 1)
    with pytest.raises(Unauthorized):
        contract.apply("OccuredViolation", {"vtype": "Humidity", "stage": 1},
                       OWNER, 2)


@pytest.mark.parametrize("args", [
    {"vtype": "Mystery", "stage": 1},
    {"vtype": "Humidity", "stage": 3},
    {"vtype": "Humidity", "stage": -1},
    {"vtype": "None", "stage": 1},
])
def test_occured_violation_unknown_inputs_change_nothing(args):
    contract = fresh()
    contract.apply("CheckHumidity", {"value": 20}, DEVICE, 1)
    before = copy.deepcopy(contract.snapshot())
    message, emissions = contract.apply("OccuredViolation", args, DEVICE, 2)
    assert message == CONTINUE_PROCESS
    assert emissions == []
    assert contract.snapshot() == before
