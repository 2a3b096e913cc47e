"""Shipment-condition monitor: setpoints in, violation events out.

One instance guards one shipment. The owner enters the product terms once;
after that the authorized data source feeds temperature, humidity, and
pressure readings. Every check compares the reading against its setpoint
three ways and records exactly one event: Higher / Lower / Accurate. The
contract keeps a single scalar `violation_type` holding the kind of the most
recent non-accurate reading; an accurate reading of any kind clears it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from ..errors import NegativeQuantity, NotInitialized, Unauthorized
from ..identity import address_hex
from .base import ContractBase, Emission, require_address


class Stage(IntEnum):
    ACCURATE = 0
    LOW = 1
    HIGH = 2


class ViolationKind(Enum):
    NONE = "None"
    TEMPERATURE = "Temperature"
    HUMIDITY = "Humidity"
    PRESSURE = "Pressure"


# the event each checked kind emits, and the first word of its message per
# stage; reverse traceability reads both back from the ledger
EVENT_NAME = {
    ViolationKind.TEMPERATURE: "TemperatureViolation",
    ViolationKind.HUMIDITY: "HumidityViolation",
    ViolationKind.PRESSURE: "PressureViolation",
}

STAGE_WORD = {Stage.HIGH: "Higher", Stage.LOW: "Lower", Stage.ACCURATE: "Accurate"}

CONTINUE_PROCESS = "Continue Process"


@dataclass
class CheckProgress(ContractBase):
    """State machine for one monitored shipment."""

    owner: bytes
    data_source: bytes

    initialized: bool = False
    oil_name: str = ""
    oil_id: str = ""
    amount: int = 0
    total_price: int = 0
    accurate_temp: int = 0
    accurate_hum: int = 0
    accurate_press: int = 0
    temp_stage: Stage = Stage.ACCURATE
    humidity_stage: Stage = Stage.ACCURATE
    pressure_stage: Stage = Stage.ACCURATE
    violation_type: ViolationKind = ViolationKind.NONE

    KIND = "CheckProgress"

    @classmethod
    def create(cls, deployer: bytes, init_args: dict) -> "CheckProgress":
        from ..errors import BadInitArgs

        if "data_source" not in init_args:
            raise BadInitArgs("CheckProgress needs a data_source address")
        return cls(
            owner=deployer,
            data_source=require_address(init_args["data_source"], "data_source"),
        )

    # --- functions ----------------------------------------------------------

    def _fn_EnterOil(self, args: dict, caller: bytes, tick: int):
        if caller != self.owner:
            raise Unauthorized("only the contract owner may enter oil terms")
        amt = args["amt"]
        price = args["price"]
        if amt < 0 or price < 0:
            raise NegativeQuantity("amount and price must be non-negative")
        self.oil_name = args["name"]
        self.oil_id = args["oil_id"]
        self.amount = amt
        self.total_price = price
        self.accurate_temp = args["actualTemp"]
        self.accurate_hum = args["actualHum"]
        self.accurate_press = args["actualPress"]
        self.initialized = True
        emission: Emission = (
            "oilAdded",
            (("addr", address_hex(caller)), ("msg", "Oil Added")),
        )
        return "Oil Added", [emission]

    def _fn_CheckTemperature(self, args, caller, tick):
        return self._check(ViolationKind.TEMPERATURE, args["value"],
                           self.accurate_temp, caller)

    def _fn_CheckHumidity(self, args, caller, tick):
        return self._check(ViolationKind.HUMIDITY, args["value"],
                           self.accurate_hum, caller)

    def _fn_CheckPressure(self, args, caller, tick):
        return self._check(ViolationKind.PRESSURE, args["value"],
                           self.accurate_press, caller)

    def _fn_OccuredViolation(self, args, caller, tick):
        if caller != self.data_source:
            raise Unauthorized("only the data source may record violations")
        if not self.initialized:
            raise NotInitialized("oil terms have not been entered")
        kind = args["vtype"]
        if isinstance(kind, str):
            try:
                kind = ViolationKind(kind)
            except ValueError:
                kind = None
        stage = args["stage"]
        message, emissions = self._record_violation(kind, stage, caller)
        return message, emissions

    # --- internals -----------------------------------------------------------

    def _check(self, kind: ViolationKind, value: int, setpoint: int, caller: bytes):
        if caller != self.data_source:
            raise Unauthorized("only the data source may feed checks")
        if not self.initialized:
            raise NotInitialized("oil terms have not been entered")
        if value > setpoint:
            stage = Stage.HIGH
            result = f"Current {kind.value} is very HIGH"
        elif value < setpoint:
            stage = Stage.LOW
            result = f"Current {kind.value} is very LOW"
        else:
            stage = Stage.ACCURATE
            result = f"Current {kind.value} is Accurate"
        _msg, emissions = self._record_violation(kind, int(stage), caller)
        return result, emissions

    def _record_violation(self, kind, stage: int, caller: bytes):
        """Three-way stage recorder. Unknown kind or stage changes nothing."""
        if kind not in EVENT_NAME or stage not in (0, 1, 2):
            return CONTINUE_PROCESS, []
        stage = Stage(stage)
        if kind is ViolationKind.TEMPERATURE:
            self.temp_stage = stage
        elif kind is ViolationKind.HUMIDITY:
            self.humidity_stage = stage
        else:
            self.pressure_stage = stage
        self.violation_type = ViolationKind.NONE if stage is Stage.ACCURATE else kind
        message = f"{STAGE_WORD[stage]} {kind.value}"
        emission: Emission = (
            EVENT_NAME[kind],
            (("addr", address_hex(caller)), ("msg", message)),
        )
        return message, [emission]
