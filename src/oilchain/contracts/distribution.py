"""Custody spine for one oil batch: driller to factory to storage to pump.

One instance follows one batch through four monotone stage transitions, each
callable once, in order, by the actor fixed at deployment (the pump sale is
public but still stage-gated). Each transition stamps its date field with
the logical tick of the call and emits one distribution event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from ..errors import BadInitArgs, Unauthorized, WrongStage
from ..identity import Role, address_hex
from .base import ContractBase, Emission, require_address, require_init_args


class TraceStage(IntEnum):
    CREATED = 0
    AT_DRILLER = 1
    AT_FACTORY = 2
    AT_STORAGE = 3
    AT_PUMP = 4
    SOLD = 5


MSG_TO_FACTORY = "Crude Oil is Ready to go to the Factory."
MSG_TO_STORAGE = "Refined Oil is Ready to go to the Storage."
MSG_IN_STORAGE = "Oil is stored in the Oil Storage."
MSG_SOLD = "Oil has been Sold at the Pump."


class SpineStep(NamedTuple):
    transition: str     # the OilDistribution function
    event: str          # the event it emits
    seller: Role        # the seller role whose hop delivery fires it


# the custody spine, in custody order
SPINE = (
    SpineStep("readyToFactory", "InitiateDist", Role.DRILLER),
    SpineStep("readyToStorage", "FactoryDistribution", Role.REFINERY),
    SpineStep("oilInOilStorage", "StorageWholesale", Role.STORAGE),
    SpineStep("pumpSoldOil", "PumpOilSold", Role.PUMP),
)

# the actors a deployment names, each by address
_ADDRESS_ARGS = ("driller", "factory", "storage", "pump")


@dataclass
class OilDistribution(ContractBase):
    """State machine for one batch's custody chain."""

    owner: bytes
    driller_address: bytes
    factory_address: bytes
    storage_address: bytes
    pump_address: bytes
    accurate_hum: int = 0

    current_trace: TraceStage = TraceStage.CREATED
    oil_id: str = ""
    oil_name: str = ""
    drilling_date: int = 0
    factory_dist_start_date: int = 0
    refiner_start_date: int = 0
    pump_start_date: int = 0
    drill_price: int = 0
    factory_price: int = 0
    storage_price: int = 0
    pump_price: int = 0
    driller_sold_amount: int = 0
    factory_sold_amount: int = 0
    storage_sold_amount: int = 0
    pump_sold_amount: int = 0

    KIND = "OilDistribution"

    @classmethod
    def create(cls, deployer: bytes, init_args: dict) -> "OilDistribution":
        require_init_args(cls.KIND, init_args, {*_ADDRESS_ARGS, "accurate_hum"})
        for key in _ADDRESS_ARGS:
            if key not in init_args:
                raise BadInitArgs(f"OilDistribution needs a {key} address")
        hum = init_args.get("accurate_hum", 0)
        if not isinstance(hum, int):
            raise BadInitArgs("accurate_hum must be an integer")
        return cls(
            owner=deployer,
            driller_address=require_address(init_args["driller"], "driller"),
            factory_address=require_address(init_args["factory"], "factory"),
            storage_address=require_address(init_args["storage"], "storage"),
            pump_address=require_address(init_args["pump"], "pump"),
            accurate_hum=hum,
        )

    # --- transitions ----------------------------------------------------------

    def _fn_readyToFactory(self, args: dict, caller: bytes, tick: int):
        if caller != self.driller_address:
            raise Unauthorized("only the driller may release oil to the factory")
        if self.current_trace is not TraceStage.CREATED:
            raise WrongStage("batch has already left the driller")
        self.oil_id = args["oil_id"]
        self.oil_name = args["name"]
        self.drill_price = args["price"]
        self.driller_sold_amount = args["quantity"]
        self.drilling_date = tick
        self.current_trace = TraceStage.AT_DRILLER
        return self._emit("InitiateDist", self.driller_address, MSG_TO_FACTORY)

    def _fn_readyToStorage(self, args: dict, caller: bytes, tick: int):
        if caller != self.factory_address:
            raise Unauthorized("only the factory may release oil to storage")
        if self.current_trace is not TraceStage.AT_DRILLER:
            raise WrongStage("batch is not at the factory gate")
        self.factory_price = args["price"]
        self.factory_sold_amount = args["quantity"]
        self.factory_dist_start_date = tick
        self.current_trace = TraceStage.AT_FACTORY
        return self._emit("FactoryDistribution", self.factory_address, MSG_TO_STORAGE)

    def _fn_oilInOilStorage(self, args: dict, caller: bytes, tick: int):
        if caller != self.storage_address:
            raise Unauthorized("only the storage operator may book oil in")
        if self.current_trace is not TraceStage.AT_FACTORY:
            raise WrongStage("batch has not arrived from the factory")
        self.storage_price = args["price"]
        self.storage_sold_amount = args["quantity"]
        self.refiner_start_date = tick
        self.current_trace = TraceStage.AT_STORAGE
        return self._emit("StorageWholesale", self.storage_address, MSG_IN_STORAGE)

    def _fn_pumpSoldOil(self, args: dict, caller: bytes, tick: int):
        # public: anyone may trigger the sale, but only from AtStorage
        if self.current_trace is not TraceStage.AT_STORAGE:
            raise WrongStage("batch is not at storage, cannot be sold yet")
        self.pump_price = args["price"]
        self.pump_sold_amount = args["quantity"]
        self.pump_start_date = tick
        self.current_trace = TraceStage.SOLD
        return self._emit("PumpOilSold", self.pump_address, MSG_SOLD)

    def _emit(self, event: str, actor: bytes, message: str):
        emission: Emission = (event, (("ad", address_hex(actor)), ("msg", message)))
        return message, [emission]
