"""Deterministic contract runtime: deploy, dispatch, meter, commit.

Gas is not interpreted from opcodes; each function carries a fixed
(execution, transaction) gas pair from a measured calibration table. A call
is charged its transaction gas. A call runs on a working copy of its
contract, installed only once the call's block is appended. Reverted calls
commit nothing: the chain tip before and after is the same hash. A call that
cannot be committed (its args have no canonical encoding, or the ledger
refuses its block for the ACL or the endorsement quorum) raises, and its
working copy is dropped.

Fiat conversion prices execution gas:

    usd = execution_gas * gas_price_gwei * 1e-9 * eth_usd

with eth_usd defaulting to the rate the calibration table was taken at.
"""

from __future__ import annotations

import copy
from collections.abc import Set
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from . import ledger
from .contracts import CONTRACT_KINDS, ContractBase
from .encoding import canon_decode, canon_encode, digest
from .errors import BadInitArgs, ContractRevert, CorruptLedger, UnknownFunction

DEFAULT_ETH_USD = 2291.0

GAS_PRICES_GWEI = {"slow": 82, "avg": 83, "fast": 125, "fastest": 147}

PLUMBING_EXECUTION_GAS = 21_000
PLUMBING_TRANSACTION_GAS = 42_000


@dataclass(frozen=True)
class GasCost:
    execution: int
    transaction: int


# Measured per-function costs, keyed by exact function name.
GAS_TABLE = {
    "EnterOil": GasCost(11408, 35368),
    "CheckPressure": GasCost(29915, 51379),
    "CheckTemperature": GasCost(13683, 35147),
    "CheckHumidity": GasCost(14825, 36289),
    "OccuredViolation": GasCost(11715, 33371),
    "readyToFactory": GasCost(108601, 131857),
    "readyToStorage": GasCost(85051, 106707),
    "oilInOilStorage": GasCost(84865, 106721),
    "pumpSoldOil": GasCost(68923, 90579),
}

_PLUMBING = GasCost(PLUMBING_EXECUTION_GAS, PLUMBING_TRANSACTION_GAS)


def metered_cost(function: str) -> GasCost:
    """Table lookup with the plumbing default for untabulated functions."""
    return GAS_TABLE.get(function, _PLUMBING)


def fiat_cost(execution_gas: int, gas_price_gwei: int,
              eth_usd: float = DEFAULT_ETH_USD) -> float:
    """USD cost of a call's execution gas, rounded to 5 decimals."""
    return round(execution_gas * gas_price_gwei * 1e-9 * eth_usd, 5)


def gas_report(eth_usd: float = DEFAULT_ETH_USD) -> list[dict]:
    """One record per tabulated function with USD at the four named speeds."""
    rows = []
    for name, cost in GAS_TABLE.items():
        row = {
            "function": name,
            "execution_gas": cost.execution,
            "transaction_gas": cost.transaction,
        }
        for speed, price in GAS_PRICES_GWEI.items():
            row[f"usd_{speed}"] = fiat_cost(cost.execution, price, eth_usd)
        rows.append(row)
    return rows


# --- execution ----------------------------------------------------------------

class CallStatus(Enum):
    OK = "Ok"
    REVERTED = "Reverted"


@dataclass(frozen=True)
class CallResult:
    return_value: object
    events: tuple[ledger.Event, ...]
    gas_used: int
    status: CallStatus
    revert_reason: str = ""


class LogicalClock:
    """Monotone tick source shared by every chain in a scenario."""

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def upcoming(self) -> int:
        return self._next


def contract_address(deployer: bytes, nonce: int) -> bytes:
    """Deterministic 20-byte address from the deployer and their nonce."""
    return digest([deployer, nonce])[-20:]


class Runtime:
    """Executes contracts against one chain.

    Consortium chains need an `endorse` callable that turns a candidate
    digest into validator endorsements; private chains gate on their ACL.
    """

    def __init__(self, chain: ledger.Chain, clock: LogicalClock,
                 endorse: Callable[[bytes], Iterable[ledger.Endorsement]] | None = None):
        if chain.chain_class is ledger.ChainClass.CONSORTIUM and endorse is None:
            raise ValueError("consortium runtime needs an endorse callable")
        self.chain = chain
        self.clock = clock
        self._endorse = endorse
        self.contracts: dict[bytes, ContractBase] = {}
        self._nonces: dict[bytes, int] = {}

    # --- deploy ---------------------------------------------------------------

    def deploy(self, kind: str, init_args: dict, deployer: bytes,
               annotations: dict | None = None) -> bytes:
        """Instantiate a contract and record its creation in a new block.

        The deployer becomes the contract owner. `annotations` ride along in
        the deployment transaction so later audits can reconstruct linkage
        without any in-memory state.
        """
        if kind not in CONTRACT_KINDS:
            raise UnknownFunction(f"unknown contract kind {kind!r}")

        nonce = self._nonces.get(deployer, 0)
        address = contract_address(deployer, nonce)
        instance = CONTRACT_KINDS[kind].create(deployer, init_args)

        record = {"kind": kind, "init": init_args}
        if annotations:
            record["meta"] = annotations
        tx = ledger.Transaction(
            caller=deployer,
            contract=address,
            function="constructor",
            args=canon_encode(record),
            gas_used=metered_cost("constructor").transaction,
        )
        ledger.append_block(self.chain, [tx], self.clock.next(), self._endorse)

        self._nonces[deployer] = nonce + 1
        self.contracts[address] = instance
        return address

    # --- call -----------------------------------------------------------------

    def call(self, contract: bytes, function: str, args: dict,
             caller: bytes) -> CallResult:
        """Dispatch one function call and commit it if it succeeds."""
        instance = self.contracts.get(contract)
        if instance is None:
            raise UnknownFunction(f"no contract deployed at {contract.hex()}")
        if function not in instance.functions():
            raise UnknownFunction(f"{instance.KIND} has no function {function!r}")
        cost = metered_cost(function)
        tick = self.clock.next()

        # every contract field is an immutable value that handlers reassign,
        # never mutate, so the call cannot reach the installed instance
        working = copy.copy(instance)
        try:
            return_value, emissions = working.apply(function, args, caller, tick)
        except ContractRevert as exc:
            return CallResult(None, (), cost.transaction, CallStatus.REVERTED,
                              revert_reason=str(exc))

        events = tuple(
            ledger.Event(name=name, emitter=contract, args=tuple(args_))
            for name, args_ in emissions
        )
        tx = ledger.Transaction(
            caller=caller,
            contract=contract,
            function=function,
            args=canon_encode(args),
            gas_used=cost.transaction,
            events=events,
        )
        ledger.append_block(self.chain, [tx], tick, self._endorse)
        self.contracts[contract] = working
        return CallResult(return_value, events, cost.transaction, CallStatus.OK)

    # --- plain records ----------------------------------------------------------

    def record(self, caller: bytes, contract: bytes, function: str,
               payload: dict) -> ledger.Transaction:
        """Append a non-contract record (telemetry, settlement) as its own block."""
        tx = ledger.Transaction(
            caller=caller,
            contract=contract,
            function=function,
            args=canon_encode(payload),
            gas_used=metered_cost(function).transaction,
        )
        ledger.append_block(self.chain, [tx], self.clock.next(), self._endorse)
        return tx


# --- replay -------------------------------------------------------------------

def replay(chain: ledger.Chain, contracts: Set[bytes]) -> dict[bytes, ContractBase]:
    """The contracts at these addresses that the chain deploys, rebuilt by
    re-running their recorded constructors and calls through `create` and
    `apply`, each at its block's tick; plain records are skipped. A record that
    does not decode, a refused constructor, or a call that reverts or precedes
    its constructor raises CorruptLedger naming the block."""
    rebuilt: dict[bytes, ContractBase] = {}
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.contract not in contracts:
                continue
            try:
                if tx.function == "constructor":
                    record = canon_decode(tx.args)
                    rebuilt[tx.contract] = CONTRACT_KINDS[record["kind"]].create(
                        tx.caller, record["init"])
                elif tx.function in rebuilt[tx.contract].functions():
                    rebuilt[tx.contract].apply(tx.function, canon_decode(tx.args), tx.caller,
                                               block.timestamp)
            except (BadInitArgs, ContractRevert, LookupError, TypeError, ValueError) as exc:
                raise CorruptLedger(f"chain {chain.name!r} block {block.index}: {tx.function}"
                                    f" does not replay: {exc!r}", block.index) from None
    return rebuilt
