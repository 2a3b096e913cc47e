"""Deterministic contract runtime: one execute step, committed and replayed.

Gas is not interpreted from opcodes; each function carries a fixed
(execution, transaction) gas pair from a measured calibration table, and a
transaction is charged its transaction gas. `Runtime` commits a block of
one or more calls at one tick, each run on a working copy of its contract
that is installed only once the block is appended: a reverted call stays
out of its block, and a block with an arg that does not encode, or one the
ledger refuses, commits nothing. `replay` re-runs the same `execute` step
over a chain, each transaction at its block's tick, and refuses one whose
events or gas differ.

Fiat conversion prices execution gas:

    usd = execution_gas * gas_price_gwei * 1e-9 * eth_usd

with eth_usd defaulting to the rate the calibration table was taken at.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping, Set
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import ledger
from .contracts import CONTRACT_KINDS, ContractBase
from .encoding import canon_decode, canon_encode, digest
from .errors import BadInitArgs, ContractRevert, CorruptLedger, UnknownFunction

DEFAULT_ETH_USD = 2291.0

GAS_PRICES_GWEI = {"slow": 82, "avg": 83, "fast": 125, "fastest": 147}


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

# what an untabulated function (a constructor or a plain record) costs
_PLUMBING = GasCost(21_000, 42_000)


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


def execute(contracts: Mapping[bytes, ContractBase], caller: bytes, contract: bytes,
            function: str, args: dict, tick: int
            ) -> tuple[ContractBase | None, object, tuple[ledger.Event, ...]]:
    """One transaction: a `constructor` goes through `create`, a function the
    contract in `contracts` declares through `apply` (in place), and anything
    else is a plain record, unless the gas table meters its name: that is
    refused with ValueError, since the record would be charged as the call.
    Returns (instance left or None, return value, events)."""
    if function == "constructor":
        return CONTRACT_KINDS[args["kind"]].create(caller, args["init"]), None, ()
    instance = contracts.get(contract)
    if instance is None or function not in instance.functions():
        if function in GAS_TABLE:
            raise ValueError(f"{function!r} on {contract.hex()} is metered as a call,"
                             f" not a record")
        return None, None, ()
    return_value, emissions = instance.apply(function, args, caller, tick)
    return instance, return_value, tuple(
        ledger.Event(name, contract, tuple(args_)) for name, args_ in emissions)


@dataclass(frozen=True)
class Call:
    """One transaction of a block: `caller` runs `function` on `contract`
    with `args`, or records `args` under that name."""

    caller: bytes
    contract: bytes
    function: str
    args: dict


class Runtime:
    """Executes contracts against one chain, a block of one or more calls at a time.

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
        record = {"kind": kind, "init": init_args}
        if annotations:
            record["meta"] = annotations
        self._commit([Call(deployer, address, "constructor", record)])
        self._nonces[deployer] = nonce + 1
        return address

    def call(self, contract: bytes, function: str, args: dict,
             caller: bytes) -> CallResult:
        """Dispatch one function call as its own block, committed if it succeeds."""
        return self.call_block([Call(caller, contract, function, args)])[0]

    def call_block(self, calls: Sequence[Call]) -> list[CallResult]:
        """Dispatch function calls as one block, in order and at one tick, each
        seeing what the calls before it left; the results in call order.

        A reverted call stays out of the block, and the tick is spent even if
        every call reverts.
        """
        for c in calls:
            instance = self.contracts.get(c.contract)
            if instance is None:
                raise UnknownFunction(f"no contract deployed at {c.contract.hex()}")
            if c.function not in instance.functions():
                raise UnknownFunction(f"{instance.KIND} has no function {c.function!r}")
        results = []
        for c, outcome in zip(calls, self._commit(calls)):
            gas = metered_cost(c.function).transaction
            if isinstance(outcome, ContractRevert):
                results.append(CallResult(None, (), gas, CallStatus.REVERTED,
                                          revert_reason=str(outcome)))
            else:
                return_value, tx = outcome
                results.append(CallResult(return_value, tx.events, gas, CallStatus.OK))
        return results

    def record(self, caller: bytes, contract: bytes, function: str,
               payload: dict) -> ledger.Transaction:
        """Append a non-contract record (telemetry, settlement) as its own block."""
        return self.record_block([Call(caller, contract, function, payload)])[0]

    def record_block(self, records: Sequence[Call]) -> list[ledger.Transaction]:
        """Append non-contract records as one block. One naming `constructor` or
        a function of its contract would replay as a call, so it is refused,
        and `execute` refuses one under a metered function name."""
        for r in records:
            held = self.contracts.get(r.contract)
            if r.function == "constructor" or held is not None and r.function in held.functions():
                raise ValueError(f"{r.function!r} on {r.contract.hex()} is a call, not a record")
        return [tx for _, tx in self._commit(records)]

    def _commit(self, calls: Sequence[Call]) -> list[tuple[object, ledger.Transaction]
                                                      | ContractRevert]:
        """Execute `calls` in order at the upcoming tick, each on a working copy
        of its contract that holds what the calls before it left, append those
        that did not revert as one block, then install the instances left.

        Returns each call's (return value, transaction), or the ContractRevert
        it raised. The tick is drawn even if every call reverts, and then no
        block is appended. Nothing is drawn or appended if an arg does not
        encode or a call raises anything else, and nothing is installed if the
        ledger refuses the block.
        """
        encoded = [canon_encode(c.args) for c in calls]
        tick = self.clock.upcoming
        working: dict[bytes, ContractBase] = {}
        outcomes: list[tuple[object, ledger.Transaction] | ContractRevert] = []
        block: list[ledger.Transaction] = []
        for c, args in zip(calls, encoded):
            held = working.get(c.contract, self.contracts.get(c.contract))
            # every contract field is an immutable value that handlers reassign,
            # never mutate, so the call cannot reach the instance it copies
            scratch = {} if held is None else {c.contract: copy.copy(held)}
            try:
                instance, return_value, events = execute(scratch, c.caller, c.contract,
                                                         c.function, c.args, tick)
            except ContractRevert as exc:
                outcomes.append(exc)
                continue
            if instance is not None:
                working[c.contract] = instance
            block.append(ledger.Transaction(c.caller, c.contract, c.function, args,
                                            metered_cost(c.function).transaction, events))
            outcomes.append((return_value, block[-1]))
        self.clock.next()
        if block:
            ledger.append_block(self.chain, block, tick, self._endorse)
        self.contracts.update(working)
        return outcomes


# --- replay -------------------------------------------------------------------

def replay(chain: ledger.Chain, contracts: Set[bytes]) -> dict[bytes, ContractBase]:
    """The contracts at these addresses that the chain deploys, rebuilt by
    re-running every transaction on them through `execute`, each at its
    block's tick. Raises CorruptLedger naming the chain, block and function
    when a transaction's args do not decode, the contract refuses it, or its
    events or metered gas differ from the record."""
    rebuilt: dict[bytes, ContractBase] = {}
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.contract not in contracts:
                continue
            try:
                instance, _, events = execute(rebuilt, tx.caller, tx.contract, tx.function,
                                              canon_decode(tx.args), block.timestamp)
                why = _disagreement(tx, events)
            except (BadInitArgs, ContractRevert, LookupError, TypeError, ValueError) as exc:
                why = repr(exc)
            if why:
                raise CorruptLedger(f"chain {chain.name!r} block {block.index}: {tx.function}"
                                    f" does not replay: {why}", block.index)
            if instance is not None:
                rebuilt[tx.contract] = instance
    return rebuilt


def _disagreement(tx: ledger.Transaction, events: tuple[ledger.Event, ...]) -> str:
    """How a re-executed transaction differs from its record; empty if it does not."""
    if events != tx.events:
        shown = ([(e.name, dict(e.args)) for e in side] for side in (events, tx.events))
        return "emits {}, the record holds {}".format(*shown)
    gas = metered_cost(tx.function).transaction
    return f"costs {gas} gas, the record holds {tx.gas_used}" if gas != tx.gas_used else ""
