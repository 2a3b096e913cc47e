"""Deterministic contract runtime: one execute step, committed and replayed.

Gas is not interpreted from opcodes; each function carries a fixed
(execution, transaction) gas pair from a measured calibration table, and a
transaction is charged its transaction gas. A `LogicalClock.step` holds one
block per runtime open, all at the step's tick; each call runs on a working
copy of its contract that is installed only once its block is appended: a
reverted call stays out of its block, and a step with an arg that does not
encode, or a block the ledger refuses, commits nothing. `replay` re-runs
the same `execute` step over a chain, each transaction at its block's
tick, and refuses one whose events or gas differ.

Fiat conversion prices execution gas:

    usd = execution_gas * gas_price_gwei * 1e-9 * eth_usd

with eth_usd defaulting to the rate the calibration table was taken at.
"""

from __future__ import annotations

import copy
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

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
    """Monotone tick source shared by every chain in a scenario.

    Inside `step()`, each runtime on this clock builds one open block, all at
    the step's tick; when the step ends, the tick is drawn once and its blocks
    append in the order they opened. A chain gets at most one block per step,
    so its timestamps still rise strictly.
    """

    def __init__(self):
        self._next = 1
        self._held: dict[Runtime, _OpenBlock] | None = None

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def upcoming(self) -> int:
        return self._next

    def step(self) -> _Step:
        """Hold one block open per runtime called until the step ends, then
        draw the step's tick, append each block and install what its calls
        left, in the order they opened. Steps do not nest. If the step
        raises, nothing is drawn, appended or installed; a block the ledger
        refuses raises, and the blocks after it are not appended either."""
        return _Step(self)


class _Step:
    """The context manager `LogicalClock.step` returns."""

    __slots__ = ("clock",)

    def __init__(self, clock: LogicalClock):
        self.clock = clock

    def __enter__(self) -> None:
        if self.clock._held is not None:
            raise RuntimeError("a step is already open")
        self.clock._held = {}

    def __exit__(self, exc_type, exc, tb) -> None:
        held, self.clock._held = self.clock._held, None
        if exc_type is None and held:
            self.clock.next()
            for rt, block in held.items():
                rt._append(block)


@dataclass
class _OpenBlock:
    """A block a step holds open: its tick, the transactions so far, and the
    contract instances and deployer nonces they leave once it appends."""

    tick: int
    transactions: list[ledger.Transaction] = field(default_factory=list)
    working: dict[bytes, ContractBase] = field(default_factory=dict)
    nonces: dict[bytes, int] = field(default_factory=dict)


def contract_address(deployer: bytes, nonce: int) -> bytes:
    """Deterministic 20-byte address from the deployer and their nonce."""
    return digest([deployer, nonce])[-20:]


def execute(instance: ContractBase | None, caller: bytes, contract: bytes,
            function: str, args: dict, tick: int
            ) -> tuple[ContractBase | None, object, tuple[ledger.Event, ...]]:
    """One transaction on `instance`, the contract at `contract` (None if
    none is there): a `constructor` goes through `create`, a function the
    instance declares through `apply` (in place), and anything else is a
    plain record, unless the gas table meters its name: that is refused with
    ValueError, since the record would be charged as the call. Returns
    (instance left or None, return value, events)."""
    if function == "constructor":
        return CONTRACT_KINDS[args["kind"]].create(caller, args["init"]), None, ()
    if instance is None or function not in instance.functions():
        if function in GAS_TABLE:
            raise ValueError(f"{function!r} on {contract.hex()} is metered as a call,"
                             f" not a record")
        return None, None, ()
    return_value, emissions = instance.apply(function, args, caller, tick)
    return instance, return_value, tuple([
        ledger.Event(name, contract, tuple(args_)) for name, args_ in emissions])


class Runtime:
    """Executes contracts against one chain.

    `deploy`, `call` and `record` each go into this runtime's block of the
    clock's open step, or, with no step open, into a block of their own.
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
        """Deploy a `kind` contract owned by `deployer` and return its address,
        the one the deployer's next nonce names, so several deployments by
        one deployer may share a block.

        `annotations` ride along in the deployment transaction so later audits
        can reconstruct linkage without any in-memory state.
        """
        if kind not in CONTRACT_KINDS:
            raise UnknownFunction(f"unknown contract kind {kind!r}")
        record = {"kind": kind, "init": init_args}
        if annotations:
            record["meta"] = annotations
        _, tx = self._execute(deployer, b"", "constructor", record, None)
        return tx.contract

    def call(self, contract: bytes, function: str, args: dict,
             caller: bytes) -> CallResult:
        """Dispatch one function call; it sees what the calls before it in its
        block left, and a reverted call stays out of the block."""
        held = self._instance(contract)
        if held is None:
            raise UnknownFunction(f"no contract deployed at {contract.hex()}")
        if function not in held.functions():
            raise UnknownFunction(f"{held.KIND} has no function {function!r}")
        # every contract field is an immutable value that handlers reassign,
        # never mutate, so the call cannot reach the instance it copies
        outcome = self._execute(caller, contract, function, args, copy.copy(held))
        if isinstance(outcome, ContractRevert):
            return CallResult(None, (), metered_cost(function).transaction,
                              CallStatus.REVERTED, revert_reason=str(outcome))
        return_value, tx = outcome
        return CallResult(return_value, tx.events, tx.gas_used, CallStatus.OK)

    def record(self, caller: bytes, contract: bytes, function: str,
               payload: dict) -> ledger.Transaction:
        """Append a non-contract record (telemetry, settlement).

        A record naming `constructor` or a function of its contract would
        replay as a call, so it is refused, and `execute` refuses one under a
        metered function name."""
        held = self._instance(contract)
        if function == "constructor" or held is not None and function in held.functions():
            raise ValueError(f"{function!r} on {contract.hex()} is a call, not a record")
        _, tx = self._execute(caller, contract, function, payload, None)
        return tx

    def _instance(self, contract: bytes) -> ContractBase | None:
        """The contract at `contract` as this runtime's open block leaves it."""
        blocks = self.clock._held
        block = blocks.get(self) if blocks else None
        held = block.working.get(contract) if block is not None else None
        return held if held is not None else self.contracts.get(contract)

    def _execute(self, caller: bytes, contract: bytes, function: str, args: dict,
                 working: ContractBase | None
                 ) -> tuple[object, ledger.Transaction] | ContractRevert:
        """Run one transaction into this runtime's block of the open step, with
        no step open in a step of its own: a call on `working`, the copy of
        its contract it may change, a deployment or a record with none.

        Returns the (return value, transaction), or the ContractRevert the
        call raised, which keeps it out of the block.
        """
        blocks = self.clock._held
        if blocks is None:
            with self.clock.step():
                return self._execute(caller, contract, function, args, working)
        block = blocks.get(self)
        if block is None:
            block = blocks[self] = _OpenBlock(self.clock.upcoming)
        encoded = canon_encode(args)
        if function == "constructor":
            nonce = block.nonces.get(caller, self._nonces.get(caller, 0))
            contract = contract_address(caller, nonce)
        try:
            instance, return_value, events = execute(working, caller, contract, function,
                                                     args, block.tick)
        except ContractRevert as exc:
            return exc
        if function == "constructor":
            block.nonces[caller] = nonce + 1
        if instance is not None:
            block.working[contract] = instance
        tx = ledger.Transaction(caller, contract, function, encoded,
                                metered_cost(function).transaction, events)
        block.transactions.append(tx)
        return return_value, tx

    def _append(self, block: _OpenBlock) -> None:
        """Append the block unless every call reverted, then install the
        instances and spend the nonces its calls left. Nothing is installed and
        no nonce spent if the ledger refuses the block."""
        if block.transactions:
            ledger.append_block(self.chain, block.transactions, block.tick, self._endorse)
        self.contracts.update(block.working)
        self._nonces.update(block.nonces)


# --- replay -------------------------------------------------------------------

def replay(chain: ledger.Chain, contracts: Set[bytes]) -> dict[bytes, ContractBase]:
    """The contracts at these addresses that the chain deploys, rebuilt by
    re-running every transaction on them through `execute`, each at its
    block's tick. Raises CorruptLedger naming the chain, block and function
    when a transaction's args do not decode, the contract refuses it, its
    events or metered gas differ from the record, or a constructor's contract
    is not the address its deployer's nonce names."""
    rebuilt: dict[bytes, ContractBase] = {}
    nonces: dict[bytes, int] = {}       # constructors so far, by deployer
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.function == "constructor":
                nonce = nonces.get(tx.caller, 0)
                nonces[tx.caller] = nonce + 1
            if tx.contract not in contracts:
                continue
            try:
                instance, _, events = execute(rebuilt.get(tx.contract), tx.caller,
                                              tx.contract, tx.function,
                                              canon_decode(tx.args), block.timestamp)
                why = _disagreement(tx, events)
            except (BadInitArgs, ContractRevert, LookupError, TypeError, ValueError) as exc:
                why = repr(exc)
            if (not why and tx.function == "constructor"
                    and tx.contract != (owed := contract_address(tx.caller, nonce))):
                why = (f"deploys at {tx.contract.hex()}, its deployer's nonce {nonce}"
                       f" names {owed.hex()}")
            if why:
                raise CorruptLedger(f"chain {chain.name!r} block {block.index}: {tx.function}"
                                    f" does not replay: {why}", block.index)
            if instance is not None:
                rebuilt[tx.contract] = instance
    return rebuilt


def _disagreement(tx: ledger.Transaction, events: tuple[ledger.Event, ...]) -> str:
    """How a re-executed transaction differs from its record; empty if it does not."""
    if events != tx.events:
        emitters = [e.emitter for e in events] != [e.emitter for e in tx.events]
        shown = ([(e.name, dict(e.args)) + ((e.emitter.hex(),) if emitters else ())
                  for e in side] for side in (events, tx.events))
        return "emits {}, the record holds {}".format(*shown)
    gas = metered_cost(tx.function).transaction
    return f"costs {gas} gas, the record holds {tx.gas_used}" if gas != tx.gas_used else ""
