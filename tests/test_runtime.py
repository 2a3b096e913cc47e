"""Runtime: gas table, fiat pricing, deploy/call/record, blocks of several calls
made in one clock step, commit on append, replay."""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import forgery
from conftest import FIVE_ROLES, SCENARIO_DIR, consortium_runtime, make_validators
from oilchain import identity, ledger, runtime, store, telemetry
from oilchain.encoding import canon_decode, canon_encode
from oilchain.contracts import CONTRACT_KINDS
from oilchain.errors import (AccessDenied, BadInitArgs, ContractRevert, CorruptLedger,
                             QuorumNotMet, UnknownFunction)
from oilchain.runtime import (
    CallStatus,
    GasCost,
    LogicalClock,
    Runtime,
    contract_address,
    fiat_cost,
    gas_report,
    metered_cost,
)
from oilchain.scenario import run_scenario_file
from oilchain.workflow import Topology

OWNER = b"\x31" * 20
DEVICE = b"\x32" * 20
OUTSIDER = b"\x77" * 20

ENTER_ARGS = {"name": "Petrol", "oil_id": "101", "amt": 10, "price": 100,
              "actualTemp": 22, "actualHum": 10, "actualPress": 8}


def private_runtime(acl=(OWNER, DEVICE)):
    chain = ledger.new_private_chain("drill", set(acl))
    return Runtime(chain, LogicalClock())


# --- gas table ------------------------------------------------------------------

GAS_ROWS = [
    ("EnterOil", 11408, 35368),
    ("CheckPressure", 29915, 51379),
    ("CheckTemperature", 13683, 35147),
    ("CheckHumidity", 14825, 36289),
    ("OccuredViolation", 11715, 33371),
    ("readyToFactory", 108601, 131857),
    ("readyToStorage", 85051, 106707),
    ("oilInOilStorage", 84865, 106721),
    ("pumpSoldOil", 68923, 90579),
]


@pytest.mark.parametrize("name,execution,transaction", GAS_ROWS)
def test_gas_table_values(name, execution, transaction):
    assert metered_cost(name) == GasCost(execution, transaction)


@pytest.mark.parametrize("name", ["constructor", "settlement", "recordTelemetry"])
def test_untabulated_functions_use_plumbing_cost(name):
    assert metered_cost(name) == GasCost(21000, 42000)


@pytest.mark.parametrize("name", sorted(runtime.GAS_TABLE))
def test_every_tabulated_name_is_a_function_of_exactly_one_kind(name):
    owners = [kind for kind, cls in CONTRACT_KINDS.items() if name in cls.functions()]
    assert len(owners) == 1, owners


def test_every_check_function_is_a_check_progress_function():
    functions = CONTRACT_KINDS["CheckProgress"].functions()
    assert set(telemetry.CHECK_FUNCTION.values()) <= functions


# --- fiat pricing ----------------------------------------------------------------

def test_default_rate_consistent_with_frozen_usd_cell():
    # usd = gas * gwei * 1e-9 * rate, so the rate implied by one frozen cell
    # must sit within 0.5% of the default constant.
    implied = 20.40204 / (108601 * 82 * 1e-9)
    assert abs(implied - runtime.DEFAULT_ETH_USD) / runtime.DEFAULT_ETH_USD < 0.005


def test_fiat_cost_formula_and_rounding():
    assert fiat_cost(11408, 82) == round(11408 * 82 * 1e-9 * 2291.0, 5)
    assert fiat_cost(1, 1, eth_usd=1.0) == 0.0
    assert fiat_cost(10**9, 1, eth_usd=3.0) == 3.0


def test_gas_report_rows_and_speeds():
    rows = gas_report()
    assert [r["function"] for r in rows] == [name for name, _, _ in GAS_ROWS]
    for row, (name, execution, transaction) in zip(rows, GAS_ROWS):
        assert row["execution_gas"] == execution
        assert row["transaction_gas"] == transaction
        for speed, gwei in (("slow", 82), ("avg", 83), ("fast", 125), ("fastest", 147)):
            assert row[f"usd_{speed}"] == fiat_cost(execution, gwei)


def test_gas_report_scales_with_rate():
    doubled = gas_report(eth_usd=2 * runtime.DEFAULT_ETH_USD)
    base = gas_report()
    for two, one in zip(doubled, base):
        # each side rounds to 5 decimals independently
        assert two["usd_slow"] == pytest.approx(2 * one["usd_slow"], abs=2e-5)


# --- clock and addresses -----------------------------------------------------------

def test_logical_clock_monotone_from_one():
    clock = LogicalClock()
    assert clock.upcoming == 1
    assert [clock.next() for _ in range(3)] == [1, 2, 3]
    assert clock.upcoming == 4


def test_contract_address_deterministic():
    a = contract_address(OWNER, 0)
    assert len(a) == 20
    assert a == contract_address(OWNER, 0)
    assert a != contract_address(OWNER, 1)
    assert a != contract_address(DEVICE, 0)


# --- deploy -------------------------------------------------------------------------

def test_deploy_records_constructor_and_instantiates():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER,
                        annotations={"batch_id": "101"})
    assert address == contract_address(OWNER, 0)
    assert len(rt.chain) == 2
    tx = rt.chain.blocks[1].transactions[0]
    assert tx.function == "constructor"
    assert tx.caller == OWNER
    assert tx.contract == address
    assert tx.gas_used == 42000
    record = canon_decode(tx.args)
    assert record["kind"] == "CheckProgress"
    assert record["init"]["data_source"] == DEVICE
    assert record["meta"] == {"batch_id": "101"}
    assert rt.contracts[address].snapshot()["owner"] == identity.address_hex(OWNER)


def test_deploy_nonce_bump_gives_distinct_addresses():
    rt = private_runtime()
    first = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    second = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    assert first != second
    assert second == contract_address(OWNER, 1)


def test_deploy_refused_by_its_constructor_draws_no_tick_and_appends_nothing():
    rt = private_runtime()
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    with pytest.raises(BadInitArgs):
        rt.deploy("CheckProgress", {"data_source": DEVICE, "tolerance": 3}, OWNER)
    assert (rt.chain.tip_hash, rt.clock.upcoming, rt.contracts) == (tip, upcoming, {})
    assert rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER) == contract_address(OWNER, 0)


def test_deploys_sharing_a_block_take_successive_nonces_once_it_appends():
    rt = private_runtime()
    with pytest.raises(AccessDenied), rt.clock.step():
        rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
        rt.deploy("CheckProgress", {"data_source": DEVICE}, OUTSIDER)
    assert (len(rt.chain), rt.contracts) == (1, {})
    with rt.clock.step():
        first = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
        # the step's own deployment is callable before the block appends
        result = rt.call(first, "EnterOil", ENTER_ARGS, OWNER)
        second = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
        assert (rt.contracts, len(rt.chain)) == ({}, 1)
    assert (first, second) == (contract_address(OWNER, 0), contract_address(OWNER, 1))
    [block] = rt.chain.blocks[1:]
    assert [tx.contract for tx in block.transactions] == [first, first, second]
    assert result.events == block.transactions[1].events
    assert rt.contracts[contract_address(OWNER, 0)].initialized
    assert not rt.contracts[contract_address(OWNER, 1)].initialized
    assert rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER) == contract_address(OWNER, 2)


def test_deploy_unknown_kind_and_unlisted_deployer():
    rt = private_runtime()
    with pytest.raises(UnknownFunction):
        rt.deploy("Escrow", {}, OWNER)
    with pytest.raises(AccessDenied):
        rt.deploy("CheckProgress", {"data_source": DEVICE}, OUTSIDER)
    assert len(rt.chain) == 1


# --- call ----------------------------------------------------------------------------

def test_ok_call_commits_block_with_metered_gas():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tick_before = rt.clock.upcoming
    held = rt.contracts[address]
    state = held.snapshot()
    result = rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    assert result.status is CallStatus.OK
    assert result.return_value == "Oil Added"
    assert result.gas_used == 35368
    block = rt.chain.blocks[-1]
    assert block.timestamp == tick_before
    assert block.transactions[0].function == "EnterOil"
    assert block.transactions[0].gas_used == 35368
    assert [e.name for e in block.transactions[0].events] == ["oilAdded"]
    assert rt.contracts[address].snapshot()["initialized"] is True
    # the call ran on a working copy, installed with its block
    assert rt.contracts[address] is not held
    assert held.snapshot() == state


def test_wrong_case_function_name_is_unknown_and_draws_no_tick():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    with pytest.raises(UnknownFunction):
        rt.call(address, "enteroil", ENTER_ARGS, OWNER)
    assert (rt.chain.tip_hash, rt.clock.upcoming) == (tip, upcoming)


def test_contract_revert_restores_state_and_commits_nothing():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    tip = rt.chain.tip_hash
    state = rt.contracts[address].snapshot()
    result = rt.call(address, "EnterOil", ENTER_ARGS, OUTSIDER)
    assert result.status is CallStatus.REVERTED
    assert result.revert_reason
    assert result.events == ()
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address].snapshot() == state


def test_reverted_call_spends_its_tick():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    upcoming = rt.clock.upcoming
    assert rt.call(address, "EnterOil", ENTER_ARGS, OUTSIDER).status is CallStatus.REVERTED
    rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    assert rt.chain.blocks[-1].timestamp == upcoming + 1


def test_call_unknown_function_and_unknown_contract_raise():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    with pytest.raises(UnknownFunction):
        rt.call(address, "selfdestruct", {}, OWNER)
    with pytest.raises(UnknownFunction):
        rt.call(b"\x00" * 20, "EnterOil", ENTER_ARGS, OWNER)


def test_record_appends_plumbing_block():
    rt = private_runtime()
    tx = rt.record(OWNER, b"\x00" * 20, "settlement", {"amount": 100})
    assert tx.gas_used == 42000
    assert rt.chain.blocks[-1].transactions == (tx,)
    assert canon_decode(tx.args) == {"amount": 100}
    with pytest.raises(AccessDenied):
        rt.record(OUTSIDER, b"\x00" * 20, "settlement", {"amount": 1})


@pytest.mark.parametrize("function", ["EnterOil", "constructor"])
def test_record_naming_a_call_is_refused(function):
    # replay runs a constructor or a declared function as a call, so a record
    # under either name would not replay as the record it was written as
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    with pytest.raises(ValueError, match="is a call, not a record"):
        rt.record(OWNER, address, function, ENTER_ARGS)
    assert (rt.chain.tip_hash, rt.clock.upcoming) == (tip, upcoming)


def test_record_under_a_metered_name_is_refused_whatever_the_target():
    # a plain record named like a tabulated function would be charged that
    # function's execution gas in the report totals
    rt = private_runtime()
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    with pytest.raises(ValueError, match="'readyToFactory' on 0{40} is metered as a call"):
        rt.record(OWNER, b"\x00" * 20, "readyToFactory", {"price": 1})
    assert (rt.chain.tip_hash, rt.clock.upcoming) == (tip, upcoming)


def test_replay_refuses_a_stored_record_under_a_metered_name():
    chain = ledger.new_private_chain("drill", {OWNER})
    tx = ledger.Transaction(OWNER, b"\x00" * 20, "readyToFactory", canon_encode({"price": 1}),
                            metered_cost("readyToFactory").transaction)
    ledger.append_block(chain, [tx], 1)
    with pytest.raises(CorruptLedger, match="^chain 'drill' block 1: readyToFactory does not"
                                            " replay: .*metered as a call") as exc:
        runtime.replay(chain, {tx.contract})
    assert exc.value.first_bad_index == 1


# --- blocks of several calls ----------------------------------------------------------

CHECKS = ("CheckTemperature", "CheckHumidity", "CheckPressure")


@dataclasses.dataclass(frozen=True)
class Call:
    """One call `calls_in_one_step` makes: `caller` runs `function` on `contract`."""

    caller: bytes
    contract: bytes
    function: str
    args: dict


def calls_in_one_step(rt, calls):
    """Each call's result, the calls made in one clock step so they share a block."""
    with rt.clock.step():
        return [rt.call(c.contract, c.function, c.args, c.caller) for c in calls]


def entered_check_progress():
    """A consortium runtime holding a CheckProgress whose terms are entered, and its address."""
    rt, _validators, _clock = consortium_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    return rt, address


def test_calls_in_a_block_run_at_one_tick_on_what_the_calls_before_left():
    rt, _validators, _clock = consortium_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    upcoming = rt.clock.upcoming
    # the check reverts with NotInitialized unless it sees the terms entered before it
    results = calls_in_one_step(rt, [Call(OWNER, address, "EnterOil", ENTER_ARGS),
                                     Call(DEVICE, address, "CheckPressure", {"value": 6})])
    assert [r.status for r in results] == [CallStatus.OK, CallStatus.OK]
    assert results[1].return_value == "Current Pressure is very LOW"
    block = rt.chain.blocks[-1]
    assert [tx.function for tx in block.transactions] == ["EnterOil", "CheckPressure"]
    assert (block.timestamp, rt.clock.upcoming) == (upcoming, upcoming + 1)
    assert rt.contracts[address].snapshot()["pressure_stage"] == "Low"
    assert runtime.replay(rt.chain, {address})[address].snapshot() == \
        rt.contracts[address].snapshot()


def test_a_reverted_call_stays_out_of_its_block():
    rt, address = entered_check_progress()
    upcoming, length = rt.clock.upcoming, len(rt.chain)
    results = calls_in_one_step(rt, [
        Call(DEVICE, address, "CheckTemperature", {"value": 30}),
        Call(OUTSIDER, address, "CheckHumidity", {"value": 30}),     # not the data source
        Call(DEVICE, address, "CheckPressure", {"value": 1}),
    ])
    assert [r.status for r in results] == [CallStatus.OK, CallStatus.REVERTED, CallStatus.OK]
    assert results[1].revert_reason == "only the data source may feed checks"
    assert len(rt.chain) == length + 1
    block = rt.chain.blocks[-1]
    assert [tx.function for tx in block.transactions] == ["CheckTemperature", "CheckPressure"]
    assert [tx.events for tx in block.transactions] == [results[0].events, results[2].events]
    state = rt.contracts[address].snapshot()
    assert [state[f"{kind}_stage"] for kind in ("temp", "humidity", "pressure")] == [
        "High", "Accurate", "Low"]
    assert state["violation_type"] == "Pressure"
    assert (block.timestamp, rt.clock.upcoming) == (upcoming, upcoming + 1)


def test_a_call_that_mutates_then_reverts_leaves_the_block_as_the_call_before_left_it(
        monkeypatch):
    rt, address = entered_check_progress()
    cls = CONTRACT_KINDS["CheckProgress"]
    handler = cls._fn_CheckHumidity

    def mutate_then_revert(self, args, caller, tick):
        handler(self, args, caller, tick)
        raise ContractRevert("refused after mutating")

    monkeypatch.setattr(cls, "_fn_CheckHumidity", mutate_then_revert)
    results = calls_in_one_step(rt, [
        Call(DEVICE, address, "CheckTemperature", {"value": 30}),
        Call(DEVICE, address, "CheckHumidity", {"value": 1}),       # Low, then reverts
        Call(DEVICE, address, "CheckPressure", {"value": 1}),
    ])
    assert [r.status for r in results] == [CallStatus.OK, CallStatus.REVERTED, CallStatus.OK]
    block = rt.chain.blocks[-1]
    assert [tx.function for tx in block.transactions] == ["CheckTemperature", "CheckPressure"]
    # the third call ran on what the first left: the reverted Low never reached it
    state = rt.contracts[address].snapshot()
    assert [state[f"{kind}_stage"] for kind in ("temp", "humidity", "pressure")] == [
        "High", "Accurate", "Low"]
    monkeypatch.undo()
    assert runtime.replay(rt.chain, {address})[address].snapshot() == state


def test_a_block_whose_every_call_reverts_spends_one_tick_and_appends_nothing():
    rt, address = entered_check_progress()
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    installed = rt.contracts[address]
    results = calls_in_one_step(rt, [Call(OUTSIDER, address, check, {"value": 1})
                                     for check in CHECKS])
    assert [r.status for r in results] == [CallStatus.REVERTED] * 3
    assert (rt.chain.tip_hash, rt.clock.upcoming) == (tip, upcoming + 1)
    assert rt.contracts[address] is installed


@pytest.mark.parametrize("position", range(3))
def test_a_block_with_args_that_do_not_encode_draws_no_tick_and_commits_nothing(position):
    rt, address = entered_check_progress()
    calls = [Call(DEVICE, address, check, {"value": 1}) for check in CHECKS]
    calls[position] = dataclasses.replace(calls[position], args={"value": 1, "note": 1.5})
    tip, upcoming = rt.chain.tip_hash, rt.clock.upcoming
    installed = rt.contracts[address]
    state = installed.snapshot()
    with pytest.raises(TypeError):
        calls_in_one_step(rt, calls)
    assert (rt.chain.tip_hash, rt.clock.upcoming) == (tip, upcoming)
    assert rt.contracts[address] is installed
    assert installed.snapshot() == state


# --- consortium wiring ----------------------------------------------------------------

def test_consortium_runtime_requires_endorser():
    chain = ledger.new_consortium_chain(
        "consortium", [k.address for k in make_validators(4)])
    with pytest.raises(ValueError):
        Runtime(chain, LogicalClock())


def test_consortium_calls_carry_quorum():
    rt, validators, _clock = consortium_runtime()
    address = rt.deploy("OilDistribution", {
        "driller": OWNER, "factory": DEVICE, "storage": b"\x33" * 20,
        "pump": b"\x34" * 20}, OWNER)
    result = rt.call(address, "readyToFactory",
                     {"oil_id": "101", "name": "Petrol", "price": 100,
                      "quantity": 10}, OWNER)
    assert result.status is CallStatus.OK
    assert all(len(b.endorsements) == 3 for b in rt.chain.blocks[1:])
    assert ledger.verify_endorsement_quorum(rt.chain)


def test_consortium_underendorsed_commit_fails_closed():
    rt, validators, _clock = consortium_runtime()

    def starve(digest: bytes):
        return ledger.collect_endorsements(digest, validators[:2])

    rt._endorse = starve
    tip = rt.chain.tip_hash
    with pytest.raises(QuorumNotMet):
        rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    assert rt.chain.tip_hash == tip


# One state-changing call per contract kind: (init args, function, args, caller).
MUTATING_CALLS = {
    "CheckProgress": ({"data_source": DEVICE}, "EnterOil", ENTER_ARGS, OWNER),
    "OilDistribution": (
        {"driller": OWNER, "factory": DEVICE, "storage": b"\x33" * 20,
         "pump": b"\x34" * 20},
        "readyToFactory",
        {"oil_id": "101", "name": "Petrol", "price": 100, "quantity": 10},
        OWNER,
    ),
}


@pytest.mark.parametrize("kind", sorted(MUTATING_CALLS))
def test_replay_rebuilds_the_contract_and_refuses_a_call_that_reverts(kind):
    init_args, function, args, caller = MUTATING_CALLS[kind]
    rt = private_runtime(acl=(OWNER, DEVICE, OUTSIDER))
    address = rt.deploy(kind, init_args, OWNER)
    rt.record(OWNER, address, "settlement", {"amount": 1})      # a plain record, skipped
    rt.call(address, function, args, caller)
    rt.deploy(kind, init_args, OWNER)                           # not asked for
    rebuilt = runtime.replay(rt.chain, {address})
    assert list(rebuilt) == [address]
    assert rebuilt[address].snapshot() == rt.contracts[address].snapshot()

    call_index = 3
    block = rt.chain.blocks[call_index]
    forged = dataclasses.replace(block.transactions[0], caller=OUTSIDER)
    rt.chain.blocks[call_index] = dataclasses.replace(block, transactions=(forged,))
    with pytest.raises(CorruptLedger, match=f"^chain 'drill' block 3: {function} does not"
                                            f" replay: Unauthorized") as exc:
        runtime.replay(rt.chain, {address})
    assert exc.value.first_bad_index == call_index


def every_contract(chain: ledger.Chain) -> set[bytes]:
    return {tx.contract for block in chain.blocks for tx in block.transactions}


@pytest.fixture(scope="module")
def faulted_consortium(tmp_path_factory):
    """The saved consortium chain of `pressure_fault_hop2`, and the run's validator keys."""
    root = tmp_path_factory.mktemp("faulted")
    path = SCENARIO_DIR / "pressure_fault_hop2.json"
    store.save_store(root, run_scenario_file(path).supply.all_chains())
    signers = Topology.from_seed(FIVE_ROLES, validator_count=4, seed=42).validators
    return store.load_chain(root / "consortium"), signers


def drop_an_event(tx, draw):
    k = draw(st.integers(0, len(tx.events) - 1))
    return dataclasses.replace(tx, events=tx.events[:k] + tx.events[k + 1:])


def change_an_event_arg(tx, draw):
    k = draw(st.integers(0, len(tx.events) - 1))
    event = tx.events[k]
    a = draw(st.integers(0, len(event.args) - 1))
    name, old = event.args[a]
    new = draw(st.one_of(st.integers(-2**63, 2**63 - 1),
                         st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
               .filter(lambda value: value != old))
    args = (*event.args[:a], (name, new), *event.args[a + 1:])
    events = list(tx.events)
    events[k] = dataclasses.replace(event, args=args)
    return dataclasses.replace(tx, events=tuple(events))


def add_an_event(tx, draw):
    name = draw(st.sampled_from(["PressureViolation", "oilAdded", "readyToFactory"]))
    msg = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    return dataclasses.replace(tx, events=(ledger.Event(name, tx.contract, (("msg", msg),)),))


def change_gas_used(tx, draw):
    gas = draw(st.integers(0, 10**6).filter(lambda value: value != tx.gas_used))
    return dataclasses.replace(tx, gas_used=gas)


# each edit, and the transactions it applies to
TX_EDITS = {
    drop_an_event: lambda tx: tx.events,
    change_an_event_arg: lambda tx: any(event.args for event in tx.events),
    add_an_event: lambda tx: not tx.events,
    change_gas_used: lambda tx: True,
}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_replay_refuses_any_edited_transaction_resigned_by_the_validators(faulted_consortium,
                                                                           data):
    # the forgery passes the hash check and carries a quorum from the run's
    # own validator keys: only re-executing the contracts can refuse it
    chain, signers = faulted_consortium
    edit = data.draw(st.sampled_from(list(TX_EDITS)), label="edit")
    at, position = data.draw(st.sampled_from([
        (block.index, j) for block in chain.blocks
        for j, tx in enumerate(block.transactions) if TX_EDITS[edit](tx)]), label="tx")
    block = chain.blocks[at]
    transactions = list(block.transactions)
    transactions[position] = edit(transactions[position], data.draw)
    blocks = list(chain.blocks)
    blocks[at] = dataclasses.replace(block, transactions=tuple(transactions))
    forged = forgery.rehash(dataclasses.replace(chain, blocks=blocks), signers)
    assert ledger.verify_chain(forged)
    with pytest.raises(CorruptLedger, match=f"block {at}: .* does not replay") as exc:
        runtime.replay(forged, every_contract(forged))
    assert exc.value.first_bad_index == at


# Two more state-changing calls per contract kind, each valid after the one before:
# (function, args, caller).
FOLLOW_UP_CALLS = {
    "CheckProgress": [("CheckTemperature", {"value": 30}, DEVICE),
                      ("CheckPressure", {"value": 1}, DEVICE)],
    "OilDistribution": [("readyToStorage", {"price": 100, "quantity": 10}, DEVICE),
                        ("oilInOilStorage", {"price": 100, "quantity": 10}, b"\x33" * 20)],
}


@pytest.mark.parametrize("size", [1, 3], ids=["call", "3-call-block"])
@pytest.mark.parametrize("kind", sorted(MUTATING_CALLS))
def test_starved_consortium_call_leaves_the_contract_unchanged(kind, size):
    init_args, function, args, caller = MUTATING_CALLS[kind]
    rt, validators, _clock = consortium_runtime()
    address = rt.deploy(kind, init_args, OWNER)
    rt.deploy(kind, init_args, OWNER)                   # a contract the block does not touch
    tip, length = rt.chain.tip_hash, len(rt.chain)
    installed = dict(rt.contracts)
    states = {a: contract.snapshot() for a, contract in installed.items()}
    calls = [(function, args, caller), *FOLLOW_UP_CALLS[kind]][:size]
    rt._endorse = lambda digest: ledger.collect_endorsements(digest, validators[:2])
    with pytest.raises(QuorumNotMet):
        calls_in_one_step(rt, [Call(c, address, f, a) for f, a, c in calls])
    assert (rt.chain.tip_hash, len(rt.chain)) == (tip, length)
    assert rt.contracts.keys() == installed.keys()
    assert all(rt.contracts[a] is contract for a, contract in installed.items())
    assert {a: contract.snapshot() for a, contract in rt.contracts.items()} == states


@pytest.mark.parametrize("kind", sorted(MUTATING_CALLS))
def test_revert_after_mutating_leaves_the_contract_unchanged(kind, monkeypatch):
    init_args, function, args, caller = MUTATING_CALLS[kind]
    cls = CONTRACT_KINDS[kind]
    name = "_fn_" + function
    handler = getattr(cls, name)

    def mutate_then_revert(self, args, caller, tick):
        handler(self, args, caller, tick)
        raise ContractRevert("refused after mutating")

    rt, _validators, _clock = consortium_runtime()
    address = rt.deploy(kind, init_args, OWNER)
    tip = rt.chain.tip_hash
    installed = rt.contracts[address]
    state = rt.contracts[address].snapshot()
    monkeypatch.setattr(cls, name, mutate_then_revert)
    result = rt.call(address, function, args, caller)
    assert result.status is CallStatus.REVERTED
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.contracts[address].snapshot() == state


@pytest.mark.parametrize("kind", sorted(MUTATING_CALLS))
def test_apply_refuses_a_function_with_no_handler(kind):
    init_args, _function, _args, _caller = MUTATING_CALLS[kind]
    contract = CONTRACT_KINDS[kind].create(OWNER, init_args)
    with pytest.raises(UnknownFunction):
        contract.apply("selfdestruct", {}, OWNER, 1)


@pytest.mark.parametrize("kind", sorted(CONTRACT_KINDS))
def test_contract_fields_are_immutable_values(kind):
    # Runtime.call runs each call on a shallow copy of the contract; that
    # leaves the installed contract untouched only while no field can be
    # mutated in place.
    cls = CONTRACT_KINDS[kind]
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        assert hint in (bytes, int, str, bool) or (
            isinstance(hint, type) and issubclass(hint, Enum)), (f.name, hint)


def test_call_refused_by_the_acl_leaves_the_contract_unchanged():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tip = rt.chain.tip_hash
    installed = rt.contracts[address]
    state = rt.contracts[address].snapshot()
    rt.chain.acl.discard(OWNER)
    with pytest.raises(AccessDenied):
        rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.contracts[address].snapshot() == state


def test_call_with_unencodable_args_leaves_the_contract_unchanged():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tip = rt.chain.tip_hash
    installed = rt.contracts[address]
    state = rt.contracts[address].snapshot()
    with pytest.raises(TypeError):
        rt.call(address, "EnterOil", {**ENTER_ARGS, "note": 1.5}, OWNER)
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.contracts[address].snapshot() == state
