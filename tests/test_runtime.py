"""Runtime: gas table, fiat pricing, deploy/call/record, commit on append."""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import get_type_hints

import pytest

from conftest import consortium_runtime, make_validators
from oilchain import identity, ledger, runtime, telemetry
from oilchain.encoding import canon_decode
from oilchain.contracts import CONTRACT_KINDS
from oilchain.errors import AccessDenied, ContractRevert, QuorumNotMet, UnknownFunction
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
    assert rt.state_of(address)["owner"] == identity.address_hex(OWNER)


def test_deploy_nonce_bump_gives_distinct_addresses():
    rt = private_runtime()
    first = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    second = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    assert first != second
    assert second == contract_address(OWNER, 1)


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
    assert rt.state_of(address)["initialized"] is True
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
    state = rt.state_of(address)
    result = rt.call(address, "EnterOil", ENTER_ARGS, OUTSIDER)
    assert result.status is CallStatus.REVERTED
    assert result.revert_reason
    assert result.events == ()
    assert rt.chain.tip_hash == tip
    assert rt.state_of(address) == state


def test_call_unknown_function_and_unknown_contract_raise():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    with pytest.raises(UnknownFunction):
        rt.call(address, "selfdestruct", {}, OWNER)
    with pytest.raises(UnknownFunction):
        rt.call(b"\x00" * 20, "EnterOil", ENTER_ARGS, OWNER)
    with pytest.raises(UnknownFunction):
        rt.state_of(b"\x00" * 20)


def test_record_appends_plumbing_block():
    rt = private_runtime()
    tx = rt.record(OWNER, b"\x00" * 20, "settlement", {"amount": 100})
    assert tx.gas_used == 42000
    assert rt.chain.blocks[-1].transactions == (tx,)
    assert canon_decode(tx.args) == {"amount": 100}
    with pytest.raises(AccessDenied):
        rt.record(OUTSIDER, b"\x00" * 20, "settlement", {"amount": 1})


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
def test_starved_consortium_call_leaves_the_contract_unchanged(kind):
    init_args, function, args, caller = MUTATING_CALLS[kind]
    rt, validators, _clock = consortium_runtime()
    address = rt.deploy(kind, init_args, OWNER)
    tip = rt.chain.tip_hash
    installed = rt.contracts[address]
    state = rt.state_of(address)
    rt._endorse = lambda digest: ledger.collect_endorsements(digest, validators[:2])
    with pytest.raises(QuorumNotMet):
        rt.call(address, function, args, caller)
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.state_of(address) == state


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
    state = rt.state_of(address)
    monkeypatch.setattr(cls, name, mutate_then_revert)
    result = rt.call(address, function, args, caller)
    assert result.status is CallStatus.REVERTED
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.state_of(address) == state


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
    state = rt.state_of(address)
    rt.chain.acl.discard(OWNER)
    with pytest.raises(AccessDenied):
        rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.state_of(address) == state


def test_call_with_unencodable_args_leaves_the_contract_unchanged():
    rt = private_runtime()
    address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
    tip = rt.chain.tip_hash
    installed = rt.contracts[address]
    state = rt.state_of(address)
    with pytest.raises(TypeError):
        rt.call(address, "EnterOil", {**ENTER_ARGS, "note": 1.5}, OWNER)
    assert rt.chain.tip_hash == tip
    assert rt.contracts[address] is installed
    assert rt.state_of(address) == state
