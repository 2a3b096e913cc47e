"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
each test owns exactly one criterion. Tolerances are stated inline where a
criterion is numeric: USD cells are checked to +/- $0.01, everything else is
exact.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    FIVE_ROLES,
    SCENARIO_DIR,
    build_random_chain,
    consortium_runtime,
    make_validators,
    mutate_chain,
    settlement_records,
    standard_terms,
)
from oilchain import identity, ledger
from oilchain.contracts import CheckProgress
from oilchain.encoding import canon_decode
from oilchain.errors import BadCredential, QuorumNotMet, WrongStatus
from oilchain.identity import Role
from oilchain.provenance import build_report
from oilchain.runtime import CallStatus, fiat_cost, metered_cost
from oilchain.scenario import report_to_json, run_scenario_file
from oilchain.workflow import HopStatus, Setpoints, SupplyChain, Topology


class criterion:
    """Prints one [PASS]/[FAIL] line for the wrapped block."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        label = "PASS" if exc_type is None else "FAIL"
        print(f"[{label}] C{self.number}: {self.text}")
        return False


OWNER = b"\x71" * 20
DEVICE = b"\x72" * 20

ENTER_ARGS = {"name": "Petrol", "oil_id": "101", "amt": 10, "price": 100,
              "actualTemp": 22, "actualHum": 10, "actualPress": 8}


def test_c01_product_registration_is_readable_and_fast():
    with criterion(1, "product terms registered once are readable field-for-field"
                      " (< 1s)"):
        started = time.perf_counter()
        rt, _validators, _clock = consortium_runtime()
        address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
        result = rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
        assert result.status is CallStatus.OK
        assert [e.name for e in result.events] == ["oilAdded"]

        state = rt.contracts[address].snapshot()
        assert state["oil_name"] == "Petrol"
        assert state["oil_id"] == "101"
        assert state["amount"] == 10
        assert state["total_price"] == 100
        assert state["accurate_temp"] == 22
        assert state["accurate_hum"] == 10
        assert state["accurate_press"] == 8
        assert state["initialized"] is True

        recorded = next(tx for block in rt.chain.blocks
                        for tx in block.transactions
                        if tx.function == "EnterOil")
        assert canon_decode(recorded.args) == ENTER_ARGS
        assert time.perf_counter() - started < 1.0


def test_c02_low_pressure_reading_flags_a_violation():
    with criterion(2, "a pressure reading below setpoint answers very LOW and"
                      " logs a violation event"):
        rt, _validators, _clock = consortium_runtime()
        address = rt.deploy("CheckProgress", {"data_source": DEVICE}, OWNER)
        rt.call(address, "EnterOil", ENTER_ARGS, OWNER)
        result = rt.call(address, "CheckPressure", {"value": 6}, DEVICE)
        assert result.status is CallStatus.OK
        assert result.return_value == "Current Pressure is very LOW"
        assert len(result.events) == 1
        event = result.events[0]
        assert event.name == "PressureViolation"
        assert event.arg("addr") == identity.address_hex(DEVICE)
        assert event.arg("msg") == "Lower Pressure"
        assert rt.contracts[address].snapshot()["pressure_stage"] == "Low"
        assert rt.contracts[address].snapshot()["violation_type"] == "Pressure"


def test_c03_checks_agree_with_a_sign_comparison_oracle():
    with criterion(3, "every (value, setpoint) pair in [0,50]^2, all three kinds,"
                      " matches the three-way comparison oracle"):
        kinds = [("CheckTemperature", "Temperature"),
                 ("CheckHumidity", "Humidity"),
                 ("CheckPressure", "Pressure")]
        for setpoint in range(0, 51):
            contract = CheckProgress.create(OWNER, {"data_source": DEVICE})
            contract.apply("EnterOil", {**ENTER_ARGS,
                                        "actualTemp": setpoint,
                                        "actualHum": setpoint,
                                        "actualPress": setpoint}, OWNER, 1)
            for value in range(0, 51):
                for function, kind in kinds:
                    result, emissions = contract.apply(
                        function, {"value": value}, DEVICE, 2)
                    if value > setpoint:
                        expected = f"Current {kind} is very HIGH"
                        word = "Higher"
                    elif value < setpoint:
                        expected = f"Current {kind} is very LOW"
                        word = "Lower"
                    else:
                        expected = f"Current {kind} is Accurate"
                        word = "Accurate"
                    assert result == expected, (value, setpoint, kind)
                    assert len(emissions) == 1
                    assert emissions[0][0] == f"{kind}Violation"
                    assert dict(emissions[0][1])["msg"] == f"{word} {kind}"


def test_c04_first_custody_transition_stamps_and_announces():
    with criterion(4, "the driller's release call advances custody one stage,"
                      " stamps the tick, and announces it"):
        rt, _validators, _clock = consortium_runtime()
        address = rt.deploy("OilDistribution", {
            "driller": OWNER, "factory": DEVICE, "storage": b"\x73" * 20,
            "pump": b"\x74" * 20}, OWNER)
        tick = rt.clock.upcoming
        result = rt.call(address, "readyToFactory",
                         {"oil_id": "101", "name": "Petrol",
                          "price": 100, "quantity": 10}, OWNER)
        assert result.status is CallStatus.OK
        assert result.return_value == "Crude Oil is Ready to go to the Factory."
        event = result.events[0]
        assert event.name == "InitiateDist"
        assert event.arg("ad") == identity.address_hex(OWNER)
        assert event.arg("msg") == "Crude Oil is Ready to go to the Factory."
        state = rt.contracts[address].snapshot()
        assert state["current_trace"] == "AtDriller"
        assert state["drilling_date"] == tick
        assert rt.chain.blocks[-1].timestamp == tick


# USD cells the default rate is frozen against (slow, avg, fast, fastest).
# The pump-sale row is recomputed from its own gas instead: the corresponding
# source cells repeat the storage row, which its gas numbers contradict.
FROZEN_USD = {
    "EnterOil": (2.14323, 2.16935, 3.26697, 3.84201),
    "CheckPressure": (5.61982, 5.68832, 8.56697, 10.07467),
    "CheckTemperature": (2.5705, 2.60189, 3.91853, 4.60812),
    "CheckHumidity": (2.78517, 2.81908, 4.24545, 4.99278),
    "OccuredViolation": (2.20073, 2.22754, 3.35494, 3.94533),
    "readyToFactory": (20.40204, 20.65084, 31.10055, 36.57421),
    "readyToStorage": (15.97789, 16.17263, 24.35654, 28.64323),
    "oilInOilStorage": (15.94284, 16.13735, 24.30316, 28.58068),
}

GAS_EXPECTED = {
    "EnterOil": (11408, 35368),
    "CheckPressure": (29915, 51379),
    "CheckTemperature": (13683, 35147),
    "CheckHumidity": (14825, 36289),
    "OccuredViolation": (11715, 33371),
    "readyToFactory": (108601, 131857),
    "readyToStorage": (85051, 106707),
    "oilInOilStorage": (84865, 106721),
    "pumpSoldOil": (68923, 90579),
}

SPEEDS = (("slow", 82), ("avg", 83), ("fast", 125), ("fastest", 147))


def test_c05_gas_table_and_fiat_costs():
    with criterion(5, "per-function gas is exact and USD costs sit within"
                      " $0.01 of the frozen cells"):
        for name, (execution, transaction) in GAS_EXPECTED.items():
            cost = metered_cost(name)
            assert (cost.execution, cost.transaction) == (execution, transaction), name
        for name, cells in FROZEN_USD.items():
            execution = GAS_EXPECTED[name][0]
            for (speed, gwei), frozen in zip(SPEEDS, cells):
                got = fiat_cost(execution, gwei)
                assert abs(got - frozen) <= 0.01, (name, speed, got, frozen)
        # pump sale: recomputed from its own gas, and distinct from the
        # storage row it is sometimes conflated with
        for speed, gwei in SPEEDS:
            recomputed = fiat_cost(68923, gwei)
            assert recomputed == round(68923 * gwei * 1e-9 * 2291.0, 5)
            assert abs(recomputed - fiat_cost(84865, gwei)) > 1.0
        assert fiat_cost(68923, 82) == 12.94801


def test_c06_thousand_single_byte_mutations_all_detected():
    with criterion(6, "1000 random single-byte mutations of 3-10 block chains"
                      " are all detected at or before the mutated block"):
        rng = random.Random(1404)
        detected = 0
        for i in range(1000):
            chain = build_random_chain(rng, rng.randint(3, 10),
                                       consortium=(i % 10 == 0))
            mutated, at = mutate_chain(chain, rng)
            report = ledger.verify_chain(mutated)
            assert not report.valid, f"mutation {i} at block {at} went undetected"
            assert report.first_bad_index is not None
            assert report.first_bad_index <= at, (i, report.first_bad_index, at)
            detected += 1
        assert detected == 1000


def tx_for_quorum():
    return ledger.Transaction(caller=b"\x01" * 20, contract=b"\x02" * 20,
                              function="EnterOil", args=b"\x05",
                              gas_used=35368)


def quorum_accepts(validators, subset_indices) -> bool:
    chain = ledger.new_consortium_chain(
        "consortium", [v.address for v in validators])
    keys = [validators[i] for i in subset_indices]
    try:
        ledger.append_block(chain, [tx_for_quorum()], 1,
                            lambda d: ledger.collect_endorsements(d, keys))
    except QuorumNotMet:
        return False
    return True


def test_c07_quorum_thresholds_for_fault_bounds_zero_one_two():
    with criterion(7, "endorsement quorums: 2f+1 of 3f+1 accepted, 2f or fewer"
                      " rejected, for f in {0, 1, 2}"):
        # f=0 and f=1: every subset, exhaustively
        for count, f in ((1, 0), (4, 1)):
            validators = make_validators(count, seed=500 + count)
            for mask in range(2 ** count):
                subset = [i for i in range(count) if mask >> i & 1]
                expected = len(subset) >= 2 * f + 1
                assert quorum_accepts(validators, subset) is expected, \
                    (count, subset)
        # f=2: one subset per size, sizes 0..7
        validators = make_validators(7, seed=507)
        rng = random.Random(7)
        for size in range(8):
            subset = rng.sample(range(7), size)
            assert quorum_accepts(validators, subset) is (size >= 5), subset


def scan_trace_oracle(chain: ledger.Chain, batch_id: str):
    """Independent full scan: hop metas by number, violations by emitter."""
    hops = {}
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.function != "constructor":
                continue
            record = canon_decode(tx.args)
            meta = record.get("meta") or {}
            if meta.get("record") == "tracking" and meta.get("batch") == batch_id:
                hops[meta["hop"]] = {"tracking": tx.contract, "meta": meta,
                                     "violations": [], "accurate": 0}
    by_contract = {h["tracking"]: h for h in hops.values()}
    for block in chain.blocks:
        for tx in block.transactions:
            for event in tx.events:
                if not event.name.endswith("Violation"):
                    continue
                hop = by_contract.get(event.emitter)
                if hop is None:
                    continue
                message = str(event.arg("msg"))
                word, kind = message.split(" ", 1)
                if word == "Accurate":
                    hop["accurate"] += 1
                else:
                    stage = "High" if word == "Higher" else "Low"
                    hop["violations"].append(
                        (kind, stage, block.timestamp, message))
    return hops


def test_c08_injected_fault_is_attributed_to_its_hop_alone():
    with criterion(8, "an injected out-of-band window surfaces as exactly its"
                      " own violations, attributed to the faulted hop"):
        result = run_scenario_file(SCENARIO_DIR / "pressure_fault_hop2.json")
        assert result.violations_found
        report = build_report(result.supply.consortium_chain, "101")
        assert not report.clean
        assert report.violation_totals == {"Temperature": 0, "Humidity": 0,
                                           "Pressure": 3}
        assert [len(h.violations) for h in report.hops] == [0, 3, 0, 0]
        for entry in report.hops[1].violations:
            assert entry.kind == "Pressure"
            assert entry.stage == "Low"
            assert entry.message == "Lower Pressure"
        ticks = [v.tick for v in report.hops[1].violations]
        assert ticks == sorted(ticks) and len(set(ticks)) == 3

        oracle = scan_trace_oracle(result.supply.consortium_chain, "101")
        assert sorted(oracle) == [1, 2, 3, 4]
        for summary in report.hops:
            expected = oracle[summary.index]
            assert summary.tracking_contract == identity.address_hex(
                expected["tracking"])
            assert summary.accurate_readings == expected["accurate"]
            got = [(v.kind, v.stage, v.tick, v.message)
                   for v in summary.violations]
            assert got == expected["violations"]


def test_c09_replays_are_byte_identical_and_fast():
    with criterion(9, "replaying each bundled scenario twice gives"
                      " byte-identical reports and tips (< 10s each)"):
        for name in ("happy_path.json", "pressure_fault_hop2.json"):
            path = SCENARIO_DIR / name
            started = time.perf_counter()
            first = run_scenario_file(path)
            second = run_scenario_file(path)
            elapsed = time.perf_counter() - started
            assert report_to_json(first.report) == report_to_json(second.report), name
            assert [c.tip_hash for c in first.supply.all_chains()] == \
                   [c.tip_hash for c in second.supply.all_chains()], name
            assert elapsed < 10.0, (name, elapsed)


def test_c10_forged_credentials_never_settle():
    with criterion(10, "100 forged credentials settle nothing; the genuine"
                       " credential settles exactly once"):
        topology = Topology.from_seed(FIVE_ROLES, validator_count=4, seed=7)
        supply = SupplyChain(topology, seed=7)
        setpoints = Setpoints(temperature=22, humidity=10, pressure=8)
        batch = supply.register_batch("101", setpoints)
        hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                                  standard_terms(setpoints))

        rng = random.Random(99)
        stranger = identity.generate_device("stranger", 13)
        digest = supply.accept_digest(hop)
        tips_before = [c.tip_hash for c in supply.all_chains()]
        rejected = 0
        for i in range(100):
            style = i % 4
            if style == 0:
                forged = rng.randbytes(64)
            elif style == 1:
                forged = identity.sign(digest, stranger.private_key)
            elif style == 2:
                forged = identity.sign(rng.randbytes(32), hop.buyer.private_key)
            else:
                forged = f"guess-{i}"
            with pytest.raises(BadCredential):
                supply.accept_shipment(hop, forged)
            rejected += 1
        assert rejected == 100
        assert hop.status is HopStatus.PROPOSED
        assert settlement_records(supply) == []
        assert [c.tip_hash for c in supply.all_chains()] == tips_before

        genuine = identity.sign(digest, hop.buyer.private_key)
        supply.accept_shipment(hop, genuine)
        assert hop.status is HopStatus.ACCEPTED
        assert len(settlement_records(supply)) == 1
        with pytest.raises(WrongStatus):
            supply.accept_shipment(hop, genuine)
        assert len(settlement_records(supply)) == 1

        # same property through the passphrase path
        second = supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                                     standard_terms(setpoints,
                                                    passphrase="gate-7"))
        with pytest.raises(BadCredential):
            supply.accept_shipment(second, "gate-8")
        supply.accept_shipment(second, "gate-7")
        assert len(settlement_records(supply)) == 2
