"""Scenario files: validation messages, deterministic replay, fault surfacing."""

from __future__ import annotations

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import JSON_VALUES, SCENARIO_DIR, node_paths, with_node_replaced
from oilchain import runtime, telemetry
from oilchain.errors import OilchainError, ParseError, QuorumNotMet, ValidationError
from oilchain.identity import Role
from oilchain.provenance import batch_text, build_report
from oilchain.scenario import (
    MAX_DURATION_TICKS,
    Scenario,
    load_scenario,
    parse_scenario,
    report_to_json,
    report_to_text,
    run_scenario,
    run_scenario_file,
)

HAPPY = SCENARIO_DIR / "happy_path.json"
FAULTED = SCENARIO_DIR / "pressure_fault_hop2.json"


def minimal_doc() -> dict:
    return {
        "schema_version": 1,
        "name": "minimal",
        "seed": 5,
        "topology": {
            "validators": 4,
            "roles": ["Driller", "Refinery", "Storage", "Pump", "Consumer"],
        },
        "batches": [{
            "batch_id": "7",
            "oil_name": "Petrol",
            "setpoints": {"temperature": 22, "humidity": 10, "pressure": 8},
            "hops": [{
                "seller": "Driller",
                "buyer": "Refinery",
                "price": 100,
                "quantity": 10,
                "telemetry": {
                    "duration": 2,
                    "kinds": ["Temperature", "Humidity", "Pressure"],
                },
            }],
        }],
    }


# --- parsing ---------------------------------------------------------------------

def test_bundled_scenarios_parse():
    happy = load_scenario(HAPPY)
    assert happy.validator_count == 4
    assert len(happy.batches[0].hops) == 4
    faulted = load_scenario(FAULTED)
    faults = faulted.batches[0].hops[1].faults
    assert len(faults) == 1
    assert (faults[0].start, faults[0].end, faults[0].offset) == (1, 3, -2)


def test_minimal_document_parses():
    scenario = parse_scenario(minimal_doc())
    assert scenario.name == "minimal"
    assert scenario.eth_usd == runtime.DEFAULT_ETH_USD
    assert scenario.batches[0].hops[0].accept_method == "signature"


def broken(mutate):
    doc = minimal_doc()
    mutate(doc)
    return doc


def full_custody(doc):
    """doc with batch 0 taken driller -> refinery -> storage -> pump -> consumer."""
    hop = doc["batches"][0]["hops"][0]
    pairs = [("Driller", "Refinery"), ("Refinery", "Storage"), ("Storage", "Pump"),
             ("Pump", "Consumer")]
    doc["batches"][0]["hops"] = [dict(copy.deepcopy(hop), seller=seller, buyer=buyer)
                                 for seller, buyer in pairs]
    return doc


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.pop("seed"), "seed"),
    (lambda d: d.update(seed=-1), "seed"),
    (lambda d: d["topology"].update(validators=5), "validators"),
    (lambda d: d["topology"].update(roles=["Driller", "Driller"]), "roles"),
    (lambda d: d["topology"].update(roles=["Driller", "Wizard"]), "roles[1]"),
    (lambda d: d["batches"][0].pop("setpoints"), "setpoints"),
    (lambda d: d["batches"][0]["setpoints"].pop("pressure"), "pressure"),
    (lambda d: d["batches"][0]["setpoints"].update(pressure=-2), "pressure"),
    (lambda d: d["batches"][0]["hops"][0].update(seller="Wizard"), "seller"),
    (lambda d: d["batches"][0]["hops"][0].update(price="free"), "price"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "handshake"}), "accept.method"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "passphrase"}), "passphrase"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(duration=0),
     "duration"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        duration=MAX_DURATION_TICKS + 1), "telemetry.duration"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Pressure", "Vibration"]), "kinds[1]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 0, "end": 1, "offset": "big"}]),
     "offset"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        extra_setpoints={"Location": [1]}), "Location"),
    (lambda d: d.update(batches=[]), "batches"),
    (lambda d: d.update(report={"eth_usd": -3}), "eth_usd"),
    (lambda d: d.update(report={"eth_usd": 10**400}), "report.eth_usd"),
    (lambda d: d["batches"][0]["hops"][0].update(accept="sig"), "hops[0].accept"),
    (lambda d: d["batches"][0].update(hops=3), "batches[0].hops"),
    (lambda d: d.update(report=[]), "scenario.report"),
    (lambda d: d["batches"][0].update(oil_name=2.5), "oil_name"),
    (lambda d: d["topology"].update(roles=[["Driller"]]), "roles[0]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(kinds=[{}]), "kinds[0]"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "passphrase", "passphrase": 7}), "accept.passphrase"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Weight", "start": 0, "end": 1, "offset": 5}]), "faults[0].kind"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 1, "end": 2, "offset": 5}]), "faults[0]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        faults=[{"kind": "Pressure", "start": 1, "end": 0, "offset": 5}]),
     "telemetry.faults[0]"),
    (lambda d: d["batches"].append(copy.deepcopy(d["batches"][0])), "batches[1].batch_id"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Temperature", "Pressure", "Pressure"]), "telemetry.kinds[2]"),
    (lambda d: d["batches"][0]["hops"][0]["telemetry"].update(
        kinds=["Temperature", "Humidity", "Pressure", "Weight"]), "kinds[3]"),
    (lambda d: d["batches"][0].update(batch_id=None), "batches[0].batch_id"),
    (lambda d: d["batches"][0].update(batch_id=["7"]), "batches[0].batch_id"),
    (lambda d: d["topology"]["roles"].remove("Storage"), "topology.roles"),
    (lambda d: full_custody(d)["topology"]["roles"].remove("Consumer"),
     "batches[0].hops[3].buyer"),
    (lambda d: full_custody(d)["batches"][0]["hops"][2].update(seller="Driller"),
     "batches[0].hops[2].seller"),
    (lambda d: d["batches"][0]["hops"][0].update(seller="Refinery"),
     "batches[0].hops[0].seller"),
    (lambda d: d.update(name=None), "scenario.name"),
    (lambda d: d["batches"][0].update(hops=[]), "batches[0].hops:"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "signature", "passphrase": ""}), "hops[0].accept.passphrase"),
    (lambda d: d.update(seed=2**63), "scenario.seed"),
])
def test_validation_errors_name_the_field(mutate, needle):
    with pytest.raises(ValidationError) as err:
        parse_scenario(broken(mutate))
    assert needle in str(err.value)


BUNDLED_DOCS = [json.loads(p.read_text()) for p in (HAPPY, FAULTED)]
BUNDLED_NODES = [(i, path) for i, doc in enumerate(BUNDLED_DOCS) for path in node_paths(doc)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED_NODES), JSON_VALUES)
def test_any_one_node_replaced_parses_or_raises_oilchain_error(node, value):
    doc_index, path = node
    doc = with_node_replaced(BUNDLED_DOCS[doc_index], path, value)
    try:
        parsed = parse_scenario(doc)
    except OilchainError:
        return
    assert isinstance(parsed, Scenario)


HAPPY_DOC = BUNDLED_DOCS[0]
ROLE_NODES = [("topology", "roles", i) for i in range(len(HAPPY_DOC["topology"]["roles"]))] + [
    ("batches", 0, "hops", j, side)
    for j in range(len(HAPPY_DOC["batches"][0]["hops"])) for side in ("seller", "buyer")
]


@pytest.mark.parametrize("path", ROLE_NODES, ids=lambda p: ".".join(map(str, p)))
@pytest.mark.parametrize("role", [r.value for r in Role])
def test_one_role_substitution_is_refused_at_parse_or_runs(path, role):
    doc = with_node_replaced(HAPPY_DOC, path, role)
    try:
        scenario = parse_scenario(doc)
    except ValidationError as err:
        assert str(err).startswith(("scenario.topology.roles", "scenario.batches[0].hops["))
        return
    run_scenario(scenario)


def test_broken_json_reports_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "name": oops\n}\n')
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


# --- replay ------------------------------------------------------------------------

def test_runs_are_byte_identical():
    first = run_scenario_file(HAPPY)
    second = run_scenario_file(HAPPY)
    assert report_to_json(first.report) == report_to_json(second.report)
    assert [c.tip_hash for c in first.supply.all_chains()] == \
           [c.tip_hash for c in second.supply.all_chains()]


# Any change to these bytes must be made on purpose: update the hash with it.
@pytest.mark.parametrize("path,sha256", [
    (HAPPY, "0989c4c39dc52bcac5548c1614fb6ce73e388d103923e90398b96309394842ef"),
    (FAULTED, "d56d3a7880266ba0a5050d0a1b27cfe105c7580393c07e540a207150df04d2c9"),
], ids=["happy_path", "pressure_fault_hop2"])
def test_report_bytes_are_pinned(path, sha256):
    text = report_to_json(run_scenario_file(path).report)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_seed_override_changes_chains_consistently():
    base = run_scenario_file(HAPPY)
    other = run_scenario_file(HAPPY, seed=43)
    assert other.report["seed"] == 43
    assert other.report["chains"] != base.report["chains"]
    again = run_scenario_file(HAPPY, seed=43)
    assert report_to_json(other.report) == report_to_json(again.report)


@pytest.mark.parametrize("override,name", [
    ({"seed": 2**63}, "seed"),
    ({"seed": -1}, "seed"),
    ({"eth_usd": -5.0}, "eth_usd"),
])
def test_run_overrides_are_checked_like_the_file_values(override, name):
    with pytest.raises(ValidationError, match=f"^{name}:"):
        run_scenario(load_scenario(HAPPY), **override)


def test_happy_path_report_contents():
    result = run_scenario_file(HAPPY)
    assert not result.violations_found
    report = result.report
    batch = report["batches"][0]
    assert batch["clean"] is True
    assert batch["violation_totals"] == {"Temperature": 0, "Humidity": 0,
                                         "Pressure": 0}
    assert batch["distribution_state"]["current_trace"] == "Sold"
    assert [h["status"] for h in batch["hops"]] == ["Delivered"] * 4
    assert [h["index"] for h in batch["hops"]] == [1, 2, 3, 4]
    assert all(h["violations"] == [] for h in batch["hops"])
    assert len(report["settlements"]) == 4
    assert {c["name"] for c in report["chains"]} == {
        "consortium", "driller", "refinery", "storage", "pump", "consumer"}
    assert all(c["blocks"] >= 1 for c in report["chains"])
    assert report["eth_usd"] == 2291.0


def test_faulted_run_surfaces_exactly_the_injected_violations():
    result = run_scenario_file(FAULTED)
    assert result.violations_found
    batch = result.report["batches"][0]
    assert batch["clean"] is False
    assert batch["violation_totals"]["Pressure"] == 3
    per_hop = [len(h["violations"]) for h in batch["hops"]]
    assert per_hop == [0, 3, 0, 0]
    for violation in batch["hops"][1]["violations"]:
        assert violation["kind"] == "Pressure"
        assert violation["stage"] == "Low"
        assert violation["message"] == "Lower Pressure"
    # the custody chain still completes; violations are audit findings
    assert batch["distribution_state"]["current_trace"] == "Sold"


def test_gas_totals_match_a_chain_scan():
    result = run_scenario_file(HAPPY)
    gas = result.report["gas"]
    calls = tx_gas = exec_gas = 0
    for chain in result.supply.all_chains():
        for block in chain.blocks:
            for tx in block.transactions:
                calls += 1
                tx_gas += tx.gas_used
                exec_gas += runtime.metered_cost(tx.function).execution
    assert gas["calls"] == calls
    assert gas["total_transaction_gas"] == tx_gas
    assert gas["total_execution_gas"] == exec_gas
    assert gas["fiat_usd"]["slow"] == runtime.fiat_cost(exec_gas, 82, 2291.0)


def test_one_faulty_validator_of_four_is_tolerated():
    doc = minimal_doc()
    doc["topology"]["faulty_validators"] = 1
    result = run_scenario(parse_scenario(doc))
    assert not result.violations_found
    consortium = result.supply.consortium_chain
    assert all(len(b.endorsements) == 3 for b in consortium.blocks[1:])


def test_two_faulty_validators_of_four_break_the_quorum():
    doc = minimal_doc()
    doc["topology"]["faulty_validators"] = 2
    with pytest.raises(QuorumNotMet):
        run_scenario(parse_scenario(doc))


def without_consortium_tip(report: dict) -> dict:
    report = copy.deepcopy(report)
    for chain in report["chains"]:
        if chain["class"] == "Consortium":
            del chain["tip_hash"]
    return report


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_f_byzantine_validators_change_only_the_consortium_tip(path):
    # f = 1 of 4 equivocates: its endorsement is skipped, so the sealed sets,
    # and with them the tip hash, differ; traces, violations and settlements do not
    doc = json.loads(path.read_text())
    honest = run_scenario(parse_scenario(doc))
    doc["topology"]["byzantine_validators"] = 1
    result = run_scenario(parse_scenario(doc))
    assert without_consortium_tip(result.report) == without_consortium_tip(honest.report)
    assert result.report["chains"][0]["tip_hash"] != honest.report["chains"][0]["tip_hash"]
    liar = result.supply.topology.validators[0].address
    blocks = result.supply.consortium_chain.blocks[1:]
    assert all(len(b.endorsements) == 3 for b in blocks)
    assert all(e.validator != liar for b in blocks for e in b.endorsements)


@pytest.mark.parametrize("silent,byzantine", [(0, 2), (1, 1)])
def test_more_than_f_faulty_validators_break_the_quorum(silent, byzantine):
    doc = minimal_doc()
    doc["topology"].update(faulty_validators=silent, byzantine_validators=byzantine)
    with pytest.raises(QuorumNotMet, match="^chain 'consortium' block 1: "):
        run_scenario(parse_scenario(doc))


@pytest.mark.parametrize("silent,byzantine,field", [
    (400, 0, "faulty_validators"),
    (3, 2, "byzantine_validators"),
    (0, 5, "byzantine_validators"),
])
def test_faulty_validators_beyond_the_set_are_refused_at_parse(silent, byzantine, field):
    doc = minimal_doc()
    doc["topology"].update(faulty_validators=silent, byzantine_validators=byzantine)
    with pytest.raises(ValidationError, match=f"^scenario.topology.{field}: .* exceed the 4"):
        parse_scenario(doc)


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_run_report_hops_embed_the_trace_record(path):
    result = run_scenario_file(path)
    text = report_to_text(result.report)
    for batch in result.report["batches"]:
        trace = build_report(result.supply.consortium_chain, batch["batch_id"]).to_dict()
        assert len(batch["hops"]) == len(trace["hops"])
        for hop, traced in zip(batch["hops"], trace["hops"]):
            assert list(hop.items())[:11] == list(traced.items())
            assert hop["status"] == "Delivered"
        assert "\n".join(batch_text(trace)) in text


@pytest.mark.parametrize("path", [HAPPY, FAULTED], ids=["happy_path", "pressure_fault_hop2"])
def test_readings_fed_counts_committed_checks_and_records(path):
    result = run_scenario_file(path)
    supply = result.supply

    def committed(chain, contract, functions):
        return sum(tx.contract == contract and tx.function in functions
                   for block in chain.blocks for tx in block.transactions)

    for batch in result.report["batches"]:
        for reported, hop in zip(batch["hops"], supply.batches[batch["batch_id"]].hops,
                                 strict=True):
            checks = committed(supply.consortium_chain, hop.tracking_contract,
                               telemetry.CHECK_FUNCTION.values())
            records = committed(supply.private_chain(hop.seller.address),
                                hop.product_contract, {telemetry.RECORD_FUNCTION})
            assert checks
            assert reported["readings_fed"] == checks + records


def test_a_run_decodes_at_most_two_telemetry_records_per_hop(monkeypatch):
    decoded = []
    decode = telemetry.canon_decode
    monkeypatch.setattr(telemetry, "canon_decode",
                        lambda data: decoded.append(data) or decode(data))
    report = run_scenario_file(HAPPY).report
    # only hop 1 streams weights (hop 3 streams RFID scans): the report reads
    # its first and last Weight record, and no other telemetry record
    assert [decode(data)["kind"] for data in decoded] == ["Weight", "Weight"]
    assert report["batches"][0]["hops"][0]["weight_delta"] == 0


def test_text_rendering_mentions_the_essentials():
    result = run_scenario_file(FAULTED)
    text = report_to_text(result.report)
    assert "VIOLATIONS FOUND" in text
    assert "custody stage: Sold" in text
    assert "Lower Pressure" in text
    assert "settlements: 4" in text


def test_multi_batch_scenario_runs():
    doc = minimal_doc()
    second = copy.deepcopy(doc["batches"][0])
    second["batch_id"] = "8"
    doc["batches"].append(second)
    result = run_scenario(parse_scenario(doc))
    assert [b["batch_id"] for b in result.report["batches"]] == ["7", "8"]
    assert len(result.report["settlements"]) == 2


def test_report_json_is_stable_json():
    result = run_scenario_file(HAPPY)
    text = report_to_json(result.report)
    assert text.endswith("\n")
    assert json.loads(text) == result.report
