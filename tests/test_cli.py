"""CLI: exit codes, output formats, persistence, corrupt-store refusal."""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from itertools import islice

import pytest

import forgery
from conftest import SCENARIO_DIR
from oilchain import identity, ledger, runtime, store
from oilchain.cli import main
from oilchain.encoding import canon_encode
from oilchain.scenario import run_scenario_file

HAPPY = str(SCENARIO_DIR / "happy_path.json")
FAULTED = str(SCENARIO_DIR / "pressure_fault_hop2.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run ---------------------------------------------------------------------------

def test_run_clean_scenario_exits_zero(capsys):
    code, out, err = run_cli(capsys, "run", HAPPY)
    assert code == 0
    assert "CLEAN" in out
    assert "custody stage: Sold" in out
    assert err == ""


def test_run_faulted_scenario_exits_two(capsys):
    code, out, _err = run_cli(capsys, "run", FAULTED)
    assert code == 2
    assert "VIOLATIONS FOUND" in out
    assert out.count("Lower Pressure") == 3


def test_run_structured_output_is_the_report(capsys):
    code, out, _err = run_cli(capsys, "run", HAPPY, "--format", "structured")
    assert code == 0
    assert json.loads(out) == run_scenario_file(HAPPY).report


def test_run_missing_file_exits_one(capsys):
    code, out, err = run_cli(capsys, "run", "no-such-scenario.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("content,needle", [
    (b'{"schema_version": 1, "name": "x", "seed": 1,'
     b' "topology": {"validators": 5, "roles": []}, "batches": []}', "validators"),
    (b"\xff\xfe{}", "bad.json: not UTF-8"),
    (b"[" * 100_000, "bad.json: nested too deeply"),
    (b'{"schema_version": 1, "name": "x", "seed": ' + b"7" * 5000 + b"}", "bad.json"),
], ids=["validator-count", "not-utf-8", "nested-past-the-recursion-limit",
        "seed-of-5000-digits"])
def test_run_invalid_scenario_exits_one(tmp_path, capsys, content, needle):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert needle in err


def _hop_telemetry(doc, hop):
    return doc["batches"][0]["hops"][hop]["telemetry"]


@pytest.mark.parametrize("mutate,field", [
    (lambda d: _hop_telemetry(d, 1).update(
        faults=[{"kind": "Weight", "start": 0, "end": 1, "offset": 5}]),
     "batches[0].hops[1].telemetry.faults[0].kind"),
    (lambda d: _hop_telemetry(d, 1).update(
        faults=[{"kind": "Pressure", "start": 2, "end": 9, "offset": 5}]),
     "batches[0].hops[1].telemetry.faults[0]"),
    (lambda d: _hop_telemetry(d, 1).update(
        faults=[{"kind": "Pressure", "start": 3, "end": 1, "offset": 5}]),
     "batches[0].hops[1].telemetry.faults[0]"),
    (lambda d: d["batches"].append(d["batches"][0]), "batches[1].batch_id"),
    (lambda d: _hop_telemetry(d, 1)["kinds"].append("Humidity"),
     "batches[0].hops[1].telemetry.kinds[3]"),
    (lambda d: _hop_telemetry(d, 1)["kinds"].append("Weight"),
     "batches[0].hops[1].telemetry.kinds[3]"),
    (lambda d: d["topology"]["roles"].remove("Storage"), "topology.roles"),
    (lambda d: d["topology"]["roles"].remove("Consumer"), "batches[0].hops[3].buyer"),
    (lambda d: d["batches"][0]["hops"][2].update(seller="Driller"),
     "batches[0].hops[2].seller"),
    (lambda d: d["batches"][0]["hops"][0].update(seller="Refinery"),
     "batches[0].hops[0].seller"),
    (lambda d: d["batches"][0].update(batch_id=None), "batches[0].batch_id"),
    (lambda d: d.update(name=None), "name"),
    (lambda d: d["batches"][0].update(hops=[]), "batches[0].hops"),
    (lambda d: d["batches"][0]["hops"][0].update(
        accept={"method": "signature", "passphrase": ""}),
     "batches[0].hops[0].accept.passphrase"),
    (lambda d: d.update(seed=2**63), "seed"),
    (lambda d: d.update(seed=functools.reduce(lambda inner, _: [inner], range(900), [])),
     "seed"),
    (lambda d: _hop_telemetry(d, 0).update(nosie_amplitude=3),
     "batches[0].hops[0].telemetry.nosie_amplitude"),
    (lambda d: d["topology"].update(faulty_validator=1), "topology.faulty_validator"),
    (lambda d: _hop_telemetry(d, 1).update(max_silence_ticks=0),
     "batches[0].hops[1].telemetry.max_silence_ticks"),
    (lambda d: d.update(comment="draft"), "comment"),
], ids=["fault-kind-not-streamed", "fault-window-past-end", "fault-window-reversed",
        "repeated-batch-id", "repeated-kind", "kind-without-setpoint",
        "topology-without-storage", "buyer-not-in-topology", "hop-3-sold-by-driller",
        "hop-1-sold-by-refinery", "null-batch-id", "null-name", "no-hops",
        "empty-passphrase-under-signature", "seed-past-2**63", "seed-nested-900-deep",
        "misspelt-noise-amplitude", "misspelt-faulty-validators", "leftover-max-silence-ticks",
        "unknown-top-level-key"])
def test_run_refuses_bad_input_naming_the_field(tmp_path, capsys, mutate, field):
    doc = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: bad.json.{field}:")
    assert len(err.splitlines()[0]) < 200


@pytest.mark.parametrize("argv", [
    ["run", HAPPY, "--seed", "abc"],
    ["trace"],
], ids=["non-integer-seed", "trace-without-arguments"])
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["run", HAPPY, "--eth-usd", "-1"], "--eth-usd"),
    (["run", HAPPY, "--eth-usd", "nan", "--format", "structured"], "--eth-usd"),
    (["run", HAPPY, "--eth-usd", "inf", "--format", "structured"], "--eth-usd"),
    (["gas-report", "--eth-usd", "0"], "--eth-usd"),
    (["run", HAPPY, "--seed", "99999999999999999999"], "--seed"),
    (["run", HAPPY, "--seed", "-1"], "--seed"),
], ids=["negative-rate", "nan-rate", "infinite-rate", "zero-rate-gas-report",
        "seed-past-2**63", "negative-seed"])
def test_bad_flag_value_exits_one_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag}:")


def test_store_path_that_is_a_file_exits_one_naming_it(tmp_path, capsys):
    path = tmp_path / "ledgers"
    path.write_text("not a directory")
    code, out, err = run_cli(capsys, "run", HAPPY, "--store", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --store: {path}:")
    assert path.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [["verify"], ["trace", "101"]], ids=["verify", "trace"])
@pytest.mark.parametrize("is_file,problem", [(True, "is not a directory"),
                                             (False, "does not exist")],
                         ids=["file", "missing"])
def test_reading_a_store_that_is_no_directory_exits_one_naming_it(tmp_path, capsys, argv,
                                                                 is_file, problem):
    path = SCENARIO_DIR / "happy_path.json" if is_file else tmp_path / "missing"
    code, out, err = run_cli(capsys, *argv, "--store", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: store directory {path} {problem}\n"


def test_run_persists_store_and_report(tmp_path, capsys):
    root = tmp_path / "ledgers"
    code, out, _err = run_cli(capsys, "run", HAPPY, "--store", str(root),
                              "--format", "structured")
    assert code == 0
    report = json.loads((root / "report.json").read_text())
    assert report == json.loads(out)
    dirs = {p.name for p in root.iterdir() if p.is_dir()}
    assert dirs == {"consortium", "private-driller", "private-refinery",
                    "private-storage", "private-pump", "private-consumer"}
    for chain in report["chains"]:
        name = ("consortium" if chain["class"] == "Consortium"
                else f"private-{chain['name']}")
        manifest = json.loads((root / name / "manifest.json").read_text())
        assert manifest["tip_hash"] == chain["tip_hash"]
        lines = (root / name / "blocks.jsonl").read_text().splitlines()
        assert len(lines) == chain["blocks"]


@pytest.mark.parametrize("manifest", [
    '{"name": "Web app", "start_url": "/", "display": "standalone"}',
    '{"class": ["Private"]}',
    "[]",
    "not json",
    "[" * 100_000 + "]" * 100_000,
], ids=["web-app-manifest", "unhashable-class", "json-list", "not-json", "nested-too-deep"])
def test_run_keeps_a_directory_whose_manifest_is_no_chains(tmp_path, capsys, manifest):
    root = tmp_path / "mixed"
    (root / "webapp").mkdir(parents=True)
    (root / "webapp" / "manifest.json").write_text(manifest)
    (root / "webapp" / "index.html").write_text("<html></html>")
    code, _out, _err = run_cli(capsys, "run", HAPPY, "--store", str(root))
    assert code == 0
    assert (root / "webapp" / "manifest.json").read_text() == manifest
    assert (root / "webapp" / "index.html").read_text() == "<html></html>"
    # the store refuses the directory by name, so nothing is lost unseen
    code, out, err = run_cli(capsys, "verify", "--store", str(root))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "manifest in webapp: " in err


def test_failed_run_persists_nothing(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
    doc["topology"]["faulty_validators"] = 2
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(doc))
    root = tmp_path / "ledgers"
    code, _out, err = run_cli(capsys, "run", str(starved), "--store", str(root))
    assert code == 1
    assert "error:" in err
    assert not root.exists()


def test_starved_run_names_the_chain_and_block(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
    doc["topology"]["faulty_validators"] = 2
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(starved))
    assert code == 1
    assert out == ""
    assert err == "error: chain 'consortium' block 1: need 3 endorsements, got 2 valid\n"


# --- trace -------------------------------------------------------------------------

@pytest.fixture
def happy_store(tmp_path, capsys):
    root = tmp_path / "store"
    assert main(["run", HAPPY, "--store", str(root)]) == 0
    capsys.readouterr()
    return root


@pytest.fixture
def faulted_store(tmp_path, capsys):
    root = tmp_path / "store-faulted"
    assert main(["run", FAULTED, "--store", str(root)]) == 2
    capsys.readouterr()
    return root


def test_trace_clean_batch(happy_store, capsys):
    code, out, _err = run_cli(capsys, "trace", "101", "--store", str(happy_store))
    assert code == 0
    assert "batch 101: CLEAN" in out
    assert out.count("hop ") == 4


def test_trace_faulted_batch(faulted_store, capsys):
    code, out, _err = run_cli(capsys, "trace", "101", "--store",
                              str(faulted_store), "--format", "structured")
    assert code == 2
    report = json.loads(out)
    assert report["clean"] is False
    assert report["violation_totals"]["Pressure"] == 3
    assert [len(h["violations"]) for h in report["hops"]] == [0, 3, 0, 0]


def test_trace_unknown_batch(happy_store, capsys):
    code, _out, err = run_cli(capsys, "trace", "999", "--store", str(happy_store))
    assert code == 1
    assert "999" in err


def test_trace_corrupt_store_names_the_block(happy_store, capsys):
    blocks = happy_store / "consortium" / "blocks.jsonl"
    lines = blocks.read_text().splitlines()
    record = json.loads(lines[3])
    record["hash"] = ("0" if record["hash"][0] != "0" else "1") + record["hash"][1:]
    lines[3] = json.dumps(record, separators=(",", ":"))
    blocks.write_text("\n".join(lines) + "\n")
    code, _out, err = run_cli(capsys, "trace", "101", "--store", str(happy_store))
    assert code == 1
    assert "first_bad_index=3" in err


def _reseal(root, chain, index, block):
    """Save `chain` under root with `block` at `index`, every hash from there
    on re-sealed, and every block whose candidate digest changed re-endorsed
    by the run's own validators: the store passes its structure and quorum
    checks, so only a later check can object. A block whose digest did not
    change keeps the endorsements it has."""
    signed = [b.digest for b in chain.blocks]
    chain.blocks[index] = block
    for i in range(index, len(chain.blocks)):
        old = chain.blocks[i]
        prev_hash = chain.blocks[i - 1].hash
        digest = ledger.candidate_digest(i, prev_hash, old.timestamp, old.transactions)
        endorsements = old.endorsements
        if chain.validators and digest != signed[i]:
            endorsements = tuple(islice(ledger.collect_endorsements(digest, run_validators()),
                                        ledger.quorum_size(len(chain.validators))))
        chain.blocks[i] = ledger.Block(i, prev_hash, old.timestamp, old.transactions,
                                       endorsements, ledger.block_hash(digest, endorsements))
    store.save_chain(root, chain)


@functools.cache
def run_validators():
    """The validator keys of both bundled scenarios, which share a seed."""
    return run_scenario_file(HAPPY).supply.topology.validators


def test_trace_refuses_an_unknown_stage_word_naming_the_block(faulted_store, capsys):
    chain = store.load_chain(faulted_store / "consortium")
    records = [json.dumps(store.block_to_record(block)) for block in chain.blocks]
    index = next(i for i, text in enumerate(records) if '"Lower Pressure"' in text)
    _reseal(faulted_store, chain, index, store.block_from_record(json.loads(
        records[index].replace('"Lower Pressure"', '"Bogus Pressure"', 1))))

    code, out, err = run_cli(capsys, "trace", "101", "--store", str(faulted_store))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: chain 'consortium' block {index}:")
    assert "names no stage" in err


def test_trace_refuses_an_event_naming_another_emitter(faulted_store, capsys):
    # credit one hop-2 PressureViolation to hop 1's tracking contract
    report = json.loads((faulted_store / "report.json").read_text())
    other = bytes.fromhex(report["batches"][0]["hops"][0]["tracking_contract"][2:])
    chain = store.load_chain(faulted_store / "consortium")
    block = next(block for block in chain.blocks for tx in block.transactions
                 for event in tx.events
                 if event.name == "PressureViolation" and event.arg("msg") == "Lower Pressure")
    spoofed = tuple(replace(tx, events=tuple(replace(e, emitter=other) for e in tx.events))
                    for tx in block.transactions)
    _reseal(faulted_store, chain, block.index, replace(block, transactions=spoofed))

    code, out, err = run_cli(capsys, "trace", "101", "--store", str(faulted_store))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: chain 'consortium' block {block.index}:")


# --- gas-report ----------------------------------------------------------------------

def test_gas_report_text_lists_every_function(capsys):
    code, out, _err = run_cli(capsys, "gas-report")
    assert code == 0
    for name in ("EnterOil", "CheckPressure", "CheckTemperature", "CheckHumidity",
                 "OccuredViolation", "readyToFactory", "readyToStorage",
                 "oilInOilStorage", "pumpSoldOil"):
        assert name in out


def test_gas_report_structured_matches_the_table(capsys):
    code, out, _err = run_cli(capsys, "gas-report", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["eth_usd"] == runtime.DEFAULT_ETH_USD
    assert doc["gas_prices_gwei"] == {"slow": 82, "avg": 83, "fast": 125,
                                      "fastest": 147}
    assert doc["functions"] == runtime.gas_report()


def test_gas_report_rate_override(capsys):
    _code, out, _err = run_cli(capsys, "gas-report", "--eth-usd", "1000",
                               "--format", "structured")
    doc = json.loads(out)
    assert doc["functions"] == runtime.gas_report(eth_usd=1000.0)


# --- verify ---------------------------------------------------------------------------

def test_verify_good_store(happy_store, capsys):
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 0
    assert out.count(" ok") == 6


def test_verify_structured(happy_store, capsys):
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store),
                              "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert {c["chain"] for c in doc["chains"]} == {
        "consortium", "private-driller", "private-refinery", "private-storage",
        "private-pump", "private-consumer"}
    assert all(c["status"] == "ok" for c in doc["chains"])
    # a good chain carries no reason key, so its output is unchanged
    assert all(set(c) == {"chain", "class", "blocks", "tip_hash", "status"}
               for c in doc["chains"])


def test_verify_replays_a_private_chain_naming_the_transaction(happy_store, capsys):
    # a re-sealed private chain passes the hash check; replay meters the
    # settlement record again and refuses its edited gas
    chain = store.load_chain(happy_store / "private-driller")
    block = next(block for block in chain.blocks for tx in block.transactions
                 if tx.function == "settlement")
    _reseal(happy_store, chain, block.index, replace(block, transactions=tuple(
        replace(tx, gas_used=1) for tx in block.transactions)))
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store),
                              "--format", "structured")
    assert code == 1
    [failed] = [line for line in json.loads(out)["chains"] if line["status"] != "ok"]
    assert (failed["chain"], failed["status"], failed["reason"]) == (
        "private-driller", f"REPLAY FAILED at block {block.index}",
        "settlement does not replay: costs 42000 gas, the record holds 1")


def test_verify_refuses_a_plain_record_under_a_metered_name(tmp_path, capsys):
    # it would replay clean as a plain record, yet be charged the call's gas
    owner = b"\x31" * 20
    chain = ledger.new_private_chain("driller", {owner})
    ledger.append_block(chain, [ledger.Transaction(
        owner, b"\x00" * 20, "readyToFactory", canon_encode({"price": 1}),
        runtime.metered_cost("readyToFactory").transaction)], 1)
    store.save_store(tmp_path, [chain])
    code, out, _err = run_cli(capsys, "verify", "--store", str(tmp_path))
    assert code == 1
    assert "REPLAY FAILED at block 1: readyToFactory does not replay" in out


@pytest.mark.parametrize("kind, init", [
    ("OilDistribution", ["driller", "factory", "storage", "pump"]),
    ("CheckProgress", ["data_source"]),
])
def test_verify_refuses_a_constructor_whose_init_is_no_dict(happy_store, capsys, kind, init):
    # private chains are unsigned: anyone can append a block and re-hash
    chain = store.load_chain(happy_store / "private-driller")
    tip = chain.blocks[-1]
    ledger.append_block(chain, [ledger.Transaction(
        tip.transactions[0].caller, b"\x42" * 20, "constructor",
        canon_encode({"kind": kind, "init": init}),
        runtime.metered_cost("constructor").transaction)], tip.timestamp + 1)
    store.save_chain(happy_store, chain)
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 1
    assert (f"REPLAY FAILED at block {tip.index + 1}: constructor does not replay:"
            f" BadInitArgs('{kind} init args must be a dict, got list')") in out


def _verify_failure(capsys, root):
    code, out, _err = run_cli(capsys, "verify", "--store", str(root), "--format", "structured")
    assert code == 1
    [failed] = [line for line in json.loads(out)["chains"] if line["status"] != "ok"]
    return failed


def test_verify_refuses_a_contract_deployed_again_over_itself(happy_store, capsys):
    chain = store.load_chain(happy_store / "private-driller")
    deployed = next(tx for block in chain.blocks for tx in block.transactions
                    if tx.function == "constructor")
    nonce = sum(tx.function == "constructor" for block in chain.blocks
                for tx in block.transactions)
    tip = chain.blocks[-1]
    ledger.append_block(chain, [deployed], tip.timestamp + 1)
    store.save_chain(happy_store, chain)
    failed = _verify_failure(capsys, happy_store)
    owed = runtime.contract_address(deployed.caller, nonce)
    assert (failed["chain"], failed["status"], failed["reason"]) == (
        "private-driller", f"REPLAY FAILED at block {tip.index + 1}",
        f"constructor does not replay: deploys at {deployed.contract.hex()},"
        f" its deployer's nonce {nonce} names {owed.hex()}")


def test_verify_refuses_a_contract_moved_with_its_events(happy_store, capsys):
    chain = store.load_chain(happy_store / "private-driller")
    block, deployed = next((block, tx) for block in chain.blocks for tx in block.transactions
                           if tx.function == "constructor")
    moved = b"\x11" * 20

    def move(tx):
        if tx.contract != deployed.contract:
            return tx
        return replace(tx, contract=moved, events=tuple(
            replace(e, emitter=moved) for e in tx.events))

    chain = replace(chain, blocks=[replace(b, transactions=tuple(map(move, b.transactions)))
                                   for b in chain.blocks])
    store.save_chain(happy_store, forgery.rehash(chain))
    failed = _verify_failure(capsys, happy_store)
    assert (failed["chain"], failed["status"], failed["reason"]) == (
        "private-driller", f"REPLAY FAILED at block {block.index}",
        f"constructor does not replay: deploys at {moved.hex()},"
        f" its deployer's nonce 0 names {deployed.contract.hex()}")


def test_verify_names_the_emitters_of_an_event_credited_to_another(happy_store, capsys):
    chain = store.load_chain(happy_store / "private-driller")
    block, tx = next((block, tx) for block in chain.blocks for tx in block.transactions
                     if tx.events)
    [event] = tx.events
    other = b"\x11" * 20
    _reseal(happy_store, chain, block.index, replace(block, transactions=tuple(
        replace(t, events=(replace(event, emitter=other),)) if t is tx else t
        for t in block.transactions)))
    failed = _verify_failure(capsys, happy_store)
    args = dict(event.args)
    assert (failed["chain"], failed["status"], failed["reason"]) == (
        "private-driller", f"REPLAY FAILED at block {block.index}",
        f"{tx.function} does not replay: emits {[(event.name, args, tx.contract.hex())]},"
        f" the record holds {[(event.name, args, other.hex())]}")


def test_verify_corrupt_store(happy_store, capsys):
    blocks = happy_store / "private-driller" / "blocks.jsonl"
    text = blocks.read_text()
    blocks.write_text(text.replace('"EnterOil"', '"EnterOil!"', 1))
    code, _out, err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [["verify"], ["trace", "101"]], ids=["verify", "trace"])
def test_unencodable_block_value_names_the_block(happy_store, capsys, argv):
    blocks = happy_store / "consortium" / "blocks.jsonl"
    lines = blocks.read_text().splitlines()
    record = json.loads(lines[2])
    record["timestamp"] += 0.5
    lines[2] = json.dumps(record, separators=(",", ":"))
    blocks.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *argv, "--store", str(happy_store))
    assert code == 1
    assert out == ""
    assert "first_bad_index=2" in err


@pytest.mark.parametrize("argv", [["verify"], ["trace", "101"]], ids=["verify", "trace"])
def test_a_validator_count_not_3f_plus_1_is_refused_naming_the_chain(happy_store, capsys,
                                                                    argv):
    manifest_file = happy_store / "consortium" / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["validators"] = manifest["validators"][:2]
    manifest_file.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, *argv, "--store", str(happy_store))
    assert code == 1
    assert out == ""
    assert err == "error: invalid manifest in consortium: validator count must be 3f+1, got 2\n"


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(b'"schema_version": 2', b'"schema_version": ' + b"7" * 5000),
    lambda text: text + b"\xff\xfe",
], ids=["schema-version-of-5000-digits", "not-utf-8"])
def test_unreadable_manifest_is_refused_naming_the_chain(happy_store, capsys, edit):
    manifest_file = happy_store / "private-driller" / "manifest.json"
    manifest_file.write_bytes(edit(manifest_file.read_bytes()))
    code, out, err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "manifest in private-driller" in err


def test_verify_names_a_resealed_minority_block(happy_store, capsys):
    # Re-seal the last consortium block under two of four signatures: every
    # hash and the manifest tip agree, so only the quorum check can object.
    validators = run_scenario_file(HAPPY).supply.topology.validators
    chain_dir = happy_store / "consortium"
    blocks = chain_dir / "blocks.jsonl"
    lines = blocks.read_text().splitlines()
    last = store.block_from_record(json.loads(lines[-1]))
    digest = ledger.candidate_digest(last.index, last.prev_hash, last.timestamp,
                                     last.transactions)
    minority = tuple(ledger.collect_endorsements(digest, validators[:2]))
    resealed = ledger.Block(last.index, last.prev_hash, last.timestamp, last.transactions,
                            minority, ledger.block_hash(digest, minority))
    lines[-1] = json.dumps(store.block_to_record(resealed), separators=(",", ":"))
    blocks.write_text("\n".join(lines) + "\n")
    manifest = json.loads((chain_dir / "manifest.json").read_text())
    manifest["tip_hash"] = resealed.hash.hex()
    (chain_dir / "manifest.json").write_text(json.dumps(manifest))

    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 1
    assert f"QUORUM FAILED at block {last.index}: 2 endorsements, need 3\n" in out
    assert out.count(" ok") == 5
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store),
                              "--format", "structured")
    assert code == 1
    chains = {c["chain"]: c for c in json.loads(out)["chains"]}
    assert chains["consortium"]["status"] == f"QUORUM FAILED at block {last.index}"
    assert chains["consortium"]["reason"] == "2 endorsements, need 3"


def test_verify_refuses_a_repeated_endorsement(happy_store, capsys):
    # a repeat of the first endorsement leaves every signature valid and,
    # re-sealed, every hash consistent, but makes the block hash malleable
    chain = store.load_chain(happy_store / "consortium")
    index = len(chain.blocks) // 2
    block = chain.blocks[index]
    _reseal(happy_store, chain, index,
            replace(block, endorsements=block.endorsements + block.endorsements[:1]))
    code, out, _err = run_cli(capsys, "verify", "--store", str(happy_store))
    assert code == 1
    repeated = identity.address_hex(block.endorsements[0].validator)
    assert f"QUORUM FAILED at block {index}: duplicate endorsement from {repeated}\n" in out


def test_verify_refuses_an_endorsement_edited_after_an_in_process_run(tmp_path, capsys):
    # the run's own signatures are still remembered by identity.sign in this
    # process; reading the store must verify every endorsement regardless
    supply = run_scenario_file(HAPPY).supply
    root = tmp_path / "store"
    store.save_store(root, supply.all_chains())
    chain = next(c for c in supply.all_chains() if c.chain_class is ledger.ChainClass.CONSORTIUM)
    index = len(chain.blocks) // 2
    block = chain.blocks[index]
    first, *rest = block.endorsements
    edited = replace(first, signature=first.signature[:-1] + bytes([first.signature[-1] ^ 1]))
    _reseal(root, chain, index, replace(block, endorsements=(edited, *rest)))
    code, out, _err = run_cli(capsys, "verify", "--store", str(root))
    assert code == 1
    signer = identity.address_hex(first.validator)
    assert f"QUORUM FAILED at block {index}: invalid endorsement signature from {signer}\n" in out
