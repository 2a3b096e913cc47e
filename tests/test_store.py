"""Persistence: round trips, re-verification on load, refusal of altered files."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    JSON_VALUES,
    SCENARIO_DIR,
    build_random_chain,
    make_consortium,
    node_paths,
    with_node_replaced,
)
from oilchain import ledger, provenance, store
from oilchain.errors import CorruptLedger
from oilchain.scenario import parse_scenario, run_scenario, run_scenario_file


def saved_pair(tmp_path, rng_seed=31):
    rng = random.Random(rng_seed)
    private = build_random_chain(rng, 5)
    consortium = build_random_chain(rng, 4, consortium=True)
    store.save_store(tmp_path, [private, consortium])
    return private, consortium


def test_round_trip_preserves_blocks_and_tips(tmp_path):
    private, consortium = saved_pair(tmp_path)
    loaded = store.load_store(tmp_path)
    assert set(loaded) == {"private-scratch", "consortium"}
    assert loaded["private-scratch"].blocks == private.blocks
    assert loaded["consortium"].blocks == consortium.blocks
    assert loaded["private-scratch"].acl == private.acl
    assert loaded["consortium"].validators == consortium.validators
    assert loaded["consortium"].tip_hash == consortium.tip_hash
    assert ledger.verify_endorsement_quorum(loaded["consortium"])


def test_private_chains_whose_names_differ_by_the_prefix_keep_their_own_directories(tmp_path):
    owner = b"\x31" * 20
    chains = [ledger.new_private_chain(name, {owner}) for name in ("driller", "private-driller")]
    store.save_store(tmp_path, chains)
    loaded = store.load_store(tmp_path)
    assert set(loaded) == {"private-driller", "private-private-driller"}
    assert [loaded[store.chain_dir_name(c)].name for c in chains] == ["driller", "private-driller"]


def test_block_line_edit_is_refused_with_first_bad_index(tmp_path):
    saved_pair(tmp_path)
    blocks_file = tmp_path / "private-scratch" / "blocks.jsonl"
    lines = blocks_file.read_text().splitlines()
    record = json.loads(lines[3])
    record["timestamp"] += 1
    lines[3] = json.dumps(record, separators=(",", ":"))
    blocks_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLedger) as err:
        store.load_chain(tmp_path / "private-scratch")
    assert err.value.first_bad_index == 3


def test_hash_hex_digit_flip_is_refused(tmp_path):
    saved_pair(tmp_path)
    blocks_file = tmp_path / "consortium" / "blocks.jsonl"
    lines = blocks_file.read_text().splitlines()
    record = json.loads(lines[2])
    digit = record["hash"][0]
    record["hash"] = ("0" if digit != "0" else "1") + record["hash"][1:]
    lines[2] = json.dumps(record, separators=(",", ":"))
    blocks_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLedger) as err:
        store.load_chain(tmp_path / "consortium")
    assert err.value.first_bad_index == 2


def test_unencodable_value_is_refused_at_its_block(tmp_path):
    # A float parses as JSON but has no canonical encoding, so the block's
    # hash cannot be recomputed; the block is bad, not the loader.
    saved_pair(tmp_path)
    blocks_file = tmp_path / "consortium" / "blocks.jsonl"
    lines = blocks_file.read_text().splitlines()
    record = json.loads(lines[2])
    record["timestamp"] += 0.5
    lines[2] = json.dumps(record, separators=(",", ":"))
    blocks_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLedger) as err:
        store.load_chain(tmp_path / "consortium")
    assert err.value.first_bad_index == 2


@pytest.mark.parametrize("edit,reason", [
    (lambda record: record.update(index=record["index"] + 5), "index out of order"),
    (lambda record: record.update(prev_hash="00" * 32), "prev_hash does not link"),
    (lambda record: record.update(timestamp=record["timestamp"] + 0.5),
     "contents not encodable"),
    (lambda record: record.update(timestamp=record["timestamp"] + 1), "hash does not match"),
], ids=["index", "prev_hash", "unencodable", "hash"])
def test_refusal_names_the_check_that_failed(tmp_path, edit, reason):
    saved_pair(tmp_path)
    blocks_file = tmp_path / "consortium" / "blocks.jsonl"
    lines = blocks_file.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record, separators=(",", ":"))
    blocks_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLedger, match=f"failed verification, first_bad_index=2: {reason}$"):
        store.load_chain(tmp_path / "consortium")


def test_truncated_json_line_is_refused(tmp_path):
    saved_pair(tmp_path)
    blocks_file = tmp_path / "private-scratch" / "blocks.jsonl"
    text = blocks_file.read_text()
    blocks_file.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptLedger):
        store.load_chain(tmp_path / "private-scratch")


@pytest.mark.parametrize("bad_line", [
    b'{"index":2,"prev_hash"',
    b'{"index":2}',
    b'[2]',
    b'{"index":2,"prev_hash":"zz"}',
    b'"\xff\xfe"',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["cut-short", "fields-missing", "not-an-object", "non-hex", "not-utf-8",
        "nested-too-deeply"])
def test_unreadable_block_record_names_its_line(tmp_path, bad_line):
    saved_pair(tmp_path)
    blocks_file = tmp_path / "consortium" / "blocks.jsonl"
    lines = blocks_file.read_bytes().splitlines()
    # a blank line counts: the bad record is line 4 of the file
    lines[1:3] = [lines[1], b"", bad_line]
    blocks_file.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorruptLedger,
                       match=r"^unreadable block record in consortium line 4: "):
        store.load_chain(tmp_path / "consortium")


def test_manifest_tip_mismatch_is_refused(tmp_path):
    saved_pair(tmp_path)
    manifest_file = tmp_path / "consortium" / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["tip_hash"] = "00" * 32
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(CorruptLedger):
        store.load_chain(tmp_path / "consortium")


@pytest.mark.parametrize("edit", [
    lambda m: [m],
    lambda m: {k: v for k, v in m.items() if k != "name"},
    lambda m: {**m, "acl": ["not-hex"]},
    lambda m: {**m, "class": "Oracle"},
    lambda m: {**m, "schema_version": 9},
], ids=["list", "no-name", "non-hex-acl", "unknown-class", "schema-version"])
def test_malformed_manifest_is_refused_naming_the_directory(tmp_path, edit):
    saved_pair(tmp_path)
    manifest_file = tmp_path / "private-scratch" / "manifest.json"
    manifest_file.write_text(json.dumps(edit(json.loads(manifest_file.read_text()))))
    with pytest.raises(CorruptLedger) as err:
        store.load_chain(tmp_path / "private-scratch")
    assert "private-scratch" in str(err.value)


def test_deleted_trailing_block_is_refused_via_tip(tmp_path):
    # Dropping the newest block keeps every hash consistent; the manifest tip
    # is what catches the rollback.
    saved_pair(tmp_path)
    blocks_file = tmp_path / "consortium" / "blocks.jsonl"
    lines = blocks_file.read_text().splitlines()
    blocks_file.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CorruptLedger):
        store.load_chain(tmp_path / "consortium")


def test_missing_store_and_empty_store_raise(tmp_path):
    with pytest.raises(CorruptLedger):
        store.load_store(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorruptLedger):
        store.load_store(empty)


def test_endorsements_survive_round_trip_for_quorum_check(tmp_path):
    chain, validators = make_consortium(4)
    txs = [ledger.Transaction(caller=b"\x01" * 20, contract=b"\x02" * 20,
                              function="EnterOil", args=b"\x05", gas_used=35368)]
    ledger.append_block(chain, txs, 1, lambda d: ledger.collect_endorsements(d, validators))
    # a block sealed before commit certificates carries every validator's endorsement
    digest = ledger.candidate_digest(2, chain.tip_hash, 2, txs)
    every = tuple(ledger.collect_endorsements(digest, validators))
    chain.blocks.append(ledger.Block(2, chain.tip_hash, 2, tuple(txs), every,
                                     ledger.block_hash(digest, every)))
    store.save_chain(tmp_path, chain)
    loaded = store.load_chain(tmp_path / "consortium")
    assert [len(b.endorsements) for b in loaded.blocks[1:]] == [3, 4]
    assert ledger.verify_endorsement_quorum(loaded)


def test_load_and_quorum_check_digest_each_block_once(tmp_path, monkeypatch):
    result = run_scenario_file(SCENARIO_DIR / "pressure_fault_hop2.json")
    store.save_store(tmp_path, result.supply.all_chains())
    calls = []
    digest = ledger.candidate_digest
    monkeypatch.setattr(ledger, "candidate_digest",
                        lambda *args: calls.append(args) or digest(*args))
    loaded = store.load_store(tmp_path)
    assert all(ledger.verify_endorsement_quorum(chain) for chain in loaded.values())
    assert len(calls) == sum(len(chain) for chain in loaded.values())


def test_saving_over_a_store_removes_chains_it_no_longer_holds(tmp_path):
    doc = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
    doc["topology"]["roles"].append("OtherFactory")
    wider = run_scenario(parse_scenario(doc))
    store.save_store(tmp_path, wider.supply.all_chains())
    assert (tmp_path / "private-otherfactory" / "manifest.json").exists()
    (tmp_path / "notes").mkdir()
    (tmp_path / "report.json").write_text("{}")

    result = run_scenario_file(SCENARIO_DIR / "happy_path.json")
    store.save_store(tmp_path, result.supply.all_chains())
    loaded = store.load_store(tmp_path)
    assert set(loaded) == {store.chain_dir_name(c) for c in result.supply.all_chains()}
    assert not (tmp_path / "private-otherfactory").exists()
    assert (tmp_path / "notes").is_dir()
    assert (tmp_path / "report.json").read_text() == "{}"


# --- any single edit of a stored block ----------------------------------------------

@pytest.fixture(scope="module")
def happy_path_store(tmp_path_factory):
    """(root, tips, batch 101's trace, every (chain dir, line, key path) of a block value)."""
    root = tmp_path_factory.mktemp("happy-path-store")
    result = run_scenario_file(SCENARIO_DIR / "happy_path.json")
    store.save_store(root, result.supply.all_chains())
    tips = {store.chain_dir_name(c): c.tip_hash for c in result.supply.all_chains()}
    trace = provenance.build_report(result.supply.consortium_chain, "101").to_dict()
    nodes = [
        (directory.name, line, path)
        for directory in sorted(p for p in root.iterdir() if p.is_dir())
        for line, text in enumerate((directory / "blocks.jsonl").read_text().splitlines())
        for path in node_paths(json.loads(text))
        if path
    ]
    return root, tips, trace, nodes


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_one_block_value_replaced_is_refused_or_changes_nothing(happy_path_store, data):
    root, tips, trace, nodes = happy_path_store
    chain_dir, line, path = data.draw(st.sampled_from(nodes))
    value = data.draw(JSON_VALUES)
    blocks_file = root / chain_dir / "blocks.jsonl"
    original = blocks_file.read_text()
    lines = original.splitlines()
    lines[line] = json.dumps(with_node_replaced(json.loads(lines[line]), path, value))
    blocks_file.write_text("\n".join(lines) + "\n")
    try:
        loaded = store.load_store(root)
    except CorruptLedger:
        return
    finally:
        blocks_file.write_text(original)
    assert {name: chain.tip_hash for name, chain in loaded.items()} == tips
    assert provenance.build_report(loaded["consortium"], "101").to_dict() == trace
