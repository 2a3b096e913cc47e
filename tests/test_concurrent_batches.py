"""Batches in flight together: one block per chain per step across every batch."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SCENARIO_DIR, ed25519_verifies, pbkdf2_derivations, three_batch_doc
from oilchain import identity, runtime, store, telemetry
from oilchain.cli import main
from oilchain.encoding import canon_decode
from oilchain.provenance import batch_text
from oilchain.scenario import build_run_report, parse_scenario, run_scenario
from oilchain.workflow import SETTLEMENT_FUNCTION

HAPPY_DOC = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
FAULTED_DOC = json.loads((SCENARIO_DIR / "pressure_fault_hop2.json").read_text())
DELIVERIES = {"readyToFactory", "readyToStorage", "oilInOilStorage", "pumpSoldOil"}


def with_batches(doc: dict, batches: list[dict]) -> dict:
    doc = copy.deepcopy(doc)
    doc["batches"] = batches
    return doc


def clones(doc: dict, count: int) -> dict:
    """The document with its batch cloned `count` times as batches 101, 102, ..."""
    batches = []
    for i in range(count):
        batch = copy.deepcopy(doc["batches"][0])
        batch["batch_id"] = str(101 + i)
        batches.append(batch)
    return with_batches(doc, batches)


# --- block and signature counts ---------------------------------------------------------

@pytest.mark.parametrize("count", [1, 3])
def test_same_shape_batches_share_every_consortium_block(count, monkeypatch):
    one_batch = len(run_scenario(parse_scenario(HAPPY_DOC)).supply.consortium_chain)
    signs = 0
    sign = identity.sign

    def counted_sign(*args, **kwargs):
        nonlocal signs
        signs += 1
        return sign(*args, **kwargs)

    monkeypatch.setattr(identity, "sign", counted_sign)
    scenario = parse_scenario(clones(HAPPY_DOC, count))
    chain = run_scenario(scenario).supply.consortium_chain
    assert len(chain) == one_batch
    # 2f+1 = 3 of the 4 validators sign each block, none silent or Byzantine
    acceptances = sum(hop.accept_method == "signature"
                      for batch in scenario.batches for hop in batch.hops)
    assert signs == 3 * (len(chain) - 1) + acceptances


@pytest.mark.parametrize("count", [1, 12])
def test_a_run_derives_no_passphrase_and_verifies_no_acceptance(count):
    scenario = parse_scenario(clones(HAPPY_DOC, count))
    with pbkdf2_derivations() as derivations, ed25519_verifies() as verifies:
        run_scenario(scenario)
    # one passphrase hop per batch, accepted with the passphrase its credential
    # was made from; its 3 signature acceptances are the run's own signatures
    assert derivations.call_count == 0
    assert verifies.call_count == 0


def test_a_second_run_in_one_process_derives_no_passphrase_either():
    scenario = parse_scenario(HAPPY_DOC)
    run_scenario(scenario)
    with pbkdf2_derivations() as derivations:
        run_scenario(scenario)
    assert derivations.call_count == 0


def test_run_path_work_per_batch_stays_flat(monkeypatch):
    """Same-shape batches cost the run the same work each, counted not timed.

    Signs per batch are not flat and are not asserted: batches share blocks,
    so each block's 3 endorsements are spread over more batches.
    """
    execute = runtime.Runtime._execute
    per_count = {}
    for count in (3, 12):
        calls = 0

        def counted_execute(*args, **kwargs):
            nonlocal calls
            calls += 1
            return execute(*args, **kwargs)

        monkeypatch.setattr(runtime.Runtime, "_execute", counted_execute)
        scenario = parse_scenario(clones(HAPPY_DOC, count))
        with pbkdf2_derivations() as derivations:
            chain = run_scenario(scenario).supply.consortium_chain
        per_count[count] = (derivations.call_count, calls / count, len(chain))
    assert per_count[3] == per_count[12]
    assert per_count[3][0] == 0


# --- together equals alone --------------------------------------------------------------

_ADDRESSES = {"product_contract", "tracking_contract", "predecessor"}


def without_addresses(batch: dict) -> dict:
    """A run report batch with its contract addresses taken out: what the batch
    saw, violated and settled, and at which ticks, whatever ran beside it."""
    batch = copy.deepcopy(batch)
    for hop in batch["hops"]:
        for key in _ADDRESSES:
            del hop[key]
    return batch


def settlements_of(report: dict, batch_id: str) -> list[dict]:
    return [s for s in report["settlements"] if s["batch_id"] == batch_id]


@st.composite
def varied_clones(draw) -> dict:
    """1-3 clones of `pressure_fault_hop2`'s batch, each hop with its own
    duration, fault window and accept method."""
    batches = []
    for i in range(draw(st.integers(1, 3))):
        batch = copy.deepcopy(FAULTED_DOC["batches"][0])
        batch["batch_id"] = str(101 + i)
        for j, hop in enumerate(batch["hops"]):
            duration = draw(st.integers(2, 9))
            hop["telemetry"]["duration"] = duration
            for fault in hop["telemetry"].get("faults", []):
                fault["start"] = draw(st.integers(0, duration - 1))
                fault["end"] = draw(st.integers(fault["start"], duration - 1))
            if draw(st.booleans()):
                hop["accept"] = {"method": "passphrase", "passphrase": f"gate-{i}-{j}"}
        batches.append(batch)
    return with_batches(FAULTED_DOC, batches)


@settings(max_examples=6, deadline=None)
@given(varied_clones())
def test_a_batch_run_together_reports_what_it_reports_alone(doc):
    together = run_scenario(parse_scenario(doc)).report
    for batch, entry in zip(doc["batches"], together["batches"]):
        alone = run_scenario(parse_scenario(with_batches(doc, [batch]))).report
        assert without_addresses(entry) == without_addresses(alone["batches"][0])
        assert settlements_of(together, batch["batch_id"]) == \
               settlements_of(alone, batch["batch_id"])


# --- a store whose blocks mix batches, through every read path ---------------------------

def cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def mixed_store(tmp_path_factory):
    """(store root, run report) of `three_batch_doc` saved by `oilchain run`."""
    root = tmp_path_factory.mktemp("mixed")
    (root / "three.json").write_text(json.dumps(three_batch_doc()))
    code, _ = cli("run", str(root / "three.json"), "--store", str(root / "store"))
    assert code == 0
    return root / "store", json.loads((root / "store" / "report.json").read_text())


def test_the_mixed_store_mixes_batches_within_blocks(mixed_store):
    root, report = mixed_store
    consortium = store.load_chain(root / "consortium")
    owner = {bytes.fromhex(hop[key][2:]): batch["batch_id"]
             for batch in report["batches"] for hop in batch["hops"]
             for key in ("product_contract", "tracking_contract")}
    checks = set(telemetry.CHECK_FUNCTION.values())
    mixed = set()
    for block in consortium.blocks:
        by_kind: dict[str, set] = {}
        for tx in block.transactions:
            kind = ("deploy" if tx.function == "constructor" else
                    "check" if tx.function in checks else
                    "delivery" if tx.function in DELIVERIES else "other")
            # a deployment's batch is in its annotations
            batch = (canon_decode(tx.args)["meta"]["batch"] if kind == "deploy"
                     else owner.get(tx.contract))
            by_kind.setdefault(kind, set()).add(batch)
        for kind in ("deploy", "delivery"):
            if by_kind.get(kind) and by_kind.get("check") and \
                    len(by_kind[kind] | by_kind["check"]) > 1:
                mixed.add(kind)
    assert mixed == {"deploy", "delivery"}


def test_verify_passes_the_mixed_store(mixed_store):
    root, _ = mixed_store
    code, out = cli("verify", "--store", str(root), "--format", "structured")
    assert code == 0
    assert {line["status"] for line in json.loads(out)["chains"]} == {"ok"}


@pytest.mark.parametrize("batch_id", ["101", "102", "103"])
def test_trace_of_each_batch_equals_its_run_report_entry(mixed_store, batch_id):
    root, report = mixed_store
    [batch] = [b for b in report["batches"] if b["batch_id"] == batch_id]
    code, out = cli("trace", batch_id, "--store", str(root), "--format", "structured")
    assert code == 0
    trace = json.loads(out)
    assert {k: trace[k] for k in ("batch_id", "clean", "violation_totals")} == \
           {k: batch[k] for k in ("batch_id", "clean", "violation_totals")}
    assert trace["hops"] == [{k: hop[k] for k in trace_hop}
                             for hop, trace_hop in zip(batch["hops"], trace["hops"])]
    assert cli("trace", batch_id, "--store", str(root)) == \
           (0, "\n".join(batch_text(batch)) + "\n")


def test_trace_replays_only_the_contracts_of_its_batch(mixed_store, monkeypatch):
    root, report = mixed_store
    replayed = []
    replay = runtime.replay

    def spy(chain, contracts):
        replayed.append(set(contracts))
        return replay(chain, contracts)

    monkeypatch.setattr(runtime, "replay", spy)
    assert cli("trace", "102", "--store", str(root))[0] == 0
    [batch] = [b for b in report["batches"] if b["batch_id"] == "102"]
    tracking = {bytes.fromhex(hop["tracking_contract"][2:]) for hop in batch["hops"]}
    distribution = next(
        tx.contract for block in store.load_chain(root / "consortium").blocks
        for tx in block.transactions if tx.function == "constructor"
        and canon_decode(tx.args).get("meta") == {"record": "distribution", "batch": "102"})
    assert replayed == [tracking | {distribution}]


def test_a_settlement_sharing_a_private_block_with_another_batch_is_reported(mixed_store):
    root, report = mixed_store
    chains = list(store.load_store(root).values())
    batch_of = {bytes.fromhex(hop["product_contract"][2:]): batch["batch_id"]
                for batch in report["batches"] for hop in batch["hops"]}
    shared = []
    for chain in chains:
        for block in chain.blocks:
            settled = [canon_decode(tx.args) for tx in block.transactions
                       if tx.function == SETTLEMENT_FUNCTION]
            fed = {batch_of[tx.contract] for tx in block.transactions
                   if tx.function == telemetry.RECORD_FUNCTION}
            shared += [(s, block.timestamp) for s in settled if fed - {s["batch"]}]
    assert shared
    rebuilt = build_run_report(parse_scenario(three_batch_doc()),
                               types.SimpleNamespace(all_chains=lambda: chains), 42, 2291.0)
    assert rebuilt == report
    ticks = {(s["batch_id"], s["hop"]): s["tick"] for s in report["settlements"]}
    for settlement, tick in shared:
        assert ticks[settlement["batch"], settlement["hop"]] == tick
        [batch] = [b for b in report["batches"] if b["batch_id"] == settlement["batch"]]
        assert batch["hops"][settlement["hop"] - 1]["settlement_tick"] == tick
