"""The cross-chain check of `oilchain.audit`: what the private chains hold is
what the consortium chain's tracking records name, on every read path.

Each edit below needs no key: private chains are unsigned, and a chain
directory can be removed or re-saved under another role's name.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

import forgery
from conftest import SCENARIO_DIR
from oilchain import identity, ledger, store
from oilchain.cli import main
from oilchain.scenario import report_to_json, run_scenario_file
from oilchain.workflow import SETTLEMENT_FUNCTION


@pytest.fixture(scope="module")
def faulted_store(tmp_path_factory):
    """A saved `pressure_fault_hop2` store, with its run report."""
    root = tmp_path_factory.mktemp("faulted") / "store"
    result = run_scenario_file(SCENARIO_DIR / "pressure_fault_hop2.json")
    store.save_store(root, result.supply.all_chains())
    (root / "report.json").write_text(report_to_json(result.report))
    return root


def drop_the_storage_chain(root):
    shutil.rmtree(root / "private-storage")


def swap_the_storage_and_pump_chains(root):
    storage, pump = (store.load_chain(root / name) for name in ("private-storage",
                                                                "private-pump"))
    store.save_chain(root, replace(storage, name="pump"))
    store.save_chain(root, replace(pump, name="storage"))


def drop_a_settlements_hop(root):
    chain = forgery.edit_records(store.load_chain(root / "private-refinery"),
                                 SETTLEMENT_FUNCTION,
                                 lambda r: {k: v for k, v in r.items() if k != "hop"})
    store.save_chain(root, forgery.rehash(chain))


@pytest.mark.parametrize("edit,chain,reason", [
    (drop_the_storage_chain, "consortium",
     "tracking record of batch '101' hop 3 names product {product}, which private-storage"
     " does not deploy"),
    (swap_the_storage_and_pump_chains, "private-pump",
     "product of batch '101' hop 3 ({product}) is tracked on consortium as private-storage's"),
    (drop_a_settlements_hop, "private-refinery", "settlement record names no batch and hop"),
], ids=["private-chain-dropped", "private-chains-swapped", "settlement-without-its-hop"])
def test_a_private_chain_out_of_step_with_the_consortium_is_refused(
        edit, chain, reason, faulted_store, tmp_path, capsys):
    root = tmp_path / "store"
    shutil.copytree(faulted_store, root)
    report = json.loads((faulted_store / "report.json").read_text())
    reason = reason.format(product=report["batches"][0]["hops"][2]["product_contract"])
    edit(root)

    assert main(["verify", "--store", str(root), "--format", "structured"]) == 1
    failed = {line["chain"]: line for line in json.loads(capsys.readouterr().out)["chains"]
              if line["status"] != "ok"}
    assert failed[chain]["status"].startswith("CROSS-CHAIN FAILED at block ")
    assert failed[chain]["reason"] == reason
    assert main(["trace", "101", "--store", str(root)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    first = min(failed)
    assert err == f"error: {first}: {failed[first]['status']}: {failed[first]['reason']}\n"


def test_trace_refuses_a_store_without_a_consortium_chain(tmp_path, capsys):
    owner = identity.generate_device("owner", 1).address
    store.save_store(tmp_path, [ledger.new_private_chain("driller", {owner})])
    assert main(["trace", "101", "--store", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: store holds no consortium chain\n"
