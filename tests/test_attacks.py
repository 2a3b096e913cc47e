"""The attack table: one row per forgery that a reader should refuse.

Rows A-C edit a saved `pressure_fault_hop2` store; rows D and E forge on a
live `happy_path` run through the public `Runtime.deploy`, with no key beyond
the run's own, and save it. Each row's target is that every command it runs
exits 1 and names the forged chain. A row still open carries a strict xfail
naming the ROADMAP item that closes it, and its failure message shows what
each command does today.
"""

from __future__ import annotations

import shutil

import pytest

import forgery
from conftest import SCENARIO_DIR
from oilchain import identity, store
from oilchain.cli import main
from oilchain.identity import Role
from oilchain.scenario import run_scenario_file
from oilchain.workflow import SETTLEMENT_FUNCTION

VERIFY = ["verify"]
TRACE = ["trace", "101"]


def lower_pressure(event) -> bool:
    return event.name == "PressureViolation" and str(event.arg("msg")).startswith("Lower")


def on_the_saved_faulted_store(edit):
    def forge(root, faulted_store):
        shutil.copytree(faulted_store, root)
        edit(root)
    return forge


def on_a_live_happy_run(edit):
    def forge(root, _faulted_store):
        supply = run_scenario_file(SCENARIO_DIR / "happy_path.json").supply
        edit(supply)
        store.save_store(root, supply.all_chains())
    return forge


@on_the_saved_faulted_store
def erase_violations_under_fresh_keys(root):
    chain = forgery.drop_events(store.load_chain(root / "consortium"), lower_pressure)
    store.save_chain(root, forgery.rehash(
        chain, [identity.generate_device(f"forger:{i}", 1) for i in range(4)]))


@on_the_saved_faulted_store
def erase_violations_keeping_endorsements(root):
    chain = forgery.drop_events(store.load_chain(root / "consortium"), lower_pressure)
    store.save_chain(root, forgery.rehash(chain))


@on_the_saved_faulted_store
def settle_for_one(root):
    chain = forgery.edit_records(store.load_chain(root / "private-refinery"),
                                 SETTLEMENT_FUNCTION, lambda r: {**r, "amount": 1})
    store.save_chain(root, forgery.rehash(chain))


@on_a_live_happy_run
def fifth_hop_in_the_drillers_name(supply):
    driller, consumer = supply.actor(Role.DRILLER), supply.actor(Role.CONSUMER)
    supply.consortium_rt.deploy(
        "CheckProgress", {"data_source": consumer.address}, deployer=driller.address,
        annotations={"record": "tracking", "batch": "101", "hop": 5,
                     "seller": driller.address, "buyer": consumer.address,
                     "seller_role": "Driller", "buyer_role": "Consumer",
                     "predecessor": supply.batches["101"].hops[-1].tracking_contract,
                     "product": bytes(20)})


@on_a_live_happy_run
def second_distribution_contract(supply):
    pump = supply.actor(Role.PUMP).address
    supply.consortium_rt.deploy(
        "OilDistribution", {"driller": pump, "factory": pump, "storage": pump, "pump": pump},
        deployer=pump, annotations={"record": "distribution", "batch": "101"})


def row(probe, forge, chain, commands, item):
    return pytest.param(forge, chain, commands, id=probe, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP {item}"))


ROWS = [
    row("A-erase-and-resign-under-fresh-keys", erase_violations_under_fresh_keys,
        "consortium", [VERIFY, TRACE], "items 3, 5"),
    row("B-erase-and-rehash", erase_violations_keeping_endorsements,
        "consortium", [VERIFY, TRACE], "items 3, 5"),
    row("C-private-settlement-edited", settle_for_one, "private-refinery", [VERIFY], "item 4"),
    row("D-hop-deployed-in-anothers-name", fifth_hop_in_the_drillers_name,
        "consortium", [VERIFY, TRACE], "item 9"),
    row("E-second-distribution-contract", second_distribution_contract,
        "consortium", [VERIFY, TRACE], "item 9"),
]


@pytest.fixture(scope="module")
def faulted_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("faulted") / "store"
    store.save_store(root, run_scenario_file(SCENARIO_DIR / "pressure_fault_hop2.json")
                     .supply.all_chains())
    return root


@pytest.mark.parametrize("forge,chain,commands", ROWS)
def test_forgery_is_refused(forge, chain, commands, faulted_store, tmp_path, capsys):
    root = tmp_path / "store"
    forge(root, faulted_store)
    outcomes = []
    for argv in commands:
        code = main([*argv, "--store", str(root)])
        out, err = capsys.readouterr()
        lines = (err + out).splitlines()
        shown = next((line for line in lines if chain in line), lines[0])
        outcomes.append((" ".join(argv), code, chain in err + out, shown))
    assert all(code == 1 and named for _, code, named, _ in outcomes), "\n".join(
        f"{argv}: exit {code}: {shown}" for argv, code, _, shown in outcomes)
