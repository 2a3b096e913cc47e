"""The attack table: one row per forgery that a reader should refuse.

Rows A-C, F-H, J and K edit a saved `pressure_fault_hop2` store, J and K
with the consortium chain of a saved `happy_path` store; rows D and E forge on
a live `happy_path` run through the public `Runtime.deploy`, with no key beyond
the run's own, and save it. Each row's target is that every command it runs
exits 1 and names the forged chain; a closed row also names the failure each
command shows, `{erased}` standing for the first consortium block of the saved
store that holds an erased event. A row still open carries a strict xfail
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

VERIFY = ("verify",)
TRACE = ("trace", "101")


def lower_pressure(event) -> bool:
    return event.name == "PressureViolation" and str(event.arg("msg")).startswith("Lower")


def first_erased_block(faulted_store) -> int:
    """The first consortium block of the saved store holding a Lower Pressure event."""
    chain = store.load_chain(faulted_store / "consortium")
    return next(block.index for block in chain.blocks for tx in block.transactions
                if any(map(lower_pressure, tx.events)))


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


@on_the_saved_faulted_store
def cut_before_the_erased_block(root):
    chain = store.load_chain(root / "consortium")
    store.save_chain(root, forgery.truncate(chain, first_erased_block(root)))


@on_the_saved_faulted_store
def retime_from_the_erased_block(root):
    chain = store.load_chain(root / "consortium")
    store.save_chain(root, forgery.rehash(
        forgery.retime(chain, first_erased_block(root), 1000)))


@on_the_saved_faulted_store
def history_in_an_unsigned_block_0(root):
    chain = forgery.into_block_0(store.load_chain(root / "consortium"),
                                 lambda tx: not any(map(lower_pressure, tx.events)))
    store.save_chain(root, forgery.rehash(chain))


@on_a_live_happy_run
def fifth_hop_in_the_drillers_name(supply):
    driller, consumer = supply.actor(Role.DRILLER), supply.actor(Role.CONSUMER)
    # the product record goes on the driller's private chain in the driller's
    # name too, so the cross-chain check finds the hop's product where it looks
    product = supply.private_runtime(driller.address).deploy(
        "CheckProgress", {"data_source": consumer.address}, deployer=driller.address,
        annotations={"record": "product", "batch": "101", "hop": 5})
    supply.consortium_rt.deploy(
        "CheckProgress", {"data_source": consumer.address}, deployer=driller.address,
        annotations={"record": "tracking", "batch": "101", "hop": 5,
                     "seller": driller.address, "buyer": consumer.address,
                     "seller_role": "Driller", "buyer_role": "Consumer",
                     "predecessor": supply.batches["101"].hops[-1].tracking_contract,
                     "product": product})


def happy_store(root):
    """A saved `happy_path` store beside root; both bundled scenarios share a
    seed, so their validator sets are the same."""
    happy = root.parent / "happy"
    store.save_store(happy, run_scenario_file(SCENARIO_DIR / "happy_path.json")
                     .supply.all_chains())
    return happy


@on_the_saved_faulted_store
def happy_consortium_planted_beside(root):
    shutil.copytree(happy_store(root) / "consortium", root / "aaa")


@on_the_saved_faulted_store
def happy_consortium_swapped_in(root):
    shutil.rmtree(root / "consortium")
    shutil.copytree(happy_store(root) / "consortium", root / "consortium")


@on_a_live_happy_run
def second_distribution_contract(supply):
    pump = supply.actor(Role.PUMP).address
    supply.consortium_rt.deploy(
        "OilDistribution", {"driller": pump, "factory": pump, "storage": pump, "pump": pump},
        deployer=pump, annotations={"record": "distribution", "batch": "101"})


def closed(probe, forge, chain, failures):
    """A row every command refuses: `failures` maps each to what it shows."""
    return pytest.param(forge, chain, failures, id=probe)


def open_row(probe, forge, chain, commands, item):
    return pytest.param(forge, chain, dict.fromkeys(commands, ""), id=probe,
                        marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP {item}"))


ROWS = [
    closed("A-erase-and-resign-under-fresh-keys", erase_violations_under_fresh_keys,
           "consortium", {VERIFY: "REPLAY FAILED at block {erased}",
                          TRACE: "block {erased}: CheckPressure"}),
    closed("B-erase-and-rehash", erase_violations_keeping_endorsements,
           "consortium", {VERIFY: "QUORUM FAILED at block {erased}",
                          TRACE: "QUORUM FAILED at block {erased}"}),
    open_row("C-private-settlement-edited", settle_for_one, "private-refinery", [VERIFY],
             "item 4"),
    open_row("D-hop-deployed-in-anothers-name", fifth_hop_in_the_drillers_name,
             "consortium", [VERIFY, TRACE], "item 9"),
    open_row("E-second-distribution-contract", second_distribution_contract,
             "consortium", [VERIFY, TRACE], "item 9"),
    closed("F-consortium-cut-before-the-erased-block", cut_before_the_erased_block,
           "private-pump", dict.fromkeys([VERIFY, TRACE], "CROSS-CHAIN FAILED at block 1:"
                                                   " product of batch '101' hop 4")),
    closed("G-retimed-from-the-erased-block", retime_from_the_erased_block,
           "consortium", dict.fromkeys([VERIFY, TRACE], "QUORUM FAILED at block {erased}")),
    closed("H-history-in-an-unsigned-block-0", history_in_an_unsigned_block_0, "consortium",
           {VERIFY: "first_bad_index=0: block 0 is not the genesis block",
            TRACE: "first_bad_index=0: block 0 is not the genesis block"}),
    closed("J-happy-consortium-planted-beside", happy_consortium_planted_beside, "aaa",
           dict.fromkeys([VERIFY, TRACE], "aaa holds chain 'consortium',"
                                          " whose directory is consortium")),
    open_row("K-happy-consortium-swapped-in", happy_consortium_swapped_in, "consortium",
             [VERIFY, TRACE], "item 4"),
]


@pytest.fixture(scope="module")
def faulted_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("faulted") / "store"
    store.save_store(root, run_scenario_file(SCENARIO_DIR / "pressure_fault_hop2.json")
                     .supply.all_chains())
    return root


@pytest.mark.parametrize("forge,chain,failures", ROWS)
def test_forgery_is_refused(forge, chain, failures, faulted_store, tmp_path, capsys):
    root = tmp_path / "store"
    forge(root, faulted_store)
    erased = first_erased_block(faulted_store)
    outcomes = []
    for argv, failure in failures.items():
        failure = failure.format(erased=erased)
        code = main([*argv, "--store", str(root)])
        out, err = capsys.readouterr()
        lines = (err + out).splitlines()
        shown = next((line for line in lines if chain in line), lines[0])
        outcomes.append((" ".join(argv), code, chain in shown and failure in shown, shown))
    assert all(code == 1 and named for _, code, named, _ in outcomes), "\n".join(
        f"{argv}: exit {code}: {shown}" for argv, code, _, shown in outcomes)
