"""Backward trace: linkage walk, violation attribution, corrupted link detection."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import standard_terms
from oilchain import identity, provenance, telemetry
from oilchain.encoding import canon_decode, canon_encode
from oilchain.errors import CorruptLedger, UnknownBatch
from oilchain.identity import Role
from oilchain.provenance import build_report, build_reports
from oilchain.runtime import contract_address
from oilchain.telemetry import FaultSpec, ReadingKind, SensorProfile
from test_acceptance import scan_trace_oracle


def run_hops(supply, setpoints, count=2, feed_ticks=0, fault=None, batch_id="101"):
    batch = supply.register_batch(batch_id, "Petrol", setpoints)
    pairs = [(Role.DRILLER, Role.REFINERY), (Role.REFINERY, Role.STORAGE),
             (Role.STORAGE, Role.PUMP), (Role.PUMP, Role.CONSUMER)]
    for seller, buyer in pairs[:count]:
        hop = supply.initiate_hop(batch, seller, buyer, standard_terms(setpoints))
        signature = identity.sign(supply.accept_digest(hop), hop.buyer.private_key)
        supply.accept_shipment(hop, signature)
        if feed_ticks:
            profile = SensorProfile(duration=feed_ticks, setpoints={
                ReadingKind.TEMPERATURE: setpoints.temperature,
                ReadingKind.HUMIDITY: setpoints.humidity,
                ReadingKind.PRESSURE: setpoints.pressure,
            })
            readings = telemetry.generate_readings(profile, seed=3,
                                                   source=hop.data_address)
            if fault and hop.index == fault[0]:
                readings = telemetry.inject_fault(readings, fault[1])
            supply.feed(hop, readings)
        supply.deliver(hop)
    return batch


def test_report_reconstructs_hops_in_order(supply, setpoints):
    batch = run_hops(supply, setpoints, count=4, feed_ticks=2)
    report = build_report(supply.consortium_chain, "101")
    assert report.batch_id == "101"
    assert report.clean
    assert [h.index for h in report.hops] == [1, 2, 3, 4]
    assert [h.seller_role for h in report.hops] == [
        "Driller", "Refinery", "Storage", "Pump"]
    assert report.hops[0].predecessor is None
    for prev, hop in zip(report.hops, report.hops[1:]):
        assert hop.predecessor == prev.tracking_contract
    assert all(h.accurate_readings == 6 for h in report.hops)
    assert report.violation_totals == {"Temperature": 0, "Humidity": 0,
                                       "Pressure": 0}

    names = [e.name for h in report.hops for e in h.distribution_events]
    assert names == ["InitiateDist", "FactoryDistribution",
                     "StorageWholesale", "PumpOilSold"]
    sale = report.hops[3].distribution_events[0]
    assert sale.message == "Oil has been Sold at the Pump."
    assert sale.actor == identity.address_hex(supply.actor(Role.PUMP).address)


def test_one_scan_equals_one_report_per_batch(supply, setpoints):
    run_hops(supply, setpoints, count=2)
    fault = FaultSpec(ReadingKind.PRESSURE, 0, 1, +4)
    run_hops(supply, setpoints, count=3, feed_ticks=2, fault=(1, fault), batch_id="102")
    chain = supply.consortium_chain
    together = build_reports(chain, ["102", "101"])
    assert [r.to_dict() for r in together] == [
        build_report(chain, "102").to_dict(), build_report(chain, "101").to_dict()]
    assert [r.clean for r in together] == [False, True]
    with pytest.raises(UnknownBatch):
        build_reports(chain, ["101", "103"])


def test_one_batch_trace_decodes_only_its_own_deployments(supply, setpoints, monkeypatch):
    decoded = []
    decode = provenance.canon_decode
    monkeypatch.setattr(provenance, "canon_decode",
                        lambda data: decoded.append(data) or decode(data))
    counts = []
    for batch_id in ("101", "102", "103", "104", "105", "106"):
        run_hops(supply, setpoints, count=4, batch_id=batch_id)
        if batch_id in ("104", "106"):
            decoded.clear()
            assert len(build_report(supply.consortium_chain, "102").hops) == 4
            counts.append(len(decoded))
    # the distribution contract and four tracking contracts, however many batches
    assert counts == [5, 5]


def test_batch_ids_that_contain_each_other_trace_apart(supply, setpoints):
    ids = ["1", "10", "101", "0101"]
    fault = FaultSpec(ReadingKind.PRESSURE, 0, 1, +4)
    for count, batch_id in enumerate(ids, start=1):
        run_hops(supply, setpoints, count=count, feed_ticks=2,
                 fault=(count, fault), batch_id=batch_id)
    chain = supply.consortium_chain
    together = build_reports(chain, ids)
    for batch_id, joint in zip(ids, together):
        report = build_report(chain, batch_id)
        assert report.to_dict() == joint.to_dict()
        oracle = scan_trace_oracle(chain, batch_id)
        assert [h.index for h in report.hops] == sorted(oracle)
        for summary in report.hops:
            expected = oracle[summary.index]
            assert summary.tracking_contract == identity.address_hex(expected["tracking"])
            assert summary.accurate_readings == expected["accurate"]
            assert [(v.kind, v.stage, v.tick, v.message)
                    for v in summary.violations] == expected["violations"]
    assert [len(r.hops) for r in together] == [1, 2, 3, 4]
    assert [r.violation_totals["Pressure"] for r in together] == [2, 2, 2, 2]


def test_violations_attributed_to_the_faulted_hop(supply, setpoints):
    fault = FaultSpec(ReadingKind.PRESSURE, 1, 3, -2)
    run_hops(supply, setpoints, count=3, feed_ticks=6, fault=(2, fault))
    report = build_report(supply.consortium_chain, "101")
    assert not report.clean
    assert report.violation_totals == {"Temperature": 0, "Humidity": 0,
                                       "Pressure": 3}
    assert [len(h.violations) for h in report.hops] == [0, 3, 0]
    for entry in report.hops[1].violations:
        assert entry.kind == "Pressure"
        assert entry.stage == "Low"
        assert entry.message == "Lower Pressure"
    ticks = [v.tick for v in report.hops[1].violations]
    assert ticks == sorted(ticks)
    # accurate readings exclude the three faulted ones
    assert report.hops[1].accurate_readings == 18 - 3


def test_unknown_batch(supply, setpoints):
    with pytest.raises(UnknownBatch):
        build_report(supply.consortium_chain, "101")
    run_hops(supply, setpoints, count=1)
    with pytest.raises(UnknownBatch):
        build_report(supply.consortium_chain, "102")


def deploy_tracking(supply, batch_id, hop, predecessor, seller_role="Driller",
                    buyer_role="Refinery"):
    driller = supply.actor(Role.DRILLER)
    return supply.consortium_rt.deploy(
        "CheckProgress",
        {"data_source": driller.address},
        deployer=driller.address,
        annotations={
            "record": "tracking", "batch": batch_id, "hop": hop,
            "seller": driller.address, "buyer": driller.address,
            "seller_role": seller_role, "buyer_role": buyer_role,
            "predecessor": predecessor, "product": b"\x01" * 20,
        },
    )


def test_broken_predecessor_link_is_corrupt(supply):
    deploy_tracking(supply, "666", 1, predecessor=b"\xaa" * 20)
    with pytest.raises(CorruptLedger):
        build_report(supply.consortium_chain, "666")


def test_forked_linkage_is_corrupt(supply):
    first = deploy_tracking(supply, "666", 1, predecessor=b"")
    deploy_tracking(supply, "666", 2, predecessor=first)
    deploy_tracking(supply, "666", 3, predecessor=first)
    with pytest.raises(CorruptLedger):
        build_report(supply.consortium_chain, "666")


def test_cyclic_linkage_is_corrupt(supply):
    # contract addresses are deterministic, so a forward reference can close
    # a two-hop cycle
    driller = supply.actor(Role.DRILLER)
    second_address = contract_address(driller.address, 1)
    first = deploy_tracking(supply, "666", 1, predecessor=second_address)
    second = deploy_tracking(supply, "666", 2, predecessor=first)
    assert second == second_address
    with pytest.raises(CorruptLedger):
        build_report(supply.consortium_chain, "666")


def _without_product(args: bytes) -> bytes:
    record = canon_decode(args)
    del record["meta"]["product"]
    return canon_encode(record)


def _edit_event(tx, edit_args):
    event = tx.events[0]
    return replace(tx, events=(replace(event, args=edit_args(event.args)),) + tx.events[1:])


def _tracking_deploy(tx):
    return tx.function == "constructor" and b"tracking" in tx.args


@pytest.mark.parametrize("match,edit", [
    (_tracking_deploy, lambda tx: replace(tx, args=tx.args + b"\x00")),
    (_tracking_deploy, lambda tx: replace(tx, args=_without_product(tx.args))),
    (lambda tx: tx.events and tx.events[0].name == "PressureViolation",
     lambda tx: _edit_event(tx, lambda args: tuple(a for a in args if a[0] != "msg"))),
    (lambda tx: tx.events and tx.events[0].name == "InitiateDist",
     lambda tx: _edit_event(tx, lambda args: tuple(a for a in args if a[0] != "ad"))),
], ids=["undecodable-deployment", "tracking-without-product", "violation-without-msg",
        "distribution-event-without-ad"])
def test_unreadable_trace_input_is_corrupt_naming_the_block(supply, setpoints, match, edit):
    run_hops(supply, setpoints, count=2, feed_ticks=1)
    chain = supply.consortium_chain
    index, t = next((block.index, t) for block in chain.blocks
                    for t, tx in enumerate(block.transactions) if match(tx))
    block = chain.blocks[index]
    transactions = list(block.transactions)
    transactions[t] = edit(transactions[t])
    chain.blocks[index] = replace(block, transactions=tuple(transactions))
    with pytest.raises(CorruptLedger, match=f"^chain 'consortium' block {index}: "):
        build_report(chain, "101")
