"""Hop lifecycle: pairing rules, acceptance credentials, delivery, settlement."""

from __future__ import annotations

import pytest

from conftest import FIVE_ROLES, report_hops, settlement_records, standard_terms
from oilchain import identity, ledger
from oilchain.encoding import canon_decode
from oilchain.errors import (
    BadCredential,
    InvalidRolePair,
    InvalidValidatorSet,
    UnknownBatch,
    ValidationError,
    WrongStage,
    WrongStatus,
)
from oilchain.identity import Role
from oilchain.provenance import build_report
from oilchain.telemetry import ReadingKind, SensorReading
from oilchain.workflow import HopStatus, SupplyChain, Topology


def sign_accept(supply, hop):
    return identity.sign(supply.accept_digest(hop), hop.buyer.private_key)


def tips(supply):
    return [c.tip_hash for c in supply.all_chains()]


def weight_readings(hop, values, start_tick=0):
    return [SensorReading(ReadingKind.WEIGHT, start_tick + i, v, hop.data_address)
            for i, v in enumerate(values)]


# --- topology ------------------------------------------------------------------------

def test_topology_from_seed_is_deterministic():
    one = Topology.from_seed(FIVE_ROLES, validator_count=4, seed=7)
    two = Topology.from_seed(FIVE_ROLES, validator_count=4, seed=7)
    assert {r: a.address for r, a in one.actors.items()} == \
           {r: a.address for r, a in two.actors.items()}
    assert [v.address for v in one.validators] == [v.address for v in two.validators]
    other = Topology.from_seed(FIVE_ROLES, validator_count=4, seed=8)
    assert one.actors[Role.DRILLER].address != other.actors[Role.DRILLER].address


def test_topology_rejects_non_bft_validator_counts():
    with pytest.raises(InvalidValidatorSet):
        Topology.from_seed(FIVE_ROLES, validator_count=5, seed=7)


def test_supply_chain_layout(supply):
    chains = supply.all_chains()
    assert chains[0].chain_class is ledger.ChainClass.CONSORTIUM
    assert sorted(c.name for c in chains[1:]) == [
        "consumer", "driller", "pump", "refinery", "storage"]
    for role in FIVE_ROLES:
        actor = supply.actor(role)
        assert supply.private_chain(actor.address).acl == {actor.address}


# --- batch registration -----------------------------------------------------------------

def test_register_batch_deploys_distribution_contract(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    state = supply.distribution_state("101")
    assert state["kind"] == "OilDistribution"
    assert state["current_trace"] == "Created"
    assert state["accurate_hum"] == setpoints.humidity
    tx = supply.consortium_chain.blocks[1].transactions[0]
    assert tx.function == "constructor"
    meta = canon_decode(tx.args)["meta"]
    assert meta == {"record": "distribution", "batch": "101"}
    assert batch.distribution_contract == tx.contract


def test_register_batch_rejects_duplicates_and_missing_roles(supply, setpoints):
    supply.register_batch("101", "Petrol", setpoints)
    with pytest.raises(ValidationError):
        supply.register_batch("101", "Petrol", setpoints)
    thin = Topology.from_seed([Role.DRILLER, Role.REFINERY, Role.STORAGE],
                              validator_count=4, seed=7)
    with pytest.raises(ValidationError):
        SupplyChain(thin, seed=7).register_batch("102", "Petrol", setpoints)


# --- hop initiation ----------------------------------------------------------------------

def test_first_hop_wires_contracts_and_access(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    seller = supply.actor(Role.DRILLER)
    buyer = supply.actor(Role.REFINERY)
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                              standard_terms(setpoints))
    assert hop.status is HopStatus.PROPOSED
    assert hop.index == 1
    assert build_report(supply.consortium_chain, "101").hops[0].predecessor is None

    private = supply.private_chain(seller.address)
    assert private.acl == {seller.address, buyer.address}

    product = supply.private_runtime(seller.address).state_of(hop.product_contract)
    tracking = supply.consortium_rt.state_of(hop.tracking_contract)
    for state in (product, tracking):
        assert state["initialized"] is True
        assert state["oil_id"] == "101" and state["oil_name"] == "Petrol"
        assert (state["accurate_temp"], state["accurate_hum"],
                state["accurate_press"]) == (22, 10, 8)
        assert state["data_source"] == identity.address_hex(hop.data_address)

    constructor = next(tx for b in supply.consortium_chain.blocks
                       for tx in b.transactions
                       if tx.function == "constructor"
                       and tx.contract == hop.tracking_contract)
    meta = canon_decode(constructor.args)["meta"]
    assert meta["record"] == "tracking"
    assert meta["hop"] == 1
    assert meta["seller_role"] == "Driller" and meta["buyer_role"] == "Refinery"
    assert meta["predecessor"] == b""
    assert meta["product"] == hop.product_contract


@pytest.mark.parametrize("seller,buyer", [
    (Role.DRILLER, Role.STORAGE),
    (Role.REFINERY, Role.DRILLER),
    (Role.CONSUMER, Role.DRILLER),
    (Role.STORAGE, Role.CONSUMER),
    (Role.PUMP, Role.REFINERY),
])
def test_non_adjacent_role_pairs_rejected(supply, setpoints, seller, buyer):
    batch = supply.register_batch("101", "Petrol", setpoints)
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, seller, buyer, standard_terms(setpoints))
    assert batch.hops == []


def test_first_hop_must_be_sold_by_the_driller(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                            standard_terms(setpoints))
    assert batch.hops == []


def test_follow_on_hops_need_the_exact_predecessor(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    first = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                                standard_terms(setpoints))
    second = supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                                 standard_terms(setpoints))
    assert second.index == 2
    assert (build_report(supply.consortium_chain, "101").hops[1].predecessor
            == identity.address_hex(first.tracking_contract))
    constructor = next(tx for b in supply.consortium_chain.blocks
                       for tx in b.transactions
                       if tx.function == "constructor"
                       and tx.contract == second.tracking_contract)
    assert canon_decode(constructor.args)["meta"]["predecessor"] == first.tracking_contract


def test_custody_continuity_between_hops(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    first = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                                standard_terms(setpoints))
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, Role.STORAGE, Role.PUMP,
                            standard_terms(setpoints))
    assert batch.hops == [first]


# --- acceptance ---------------------------------------------------------------------------

def proposed_hop(supply, setpoints, **terms_kwargs):
    batch = supply.register_batch("101", "Petrol", setpoints)
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                              standard_terms(setpoints, **terms_kwargs))
    return batch, hop


def test_signature_acceptance_records_settlement(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, price=140)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    assert hop.status is HopStatus.ACCEPTED

    private = supply.private_chain(hop.seller.address)
    block = private.blocks[-1]
    tx = block.transactions[0]
    assert tx.function == "settlement"
    assert tx.caller == hop.buyer.address
    payload = canon_decode(tx.args)
    assert payload["amount"] == 140
    assert payload["payer"] == hop.buyer.address
    assert payload["payee"] == hop.seller.address
    assert payload["hop"] == 1
    assert settlement_records(supply) == [(block.timestamp, payload)]


@pytest.mark.parametrize("forge", [
    lambda supply, hop: b"\x00" * 64,
    lambda supply, hop: identity.sign(supply.accept_digest(hop), hop.seller.private_key),
    lambda supply, hop: identity.sign(b"something else", hop.buyer.private_key),
    lambda supply, hop: "guess",
    lambda supply, hop: None,
])
def test_bad_credentials_change_nothing(supply, setpoints, forge):
    _batch, hop = proposed_hop(supply, setpoints)
    before = tips(supply)
    with pytest.raises(BadCredential):
        supply.accept_shipment(hop, forge(supply, hop))
    assert hop.status is HopStatus.PROPOSED
    assert settlement_records(supply) == []
    assert tips(supply) == before


def test_passphrase_acceptance(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, passphrase="wholesale-gate-7")
    with pytest.raises(BadCredential):
        supply.accept_shipment(hop, "wholesale-gate-8")
    supply.accept_shipment(hop, "wholesale-gate-7")
    assert hop.status is HopStatus.ACCEPTED
    assert "stored_passphrase" not in repr(hop)


def test_double_accept_rejected(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    with pytest.raises(WrongStatus):
        supply.accept_shipment(hop, sign_accept(supply, hop))
    assert len(settlement_records(supply)) == 1


# --- delivery and settlement ------------------------------------------------------------

def advance(supply, batch, seller, buyer, setpoints, price=100):
    hop = supply.initiate_hop(batch, seller, buyer,
                              standard_terms(setpoints, price=price))
    supply.accept_shipment(hop, sign_accept(supply, hop))
    supply.deliver(hop)
    return hop


def test_deliver_requires_accepted_status(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints)
    with pytest.raises(WrongStatus):
        supply.deliver(hop)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    supply.deliver(hop)
    assert hop.status is HopStatus.DELIVERED
    before = tips(supply)
    with pytest.raises(WrongStatus):
        supply.deliver(hop)
    with pytest.raises(WrongStatus):
        supply.feed(hop, weight_readings(hop, [500]))
    assert tips(supply) == before


def test_delivery_advances_distribution_and_stamps_tick(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    supply.deliver(hop)
    state = supply.distribution_state("101")
    assert state["current_trace"] == "AtDriller"
    assert state["oil_id"] == "101"
    assert state["drill_price"] == 100
    block = supply.consortium_chain.blocks[-1]
    assert state["drilling_date"] == block.timestamp
    assert block.transactions[0].function == "readyToFactory"
    assert block.transactions[0].caller == hop.seller.address


def test_full_path_reaches_sold(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    assert supply.distribution_state("101")["current_trace"] == "AtDriller"
    advance(supply, batch, Role.REFINERY, Role.STORAGE, setpoints, price=120)
    assert supply.distribution_state("101")["current_trace"] == "AtFactory"
    advance(supply, batch, Role.STORAGE, Role.PUMP, setpoints, price=150)
    assert supply.distribution_state("101")["current_trace"] == "AtStorage"
    h4 = advance(supply, batch, Role.PUMP, Role.CONSUMER, setpoints, price=180)
    state = supply.distribution_state("101")
    assert state["current_trace"] == "Sold"
    assert state["pump_price"] == 180
    assert [h.status for h in batch.hops] == [HopStatus.DELIVERED] * 4

    # the pump sale is the buying consumer's call; the event names the pump
    sale = next(tx for b in supply.consortium_chain.blocks
                for tx in b.transactions if tx.function == "pumpSoldOil")
    assert sale.caller == supply.actor(Role.CONSUMER).address
    assert sale.events[0].arg("ad") == identity.address_hex(
        supply.actor(Role.PUMP).address)
    assert [p["hop"] for _tick, p in settlement_records(supply)] == [1, 2, 3, 4]
    assert h4.status is HopStatus.DELIVERED


def test_out_of_order_delivery_hits_the_stage_gate(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY, standard_terms(setpoints))
    h2 = supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                             standard_terms(setpoints))
    supply.accept_shipment(h2, sign_accept(supply, h2))
    with pytest.raises(WrongStage):
        supply.deliver(h2)
    assert h2.status is HopStatus.ACCEPTED
    assert supply.distribution_state("101")["current_trace"] == "Created"


def test_other_factory_branch_ends_at_storage(setpoints):
    roles = FIVE_ROLES + [Role.OTHER_FACTORY]
    topo = Topology.from_seed(roles, validator_count=4, seed=7)
    supply = SupplyChain(topo, seed=7)
    batch = supply.register_batch("101", "Petrol", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    advance(supply, batch, Role.REFINERY, Role.STORAGE, setpoints)
    h3 = advance(supply, batch, Role.STORAGE, Role.OTHER_FACTORY, setpoints)
    # the storage hand-off still books the oil into storage, then the
    # branch terminates: an OtherFactory cannot sell onward
    assert supply.distribution_state("101")["current_trace"] == "AtStorage"
    assert h3.status is HopStatus.DELIVERED
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, Role.OTHER_FACTORY, Role.CONSUMER,
                            standard_terms(setpoints))


def test_weight_delta_is_last_minus_first(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    assert report_hops(supply)[0]["weight_delta"] is None
    supply.feed(hop, weight_readings(hop, [500, 496, 492]))
    supply.deliver(hop)
    assert report_hops(supply)[0]["weight_delta"] == -8


def test_trace_is_read_only_and_checks_batch(supply, setpoints):
    batch = supply.register_batch("101", "Petrol", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    before = tips(supply)
    report = build_report(supply.consortium_chain, "101")
    assert tips(supply) == before
    assert report.batch_id == "101"
    with pytest.raises(UnknownBatch):
        build_report(supply.consortium_chain, "999")
