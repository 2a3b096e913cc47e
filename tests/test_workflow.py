"""Hop lifecycle: pairing rules, acceptance credentials, delivery, settlement."""

from __future__ import annotations

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from conftest import (FIVE_ROLES, ed25519_verifies, pbkdf2_derivations, report_hops,
                      settlement_records, standard_terms)
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
from oilchain.runtime import contract_address
from oilchain.telemetry import ReadingKind, SensorReading
from oilchain.workflow import HopStatus, SupplyChain, Topology


def sign_accept(supply, hop):
    return identity.sign(supply.accept_digest(hop), hop.buyer.private_key)


def tips(supply):
    return [c.tip_hash for c in supply.all_chains()]


def custody(supply, batch_id="101"):
    """The live distribution contract's state."""
    address = supply.batches[batch_id].distribution_contract
    return supply.consortium_rt.contracts[address].snapshot()


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
        assert supply.private_runtime(actor.address).chain.acl == {actor.address}


# --- scheduling ---------------------------------------------------------------------------

def test_run_merges_each_step_per_runtime_in_order_of_first_appearance(supply):
    driller, refinery = (supply.actor(r).address for r in (Role.DRILLER, Role.REFINERY))
    drill_rt, refine_rt = supply.private_runtime(driller), supply.private_runtime(refinery)

    def lifecycle(name, runtimes):
        seen = []
        for rt in runtimes:
            owner = driller if rt is drill_rt else refinery
            tx = rt.record(owner, bytes(20), "note", {"from": name})
            yield
            seen.append((rt.chain.name, canon_decode(tx.args)["from"]))
        return seen

    returned = supply.run([lifecycle("a", [refine_rt, drill_rt]),
                           lifecycle("b", [drill_rt, refine_rt, drill_rt]),
                           lifecycle("c", [refine_rt])])
    assert returned == [[("refinery", "a"), ("driller", "a")],
                        [("driller", "b"), ("refinery", "b"), ("driller", "b")],
                        [("refinery", "c")]]

    def blocks(rt):
        return [(block.timestamp, [canon_decode(tx.args)["from"] for tx in block.transactions])
                for block in rt.chain.blocks[1:]]
    # every block of a step carries the step's tick; in step 1 the refinery's
    # block opened first (a called first), and a's call comes before c's
    assert blocks(refine_rt) == [(1, ["a", "c"]), (2, ["b"])]
    assert blocks(drill_rt) == [(1, ["b"]), (2, ["a"]), (3, ["b"])]


def test_a_failing_step_commits_none_of_its_blocks(supply):
    driller = supply.actor(Role.DRILLER).address
    drill_rt = supply.private_runtime(driller)

    def noting():
        drill_rt.record(driller, bytes(20), "note", {})
        yield

    def failing():
        raise ValidationError("refused")
        yield

    upcoming = supply.clock.upcoming
    with pytest.raises(ValidationError):
        supply.run([noting(), failing()])
    assert (len(drill_rt.chain), supply.clock.upcoming) == (1, upcoming)


def test_batches_registered_together_share_one_block(supply, setpoints):
    driller = supply.actor(Role.DRILLER).address
    records = supply.run([supply._register_batch(batch_id, setpoints)
                          for batch_id in ("101", "102", "103")])
    assert [r.distribution_contract for r in records] == \
           [contract_address(driller, nonce) for nonce in range(3)]
    assert list(supply.batches.values()) == records
    [block] = supply.consortium_chain.blocks[1:]
    assert [tx.contract for tx in block.transactions] == \
           [r.distribution_contract for r in records]


def test_run_refuses_a_second_lifecycle_for_what_one_has_taken(supply, setpoints):
    with pytest.raises(ValidationError, match="already registered"):
        supply.run([supply._register_batch("101", setpoints),
                    supply._register_batch("101", setpoints)])

    batch = supply.register_batch("102", setpoints)
    terms = standard_terms(setpoints)
    with pytest.raises(ValidationError, match="hop 1 is already being initiated"):
        supply.run([supply._initiate_hop(batch, Role.DRILLER, Role.REFINERY, terms),
                    supply._initiate_hop(batch, Role.DRILLER, Role.REFINERY, terms)])

    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY, terms)
    with pytest.raises(WrongStatus, match="already being accepted"):
        supply.run([supply._accept_shipment(hop, sign_accept(supply, hop)),
                    supply._accept_shipment(hop, sign_accept(supply, hop))])
    assert settlement_records(supply) == []

    supply.accept_shipment(hop, sign_accept(supply, hop))
    assert len(settlement_records(supply)) == 1
    with pytest.raises(WrongStatus, match="already being delivered"):
        supply.run([supply._deliver(hop), supply._deliver(hop)])
    assert hop.status is HopStatus.ACCEPTED
    supply.deliver(hop)
    assert custody(supply, "102")["current_trace"] == "AtDriller"


# --- batch registration -----------------------------------------------------------------

def test_register_batch_deploys_distribution_contract(supply, setpoints):
    batch = supply.register_batch("101", setpoints)
    state = supply.consortium_rt.contracts[batch.distribution_contract].snapshot()
    assert state["kind"] == "OilDistribution"
    assert state["current_trace"] == "Created"
    assert state["accurate_hum"] == setpoints.humidity
    tx = supply.consortium_chain.blocks[1].transactions[0]
    assert tx.function == "constructor"
    meta = canon_decode(tx.args)["meta"]
    assert meta == {"record": "distribution", "batch": "101"}
    assert batch.distribution_contract == tx.contract


def test_register_batch_rejects_duplicates_and_missing_roles(supply, setpoints):
    supply.register_batch("101", setpoints)
    with pytest.raises(ValidationError):
        supply.register_batch("101", setpoints)
    thin = Topology.from_seed([Role.DRILLER, Role.REFINERY, Role.STORAGE],
                              validator_count=4, seed=7)
    with pytest.raises(ValidationError):
        SupplyChain(thin, seed=7).register_batch("102", setpoints)


# --- hop initiation ----------------------------------------------------------------------

def test_first_hop_wires_contracts_and_access(supply, setpoints):
    batch = supply.register_batch("101", setpoints)
    seller = supply.actor(Role.DRILLER)
    buyer = supply.actor(Role.REFINERY)
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                              standard_terms(setpoints))
    assert hop.status is HopStatus.PROPOSED
    assert hop.index == 1
    assert build_report(supply.consortium_chain, "101").hops[0].predecessor is None

    seller_rt = supply.private_runtime(seller.address)
    assert seller_rt.chain.acl == {seller.address, buyer.address}

    product = seller_rt.contracts[hop.product_contract].snapshot()
    tracking = supply.consortium_rt.contracts[hop.tracking_contract].snapshot()
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
    batch = supply.register_batch("101", setpoints)
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, seller, buyer, standard_terms(setpoints))
    assert batch.hops == []


def test_first_hop_must_be_sold_by_the_driller(supply, setpoints):
    batch = supply.register_batch("101", setpoints)
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                            standard_terms(setpoints))
    assert batch.hops == []


def test_follow_on_hops_need_the_exact_predecessor(supply, setpoints):
    batch = supply.register_batch("101", setpoints)
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
    batch = supply.register_batch("101", setpoints)
    first = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                                standard_terms(setpoints))
    with pytest.raises(InvalidRolePair):
        supply.initiate_hop(batch, Role.STORAGE, Role.PUMP,
                            standard_terms(setpoints))
    assert batch.hops == [first]


# --- acceptance ---------------------------------------------------------------------------

def proposed_hop(supply, setpoints, **terms_kwargs):
    batch = supply.register_batch("101", setpoints)
    hop = supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY,
                              standard_terms(setpoints, **terms_kwargs))
    return batch, hop


def test_signature_acceptance_records_settlement(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, price=140)
    supply.accept_shipment(hop, sign_accept(supply, hop))
    assert hop.status is HopStatus.ACCEPTED

    block = supply.private_runtime(hop.seller.address).chain.blocks[-1]
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
    assert "passphrase" not in repr(hop)
    assert "wholesale-gate-7" not in repr(hop)


# --- credentials this process did not just make go through the full check -------------

@pytest.fixture
def empty_memos(monkeypatch):
    """Nothing signed earlier in this process is remembered."""
    monkeypatch.setattr(identity, "_signed", {})


def test_a_wrong_passphrase_is_derived_and_refused(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, passphrase="wholesale-gate-7")
    with pbkdf2_derivations() as derivations, pytest.raises(BadCredential):
        supply.accept_shipment(hop, "wholesale-gate-8")
    assert derivations.call_count == 2      # the credential's stored form, then the attempt
    assert hop.status is HopStatus.PROPOSED
    with pbkdf2_derivations() as derivations, pytest.raises(BadCredential):
        supply.accept_shipment(hop, "wholesale-gate-9")
    assert derivations.call_count == 1      # the stored form is kept on the credential


def test_the_passphrase_of_a_credential_made_here_is_not_derived_again(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, passphrase="wholesale-gate-7")
    with pbkdf2_derivations() as derivations:
        supply.accept_shipment(hop, "wholesale-gate-7")
    assert derivations.call_count == 0
    assert hop.status is HopStatus.ACCEPTED


def test_a_passphrase_credential_made_elsewhere_is_derived_and_accepted(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints, passphrase="wholesale-gate-7")
    hop.passphrase = identity.make_passphrase_credential("wholesale-gate-7", b"\x05" * 16)
    # byte-unequal, so derived; HMAC zero-pads the short key, so it derives as
    # the passphrase does and the stored form accepts it, as it always has
    with pbkdf2_derivations() as derivations:
        supply.accept_shipment(hop, "wholesale-gate-7\x00")
    assert derivations.call_count == 2      # the credential's stored form, then the attempt
    assert hop.status is HopStatus.ACCEPTED


def test_a_signature_made_elsewhere_is_verified_and_accepted(supply, setpoints, empty_memos):
    _batch, hop = proposed_hop(supply, setpoints)
    raw = Ed25519PrivateKey.from_private_bytes(hop.buyer.private_key)
    with ed25519_verifies() as verifies:
        supply.accept_shipment(hop, raw.sign(supply.accept_digest(hop)))
    assert verifies.call_count == 1
    assert hop.status is HopStatus.ACCEPTED


@pytest.mark.parametrize("forge", [
    lambda supply, hop: identity.sign(supply.accept_digest(hop),
                                      identity.generate_device("stranger", 13).private_key),
    lambda supply, hop: bytes([sign_accept(supply, hop)[0] ^ 1]) + sign_accept(supply, hop)[1:],
], ids=["another-key", "byte-flipped"])
def test_a_signature_the_memo_does_not_hold_is_verified_and_refused(supply, setpoints, forge):
    _batch, hop = proposed_hop(supply, setpoints)
    forged = forge(supply, hop)
    with ed25519_verifies() as verifies, pytest.raises(BadCredential):
        supply.accept_shipment(hop, forged)
    assert verifies.call_count == 1
    assert hop.status is HopStatus.PROPOSED


def test_the_buyer_signature_made_here_is_accepted_without_a_verify(supply, setpoints):
    _batch, hop = proposed_hop(supply, setpoints)
    signature = sign_accept(supply, hop)
    with ed25519_verifies() as verifies:
        supply.accept_shipment(hop, signature)
    assert verifies.call_count == 0
    assert hop.status is HopStatus.ACCEPTED


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
    state = custody(supply)
    assert state["current_trace"] == "AtDriller"
    assert state["oil_id"] == "101"
    assert state["drill_price"] == 100
    block = supply.consortium_chain.blocks[-1]
    assert state["drilling_date"] == block.timestamp
    assert block.transactions[0].function == "readyToFactory"
    assert block.transactions[0].caller == hop.seller.address


def test_full_path_reaches_sold(supply, setpoints):
    batch = supply.register_batch("101", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    assert custody(supply)["current_trace"] == "AtDriller"
    advance(supply, batch, Role.REFINERY, Role.STORAGE, setpoints, price=120)
    assert custody(supply)["current_trace"] == "AtFactory"
    advance(supply, batch, Role.STORAGE, Role.PUMP, setpoints, price=150)
    assert custody(supply)["current_trace"] == "AtStorage"
    h4 = advance(supply, batch, Role.PUMP, Role.CONSUMER, setpoints, price=180)
    state = custody(supply)
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
    batch = supply.register_batch("101", setpoints)
    supply.initiate_hop(batch, Role.DRILLER, Role.REFINERY, standard_terms(setpoints))
    h2 = supply.initiate_hop(batch, Role.REFINERY, Role.STORAGE,
                             standard_terms(setpoints))
    supply.accept_shipment(h2, sign_accept(supply, h2))
    with pytest.raises(WrongStage):
        supply.deliver(h2)
    assert h2.status is HopStatus.ACCEPTED
    assert custody(supply)["current_trace"] == "Created"


def test_other_factory_branch_ends_at_storage(setpoints):
    roles = FIVE_ROLES + [Role.OTHER_FACTORY]
    topo = Topology.from_seed(roles, validator_count=4, seed=7)
    supply = SupplyChain(topo, seed=7)
    batch = supply.register_batch("101", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    advance(supply, batch, Role.REFINERY, Role.STORAGE, setpoints)
    h3 = advance(supply, batch, Role.STORAGE, Role.OTHER_FACTORY, setpoints)
    # the storage hand-off still books the oil into storage, then the
    # branch terminates: an OtherFactory cannot sell onward
    assert custody(supply)["current_trace"] == "AtStorage"
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
    batch = supply.register_batch("101", setpoints)
    advance(supply, batch, Role.DRILLER, Role.REFINERY, setpoints)
    before = tips(supply)
    report = build_report(supply.consortium_chain, "101")
    assert tips(supply) == before
    assert report.batch_id == "101"
    with pytest.raises(UnknownBatch):
        build_report(supply.consortium_chain, "999")
