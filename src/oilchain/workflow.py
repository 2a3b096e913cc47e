"""Hop-by-hop custody workflow over the two ledgers.

Each hop pairs two adjacent actors. Initiating it deploys two monitoring
contracts: a product-info instance on the seller's private chain (readable
by seller and buyer only) and a tracking instance on the consortium chain,
linked to the previous hop's tracking contract. The buyer accepts with a
signature over the hop's canonical digest, or with a passphrase; acceptance
records the settlement transfer. An accepted hop's sensor stream is fed into
its contracts, and delivery advances the batch's distribution contract one
stage.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field as dc_field
from enum import IntEnum

from . import identity, ledger, telemetry
from .contracts.distribution import SPINE
from .encoding import digest
from .errors import (
    BadCredential,
    InvalidRolePair,
    StaleTelemetry,
    Unauthorized,
    ValidationError,
    WrongStage,
    WrongStatus,
)
from .identity import Actor, KeyPair, Role
from .runtime import CallResult, CallStatus, LogicalClock, Runtime


class HopStatus(IntEnum):
    PROPOSED = 0
    ACCEPTED = 1
    DELIVERED = 2


# who may sell to whom, one step down the custody chain
ADJACENT_ROLES = {
    (Role.DRILLER, Role.REFINERY),
    (Role.REFINERY, Role.STORAGE),
    (Role.STORAGE, Role.PUMP),
    (Role.STORAGE, Role.OTHER_FACTORY),
    (Role.PUMP, Role.CONSUMER),
}

# distribution transition fired when a hop with this seller role delivers;
# an OtherFactory buyer ends the branch, so the pump sale never fires there
_DELIVERY_TRANSITION = {step.seller: step.transition for step in SPINE}

# roles a topology needs before any batch can be registered
REQUIRED_ROLES = tuple(step.seller for step in SPINE)

# function name of the payment record acceptance writes to the seller's chain
SETTLEMENT_FUNCTION = "settlement"


def check_custody(previous_buyer: Role | None, seller: Role, buyer: Role) -> None:
    """Raise InvalidRolePair unless `seller` may sell the batch on to `buyer`.

    The pair must be adjacent in the custody order, a batch's first hop
    (no previous buyer) is sold by the driller, and every later hop by the
    previous hop's buyer.
    """
    if (seller, buyer) not in ADJACENT_ROLES:
        raise InvalidRolePair(f"{seller.value} cannot sell to {buyer.value}")
    if previous_buyer is None:
        if seller is not Role.DRILLER:
            raise InvalidRolePair("a batch's first hop must be sold by the driller")
    elif previous_buyer is not seller:
        raise InvalidRolePair(f"custody continuity broken: the previous hop's buyer is"
                              f" {previous_buyer.value}, not {seller.value}")


@dataclass(frozen=True)
class Setpoints:
    temperature: int
    humidity: int
    pressure: int


@dataclass(frozen=True)
class TermSheet:
    """Commercial terms of one hop."""

    oil_id: str
    oil_name: str
    quantity: int
    price: int
    setpoints: Setpoints
    passphrase: str | None = None
    max_silence_ticks: int | None = None


@dataclass
class Hop:
    index: int
    batch_id: str
    seller: Actor
    buyer: Actor
    terms: TermSheet
    product_contract: bytes
    tracking_contract: bytes
    data_address: bytes                 # the hop's gateway, its one telemetry source
    status: HopStatus = HopStatus.PROPOSED
    stored_passphrase: bytes | None = dc_field(default=None, repr=False)


@dataclass
class BatchRecord:
    batch_id: str
    oil_name: str
    distribution_contract: bytes
    hops: list[Hop] = dc_field(default_factory=list)


@dataclass
class Topology:
    """One actor per role plus the consortium validator set."""

    actors: dict[Role, Actor]
    validators: list[KeyPair]

    @classmethod
    def from_seed(cls, roles: list[Role], validator_count: int, seed: int) -> "Topology":
        ledger.quorum_fault_bound(validator_count)
        actors = {role: identity.generate_actor(role, seed) for role in roles}
        validators = [
            identity.generate_device(f"validator:{i}", seed)
            for i in range(validator_count)
        ]
        return cls(actors=actors, validators=validators)


class SupplyChain:
    """Owns the ledgers, runtimes, actors, and batches of one scenario."""

    def __init__(self, topology: Topology, seed: int,
                 faulty_validators: frozenset[bytes] | set[bytes] = frozenset(),
                 byzantine_validators: frozenset[bytes] | set[bytes] = frozenset()):
        self.topology = topology
        self.seed = seed
        self.clock = LogicalClock()
        self.batches: dict[str, BatchRecord] = {}

        validator_keys = list(topology.validators)
        faulty = frozenset(faulty_validators)
        byzantine = frozenset(byzantine_validators)

        def endorse(candidate: bytes) -> Iterable[ledger.Endorsement]:
            return ledger.collect_endorsements(candidate, validator_keys, faulty, byzantine)

        consortium = ledger.new_consortium_chain(
            "consortium", [v.address for v in validator_keys]
        )
        self.consortium_rt = Runtime(consortium, self.clock, endorse)

        self._private_rt: dict[bytes, Runtime] = {}
        for role in sorted(topology.actors, key=lambda r: r.value):
            actor = topology.actors[role]
            chain = ledger.new_private_chain(role.value.lower(), {actor.address})
            self._private_rt[actor.address] = Runtime(chain, self.clock)

    # --- plumbing ---------------------------------------------------------------

    @property
    def consortium_chain(self) -> ledger.Chain:
        return self.consortium_rt.chain

    def private_runtime(self, owner: bytes) -> Runtime:
        return self._private_rt[owner]

    def private_chain(self, owner: bytes) -> ledger.Chain:
        return self._private_rt[owner].chain

    def all_chains(self) -> list[ledger.Chain]:
        chains = [self.consortium_chain]
        chains.extend(rt.chain for rt in self._private_rt.values())
        return chains

    def actor(self, role: Role) -> Actor:
        try:
            return self.topology.actors[role]
        except KeyError:
            raise ValidationError(f"topology has no {role.value} actor") from None

    # --- batch ------------------------------------------------------------------

    def register_batch(self, batch_id: str, oil_name: str,
                       setpoints: Setpoints) -> BatchRecord:
        """Deploy the batch's distribution contract (driller-owned)."""
        if batch_id in self.batches:
            raise ValidationError(f"batch {batch_id!r} already registered")
        driller = self.actor(Role.DRILLER)
        address = self.consortium_rt.deploy(
            "OilDistribution",
            {
                "driller": driller.address,
                "factory": self.actor(Role.REFINERY).address,
                "storage": self.actor(Role.STORAGE).address,
                "pump": self.actor(Role.PUMP).address,
                "accurate_hum": setpoints.humidity,
            },
            deployer=driller.address,
            annotations={"record": "distribution", "batch": batch_id},
        )
        record = BatchRecord(batch_id=batch_id, oil_name=oil_name,
                             distribution_contract=address)
        self.batches[batch_id] = record
        return record

    # --- hop lifecycle -------------------------------------------------------------

    def initiate_hop(self, batch: BatchRecord, seller_role: Role, buyer_role: Role,
                     terms: TermSheet) -> Hop:
        """Open a hop linked to the batch's last one: contracts deployed, terms entered."""
        previous = batch.hops[-1] if batch.hops else None
        check_custody(previous.buyer.role if previous else None, seller_role, buyer_role)

        seller = self.actor(seller_role)
        buyer = self.actor(buyer_role)
        index = len(batch.hops) + 1
        gateway = identity.generate_device(
            f"gateway:{batch.batch_id}:{index}", self.seed
        )

        seller_rt = self.private_runtime(seller.address)
        seller_rt.chain.acl.add(buyer.address)

        enter_args = {
            "name": terms.oil_name,
            "oil_id": terms.oil_id,
            "amt": terms.quantity,
            "price": terms.price,
            "actualTemp": terms.setpoints.temperature,
            "actualHum": terms.setpoints.humidity,
            "actualPress": terms.setpoints.pressure,
        }

        product = seller_rt.deploy(
            "CheckProgress",
            {"data_source": gateway.address},
            deployer=seller.address,
            annotations={"record": "product", "batch": batch.batch_id, "hop": index},
        )
        result = seller_rt.call(product, "EnterOil", enter_args, caller=seller.address)
        if result.status is not CallStatus.OK:
            raise ValidationError(f"product terms rejected: {result.revert_reason}")

        tracking = self.consortium_rt.deploy(
            "CheckProgress",
            {"data_source": gateway.address},
            deployer=seller.address,
            annotations={
                "record": "tracking",
                "batch": batch.batch_id,
                "hop": index,
                "seller": seller.address,
                "buyer": buyer.address,
                "seller_role": seller_role.value,
                "buyer_role": buyer_role.value,
                "predecessor": previous.tracking_contract if previous else b"",
                "product": product,
            },
        )
        result = self.consortium_rt.call(
            tracking, "EnterOil", enter_args, caller=seller.address
        )
        if result.status is not CallStatus.OK:
            raise ValidationError(f"tracking terms rejected: {result.revert_reason}")

        stored = None
        if terms.passphrase is not None:
            salt = digest(["hop-salt", batch.batch_id, index, self.seed])[:16]
            stored = identity.make_passphrase_credential(terms.passphrase, salt)

        hop = Hop(
            index=index,
            batch_id=batch.batch_id,
            seller=seller,
            buyer=buyer,
            terms=terms,
            product_contract=product,
            tracking_contract=tracking,
            data_address=gateway.address,
            stored_passphrase=stored,
        )
        batch.hops.append(hop)
        return hop

    def accept_digest(self, hop: Hop) -> bytes:
        """What the buyer signs: hop terms plus both contract addresses."""
        return digest([
            "hop-acceptance",
            hop.batch_id,
            hop.index,
            hop.terms.oil_id,
            hop.terms.oil_name,
            hop.terms.quantity,
            hop.terms.price,
            hop.terms.setpoints.temperature,
            hop.terms.setpoints.humidity,
            hop.terms.setpoints.pressure,
            hop.product_contract,
            hop.tracking_contract,
        ])

    def accept_shipment(self, hop: Hop, credential: bytes | str) -> Hop:
        """Buyer acceptance: verify the credential, record the settlement.

        The credential is the buyer's signature over `accept_digest` (bytes)
        or a passphrase attempt (str). A failed credential raises
        BadCredential and leaves every chain and the hop untouched.
        """
        if hop.status is not HopStatus.PROPOSED:
            raise WrongStatus(f"hop {hop.index} is {hop.status.name}, not PROPOSED")

        if isinstance(credential, bytes):
            ok = identity.verify(self.accept_digest(hop), credential, hop.buyer.public_key)
        elif isinstance(credential, str) and hop.stored_passphrase is not None:
            ok = identity.check_passphrase(hop.stored_passphrase, credential)
        else:
            ok = False
        if not ok:
            raise BadCredential(f"hop {hop.index} acceptance rejected")

        seller_rt = self.private_runtime(hop.seller.address)
        seller_rt.record(
            caller=hop.buyer.address,
            contract=hop.product_contract,
            function=SETTLEMENT_FUNCTION,
            payload={
                "batch": hop.batch_id,
                "hop": hop.index,
                "payer": hop.buyer.address,
                "payee": hop.seller.address,
                "amount": hop.terms.price,
            },
        )
        hop.status = HopStatus.ACCEPTED
        return hop

    # --- telemetry ------------------------------------------------------------------

    def feed(self, hop: Hop, readings: Sequence[telemetry.SensorReading],
             ) -> list[CallResult]:
        """Dispatch an accepted hop's sensor stream, in tick order.

        Checked kinds become tracking-contract calls made by the gateway
        address; everything else is recorded on the seller's private chain.
        Returns the per-check call results in dispatch order.
        """
        if hop.status is not HopStatus.ACCEPTED:
            raise WrongStatus(
                f"hop {hop.index} is {hop.status.name}, telemetry needs an accepted shipment"
            )
        for r in readings:
            if r.source != hop.data_address:
                raise Unauthorized(
                    f"reading sourced from an address that is not hop {hop.index}'s gateway"
                )

        ordered = sorted(readings, key=lambda r: (r.tick, telemetry.KIND_ORDER[r.kind]))
        budget = hop.terms.max_silence_ticks
        if budget is not None:
            for prev, r in zip(ordered, ordered[1:]):
                if r.tick - prev.tick > budget:
                    raise StaleTelemetry(
                        f"gap of {r.tick - prev.tick} ticks exceeds budget {budget}"
                    )

        seller_rt = self.private_runtime(hop.seller.address)
        results = []
        for r in ordered:
            if r.kind in telemetry.CHECK_FUNCTION:
                results.append(self.consortium_rt.call(
                    hop.tracking_contract,
                    telemetry.CHECK_FUNCTION[r.kind],
                    {"value": r.value},
                    caller=hop.data_address,
                ))
            else:
                seller_rt.record(
                    caller=hop.seller.address,
                    contract=hop.product_contract,
                    function=telemetry.RECORD_FUNCTION,
                    payload={
                        "kind": r.kind.value,
                        "tick": r.tick,
                        "value": r.value,
                        "source": r.source,
                    },
                )
        return results

    # --- delivery -------------------------------------------------------------------

    def deliver(self, hop: Hop) -> Hop:
        """Close transit: fire the batch's distribution transition."""
        if hop.status is not HopStatus.ACCEPTED:
            raise WrongStatus(
                f"hop {hop.index} is {hop.status.name}, cannot deliver"
            )

        batch = self.batches[hop.batch_id]
        transition = _DELIVERY_TRANSITION.get(hop.seller.role)
        if transition is not None:
            if transition == "readyToFactory":
                args = {
                    "oil_id": hop.terms.oil_id,
                    "name": hop.terms.oil_name,
                    "price": hop.terms.price,
                    "quantity": hop.terms.quantity,
                }
            else:
                args = {"price": hop.terms.price, "quantity": hop.terms.quantity}
            # the pump sale is triggered by the buying consumer; every other
            # transition is the selling actor's own call
            caller = hop.buyer.address if transition == "pumpSoldOil" else hop.seller.address
            result = self.consortium_rt.call(
                batch.distribution_contract, transition, args, caller=caller
            )
            if result.status is not CallStatus.OK:
                raise WrongStage(result.revert_reason)

        hop.status = HopStatus.DELIVERED
        return hop

    # --- audit ---------------------------------------------------------------------

    def distribution_state(self, batch_id: str) -> dict:
        batch = self.batches[batch_id]
        return self.consortium_rt.state_of(batch.distribution_contract)

