"""Hop-by-hop custody workflow over the two ledgers.

Each hop pairs two adjacent actors. Initiating it deploys two monitoring
contracts: a product-info instance on the seller's private chain, whose
access list (seller and buyer) gates who may write to it, and a tracking
instance on the consortium chain, linked to the previous hop's tracking
contract. The buyer accepts with a signature over the hop's canonical
digest, or with a passphrase; acceptance records the settlement transfer.
An accepted hop's sensor stream is fed into its contracts, and delivery
advances the batch's distribution contract one stage.

Each of these steps is a generator that yields once per block it makes, so
`SupplyChain.run` can drive many batches' lifecycles together, one block
per chain per step.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Sequence
from dataclasses import dataclass, field as dc_field
from enum import IntEnum
from itertools import groupby
from operator import attrgetter
from typing import TypeVar

from . import identity, ledger, telemetry
from .contracts.distribution import SPINE
from .encoding import digest
from .errors import (
    BadCredential,
    InvalidRolePair,
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

T = TypeVar("T")
# a step generator: makes one step's calls, yields, and is resumed once that
# step's blocks have appended; it returns a T
Steps = Generator[None, None, T]


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


def _check_in_transit(hop: Hop) -> None:
    """Raise WrongStatus unless the hop is accepted and not yet delivered."""
    if hop.status is not HopStatus.ACCEPTED:
        raise WrongStatus(
            f"hop {hop.index} is {hop.status.name}, telemetry needs an accepted shipment"
        )


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
    passphrase: str | None = dc_field(default=None, repr=False)


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
        self._claims: set[tuple] = set()        # what the lifecycles of a run have taken

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

    def all_chains(self) -> list[ledger.Chain]:
        chains = [self.consortium_chain]
        chains.extend(rt.chain for rt in self._private_rt.values())
        return chains

    def actor(self, role: Role) -> Actor:
        try:
            return self.topology.actors[role]
        except KeyError:
            raise ValidationError(f"topology has no {role.value} actor") from None

    # --- scheduling ---------------------------------------------------------------

    def run(self, lifecycles: Sequence[Steps]) -> list:
        """Drive lifecycles together; what each returns, in the order given.

        A lifecycle is a step generator (`_register_batch`, `_initiate_hop`,
        `_accept_shipment`, `_feed`, `_deliver`, or one composing them) that
        makes one step's calls, then yields. Each step resumes every live
        lifecycle, in the order given, inside one `clock.step()`: a runtime's
        calls from every lifecycle go into one block, runtimes in order of
        first call, calls in lifecycle order, and the blocks append when the
        step ends. So a lifecycle run alone commits exactly the blocks it
        makes, in its order. A batch id, a hop index, or a hop's acceptance
        or delivery that one lifecycle has taken is refused to the others.
        """
        returned: list = [None] * len(lifecycles)
        live = list(range(len(lifecycles)))
        self._claims.clear()
        while live:
            still = []
            with self.clock.step():
                for i in live:
                    try:
                        next(lifecycles[i])
                    except StopIteration as done:
                        returned[i] = done.value
                    else:
                        still.append(i)
            live = still
        return returned

    def _claim(self, *key) -> bool:
        """Take `key` for one lifecycle of this run; False if one already has."""
        if key in self._claims:
            return False
        self._claims.add(key)
        return True

    # --- batch ------------------------------------------------------------------

    def register_batch(self, batch_id: str, setpoints: Setpoints) -> BatchRecord:
        """Deploy the batch's distribution contract (driller-owned)."""
        return self.run([self._register_batch(batch_id, setpoints)])[0]

    def _register_batch(self, batch_id: str, setpoints: Setpoints) -> Steps[BatchRecord]:
        if batch_id in self.batches or not self._claim("batch", batch_id):
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
        yield
        record = BatchRecord(batch_id=batch_id, distribution_contract=address)
        self.batches[batch_id] = record
        return record

    # --- hop lifecycle -------------------------------------------------------------

    def initiate_hop(self, batch: BatchRecord, seller_role: Role, buyer_role: Role,
                     terms: TermSheet) -> Hop:
        """Open a hop linked to the batch's last one: contracts deployed, terms entered."""
        return self.run([self._initiate_hop(batch, seller_role, buyer_role, terms)])[0]

    def _initiate_hop(self, batch: BatchRecord, seller_role: Role, buyer_role: Role,
                      terms: TermSheet) -> Steps[Hop]:
        previous = batch.hops[-1] if batch.hops else None
        check_custody(previous.buyer.role if previous else None, seller_role, buyer_role)

        seller = self.actor(seller_role)
        buyer = self.actor(buyer_role)
        index = len(batch.hops) + 1
        if not self._claim("hop", batch.batch_id, index):
            raise ValidationError(f"batch {batch.batch_id!r} hop {index} is already"
                                  f" being initiated")
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
        yield
        result = seller_rt.call(product, "EnterOil", enter_args, caller=seller.address)
        yield
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
        yield
        result = self.consortium_rt.call(tracking, "EnterOil", enter_args,
                                         caller=seller.address)
        yield
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
        or a passphrase attempt (str). A signature `identity.sign` returned
        in this process for that digest and key is taken by byte match
        (`identity.signed_here`), as sealing takes the run's own
        endorsements; any other is verified with Ed25519. A passphrase goes
        through `identity.check_passphrase`, which skips the derivation only
        for the passphrase this process made the hop's credential from. A
        failed credential raises BadCredential and leaves every chain and
        the hop untouched.
        """
        return self.run([self._accept_shipment(hop, credential)])[0]

    def _accept_shipment(self, hop: Hop, credential: bytes | str) -> Steps[Hop]:
        if hop.status is not HopStatus.PROPOSED:
            raise WrongStatus(f"hop {hop.index} is {hop.status.name}, not PROPOSED")

        if isinstance(credential, bytes):
            ok = identity.signed_here_or_verified(self.accept_digest(hop), credential,
                                                  hop.buyer.public_key)
        elif isinstance(credential, str) and hop.stored_passphrase is not None:
            ok = identity.check_passphrase(hop.stored_passphrase, credential)
        else:
            ok = False
        if not ok:
            raise BadCredential(f"hop {hop.index} acceptance rejected")
        if not self._claim("accept", hop.batch_id, hop.index):
            raise WrongStatus(f"hop {hop.index} is already being accepted")

        self.private_runtime(hop.seller.address).record(
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
        yield
        hop.status = HopStatus.ACCEPTED
        return hop

    # --- telemetry ------------------------------------------------------------------

    def feed(self, hop: Hop, readings: Sequence[telemetry.SensorReading],
             ) -> list[CallResult]:
        """Dispatch an accepted hop's sensor stream, in tick order.

        Each sample tick is one block per chain: its checked kinds one
        consortium block of tracking-contract calls made by the gateway
        address, everything else one block of records on the seller's
        private chain. Returns the per-check call results in dispatch order.
        Run together with other lifecycles, a block also holds their calls.
        """
        return self.run([self._feed(hop, readings)])[0]

    def _feed(self, hop: Hop, readings: Sequence[telemetry.SensorReading],
              ) -> Steps[list[CallResult]]:
        _check_in_transit(hop)
        for r in readings:
            if r.source != hop.data_address:
                raise Unauthorized(
                    f"reading sourced from an address that is not hop {hop.index}'s gateway"
                )

        ordered = sorted(readings, key=lambda r: (r.tick, telemetry.KIND_ORDER[r.kind]))

        seller_rt = self.private_runtime(hop.seller.address)
        results = []
        for _tick, instant in groupby(ordered, key=attrgetter("tick")):
            _check_in_transit(hop)      # a delivery run beside this feed closes the hop
            # each reading's check function, or None for a plain record
            instant = [(telemetry.CHECK_FUNCTION.get(r.kind), r) for r in instant]
            checks = [(function, r) for function, r in instant if function is not None]
            records = [r for function, r in instant if function is None]
            if checks:
                results.extend(self.consortium_rt.call(
                    hop.tracking_contract, function, {"value": r.value},
                    caller=hop.data_address) for function, r in checks)
                yield
            if records:
                for r in records:
                    seller_rt.record(hop.seller.address, hop.product_contract,
                                     telemetry.RECORD_FUNCTION,
                                     {"kind": r.kind.value, "tick": r.tick,
                                      "value": r.value, "source": r.source})
                yield
        return results

    # --- delivery -------------------------------------------------------------------

    def deliver(self, hop: Hop) -> Hop:
        """Close transit: fire the batch's distribution transition."""
        return self.run([self._deliver(hop)])[0]

    def _deliver(self, hop: Hop) -> Steps[Hop]:
        if hop.status is not HopStatus.ACCEPTED:
            raise WrongStatus(
                f"hop {hop.index} is {hop.status.name}, cannot deliver"
            )
        if not self._claim("deliver", hop.batch_id, hop.index):
            raise WrongStatus(f"hop {hop.index} is already being delivered")

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
            yield
            if result.status is not CallStatus.OK:
                raise WrongStage(result.revert_reason)

        hop.status = HopStatus.DELIVERED
        return hop
