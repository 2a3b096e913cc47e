"""Hash-chained block ledgers: private (ACL-gated) and consortium (endorsed).

A block's candidate digest is SHA-256 over the canonical encoding of its
index, previous hash, timestamp and transactions. Its hash is SHA-256 over
that digest followed by the canonical encoding of its endorsements, so any
byte of recorded history that changes breaks verification from that block
onward. Consortium blocks carry validator endorsements: signatures over the
candidate digest. Appending seals the first 2f+1 valid, distinct ones a
3f+1 validator set offers; a stored block must carry only valid, distinct
ones, at least 2f+1. Appending takes a signature that `identity.sign` made
in this process over that digest, under the endorser's key, as valid
without running Ed25519 again (`identity.signed_here`); it verifies every
other one. Checking a stored block verifies every endorsement it carries.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from . import identity
from .encoding import write_items, write_list_head
from .errors import AccessDenied, InvalidValidatorSet, QuorumNotMet

HASH_LEN = 32
GENESIS_PREV_HASH = b"\x00" * HASH_LEN


class ChainClass(Enum):
    PRIVATE = "Private"
    CONSORTIUM = "Consortium"


# --- record types -----------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """A contract emission: name, emitting contract, ordered (name, value) args.

    Arg values are strings or ints only; addresses appear in their 0x-hex
    form so records serialize without guessing types.
    """

    name: str
    emitter: bytes
    args: tuple[tuple[str, str | int], ...]

    def arg(self, name: str) -> str | int:
        for key, value in self.args:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class Transaction:
    """One recorded call: caller, target contract, function, canonical args,
    metered gas, and the events it emitted."""

    caller: bytes
    contract: bytes
    function: str
    args: bytes
    gas_used: int
    events: tuple[Event, ...] = ()


@dataclass(frozen=True)
class Endorsement:
    """A validator's signature over a block's candidate digest.

    Carries the raw public key so quorum can be re-verified from persisted
    data alone; the validator's address is re-derived from it.
    """

    public_key: bytes
    signature: bytes

    @property
    def validator(self) -> bytes:
        return identity.derive_address(self.public_key)


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    timestamp: int
    transactions: tuple[Transaction, ...]
    endorsements: tuple[Endorsement, ...]
    hash: bytes

    @functools.cached_property
    def digest(self) -> bytes:
        """The candidate digest of this block's contents, computed once."""
        return candidate_digest(self.index, self.prev_hash, self.timestamp, self.transactions)


@dataclass
class Chain:
    """An append-only block sequence plus its access policy."""

    chain_class: ChainClass
    name: str
    acl: set[bytes] = field(default_factory=set)          # Private only
    validators: tuple[bytes, ...] = ()                     # Consortium only
    blocks: list[Block] = field(default_factory=list)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].hash

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    first_bad_index: int | None = None
    reason: str | None = None           # the check first_bad_index failed, if known

    def __bool__(self) -> bool:
        return self.valid


# --- hashing ----------------------------------------------------------------

def candidate_digest(index: int, prev_hash: bytes, timestamp: int,
                     transactions: Sequence[Transaction]) -> bytes:
    """What validators endorse: everything except endorsements and hash.

    SHA-256 over the canonical encoding of [index, prev_hash, timestamp,
    transactions], a transaction being [caller, contract, function, args,
    gas_used, events] and an event [name, emitter, [[key, value], ...]].
    """
    out = bytearray()
    write_list_head(out, 4)
    write_items(out, (index, prev_hash, timestamp))
    write_list_head(out, len(transactions))
    for tx in transactions:
        write_list_head(out, 6)
        write_items(out, (tx.caller, tx.contract, tx.function, tx.args, tx.gas_used))
        write_list_head(out, len(tx.events))
        for event in tx.events:
            write_list_head(out, 3)
            # args is a tuple of (key, value) pairs: each encodes as a list
            write_items(out, (event.name, event.emitter, event.args))
    return hashlib.sha256(out).digest()


def block_hash(digest: bytes, endorsements: Sequence[Endorsement]) -> bytes:
    """SHA-256 over the candidate digest followed by the canonical encoding
    of the endorsements, each [public_key, signature]."""
    out = bytearray(digest)
    write_list_head(out, len(endorsements))
    for e in endorsements:
        write_list_head(out, 2)
        write_items(out, (e.public_key, e.signature))
    return hashlib.sha256(out).digest()


@functools.cache
def _genesis_block() -> Block:
    """Block 0 of every chain, built once: it holds nothing, so chains share it."""
    digest = candidate_digest(0, GENESIS_PREV_HASH, 0, ())
    return Block(0, GENESIS_PREV_HASH, 0, (), (), block_hash(digest, ()))


# --- chain construction -------------------------------------------------------

def quorum_fault_bound(validator_count: int) -> int:
    """f such that validator_count == 3f+1; raises InvalidValidatorSet otherwise."""
    if validator_count < 1 or (validator_count - 1) % 3 != 0:
        raise InvalidValidatorSet(
            f"validator count must be 3f+1, got {validator_count}"
        )
    return (validator_count - 1) // 3


def new_private_chain(name: str, acl: Iterable[bytes]) -> Chain:
    chain = Chain(chain_class=ChainClass.PRIVATE, name=name, acl=set(acl))
    chain.blocks.append(_genesis_block())
    return chain


def new_consortium_chain(name: str, validators: Sequence[bytes]) -> Chain:
    quorum_fault_bound(len(validators))
    chain = Chain(
        chain_class=ChainClass.CONSORTIUM,
        name=name,
        validators=tuple(sorted(validators)),
    )
    chain.blocks.append(_genesis_block())
    return chain


# --- endorsement ------------------------------------------------------------

def quorum_size(validator_count: int) -> int:
    """2f+1: how many valid, distinct endorsements seal a consortium block."""
    return 2 * quorum_fault_bound(validator_count) + 1


def collect_endorsements(digest: bytes,
                         validator_keys: Sequence[identity.KeyPair],
                         faulty: frozenset[bytes] | set[bytes] = frozenset(),
                         byzantine: frozenset[bytes] | set[bytes] = frozenset(),
                         ) -> Iterator[Endorsement]:
    """Each non-faulty validator signs the candidate digest, on demand.

    A generator in key order, so output is deterministic and a consumer
    that stops at quorum computes no further signature. `faulty` holds
    addresses of validators simulated as silent; `byzantine` ones
    equivocate: they sign a different digest.
    """
    for kp in validator_keys:
        if kp.address in faulty:
            continue
        signed = digest
        if kp.address in byzantine:
            signed = hashlib.sha256(b"equivocation:" + digest).digest()
        yield Endorsement(public_key=kp.public_key,
                          signature=identity.sign(signed, kp.private_key))


def _endorsement_fault(digest: bytes, endorsement: Endorsement,
                       validators: Sequence[bytes], seen: set[bytes],
                       valid: Callable[[bytes, bytes, bytes], bool]) -> str | None:
    """Why an endorsement does not count toward a quorum, or None if it does.

    `valid(digest, signature, public_key)` judges the signature, after the
    validator and duplicate checks. Counting an endorsement adds its
    validator to `seen`, so a repeat is refused.
    """
    addr = endorsement.validator
    if addr not in validators:
        return f"endorsement from non-validator {identity.address_hex(addr)}"
    if addr in seen:
        return f"duplicate endorsement from {identity.address_hex(addr)}"
    if not valid(digest, endorsement.signature, endorsement.public_key):
        return f"invalid endorsement signature from {identity.address_hex(addr)}"
    seen.add(addr)
    return None


def _seal_quorum(chain: Chain, index: int, digest: bytes,
                 offered: Iterable[Endorsement]) -> tuple[Endorsement, ...]:
    """The first 2f+1 valid, distinct validator endorsements offered, in order.

    Skips any endorsement that is invalid, from a non-validator or a
    duplicate, and reads the supply no further than the quorum. Raises
    QuorumNotMet, naming the chain and block, if the supply runs out first.

    After the validator and duplicate checks, a signature that
    `identity.sign` returned in this process for (this digest, the
    endorsement's public key) is byte-compared with that memo entry instead
    of verified: signing already proved it valid. Any other signature, such
    as a Byzantine validator's over another digest, one made elsewhere,
    edited, offered under another validator's key or pushed out of the
    memo, goes through `identity.verify` and is skipped with the same reason
    as before.
    """
    needed = quorum_size(len(chain.validators))
    sealed: list[Endorsement] = []
    seen: set[bytes] = set()
    skipped: list[str] = []
    for endorsement in offered:
        fault = _endorsement_fault(digest, endorsement, chain.validators, seen,
                                   identity.signed_here_or_verified)
        if fault is not None:
            skipped.append(fault)
            continue
        sealed.append(endorsement)
        if len(sealed) == needed:
            return tuple(sealed)
    why = "".join(f"; skipped {fault}" for fault in skipped)
    raise QuorumNotMet(
        f"chain {chain.name!r} block {index}: need {needed} endorsements,"
        f" got {len(sealed)} valid{why}"
    )


# --- append / verify ----------------------------------------------------------

def append_block(chain: Chain, transactions: Sequence[Transaction], timestamp: int,
                 endorse: Callable[[bytes], Iterable[Endorsement]] | None = None) -> Block:
    """Seal and append a block after policy checks.

    Private chains require every transaction caller to be on the ACL.
    Consortium chains pass the candidate digest to `endorse` and seal the
    first 2f+1 valid, distinct validator endorsements it offers; the rest
    are skipped or never drawn. The block hash is sealed over that same
    digest, so transactions are encoded once.
    """
    if chain.chain_class is ChainClass.PRIVATE:
        for tx in transactions:
            if tx.caller not in chain.acl:
                raise AccessDenied(
                    f"caller {identity.address_hex(tx.caller)} is not on the"
                    f" access list of chain {chain.name!r}"
                )
    index = len(chain.blocks)
    prev_hash = chain.tip_hash
    digest = candidate_digest(index, prev_hash, timestamp, transactions)
    endorsements: tuple[Endorsement, ...] = ()
    if chain.chain_class is ChainClass.CONSORTIUM:
        offered = endorse(digest) if endorse is not None else ()
        endorsements = _seal_quorum(chain, index, digest, offered)

    block = Block(index, prev_hash, timestamp, tuple(transactions), endorsements,
                  block_hash(digest, endorsements))
    chain.blocks.append(block)
    return block


def verify_chain(chain: Chain) -> VerificationReport:
    """Recompute every hash and link. Valid iff nothing was altered.

    first_bad_index is the earliest block whose stored fields do not match its
    contents or do not encode, or block 0 when it is not the genesis block
    every chain starts from: block 0 is never endorsed, so history in it
    would carry no signature. reason names the check it failed.
    """
    for i, block in enumerate(chain.blocks):
        if block.index != i:
            return VerificationReport(False, i, "index out of order")
        if block.prev_hash != (chain.blocks[i - 1].hash if i else GENESIS_PREV_HASH):
            return VerificationReport(False, i, "prev_hash does not link")
        try:
            if block_hash(block.digest, block.endorsements) != block.hash:
                return VerificationReport(False, i, "hash does not match")
        except (TypeError, ValueError):
            return VerificationReport(False, i, "contents not encodable")
        if i == 0 and block.hash != _genesis_block().hash:
            return VerificationReport(False, 0, "block 0 is not the genesis block")
    return VerificationReport(True, None)


def verify_endorsement_quorum(chain: Chain) -> VerificationReport:
    """Re-verify every non-genesis consortium block's endorsement quorum.

    A stored block is held to the strict rule: every endorsement it carries
    is a valid signature from a distinct validator, and there are at least
    2f+1 of them. Every signature is verified with Ed25519, even one this
    process made. first_bad_index is the earliest block that fails, and
    reason says which of those checks it failed.
    """
    if chain.chain_class is ChainClass.CONSORTIUM:
        needed = quorum_size(len(chain.validators))
        for i, block in enumerate(chain.blocks[1:], start=1):
            if len(block.endorsements) < needed:
                return VerificationReport(
                    False, i, f"{len(block.endorsements)} endorsements, need {needed}")
            seen: set[bytes] = set()
            for e in block.endorsements:
                fault = _endorsement_fault(block.digest, e, chain.validators, seen,
                                           identity.verify)
                if fault is not None:
                    return VerificationReport(False, i, fault)
    return VerificationReport(True, None)
