"""Forgeries of a stored chain, made the way an attacker with file access would.

Each helper takes a `ledger.Chain`, as `store.load_chain` reads it, and
returns a forged copy; `store.save_chain` writes that back, manifest tip
included. Going through the store's own codec, a forgery is refused only
where a check catches it, never on format.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from typing import Callable, Sequence

from oilchain import identity, ledger
from oilchain.encoding import canon_decode, canon_encode


def drop_events(chain: ledger.Chain, erased: Callable[[ledger.Event], bool]) -> ledger.Chain:
    """The chain without the events `erased` picks; every hash goes stale."""
    blocks = [replace(block, transactions=tuple(
        replace(tx, events=tuple(e for e in tx.events if not erased(e)))
        for tx in block.transactions)) for block in chain.blocks]
    return replace(chain, blocks=blocks)


def edit_records(chain: ledger.Chain, function: str,
                 edit: Callable[[dict], dict]) -> ledger.Chain:
    """The chain with every `function` record's payload passed through `edit`."""
    blocks = [replace(block, transactions=tuple(
        replace(tx, args=canon_encode(edit(canon_decode(tx.args))))
        if tx.function == function else tx
        for tx in block.transactions)) for block in chain.blocks]
    return replace(chain, blocks=blocks)


def rehash(chain: ledger.Chain,
           signers: Sequence[identity.KeyPair] | None = None) -> ledger.Chain:
    """The chain re-linked and re-hashed from genesis on.

    With `signers`, they become the consortium's validator set and every block
    carries a fresh quorum of their endorsements; without, each block keeps
    the endorsements it had, now over a digest they did not sign.
    """
    validators = chain.validators
    if signers is not None:
        validators = tuple(sorted(s.address for s in signers))
    blocks: list[ledger.Block] = []
    prev_hash = ledger.GENESIS_PREV_HASH
    for block in chain.blocks:
        digest = ledger.candidate_digest(block.index, prev_hash, block.timestamp,
                                         block.transactions)
        endorsements = block.endorsements
        if signers is not None and block.index > 0:
            endorsements = tuple(islice(ledger.collect_endorsements(digest, signers),
                                        ledger.quorum_size(len(signers))))
        blocks.append(replace(block, prev_hash=prev_hash, endorsements=endorsements,
                              hash=ledger.block_hash(digest, endorsements)))
        prev_hash = blocks[-1].hash
    return replace(chain, validators=validators, blocks=blocks)
