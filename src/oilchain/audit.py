"""One audit behind every read of a store: `verify` prints each chain's
finding, and `trace` renders only from an audit that found none.

The checks run in order: structure (`store.load_store`), each chain's
endorsement quorum, a replay of the contracts asked about, and, unless the
consortium chain failed, the cross-chain check. A chain's finding is the
first check it fails, or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import ledger, provenance, runtime, store
from .encoding import canon_decode
from .errors import CorruptLedger
from .identity import address_hex
from .workflow import SETTLEMENT_FUNCTION

CONSORTIUM = "consortium"


class Finding(NamedTuple):
    check: str          # QUORUM, REPLAY or CROSS-CHAIN
    block: int
    reason: str

    @property
    def status(self) -> str:
        return f"{self.check} FAILED at block {self.block}"


@dataclass(frozen=True)
class Audit:
    chains: dict[str, ledger.Chain]             # by directory name
    findings: dict[str, Finding | None]
    report: provenance.ProvenanceReport | None  # the batch asked about, if its chain passed

    def refuse(self) -> None:
        """Raise CorruptLedger naming the first chain that failed a check, if one did."""
        for name, found in self.findings.items():
            if found:
                raise CorruptLedger(f"{name}: {found.status}: {found.reason}", found.block)


def audit(root: Path, batch_id: str | None = None) -> Audit:
    """Audit the store under root. With `batch_id`, replay that batch's tracking
    and distribution contracts and keep its report; without, every contract."""
    chains = store.load_store(root)
    if batch_id is not None and CONSORTIUM not in chains:
        raise CorruptLedger("store holds no consortium chain")
    findings: dict[str, Finding | None] = dict.fromkeys(chains)
    report = None
    for name, chain in chains.items():
        quorum = ledger.verify_endorsement_quorum(chain)
        if not quorum:
            findings[name] = Finding("QUORUM", quorum.first_bad_index, quorum.reason)
            continue
        if batch_id is None:
            contracts = {tx.contract for block in chain.blocks for tx in block.transactions}
        elif name == CONSORTIUM:
            report = provenance.build_report(chain, batch_id)
            contracts = {report.distribution_contract} | {
                bytes.fromhex(hop.tracking_contract[2:]) for hop in report.hops}
        else:
            continue
        try:
            runtime.replay(chain, contracts)
        except CorruptLedger as exc:
            at = exc.first_bad_index
            findings[name] = Finding("REPLAY", at, str(exc).removeprefix(
                f"chain {chain.name!r} block {at}: "))
    if not findings.get(CONSORTIUM):
        findings.update(_cross_chain(chains, findings))
    return Audit(chains, findings, report)


def _cross_chain(chains: dict[str, ledger.Chain],
                 earlier: dict[str, Finding | None]) -> dict[str, Finding]:
    """The first record of each chain that breaks the cross-chain rule: a
    product deployment or settlement record that no tracking record of its
    chain's seller names, or a tracking record whose product its seller's
    chain does not deploy. A private chain with an `earlier` finding is left
    out, on both sides, so its fault is not counted against the consortium."""
    tracked: dict[tuple, tuple[str, int]] = {}     # key -> (seller's chain, block)
    for block, tx in _transactions(chains.get(CONSORTIUM), "constructor"):
        meta = _fields(tx, "meta")
        if meta.get("record") == "tracking" and (key := _key(meta, meta.get("product"))):
            tracked[key] = (f"private-{str(meta.get('seller_role')).lower()}", block.index)

    findings: dict[str, Finding] = {}
    deployed: set[tuple] = set()                    # (key, chain) of every product
    for name, chain in chains.items():
        if chain.chain_class is not ledger.ChainClass.PRIVATE or earlier[name]:
            continue
        for block, tx in _transactions(chain, "constructor", SETTLEMENT_FUNCTION):
            if tx.function == "constructor":
                what, fields = "product", _fields(tx, "meta")
                if fields.get("record") != what:
                    continue
            else:
                what, fields = tx.function, _fields(tx)
            key = _key(fields, tx.contract)
            owner = tracked[key][0] if key in tracked else None
            if owner == name:
                if what == "product":
                    deployed.add((key, name))
                continue
            if key is None:
                reason = f"{what} record names no batch and hop"
            else:
                batch, hop, product = key
                reason = (f"{what} of batch {batch!r} hop {hop} ({address_hex(product)})"
                          + (f" is tracked on {CONSORTIUM} as {owner}'s" if owner else
                             f" has no tracking record on {CONSORTIUM}"))
            findings.setdefault(name, Finding("CROSS-CHAIN", block.index, reason))

    for key, (owner, index) in tracked.items():
        if (key, owner) not in deployed and earlier.get(owner) is None:
            batch, hop, product = key
            findings.setdefault(CONSORTIUM, Finding(
                "CROSS-CHAIN", index, f"tracking record of batch {batch!r} hop {hop}"
                f" names product {address_hex(product)}, which {owner} does not deploy"))
    return findings


def _transactions(chain: ledger.Chain | None, *functions: str):
    """(block, transaction) for each transaction of the chain calling one of `functions`."""
    for block in chain.blocks if chain is not None else ():
        for tx in block.transactions:
            if tx.function in functions:
                yield block, tx


def _fields(tx: ledger.Transaction, key: str | None = None) -> dict:
    """The mapping the transaction's args decode to, or the one under `key` in
    it; empty when there is none."""
    try:
        value = canon_decode(tx.args)
    except ValueError:
        return {}
    if key is not None:
        value = value.get(key) if isinstance(value, dict) else None
    return value if isinstance(value, dict) else {}


def _key(fields: dict, product: object) -> tuple[str, int, bytes] | None:
    """(batch, hop, product) when `fields` names a batch and hop and the product
    is an address, else None."""
    batch, hop = fields.get("batch"), fields.get("hop")
    if isinstance(batch, str) and isinstance(hop, int) and isinstance(product, bytes):
        return batch, hop, product
    return None
