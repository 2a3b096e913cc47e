"""Ledger persistence: one directory per chain, JSON manifest + JSONL blocks.

Layout under a store root:

    <root>/<chain-dir>/manifest.json   chain class, name, ACL or validators, tip
    <root>/<chain-dir>/blocks.jsonl    one self-describing block record per line

Loading re-verifies every chain and refuses anything that fails: a parse
error, a malformed manifest or a hash/link mismatch raises CorruptLedger
naming the chain directory (and, for a block record, its line) or the first
bad block.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Iterable

from . import ledger
from .errors import CorruptLedger, InvalidValidatorSet

STORE_SCHEMA_VERSION = 2
_MANIFEST = "manifest.json"
_BLOCKS = "blocks.jsonl"


def chain_dir_name(chain: ledger.Chain) -> str:
    if chain.chain_class is ledger.ChainClass.CONSORTIUM:
        return "consortium"
    return f"private-{chain.name}" if not chain.name.startswith("private-") else chain.name


# --- record conversion --------------------------------------------------------

def _event_to_record(e: ledger.Event) -> dict:
    return {"name": e.name, "emitter": e.emitter.hex(), "args": [[k, v] for k, v in e.args]}


def _tx_to_record(tx: ledger.Transaction) -> dict:
    return {
        "caller": tx.caller.hex(),
        "contract": tx.contract.hex(),
        "function": tx.function,
        "args": tx.args.hex(),
        "gas_used": tx.gas_used,
        "events": [_event_to_record(e) for e in tx.events],
    }


def block_to_record(block: ledger.Block) -> dict:
    return {
        "index": block.index,
        "prev_hash": block.prev_hash.hex(),
        "timestamp": block.timestamp,
        "transactions": [_tx_to_record(t) for t in block.transactions],
        "endorsements": [
            {"public_key": e.public_key.hex(), "signature": e.signature.hex()}
            for e in block.endorsements
        ],
        "hash": block.hash.hex(),
    }


def block_from_record(rec: dict) -> ledger.Block:
    fromhex = bytes.fromhex
    Event, Transaction, Endorsement = ledger.Event, ledger.Transaction, ledger.Endorsement
    return ledger.Block(
        rec["index"],
        fromhex(rec["prev_hash"]),
        rec["timestamp"],
        tuple([
            Transaction(
                fromhex(t["caller"]), fromhex(t["contract"]), t["function"],
                fromhex(t["args"]), t["gas_used"],
                tuple([Event(e["name"], fromhex(e["emitter"]),
                             tuple([(k, v) for k, v in e["args"]]))
                       for e in t["events"]]),
            )
            for t in rec["transactions"]
        ]),
        tuple([Endorsement(fromhex(e["public_key"]), fromhex(e["signature"]))
               for e in rec["endorsements"]]),
        fromhex(rec["hash"]),
    )


# --- save / load ---------------------------------------------------------------

def save_chain(root: Path, chain: ledger.Chain) -> Path:
    directory = root / chain_dir_name(chain)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": STORE_SCHEMA_VERSION,
        "class": chain.chain_class.value,
        "name": chain.name,
        "tip_hash": chain.tip_hash.hex(),
    }
    if chain.chain_class is ledger.ChainClass.PRIVATE:
        manifest["acl"] = sorted(a.hex() for a in chain.acl)
    else:
        manifest["validators"] = [v.hex() for v in chain.validators]
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    with (directory / _BLOCKS).open("w") as fh:
        for block in chain.blocks:
            fh.write(json.dumps(block_to_record(block), separators=(",", ":")) + "\n")
    return directory


def save_store(root: Path, chains: Iterable[ledger.Chain]) -> None:
    """Save every chain under root, then remove any other chain directory
    (one holding a manifest) an earlier save left there, so that loading the
    store yields exactly these chains. Nothing else under root is touched."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    saved = {save_chain(root, chain) for chain in chains}
    for directory in _chain_dirs(root):
        if directory not in saved:
            shutil.rmtree(directory)


def _chain_dirs(root: Path) -> list[Path]:
    """Every directory under root that holds a chain manifest, by name."""
    return sorted(p for p in root.iterdir() if p.is_dir() and (p / _MANIFEST).exists())


def load_chain(directory: Path) -> ledger.Chain:
    """Load and re-verify one chain directory. Raises CorruptLedger on any
    parse failure, malformed manifest, hash mismatch, or manifest/tip
    disagreement."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / _MANIFEST).read_text())
    except (OSError, ValueError) as exc:
        raise CorruptLedger(f"unreadable manifest in {directory.name}: {exc}") from exc
    try:
        if not isinstance(manifest, dict):
            raise TypeError("expected an object")
        version = manifest.get("schema_version")
        if version != STORE_SCHEMA_VERSION:
            raise ValueError(f"schema_version {version!r} unsupported")
        chain_class = ledger.ChainClass(manifest.get("class"))
        name = manifest.get("name")
        if not isinstance(name, str):
            raise TypeError(f"name must be a string, got {name!r}")
        key = "acl" if chain_class is ledger.ChainClass.PRIVATE else "validators"
        addresses = [bytes.fromhex(a) for a in manifest.get(key, [])]
        if key == "validators":
            ledger.quorum_fault_bound(len(addresses))
    except (TypeError, ValueError, InvalidValidatorSet) as exc:
        raise CorruptLedger(f"invalid manifest in {directory.name}: {exc}") from None

    blocks = []
    try:
        # read as bytes, so that a line that is not UTF-8 fails at its own number
        with (directory / _BLOCKS).open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    blocks.append(block_from_record(json.loads(line.decode("utf-8"))))
    except OSError as exc:
        raise CorruptLedger(f"unreadable block record in {directory.name}: {exc}") from exc
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise CorruptLedger(
            f"unreadable block record in {directory.name} line {lineno}: {exc}"
        ) from exc

    members = {"acl": set(addresses)} if key == "acl" else {"validators": tuple(addresses)}
    chain = ledger.Chain(chain_class=chain_class, name=name, blocks=blocks, **members)
    report = ledger.verify_chain(chain)
    if not report.valid:
        raise CorruptLedger(
            f"chain {chain.name!r} failed verification,"
            f" first_bad_index={report.first_bad_index}",
            first_bad_index=report.first_bad_index,
        )
    if not blocks or manifest.get("tip_hash") != chain.tip_hash.hex():
        raise CorruptLedger(
            f"chain {chain.name!r} manifest tip does not match block file"
        )
    return chain


def load_store(root: Path) -> dict[str, ledger.Chain]:
    """Load every chain directory under root, keyed by directory name."""
    root = Path(root)
    if not root.is_dir():
        raise CorruptLedger(f"store directory {root} does not exist")
    chains = {}
    for directory in _chain_dirs(root):
        chains[directory.name] = load_chain(directory)
    if not chains:
        raise CorruptLedger(f"store directory {root} holds no chains")
    return chains
