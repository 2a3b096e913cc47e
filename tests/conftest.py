"""Shared fixtures: deterministic actors, chains, and a wired supply chain."""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st

from oilchain import identity, ledger, runtime
from oilchain.encoding import canon_decode
from oilchain.identity import Role
from oilchain.runtime import LogicalClock, Runtime
from oilchain.scenario import BatchSpec, Scenario, build_run_report
from oilchain.telemetry import RECORD_FUNCTION
from oilchain.workflow import (
    SETTLEMENT_FUNCTION,
    Setpoints,
    SupplyChain,
    TermSheet,
    Topology,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

FIVE_ROLES = [Role.DRILLER, Role.REFINERY, Role.STORAGE, Role.PUMP, Role.CONSUMER]

# per-hop telemetry durations of batches 102 and 103 in `three_batch_doc`
THREE_BATCH_DURATIONS = {"102": (2, 2, 9, 2), "103": (7, 3, 4, 5)}


def three_batch_doc() -> dict:
    """`happy_path.json` with two more clones of its batch, each with its own
    hop durations, so the batches fall out of step: blocks mix one batch's
    deploys with another's checks or delivery, and a settlement shares a
    private block with another batch's telemetry records."""
    doc = json.loads((SCENARIO_DIR / "happy_path.json").read_text())
    for batch_id, durations in THREE_BATCH_DURATIONS.items():
        batch = copy.deepcopy(doc["batches"][0])
        batch["batch_id"] = batch_id
        for hop, duration in zip(batch["hops"], durations):
            hop["telemetry"]["duration"] = duration
        doc["batches"].append(batch)
    return doc


@pytest.fixture
def topology() -> Topology:
    return Topology.from_seed(FIVE_ROLES, validator_count=4, seed=7)


@pytest.fixture
def supply(topology) -> SupplyChain:
    return SupplyChain(topology, seed=7)


@pytest.fixture
def setpoints() -> Setpoints:
    return Setpoints(temperature=22, humidity=10, pressure=8)


def standard_terms(setpoints: Setpoints, price: int = 100, quantity: int = 10,
                   passphrase: str | None = None) -> TermSheet:
    return TermSheet(oil_id="101", oil_name="Petrol", quantity=quantity,
                     price=price, setpoints=setpoints, passphrase=passphrase)


def settlement_records(supply: SupplyChain) -> list[tuple[int, dict]]:
    """(tick, decoded payload) of every settlement on the ledgers, by tick."""
    return sorted(
        ((block.timestamp, canon_decode(tx.args))
         for chain in supply.all_chains() for block in chain.blocks
         for tx in block.transactions if tx.function == SETTLEMENT_FUNCTION),
        key=lambda record: record[0],
    )


def hand_report(supply: SupplyChain) -> dict:
    """The run report of a supply chain driven by hand, its batches in registration order."""
    batches = tuple(BatchSpec(batch_id, "Petrol", Setpoints(0, 0, 0), ())
                    for batch_id in supply.batches)
    scenario = Scenario("by-hand", supply.seed, len(supply.topology.validators), 0, (), batches)
    return build_run_report(scenario, supply, supply.seed, runtime.DEFAULT_ETH_USD)


def report_hops(supply: SupplyChain) -> list[dict]:
    """The run report's hop records, batch by batch, for a supply chain driven by hand."""
    return [hop for batch in hand_report(supply)["batches"] for hop in batch["hops"]]


def telemetry_records(supply: SupplyChain, hop, kind: str | None = None) -> list[dict]:
    """The decoded raw-telemetry records of a hop, oldest first, optionally of one kind."""
    chain = supply.private_runtime(hop.seller.address).chain
    records = [canon_decode(tx.args) for block in chain.blocks for tx in block.transactions
               if tx.function == RECORD_FUNCTION and tx.contract == hop.product_contract]
    return [r for r in records if kind is None or r["kind"] == kind]


def ed25519_verifies():
    """Counts Ed25519 verifies: `identity.verify` builds one public key per call."""
    return mock.patch.object(identity.Ed25519PublicKey, "from_public_bytes",
                             wraps=identity.Ed25519PublicKey.from_public_bytes)


def pbkdf2_derivations():
    """Counts PBKDF2 derivations: `identity` derives through `hashlib.pbkdf2_hmac`."""
    return mock.patch.object(hashlib, "pbkdf2_hmac", wraps=hashlib.pbkdf2_hmac)


def make_validators(count: int, seed: int = 99) -> list[identity.KeyPair]:
    return [identity.generate_device(f"validator:{i}", seed) for i in range(count)]


def make_consortium(count: int = 4, seed: int = 99):
    """(chain, validator keypairs) with a fresh genesis block."""
    validators = make_validators(count, seed)
    chain = ledger.new_consortium_chain("consortium", [v.address for v in validators])
    return chain, validators


def consortium_runtime(count: int = 4, seed: int = 99):
    """(runtime, validators, clock) over a fresh consortium chain."""
    chain, validators = make_consortium(count, seed)
    clock = LogicalClock()

    def endorse(digest: bytes):
        return ledger.collect_endorsements(digest, validators)

    return Runtime(chain, clock, endorse), validators, clock


# --- single-node edits of JSON documents ----------------------------------------
#
# Used by the properties that replace one node of a scenario file or one
# value of a stored block record with an arbitrary JSON value.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner,
                                                                max_size=4),
    max_leaves=10,
)


def node_paths(node, path=()):
    """The key path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


def with_node_replaced(doc, path, value):
    """A deep copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# --- random chains and single-byte mutations ---------------------------------------
#
# Used by the tamper-evidence tests: build a chain with arbitrary content,
# flip one byte (or one integer bit) somewhere, and expect verification to
# point at or before the mutated block.

def build_random_chain(rng: random.Random, n_blocks: int,
                       consortium: bool = False) -> ledger.Chain:
    callers = [bytes([i]) * 20 for i in range(1, 4)]
    validators: list[identity.KeyPair] = []
    if consortium:
        validators = make_validators(4, seed=rng.randrange(2**31))
        chain = ledger.new_consortium_chain("consortium", [v.address for v in validators])
    else:
        chain = ledger.new_private_chain("scratch", set(callers))
    for b in range(n_blocks - 1):
        txs = []
        for _ in range(rng.randint(1, 3)):
            events = tuple(
                ledger.Event(
                    name=rng.choice(["PressureViolation", "InitiateDist", "oilAdded"]),
                    emitter=rng.randbytes(20),
                    args=(("addr", "0x" + rng.randbytes(4).hex()),
                          ("msg", rng.choice(["Lower Pressure", "Accurate Humidity"]))),
                )
                for _ in range(rng.randint(0, 2))
            )
            txs.append(ledger.Transaction(
                caller=rng.choice(callers),
                contract=rng.randbytes(20),
                function=rng.choice(["CheckPressure", "EnterOil", "settlement"]),
                args=rng.randbytes(rng.randint(1, 24)),
                gas_used=rng.randint(21000, 140000),
                events=events,
            ))
        ledger.append_block(chain, txs, b + 1,
                            lambda d: ledger.collect_endorsements(d, validators))
    return chain


def _flip_bytes(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data))
    return data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1:]


def _flip_str(text: str, rng: random.Random) -> str:
    pos = rng.randrange(len(text))
    replacement = "x" if text[pos] != "x" else "y"
    return text[:pos] + replacement + text[pos + 1:]


def _mutate_event(event: ledger.Event, rng: random.Random) -> ledger.Event:
    choice = rng.choice(["name", "emitter", "arg"])
    if choice == "name":
        return replace(event, name=_flip_str(event.name, rng))
    if choice == "emitter":
        return replace(event, emitter=_flip_bytes(event.emitter, rng))
    idx = rng.randrange(len(event.args))
    key, value = event.args[idx]
    new_value = _flip_str(value, rng) if isinstance(value, str) else value ^ 1
    args = list(event.args)
    args[idx] = (key, new_value)
    return replace(event, args=tuple(args))


def _mutate_tx(tx: ledger.Transaction, rng: random.Random) -> ledger.Transaction:
    fields = ["caller", "contract", "function", "gas_used"]
    if tx.args:
        fields.append("args")
    if tx.events:
        fields.append("events")
    choice = rng.choice(fields)
    if choice == "caller":
        return replace(tx, caller=_flip_bytes(tx.caller, rng))
    if choice == "contract":
        return replace(tx, contract=_flip_bytes(tx.contract, rng))
    if choice == "function":
        return replace(tx, function=_flip_str(tx.function, rng))
    if choice == "gas_used":
        return replace(tx, gas_used=tx.gas_used ^ 1)
    if choice == "args":
        return replace(tx, args=_flip_bytes(tx.args, rng))
    events = list(tx.events)
    idx = rng.randrange(len(events))
    events[idx] = _mutate_event(events[idx], rng)
    return replace(tx, events=tuple(events))


def mutate_chain(chain: ledger.Chain, rng: random.Random) -> tuple[ledger.Chain, int]:
    """Copy the chain with a single-byte mutation somewhere in one block.

    Returns (mutated_chain, index of the mutated block).
    """
    blocks = list(chain.blocks)
    i = rng.randrange(len(blocks))
    block = blocks[i]
    fields = ["index", "prev_hash", "timestamp", "hash"]
    if block.transactions:
        fields.append("transactions")
    if block.endorsements:
        fields.append("endorsements")
    choice = rng.choice(fields)
    if choice == "index":
        block = replace(block, index=block.index ^ 1)
    elif choice == "prev_hash":
        block = replace(block, prev_hash=_flip_bytes(block.prev_hash, rng))
    elif choice == "timestamp":
        block = replace(block, timestamp=block.timestamp ^ 1)
    elif choice == "hash":
        block = replace(block, hash=_flip_bytes(block.hash, rng))
    elif choice == "transactions":
        txs = list(block.transactions)
        idx = rng.randrange(len(txs))
        txs[idx] = _mutate_tx(txs[idx], rng)
        block = replace(block, transactions=tuple(txs))
    else:
        endorsements = list(block.endorsements)
        idx = rng.randrange(len(endorsements))
        e = endorsements[idx]
        if rng.random() < 0.5:
            endorsements[idx] = replace(e, public_key=_flip_bytes(e.public_key, rng))
        else:
            endorsements[idx] = replace(e, signature=_flip_bytes(e.signature, rng))
        block = replace(block, endorsements=tuple(endorsements))
    blocks[i] = block
    mutated = ledger.Chain(
        chain_class=chain.chain_class,
        name=chain.name,
        acl=set(chain.acl),
        validators=chain.validators,
        blocks=blocks,
    )
    return mutated, i
