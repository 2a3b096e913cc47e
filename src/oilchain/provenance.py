"""Reverse traceability: rebuild a batch's history from ledger contents alone.

One walk of the consortium chain reads every record a report needs. The
tracking records must number the hops 1..n, each linked to the one before,
so the report covers the whole custody chain or fails loudly. Everything
here is read-only: hop linkage from deployment records, condition history
and each tracking contract's final stages from stage events, custody
movement from distribution events.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from . import ledger
from .contracts.base import stage_label
from .contracts.checkprogress import EVENT_NAME, STAGE_WORD, Stage, ViolationKind
from .contracts.distribution import SPINE
from .encoding import canon_decode, canon_encode
from .errors import CorruptLedger, UnknownBatch
from .identity import address_hex

REPORT_SCHEMA_VERSION = 1

# violation event name -> the kind it reports
VIOLATION_EVENTS = {event: kind.value for kind, event in EVENT_NAME.items()}

_STAGE_FROM_WORD = {word: stage for stage, word in STAGE_WORD.items()}

# which hop (by seller role) each distribution event belongs to
_EVENT_SELLER_ROLE = {step.event: step.seller.value for step in SPINE}

# the fields of a tracking record a hop summary reads, and their types
_TRACKING_FIELDS = {"hop": int, "seller_role": str, "buyer_role": str, "seller": bytes,
                    "buyer": bytes, "product": bytes, "predecessor": bytes}


@dataclass(frozen=True)
class ViolationEntry:
    kind: str
    stage: str          # High or Low
    tick: int
    message: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage, "tick": self.tick,
                "message": self.message}


@dataclass(frozen=True)
class DistributionEntry:
    name: str
    tick: int
    actor: str
    message: str

    def to_dict(self) -> dict:
        return {"name": self.name, "tick": self.tick, "actor": self.actor,
                "message": self.message}


@dataclass
class HopSummary:
    index: int
    seller_role: str
    buyer_role: str
    seller: str
    buyer: str
    product_contract: str
    tracking_contract: str
    predecessor: str | None
    violations: list[ViolationEntry] = field(default_factory=list)
    accurate_readings: int = 0
    distribution_events: list[DistributionEntry] = field(default_factory=list)
    # the stages the tracking contract keeps, read back from its stage events:
    # each kind's last stage (Accurate with none), and the kind of the newest
    # stage event, or None when that was Accurate; not serialized by to_dict
    final_state: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seller_role": self.seller_role,
            "buyer_role": self.buyer_role,
            "seller": self.seller,
            "buyer": self.buyer,
            "product_contract": self.product_contract,
            "tracking_contract": self.tracking_contract,
            "predecessor": self.predecessor,
            "violations": [v.to_dict() for v in self.violations],
            "accurate_readings": self.accurate_readings,
            "distribution_events": [d.to_dict() for d in self.distribution_events],
        }


@dataclass
class ProvenanceReport:
    batch_id: str
    hops: list[HopSummary]
    violation_totals: dict[str, int]
    clean: bool
    distribution_contract: bytes        # not serialized

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "batch_id": self.batch_id,
            "clean": self.clean,
            "violation_totals": dict(self.violation_totals),
            "hops": [h.to_dict() for h in self.hops],
        }

    def to_text(self) -> str:
        return "\n".join(batch_text(self.to_dict())) + "\n"


def batch_text(batch: dict) -> list[str]:
    """Text lines for one batch, from `ProvenanceReport.to_dict` or a run
    report batch, which carries the same fields."""
    lines = [
        f"batch {batch['batch_id']}: {'CLEAN' if batch['clean'] else 'VIOLATIONS FOUND'}",
        "violation totals: "
        + ", ".join(f"{k}={v}" for k, v in batch["violation_totals"].items()),
    ]
    for hop in batch["hops"]:
        lines.append(
            f"  hop {hop['index']}: {hop['seller_role']} -> {hop['buyer_role']}"
            f"  tracking={hop['tracking_contract']}"
        )
        lines.append(
            f"    accurate readings: {hop['accurate_readings']},"
            f" violations: {len(hop['violations'])}"
        )
        for v in hop["violations"]:
            lines.append(f"    [tick {v['tick']}] {v['kind']} {v['stage']}: {v['message']}")
        for d in hop["distribution_events"]:
            lines.append(f"    [tick {d['tick']}] {d['name']}: {d['message']}")
    return lines


def _wanted_meta(chain: ledger.Chain, block: ledger.Block, tx: ledger.Transaction,
                 wanted: Set[str], entries: list[bytes]) -> dict | None:
    """The annotations of a deployment whose `meta["batch"]` is in `wanted`, else None.

    A deployment naming batch `b` holds the encoded key "batch" then the
    encoded `b`, one of `entries` for a wanted `b`; one holding none of them
    is not decoded.
    """
    if not any(entry in tx.args for entry in entries):
        return None
    try:
        record = canon_decode(tx.args)
    except ValueError as exc:
        raise _corrupt(chain, block, f"deployment record does not decode: {exc}") from None
    meta = record.get("meta", {}) if isinstance(record, dict) else None
    if not isinstance(meta, dict):
        raise _corrupt(chain, block, "deployment record is not a mapping")
    batch_id = meta.get("batch")
    return meta if isinstance(batch_id, str) and batch_id in wanted else None


def _corrupt(chain: ledger.Chain, block: ledger.Block, problem: str) -> CorruptLedger:
    return CorruptLedger(f"chain {chain.name!r} block {block.index}: {problem}")


def _event_arg(chain: ledger.Chain, block: ledger.Block, event: ledger.Event,
               name: str) -> str:
    try:
        return str(event.arg(name))
    except KeyError:
        raise _corrupt(chain, block, f"{event.name} event has no {name!r} arg") from None


def build_report(chain: ledger.Chain, batch_id: str) -> ProvenanceReport:
    """The batch's report, from one walk of the chain."""
    return build_reports(chain, [batch_id])[0]


def build_reports(chain: ledger.Chain, batch_ids: list[str]) -> list[ProvenanceReport]:
    """Reports for distinct batch ids, in the order given, from one walk of the chain.

    A deployment that names a wanted batch registers its contract, and each
    later transaction on it contributes its events: an event belongs to the
    contract its transaction calls.
    """
    tracking_meta: dict[str, dict[bytes, dict]] = {b: {} for b in batch_ids}
    distribution_of: dict[str, bytes] = {}
    events_of: dict[bytes, list[tuple[ledger.Block, ledger.Event]]] = {}
    entries = [canon_encode("batch") + canon_encode(b) for b in batch_ids]
    for block in chain.blocks:
        for tx in block.transactions:
            if (tx.function == "constructor"
                    and (meta := _wanted_meta(chain, block, tx, tracking_meta.keys(), entries))):
                if meta.get("record") == "tracking":
                    for name, kind in _TRACKING_FIELDS.items():
                        if not isinstance(meta.get(name), kind):
                            raise _corrupt(chain, block, f"tracking record field {name!r}"
                                                         f" is not {kind.__name__}")
                    tracking_meta[meta["batch"]][tx.contract] = meta
                elif meta.get("record") == "distribution":
                    distribution_of[meta["batch"]] = tx.contract
                events_of.setdefault(tx.contract, [])
            elif tx.contract in events_of:
                for event in tx.events:
                    if event.emitter != tx.contract:
                        raise _corrupt(chain, block, f"{event.name} event's emitter is not its"
                                       f" transaction's contract {address_hex(tx.contract)}")
                    events_of[tx.contract].append((block, event))

    reports: list[ProvenanceReport] = []
    for batch_id in batch_ids:
        totals = dict.fromkeys(VIOLATION_EVENTS.values(), 0)
        hops: list[HopSummary] = []
        for addr in _hop_order(batch_id, tracking_meta[batch_id]):
            meta = tracking_meta[batch_id][addr]
            summary = HopSummary(
                index=meta["hop"],
                seller_role=meta["seller_role"],
                buyer_role=meta["buyer_role"],
                seller=address_hex(meta["seller"]),
                buyer=address_hex(meta["buyer"]),
                product_contract=address_hex(meta["product"]),
                tracking_contract=address_hex(addr),
                predecessor=address_hex(meta["predecessor"]) if meta["predecessor"] else None,
            )
            latest: dict[str, Stage] = {}       # stage event name -> its newest stage
            stage = Stage.ACCURATE              # after the loop: the newest stage event's
            for block, event in events_of[addr]:
                if event.name not in VIOLATION_EVENTS:
                    continue
                try:
                    message = str(event.arg("msg"))
                    stage = _STAGE_FROM_WORD[message.split(" ", 1)[0]]
                except KeyError:
                    raise _corrupt(chain, block, f"{event.name} event's 'msg' arg names no"
                                                 f" stage") from None
                latest[event.name] = stage
                if stage is Stage.ACCURATE:
                    summary.accurate_readings += 1
                else:
                    kind = VIOLATION_EVENTS[event.name]
                    summary.violations.append(ViolationEntry(
                        kind=kind, stage=stage_label(stage), tick=block.timestamp,
                        message=message,
                    ))
                    totals[kind] += 1
            summary.final_state = {
                kind.lower(): stage_label(latest.get(name, Stage.ACCURATE))
                for name, kind in VIOLATION_EVENTS.items()}
            # a newest stage event that is no Accurate reading is the last violation
            summary.final_state["violation_type"] = (
                summary.violations[-1].kind if stage is not Stage.ACCURATE
                else ViolationKind.NONE.value)
            hops.append(summary)
        if batch_id not in distribution_of:
            raise CorruptLedger(f"batch {batch_id!r} has hops but no distribution record")
        by_role = {s.seller_role: s for s in hops}
        for block, event in events_of[distribution_of[batch_id]]:
            summary = by_role.get(_EVENT_SELLER_ROLE.get(event.name))
            if summary is not None:
                summary.distribution_events.append(DistributionEntry(
                    name=event.name,
                    tick=block.timestamp,
                    actor=_event_arg(chain, block, event, "ad"),
                    message=_event_arg(chain, block, event, "msg"),
                ))
        reports.append(ProvenanceReport(batch_id=batch_id, hops=hops, violation_totals=totals,
                                        clean=not any(totals.values()),
                                        distribution_contract=distribution_of[batch_id]))
    return reports


def _hop_order(batch_id: str, tracking_meta: dict[bytes, dict]) -> list[bytes]:
    """The batch's tracking contracts by hop number, checked to number the hops
    1..n, each naming the one before as its predecessor (the first none)."""
    if not tracking_meta:
        raise UnknownBatch(f"no hops recorded for batch {batch_id!r}")
    ordered = sorted(tracking_meta, key=lambda addr: tracking_meta[addr]["hop"])
    previous = b""
    for number, addr in enumerate(ordered, start=1):
        if (tracking_meta[addr]["hop"], tracking_meta[addr]["predecessor"]) != (number, previous):
            raise CorruptLedger(f"batch {batch_id!r} hop {number}: tracking records do not"
                                f" number the hops 1..n, each linked to the one before")
        previous = addr
    return ordered
